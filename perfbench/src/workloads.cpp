#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <utility>

#include "circuit/workloads.hpp"
#include "cloud/topologies.hpp"
#include "common/rng.hpp"
#include "core/streaming.hpp"
#include "decorators.hpp"
#include "schedule/frontier_router.hpp"
#include "sim/network_sim.hpp"

// Every workload is sized so that its simulated outputs are steady across
// seeds, not only reproducible for one seed: a run covers enough jobs
// that a new seed moves jct_* and makespan by a few percent. perfbench/README.md records the measured
// spreads and what each sizing choice guards against.

namespace perfbench {
namespace {

using cloudqc::Circuit;
using cloudqc::QuantumCloud;
using cloudqc::Rng;

// Sub-streams of the workload seed, one per generated input.
enum Stream : std::uint64_t {
  kTraceStream = 2,
  kEngineStream,
};

std::uint64_t sub_seed(std::uint64_t seed, Stream stream) {
  return cloudqc::stream_seed(seed, stream);
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Mean, median and tail of exact per-job JCTs (at least 11 of them).
void fill_jct(std::vector<double> jcts, Outputs& out) {
  const std::size_t n = jcts.size();
  if (n < 11) return;  // check_common reports it
  std::sort(jcts.begin(), jcts.end());
  double sum = 0.0;
  for (const double j : jcts) sum += j;
  out.jct_mean = sum / static_cast<double>(n);
  out.jct_p50 = jcts[(n + 1) / 2 - 1];
  out.jct_tail = jcts[n - 11];
  out.jct_tail_pct =
      100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
}

std::vector<Circuit> build_templates(const std::vector<std::string>& names) {
  std::vector<Circuit> out;
  out.reserve(names.size());
  for (const std::string& name : names) {
    out.push_back(cloudqc::make_workload(name));
  }
  return out;
}

/// Identities every workload must satisfy; returns what failed.
std::string check_common(const RunResult& r, const QuantumCloud& cloud) {
  const Outputs& o = r.outputs;
  if (o.completed < 11) return "fewer than 11 completed jobs";
  if (cloud.total_free_computing() != cloud.total_computing_capacity()) {
    return "computing qubits still reserved after the run";
  }
  const cloudqc::PlacementCacheStats& c = o.cache;
  if (c.lookups != c.exact_hits + c.warm_hits + c.misses) {
    return "cache lookups != exact + warm + misses";
  }
  if (r.counts.uses_cache &&
      r.counts.place_calls != c.warm_hits + c.misses) {
    return "placer calls != cache warm hits + misses";
  }
  return {};
}

// ------------------------------------------------------------ stream-cached

/// Replays a pre-drawn arrival schedule over shared circuit templates.
class ScheduleSource final : public cloudqc::JobSource {
 public:
  ScheduleSource(const std::vector<Circuit>& templates,
                 const std::vector<std::pair<double, std::size_t>>& schedule)
      : templates_(templates), schedule_(schedule) {}

  std::optional<cloudqc::ArrivingJob> next() override {
    if (next_ == schedule_.size()) return std::nullopt;
    const auto& [arrival, pick] = schedule_[next_++];
    return cloudqc::ArrivingJob{templates_[pick], arrival};
  }

 private:
  const std::vector<Circuit>& templates_;
  const std::vector<std::pair<double, std::size_t>>& schedule_;
  std::size_t next_ = 0;
};

// Open loop in simulated time on the paper's default cloud: arrivals at a
// mean gap below saturation, so the backlog stays bounded and JCT does not
// drift with run length; the cache sees the same six fingerprints again
// and again.
//
// The ER topology is one fixed draw, the same for every workload seed:
// placement cost depends on the drawn graph, and redrawing it per seed
// moved jobs_per_s by 15% (IQR / median over ten seeds).
class StreamCached final : public Workload {
 public:
  explicit StreamCached(bool tiny) : num_jobs_(tiny ? 40 : 200) {}

  SetupTimes setup(std::uint64_t seed) override {
    SetupTimes t;
    const std::int64_t t0 = now_ns();
    Rng cloud_rng(kTopologySeed);
    cloud_ = std::make_unique<QuantumCloud>(cloudqc::CloudConfig{}, cloud_rng);
    t.cloud_s = seconds_since(t0);
    const std::int64_t t1 = now_ns();
    templates_ = build_templates({"ising_n34", "qugan_n39", "vqe_uccsd_n28",
                                  "qaoa_n50", "qft_n29", "ising_n66"});
    // Arrivals: N points uniform over [0, N * gap), i.e. a Poisson process
    // conditioned on N arrivals in that window, so the trace length does
    // not vary with the seed. Circuits: a fixed multiset (kMix repeated),
    // in seeded order.
    Rng trace_rng(sub_seed(seed, kTraceStream));
    std::vector<double> arrivals;
    std::vector<std::size_t> picks;
    for (int i = 0; i < num_jobs_; ++i) {
      arrivals.push_back(trace_rng.uniform() * kMeanGap * num_jobs_);
      picks.push_back(kMix[static_cast<std::size_t>(i) % kMix.size()]);
    }
    std::sort(arrivals.begin(), arrivals.end());
    trace_rng.shuffle(picks);
    schedule_.clear();
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      schedule_.emplace_back(arrivals[i], picks[i]);
    }
    t.circuits_s = seconds_since(t1);
    placer_ = cloudqc::make_cloudqc_placer();
    allocator_ = cloudqc::make_cloudqc_allocator();
    engine_seed_ = sub_seed(seed, kEngineStream);
    t.total_s = seconds_since(t0);
    return t;
  }

  RunResult run(Tracer* tracer) override {
    const TracedPlacer placer(*placer_, tracer);
    const TracedAllocator allocator(*allocator_, tracer);
    cloudqc::PlacementCache cache;
    ScheduleSource source(templates_, schedule_);
    cloudqc::StreamingOptions opts;
    opts.seed = engine_seed_;
    opts.cache = &cache;
    opts.backpressure = cloudqc::StreamingBackpressure::kDefer;

    RunResult r;
    const std::int64_t t0 = now_ns();
    cloudqc::StreamingMetrics m;
    {
      Scope span(tracer, Layer::kEngine);
      m = cloudqc::run_streaming(source, *cloud_, placer, allocator, opts);
    }
    r.run_s = seconds_since(t0);

    Outputs& o = r.outputs;
    o.submitted = m.submitted;
    o.completed = m.completed;
    o.jct_mean = m.jct.mean();
    o.jct_p50 = m.jct_p50();
    if (m.completed >= 11) {
      const double n = static_cast<double>(m.completed);
      o.jct_tail = m.jct.quantile((n - 10.0) / n);
      o.jct_tail_pct = 100.0 * (n - 10.0) / n;
    }
    o.makespan = m.makespan;
    if (placer.calls > placer.fails) {
      o.remote_ops_mean = static_cast<double>(placer.remote_ops) /
                          static_cast<double>(placer.calls - placer.fails);
    }
    o.cache = cache.stats();
    o.peak_pending = m.peak_pending;
    o.peak_in_flight = m.peak_in_flight;
    r.counts = {placer.calls,    placer.ctx_calls,   placer.fails,
                allocator.calls, allocator.requests, 0,
                0,               true};

    r.check_error = check_common(r, *cloud_);
    if (r.check_error.empty() && m.submitted != m.completed + m.rejected) {
      r.check_error = "submitted != completed + rejected";
    }
    return r;
  }

 private:
  static constexpr std::uint64_t kTopologySeed = 1;
  static constexpr double kMeanGap = 400.0;
  // Template indices of one mix cycle: the three short circuits take 3/8
  // of the jobs, qugan/qaoa 4/8 and qft 1/8, so the median JCT falls
  // inside the qugan/qaoa cluster instead of on the gap between two
  // clusters, where it would jump between seeds.
  static constexpr std::array<std::size_t, 8> kMix = {0, 1, 2, 3, 1, 3, 4, 5};
  const int num_jobs_;
  std::unique_ptr<QuantumCloud> cloud_;
  std::vector<Circuit> templates_;
  std::vector<std::pair<double, std::size_t>> schedule_;
  std::unique_ptr<cloudqc::Placer> placer_;
  std::unique_ptr<cloudqc::CommAllocator> allocator_;
  std::uint64_t engine_seed_ = 0;
};

// ----------------------------------------------------------- netsim-fattree

// The network_sim engine's wiring (Random placement, add_job, step until
// drained) on a 127-QPU fat-tree, held in steady state: jobs are admitted
// while their qubits fit under kFill of the computing capacity, and each
// completion frees room for the next job of the sequence. Random
// placement scatters every chain, so nearly every gate is a routed remote
// op and EPR scheduling, not placement, takes the host time. JCT is
// measured from admission. Ising chains keep the per-job JCT distribution
// unimodal; with a mix of circuit families the median sat in a sparse
// stretch between families and moved by a quarter between seeds.
class NetsimFattree final : public Workload {
 public:
  explicit NetsimFattree(bool tiny)
      : num_qpus_(tiny ? 31 : 127), num_jobs_(tiny ? 40 : 500) {}

  SetupTimes setup(std::uint64_t seed) override {
    SetupTimes t;
    const std::int64_t t0 = now_ns();
    cloudqc::CloudSpec spec;
    spec.family = cloudqc::TopologyFamily::kFatTree;
    spec.num_qpus = num_qpus_;
    spec.fanout = 2;
    cloud_ = std::make_unique<QuantumCloud>(cloudqc::build_cloud(spec));
    budget_ = static_cast<int>(
        kFill * static_cast<double>(cloud_->total_computing_capacity()));
    t.cloud_s = seconds_since(t0);
    const std::int64_t t1 = now_ns();
    const std::vector<Circuit> templates =
        build_templates({"ising_n34", "ising_n66"});
    jobs_.clear();
    for (int i = 0; i < num_jobs_; ++i) {
      jobs_.push_back(templates[static_cast<std::size_t>(i) % 2]);
    }
    Rng trace_rng(sub_seed(seed, kTraceStream));
    trace_rng.shuffle(jobs_);
    t.circuits_s = seconds_since(t1);
    placer_ = cloudqc::make_random_placer();
    allocator_ = cloudqc::make_cloudqc_allocator();
    router_ = cloudqc::make_frontier_router();
    engine_seed_ = sub_seed(seed, kEngineStream);
    t.total_s = seconds_since(t0);
    return t;
  }

  RunResult run(Tracer* tracer) override {
    const TracedPlacer placer(*placer_, tracer);
    const TracedAllocator allocator(*allocator_, tracer);
    const TracedRouter router(*router_, tracer);

    RunResult r;
    Outputs& o = r.outputs;
    o.submitted = jobs_.size();
    struct InFlight {
      std::vector<int> qubits_per_qpu;
      int qubits = 0;
      double admitted = 0.0;
      bool live = false;
    };
    std::vector<InFlight> slots;  // indexed by simulator job slot
    std::vector<double> jcts;
    std::uint64_t remote = 0;
    std::size_t next = 0;
    int used = 0;
    std::uint64_t in_flight = 0;
    const std::int64_t t0 = now_ns();
    std::optional<cloudqc::NetworkSimulator> sim_holder;
    {
      Scope run_span(tracer, Layer::kEngine);
      // Same RNG discipline as the scenario engine's network_sim mode.
      Rng rng(engine_seed_);
      sim_holder.emplace(*cloud_, allocator, rng.fork(), &router);
      cloudqc::NetworkSimulator& sim = *sim_holder;
      sim.set_recycle_completed(true);
      const auto admit = [&] {
        while (next < jobs_.size() &&
               used + jobs_[next].num_qubits() <= budget_) {
          const Circuit& job = jobs_[next];
          const auto placement = placer.place(job, *cloud_, rng);
          if (!placement || !cloud_->try_reserve(placement->qubits_per_qpu)) {
            r.check_error = "placement failed below the fill cap";
            return;
          }
          int id = 0;
          {
            Scope add_span(tracer, Layer::kSim);
            id = sim.add_job(job, placement->qubit_to_qpu);
          }
          const auto slot = static_cast<std::size_t>(id);
          if (slot >= slots.size()) slots.resize(slot + 1);
          slots[slot] = {placement->qubits_per_qpu, job.num_qubits(),
                         sim.now(), true};
          used += job.num_qubits();
          remote += placement->remote_ops;
          ++next;
          o.peak_in_flight = std::max(o.peak_in_flight, ++in_flight);
        }
      };
      admit();
      while (r.check_error.empty() && sim.next_event_time().has_value()) {
        std::optional<cloudqc::JobCompletion> c;
        {
          Scope step_span(tracer, Layer::kSim);
          c = sim.step();
        }
        if (!c) continue;
        const auto slot = static_cast<std::size_t>(c->job);
        if (slot >= slots.size() || !slots[slot].live) {
          r.check_error = "a job completed that was not in flight";
          break;
        }
        InFlight& job = slots[slot];
        job.live = false;
        jcts.push_back(c->time - job.admitted);
        cloud_->release(job.qubits_per_qpu);
        used -= job.qubits;
        --in_flight;
        o.makespan = c->time;
        admit();
      }
    }
    r.run_s = seconds_since(t0);

    const cloudqc::NetworkSimulator& sim = *sim_holder;
    o.completed = jcts.size();
    fill_jct(std::move(jcts), o);
    if (next > 0) {
      o.remote_ops_mean =
          static_cast<double>(remote) / static_cast<double>(next);
    }
    o.sim_events = sim.num_events_processed();
    o.sim_alloc_rounds = sim.num_allocation_rounds();
    o.sim_epr_rounds = sim.total_epr_rounds();
    r.counts = {placer.calls,    placer.ctx_calls,   placer.fails,
                allocator.calls, allocator.requests, router.calls,
                router.blocked,  false};

    if (r.check_error.empty()) r.check_error = check_common(r, *cloud_);
    if (r.check_error.empty() && o.completed != o.submitted) {
      r.check_error = "not every job was admitted and completed";
    }
    if (r.check_error.empty() && allocator.calls != o.sim_alloc_rounds) {
      r.check_error = "allocator calls != simulator allocation rounds";
    }
    return r;
  }

 private:
  static constexpr double kFill = 0.9;
  const int num_qpus_;
  const int num_jobs_;
  int budget_ = 0;
  std::unique_ptr<QuantumCloud> cloud_;
  std::vector<Circuit> jobs_;
  std::unique_ptr<cloudqc::Placer> placer_;
  std::unique_ptr<cloudqc::CommAllocator> allocator_;
  std::unique_ptr<cloudqc::EprRouter> router_;
  std::uint64_t engine_seed_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, bool tiny) {
  if (name == "stream-cached") return std::make_unique<StreamCached>(tiny);
  if (name == "netsim-fattree") return std::make_unique<NetsimFattree>(tiny);
  return nullptr;
}

std::string Outputs::diff(const Outputs& o) const {
  std::string out;
  const auto cmp = [&out](const char* name, auto a, auto b) {
    if (a != b) out += std::string(out.empty() ? "" : ", ") + name;
  };
  cmp("submitted", submitted, o.submitted);
  cmp("completed", completed, o.completed);
  cmp("jct_mean", jct_mean, o.jct_mean);
  cmp("jct_p50", jct_p50, o.jct_p50);
  cmp("jct_tail", jct_tail, o.jct_tail);
  cmp("jct_tail_pct", jct_tail_pct, o.jct_tail_pct);
  cmp("makespan", makespan, o.makespan);
  cmp("remote_ops_mean", remote_ops_mean, o.remote_ops_mean);
  cmp("cache.lookups", cache.lookups, o.cache.lookups);
  cmp("cache.exact_hits", cache.exact_hits, o.cache.exact_hits);
  cmp("cache.warm_hits", cache.warm_hits, o.cache.warm_hits);
  cmp("cache.misses", cache.misses, o.cache.misses);
  cmp("cache.verify_rejects", cache.verify_rejects, o.cache.verify_rejects);
  cmp("cache.insertions", cache.insertions, o.cache.insertions);
  cmp("cache.evictions", cache.evictions, o.cache.evictions);
  cmp("peak_pending", peak_pending, o.peak_pending);
  cmp("peak_in_flight", peak_in_flight, o.peak_in_flight);
  cmp("sim_events", sim_events, o.sim_events);
  cmp("sim_alloc_rounds", sim_alloc_rounds, o.sim_alloc_rounds);
  cmp("sim_epr_rounds", sim_epr_rounds, o.sim_epr_rounds);
  return out;
}

}  // namespace perfbench
