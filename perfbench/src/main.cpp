// perfbench: the repository benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <file>] [--tiny]
//   perfbench --selftest
//
// One process, one thread. A repetition is a fresh set-up from the seed
// (so the placement cache starts empty every time) followed by one run;
// repetitions continue while the next one still fits into --seconds (at
// least two run), and host times are the median over repetitions. Every
// repetition must reproduce the first one's simulated outputs exactly.
//
// --trace 0 prints the end-to-end metrics; nothing is traced, so VmHWM is
// the untraced process's peak.
// --trace 1 alternates untraced and traced repetitions, which therefore
// must agree on every simulated output, and prints the per-layer metrics
// of the traced ones plus the tracing overhead. The spans of the last
// traced repetition are written to --spans-out.
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; any failed check prints a
// message to standard error and exits with status 1 instead.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "selftest.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string spans_out;
  bool tiny = false;
  bool selftest = false;
};

[[noreturn]] void fail(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(1);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (flag == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) fail("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') fail("bad --seed " + value);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(a.seconds > 0.0) ||
          a.seconds > 120.0) {
        fail("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") fail("bad --trace " + value);
      a.trace = value == "1" ? 1 : 0;
    } else if (flag == "--spans-out") {
      a.spans_out = value;
    } else {
      fail("unknown argument " + flag);
    }
  }
  if (!a.selftest && !have_workload) fail("--workload is required");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The value with exactly 10 samples above it (the highest percentile
/// that still has 10 samples beyond it); the median below 11 samples.
double tail(std::vector<double> v) {
  if (v.size() < 11) return median(std::move(v));
  std::sort(v.begin(), v.end());
  return v[v.size() - 11];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double vm_hwm_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  fail("VmHWM not found in /proc/self/status");
}

class MetricSink {
 public:
  void add(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) fail("metric " + name + " is not finite");
    rows_.push_back({name, value, unit});
  }

  void print(std::uint64_t attempted, std::uint64_t failed) const {
    for (const Row& r : rows_) {
      std::printf("%-32s %16.6f %s\n", r.name.c_str(), r.value, r.unit);
    }
    std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", rows_[i].name.c_str(), rows_[i].value,
                  rows_[i].unit);
    }
    std::printf("}}\n");
  }

 private:
  struct Row {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Row> rows_;
};

/// Runs repetitions of one workload and checks each against the first.
class Runner {
 public:
  Runner(Workload& w, std::uint64_t seed) : w_(w), seed_(seed) {}

  RunResult rep(Tracer* tracer) {
    setups.push_back(w_.setup(seed_));
    RunResult r = w_.run(tracer);
    if (!r.check_error.empty()) fail("output check failed: " + r.check_error);
    if (!first_) {
      first_ = r;
    } else {
      const std::string d = r.outputs.diff(first_->outputs);
      if (!d.empty()) {
        fail(std::string(tracer ? "traced" : "untraced") +
             " repetition changed simulated outputs: " + d);
      }
    }
    return r;
  }

  const Outputs& outputs() const { return first_->outputs; }

  std::vector<SetupTimes> setups;

 private:
  Workload& w_;
  std::uint64_t seed_;
  std::optional<RunResult> first_;
};

constexpr std::size_t kMinReps = 2;
constexpr std::size_t kMinSetups = 15;

/// True while another repetition taking about `rep_s` still fits into
/// `seconds` after `done` repetitions started at `t0` (at least kMinReps).
bool another_rep(std::size_t done, double rep_s, std::int64_t t0,
                 double seconds) {
  const double elapsed = static_cast<double>(now_ns() - t0) * 1e-9;
  return done < kMinReps || elapsed + rep_s <= seconds;
}

int run_untraced(const Args& a, Workload& w) {
  Runner runner(w, a.seed);
  std::vector<double> run_s, rep_s;
  const std::int64_t t0 = now_ns();
  while (another_rep(rep_s.size(), median(rep_s), t0, a.seconds)) {
    const std::int64_t rep0 = now_ns();
    run_s.push_back(runner.rep(nullptr).run_s);
    rep_s.push_back(static_cast<double>(now_ns() - rep0) * 1e-9);
  }
  while (runner.setups.size() < kMinSetups) {
    runner.setups.push_back(w.setup(a.seed));
  }
  const double rss_mib = vm_hwm_mib();

  std::vector<double> setup_s;
  for (const SetupTimes& s : runner.setups) setup_s.push_back(s.total_s);
  const Outputs& o = runner.outputs();
  MetricSink m;
  m.add("jobs_per_s", static_cast<double>(o.completed) / median(run_s),
        "1/s");
  m.add("setup_s", median(setup_s), "s");
  m.add("peak_rss_mb", rss_mib, "MiB");
  m.add("jct_mean", o.jct_mean, "t_sim");
  m.add("jct_p50", o.jct_p50, "t_sim");
  m.add("jct_tail", o.jct_tail, "t_sim");
  m.add("makespan", o.makespan, "t_sim");
  m.add("remote_ops_mean", o.remote_ops_mean, "ops/job");
  std::printf("workload %s seed %llu: %zu repetitions, %llu of %llu jobs "
              "completed, jct_tail is p%.2f\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              run_s.size(), static_cast<unsigned long long>(o.completed),
              static_cast<unsigned long long>(o.submitted), o.jct_tail_pct);
  m.print(o.submitted, o.submitted - o.completed);
  return 0;
}

int run_traced(const Args& a, Workload& w) {
  Runner runner(w, a.seed);
  Tracer tracer;
  std::vector<double> plain_s, traced_s, pair_s;
  std::vector<SpanSummary> sums;
  std::optional<LayerCounts> counts;
  const std::int64_t t0 = now_ns();
  while (another_rep(pair_s.size(), median(pair_s), t0, a.seconds)) {
    const std::int64_t pair0 = now_ns();
    plain_s.push_back(runner.rep(nullptr).run_s);
    tracer.clear();
    const RunResult r = runner.rep(&tracer);
    traced_s.push_back(r.run_s);
    SpanSummary s = summarize(tracer);
    if (!s.error.empty()) fail("span tree: " + s.error);
    if (s.count[static_cast<std::size_t>(Layer::kPlacement)] !=
            r.counts.place_calls ||
        s.count[static_cast<std::size_t>(Layer::kAlloc)] !=
            r.counts.alloc_calls ||
        s.count[static_cast<std::size_t>(Layer::kRoute)] !=
            r.counts.route_calls) {
      fail("span counts differ from decorator call counts");
    }
    if (counts && !(*counts == r.counts)) {
      fail("layer call counts changed between repetitions");
    }
    counts = r.counts;
    sums.push_back(std::move(s));
    pair_s.push_back(static_cast<double>(now_ns() - pair0) * 1e-9);
  }
  if (!a.spans_out.empty() && !write_spans_csv(tracer, a.spans_out)) {
    fail("cannot write spans to " + a.spans_out);
  }

  const Outputs& o = runner.outputs();
  const LayerCounts& c = *counts;
  const auto med = [&sums](auto field) {
    std::vector<double> v;
    for (const SpanSummary& s : sums) v.push_back(field(s));
    return median(std::move(v));
  };
  const auto self = [&med](Layer l) {
    return med([l](const SpanSummary& s) {
      return s.self_s[static_cast<std::size_t>(l)];
    });
  };
  const auto busy = [&med](Layer l) {
    return med([l](const SpanSummary& s) {
      return s.busy_s[static_cast<std::size_t>(l)];
    });
  };
  std::vector<double> unattributed;
  for (std::size_t i = 0; i < sums.size(); ++i) {
    double layers = 0.0;
    for (const double s : sums[i].self_s) layers += s;
    // The run span is the only root, so the layers' self times sum to its
    // duration; what the outer clock saw beyond it is unattributed.
    if (std::fabs(layers - sums[i].roots_s) > 1e-6 * traced_s[i] + 1e-9) {
      fail("layer self times do not add up to the run span");
    }
    unattributed.push_back(traced_s[i] - layers);
  }
  const double traced_run_s = median(traced_s);

  MetricSink m;
  const double place_ok = static_cast<double>(c.place_calls - c.place_fails);
  m.add("placement.calls", static_cast<double>(c.place_calls), "count");
  m.add("placement.fails", static_cast<double>(c.place_fails), "count");
  m.add("placement.success_ratio",
        ratio(place_ok, static_cast<double>(c.place_calls)), "ratio");
  m.add("placement.ctx_calls", static_cast<double>(c.place_ctx_calls),
        "count");
  m.add("placement.busy_s", busy(Layer::kPlacement), "s");
  m.add("placement.call_ms_p50",
        med([](const SpanSummary& s) { return median(s.placement_ms); }),
        "ms");
  m.add("placement.call_ms_tail",
        med([](const SpanSummary& s) { return tail(s.placement_ms); }), "ms");
  m.add("placement.share", ratio(self(Layer::kPlacement), traced_run_s),
        "ratio");

  const cloudqc::PlacementCacheStats& cs = o.cache;
  m.add("placement.cache.lookups", static_cast<double>(cs.lookups), "count");
  m.add("placement.cache.exact_hits", static_cast<double>(cs.exact_hits),
        "count");
  m.add("placement.cache.warm_hits", static_cast<double>(cs.warm_hits),
        "count");
  m.add("placement.cache.misses", static_cast<double>(cs.misses), "count");
  m.add("placement.cache.verify_rejects",
        static_cast<double>(cs.verify_rejects), "count");
  m.add("placement.cache.evictions", static_cast<double>(cs.evictions),
        "count");
  m.add("placement.cache.exact_ratio",
        ratio(static_cast<double>(cs.exact_hits),
              static_cast<double>(cs.lookups)),
        "ratio");

  // With the cache on, every admission attempt is a lookup and an exact
  // hit admits without a placer call; without it, attempts are placer
  // calls.
  const double attempts = static_cast<double>(
      c.uses_cache ? cs.lookups : c.place_calls);
  const double admits =
      place_ok + static_cast<double>(c.uses_cache ? cs.exact_hits : 0);
  m.add("core.admission.attempts", attempts, "count");
  m.add("core.admission.admit_ratio", ratio(admits, attempts), "ratio");

  m.add("core.engine.self_s", self(Layer::kEngine), "s");
  m.add("core.engine.share", ratio(self(Layer::kEngine), traced_run_s),
        "ratio");
  m.add("core.engine.peak_pending", static_cast<double>(o.peak_pending),
        "count");
  m.add("core.engine.peak_in_flight", static_cast<double>(o.peak_in_flight),
        "count");

  m.add("schedule.alloc.calls", static_cast<double>(c.alloc_calls), "count");
  m.add("schedule.alloc.requests", static_cast<double>(c.alloc_requests),
        "count");
  m.add("schedule.alloc.busy_s", busy(Layer::kAlloc), "s");
  m.add("schedule.alloc.call_us_p50",
        1e3 * med([](const SpanSummary& s) { return median(s.alloc_ms); }),
        "us");
  m.add("schedule.alloc.call_us_tail",
        1e3 * med([](const SpanSummary& s) { return tail(s.alloc_ms); }),
        "us");
  m.add("schedule.alloc.share", ratio(self(Layer::kAlloc), traced_run_s),
        "ratio");

  m.add("schedule.route.calls", static_cast<double>(c.route_calls), "count");
  m.add("schedule.route.blocked", static_cast<double>(c.route_blocked),
        "count");
  m.add("schedule.route.blocked_ratio",
        ratio(static_cast<double>(c.route_blocked),
              static_cast<double>(c.route_calls)),
        "ratio");
  m.add("schedule.route.busy_s", busy(Layer::kRoute), "s");
  m.add("schedule.route.share", ratio(self(Layer::kRoute), traced_run_s),
        "ratio");

  m.add("sim.events", static_cast<double>(o.sim_events), "count");
  m.add("sim.alloc_rounds", static_cast<double>(o.sim_alloc_rounds), "count");
  m.add("sim.epr_rounds", static_cast<double>(o.sim_epr_rounds), "count");
  m.add("sim.self_s", self(Layer::kSim), "s");
  m.add("sim.events_per_s",
        ratio(static_cast<double>(o.sim_events), busy(Layer::kSim)), "1/s");
  m.add("sim.share", ratio(self(Layer::kSim), traced_run_s), "ratio");

  std::vector<double> cloud_s, circuits_s;
  for (const SetupTimes& s : runner.setups) {
    cloud_s.push_back(s.cloud_s);
    circuits_s.push_back(s.circuits_s);
  }
  m.add("setup.cloud_s", median(cloud_s), "s");
  m.add("setup.circuits_s", median(circuits_s), "s");

  m.add("trace.run_s", traced_run_s, "s");
  m.add("trace.unattributed_s", median(unattributed), "s");
  m.add("trace.overhead", traced_run_s / median(plain_s) - 1.0, "ratio");
  std::printf("workload %s seed %llu: %zu traced + %zu untraced "
              "repetitions\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              traced_s.size(), plain_s.size());
  m.print(o.submitted, o.submitted - o.completed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args a = parse_args(argc, argv);
  if (a.selftest) return run_selftest() ? 0 : 1;
  const std::unique_ptr<Workload> w = make_workload(a.workload, a.tiny);
  if (!w) fail("unknown workload " + a.workload);
  try {
    return a.trace == 1 ? run_traced(a, *w) : run_untraced(a, *w);
  } catch (const std::exception& e) {
    fail(std::string("library error: ") + e.what());
  }
}
