#include "core/job_lifecycle.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "cloud/churn.hpp"
#include "common/check.hpp"
#include "core/admission_gate.hpp"
#include "placement/placement_cache.hpp"
#include "sim/network_sim.hpp"

namespace cloudqc {

void check_fits_cloud(const Circuit& circuit, const QuantumCloud& cloud) {
  // Sums the live per-QPU capacities, not num_qpus * config value — the
  // two differ on heterogeneous clouds (cloud/topologies.hpp profiles).
  if (circuit.num_qubits() > cloud.total_computing_capacity()) {
    throw std::logic_error("job '" + circuit.name() +
                           "' exceeds total cloud capacity");
  }
}

namespace {

constexpr SimTime kNever = std::numeric_limits<SimTime>::infinity();

/// One job as the lifecycle sees it.
struct LifecycleJob {
  std::uint64_t id = 0;  ///< submission index; the admission-gate key
  std::size_t shard = 0;
  std::unique_ptr<Circuit> circuit;  ///< stable address for the simulator
  SimTime arrival = 0.0;
  JobClass job_class;
  int restarts = 0;
};

/// Queue order: (shard, priority desc, id).
bool queued_before(const LifecycleJob& a, const LifecycleJob& b) {
  if (a.shard != b.shard) return a.shard < b.shard;
  if (a.job_class.priority != b.job_class.priority) {
    return a.job_class.priority > b.job_class.priority;
  }
  return a.id < b.id;
}

class JobLifecycle {
 public:
  JobLifecycle(JobSource& source, QuantumCloud& cloud, const Placer& placer,
               const CommAllocator& allocator, const EngineOptions& options,
               const LifecycleSettings& settings)
      : source_(source),
        cloud_(cloud),
        placer_(placer),
        cache_(options.cache),
        settings_(settings),
        churn_(settings.churn),
        rng_(options.seed),
        sim_(cloud, allocator, rng_.fork()),
        gate_(settings.max_pending, options.gated_admission),
        fenced_(static_cast<std::size_t>(cloud.num_qpus()), 0),
        shard_metrics_(settings.intake_shards),
        peeked_(source.next()) {
    CLOUDQC_CHECK(settings.max_pending >= 1);
    CLOUDQC_CHECK(settings.intake_shards >= 1);
    sim_.set_change_gated(options.gated_allocation);
    // Completed and cancelled jobs free their simulator state at once; the
    // core never reads simulator job ids after a job leaves.
    sim_.set_recycle_completed(true);
    if (churn_ != nullptr && churn_->drift_amplitude > 0.0) {
      sim_.set_calibration_drift(churn_->drift_amplitude,
                                 churn_->drift_period);
    }
  }

  ~JobLifecycle() {
    for (const auto& [seq, flight] : in_flight_) {
      cloud_.release(flight.reservation);
    }
    // A run can end while QPUs are still inside a maintenance window.
    cloud_.release(fenced_);
  }

  StreamingMetrics run() {
    const std::size_t num_churn =
        churn_ != nullptr ? churn_->events.size() : 0;
    while (peeked_.has_value() || !queue_.empty() || !in_flight_.empty()) {
      const SimTime t_arrival = intake_open() ? peeked_->arrival : kNever;
      const SimTime t_churn =
          next_churn_ < num_churn ? churn_->events[next_churn_].time : kNever;
      const auto t_event = sim_.next_event_time();

      // Maintenance edges fire strictly before arrivals and simulator
      // events at the same instant settle first: a completion releasing
      // capacity at t is visible to an outage starting at t, and a job
      // arriving exactly at an outage still sees the pre-outage round.
      if (t_churn < t_arrival &&
          (!t_event.has_value() || t_churn < *t_event)) {
        apply_churn();
        admit(/*force=*/in_flight_.empty());
        continue;
      }

      if (!t_event.has_value() && t_arrival == kNever) {
        // Nothing left can change capacity (no events, no churn, no
        // arrival the intake may take): the queued jobs just failed a
        // forced attempt on an idle cloud. Give a stochastic placer one
        // more forced shot, then apply the unplaceable policy — the single
        // failure site.
        CLOUDQC_CHECK_MSG(in_flight_.empty(),
                          "in-flight jobs but simulator has no events");
        CLOUDQC_CHECK(!queue_.empty());
        admit(/*force=*/true);
        if (!in_flight_.empty()) continue;
        for (const LifecycleJob& job : queue_) {
          unplaceable(job, /*oversize=*/false);
          gate_.record_admission(job.id);  // release the gate entry
        }
        queue_.clear();
        continue;
      }

      if (!t_event.has_value() || t_arrival <= *t_event) {
        // A deferred arrival can be older than the clock (events ran past
        // its timestamp while the intake was closed): take it now, don't
        // rewind.
        sim_.advance_time(std::max(t_arrival, sim_.now()));
        ingest();
        admit(/*force=*/in_flight_.empty());
        continue;
      }

      // One simulator event, so churn edges and arrivals interleave at the
      // right instants; admission rounds fire on completions only.
      if (const auto completion = sim_.step()) {
        complete(*completion);
        admit(/*force=*/in_flight_.empty());
      }
    }
    StreamingMetrics total;
    for (const StreamingMetrics& m : shard_metrics_) total.merge(m);
    total.peak_pending = peak_queued_;
    total.peak_in_flight = peak_in_flight_;
    return total;
  }

 private:
  struct Flight {
    LifecycleJob job;
    int sim_id = -1;
    std::vector<int> reservation;
    JobStats record;
  };
  using FlightIt = std::map<std::uint64_t, Flight>::iterator;

  bool intake_open() const {
    return peeked_.has_value() &&
           (settings_.reject_overflow || queue_.size() < settings_.max_pending);
  }

  /// Take every job that has arrived by now, while the intake is open.
  void ingest() {
    while (intake_open() && peeked_->arrival <= sim_.now()) {
      LifecycleJob job;
      job.id = next_id_++;
      job.shard = job.id % shard_metrics_.size();
      job.circuit = std::make_unique<Circuit>(std::move(peeked_->circuit));
      job.arrival = peeked_->arrival;
      if (settings_.classes != nullptr && !settings_.classes->empty()) {
        job.job_class = (*settings_.classes)[job.id];
      }
      peeked_ = source_.next();
      CLOUDQC_CHECK_MSG(job.arrival >= last_arrival_,
                        "arrivals must come in non-decreasing time order");
      last_arrival_ = job.arrival;
      ++shard_metrics_[job.shard].submitted;
      if (job.circuit->num_qubits() > cloud_.total_computing_capacity()) {
        unplaceable(job, /*oversize=*/true);
      } else if (queue_.size() >= settings_.max_pending) {
        reject(job, /*oversize=*/false);  // reject mode; defer never gets here
      } else {
        enqueue(std::move(job));
        peak_queued_ = std::max(peak_queued_, queue_.size());
      }
    }
  }

  /// Insert at the job's key, keeping the queue sorted.
  void enqueue(LifecycleJob job) {
    const auto pos =
        std::upper_bound(queue_.begin(), queue_.end(), job, queued_before);
    queue_.insert(pos, std::move(job));
  }

  /// One placement attempt for queue_[pos] under the current gate
  /// snapshot; on success the job moves to the in-flight table.
  bool try_admit(std::size_t pos) {
    LifecycleJob& job = queue_[pos];
    const auto placement = cached_place(cache_, *job.circuit, cloud_,
                                        placer_, rng_, &gate_.signature());
    if (!placement.has_value()) {
      gate_.record_failure(job.id, job.circuit->num_qubits());
      return false;
    }
    gate_.record_admission(job.id);
    CLOUDQC_CHECK(cloud_.try_reserve(placement->qubits_per_qpu));
    gate_.refresh(cloud_);
    const int sim_id = sim_.add_job(*job.circuit, placement->qubit_to_qpu);
    const std::uint64_t seq = next_seq_++;
    const auto slot = static_cast<std::size_t>(sim_id);
    if (slot >= seq_of_sim_.size()) seq_of_sim_.resize(slot + 1);
    seq_of_sim_[slot] = seq;

    Flight& flight = in_flight_[seq];
    flight.sim_id = sim_id;
    flight.reservation = placement->qubits_per_qpu;
    JobStats& s = flight.record;
    s.name = job.circuit->name();
    s.arrival = job.arrival;
    s.placed_time = sim_.now();
    s.remote_ops = placement->remote_ops;
    s.qpus_used = placement->num_qpus_used();
    s.restarts = job.restarts;
    flight.job = std::move(job);
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(pos));
    peak_in_flight_ = std::max(peak_in_flight_, in_flight_.size());
    return true;
  }

  /// Work-conserving admission: walk the queue in key order and place
  /// every job the current free resources can host. Skipped jobs keep their
  /// position (head-of-line skipping) and are retried at the next decision
  /// point that released computing qubits they could use. The gate's
  /// capacity signature is snapshotted once per round and again after each
  /// reservation; the placement cache shares it as its capacity key.
  /// `force` bypasses the signature (idle cloud), so a stochastic placer
  /// always gets a fresh shot before a job is declared unplaceable.
  void admit(bool force) {
    gate_.refresh(cloud_);
    std::size_t i = 0;
    while (i < queue_.size()) {
      if (!force && !gate_.should_attempt(queue_[i].id)) {
        ++i;  // no computing qubits released since its last failure
        continue;
      }
      bool admitted = try_admit(i);
      if (!admitted && queue_[i].job_class.preempt) {
        // Evict strictly-lower-priority jobs one at a time until the
        // placement fits or no victim remains. Victims re-enter the queue
        // behind this job (strictly lower priority), so position i stays
        // valid.
        const int priority = queue_[i].job_class.priority;
        while (!admitted && preempt_one_below(priority)) {
          admitted = try_admit(i);
        }
      }
      if (!admitted) ++i;
    }
  }

  /// Cancel an in-flight job, release its reservation and requeue it at
  /// its key (restart semantics: it re-runs from scratch). Returns its id.
  std::uint64_t displace(FlightIt flight) {
    sim_.cancel_job(flight->second.sim_id);
    cloud_.release(flight->second.reservation);
    LifecycleJob& job = flight->second.job;
    ++job.restarts;
    const std::uint64_t id = job.id;
    enqueue(std::move(job));
    in_flight_.erase(flight);
    return id;
  }

  /// Evict the in-flight job of the lowest priority strictly below
  /// `priority`, ties broken toward the most recently admitted (the walk
  /// is in admission order). False when no victim qualifies.
  bool preempt_one_below(int priority) {
    auto victim = in_flight_.end();
    int victim_priority = priority;
    for (auto it = in_flight_.begin(); it != in_flight_.end(); ++it) {
      const int p = it->second.job.job_class.priority;
      if (p < victim_priority ||
          (victim != in_flight_.end() && p == victim_priority)) {
        victim_priority = p;
        victim = it;
      }
    }
    if (victim == in_flight_.end()) return false;
    displace(victim);
    sim_.run_pending_allocation();
    gate_.refresh(cloud_);
    return true;
  }

  /// Apply every churn edge at the next churn instant. Offline computing
  /// capacity is fenced via a blanket reservation until the online edge.
  void apply_churn() {
    const std::vector<ChurnEvent>& events = churn_->events;
    const SimTime t = events[next_churn_].time;
    sim_.advance_time(t);
    std::vector<std::uint64_t> displaced;
    for (; next_churn_ < events.size() && events[next_churn_].time == t;
         ++next_churn_) {
      const int q = events[next_churn_].qpu;
      const auto qi = static_cast<std::size_t>(q);
      std::vector<int> blanket(fenced_.size(), 0);
      if (!events[next_churn_].offline) {
        blanket[qi] = fenced_[qi];
        cloud_.release(blanket);
        fenced_[qi] = 0;
        sim_.set_qpu_online(q);
        continue;
      }
      // Displace every in-flight job holding computing qubits on q, in
      // admission order.
      for (auto it = in_flight_.begin(); it != in_flight_.end();) {
        const auto next = std::next(it);
        if (it->second.reservation[qi] > 0) displaced.push_back(displace(it));
        it = next;
      }
      // Fence the QPU's remaining free computing capacity so no later
      // placement lands on it while it is offline.
      blanket[qi] = cloud_.qpu(q).free_computing();
      CLOUDQC_CHECK(cloud_.try_reserve(blanket));
      fenced_[qi] = blanket[qi];
      sim_.set_qpu_offline(q);
    }
    // Cancellations returned communication qubits and online edges
    // released impounds — both are decision points.
    sim_.run_pending_allocation();
    if (churn_->policy == ChurnPolicy::kMigrate && !displaced.empty()) {
      // Migrate: immediately re-place the displaced jobs on the remaining
      // QPUs (warm starts apply via the shared cache signature); failures
      // simply stay queued at their key.
      gate_.refresh(cloud_);
      for (const std::uint64_t id : displaced) {
        const auto pos = std::find_if(
            queue_.begin(), queue_.end(),
            [id](const LifecycleJob& job) { return job.id == id; });
        CLOUDQC_CHECK(pos != queue_.end());
        try_admit(static_cast<std::size_t>(pos - queue_.begin()));
      }
    }
  }

  /// Fold a completed job into its shard and the per-job table, then
  /// free every byte of its state.
  void complete(const JobCompletion& completion) {
    const auto entry = in_flight_.find(
        seq_of_sim_[static_cast<std::size_t>(completion.job)]);
    CLOUDQC_CHECK(entry != in_flight_.end());
    Flight& flight = entry->second;
    JobStats& record = flight.record;
    record.completion_time = completion.time;
    record.est_fidelity = completion.est_fidelity;
    cloud_.release(flight.reservation);
    shard_metrics_[flight.job.shard].record_completion(
        record.jct(), record.est_fidelity, record.completion_time);
    if (settings_.table != nullptr) {
      (*settings_.table)[flight.job.id] = std::move(record);
    }
    in_flight_.erase(entry);
    checkpoint();
  }

  void checkpoint() {
    if (settings_.checkpoint_interval == 0 || !settings_.on_checkpoint) return;
    StreamingProgress p;
    for (const StreamingMetrics& m : shard_metrics_) {
      p.submitted += m.submitted;
      p.completed += m.completed;
      p.rejected += m.rejected;
    }
    if (p.completed % settings_.checkpoint_interval != 0) return;
    p.pending = queue_.size();
    p.in_flight = in_flight_.size();
    p.sim_now = sim_.now();
    settings_.on_checkpoint(p);
  }

  void unplaceable(const LifecycleJob& job, bool oversize) {
    if (settings_.policy == UnplaceablePolicy::kThrow) {
      if (oversize) check_fits_cloud(*job.circuit, cloud_);  // throws
      throw std::logic_error("deadlock: job '" + job.circuit->name() +
                             "' cannot be admitted into an idle cloud");
    }
    reject(job, oversize);
  }

  void reject(const LifecycleJob& job, bool oversize) {
    StreamingMetrics& m = shard_metrics_[job.shard];
    ++m.rejected;
    if (oversize) ++m.rejected_oversize;
  }

  JobSource& source_;
  QuantumCloud& cloud_;
  const Placer& placer_;
  PlacementCache* cache_;
  const LifecycleSettings& settings_;
  const ChurnPlan* churn_;
  Rng rng_;
  NetworkSimulator sim_;
  AdmissionGate gate_;
  /// Arrived, not yet placed; sorted by queued_before.
  std::deque<LifecycleJob> queue_;
  /// Placed, still executing; keyed by admission sequence number so walks
  /// run in admission order whatever ids the simulator hands out.
  std::map<std::uint64_t, Flight> in_flight_;
  /// Simulator job id -> admission sequence number of its live job.
  std::vector<std::uint64_t> seq_of_sim_;
  std::uint64_t next_seq_ = 0;
  SimTime last_arrival_ = -kNever;
  std::size_t next_churn_ = 0;
  /// Computing qubits fenced per offline QPU.
  std::vector<int> fenced_;
  std::vector<StreamingMetrics> shard_metrics_;
  /// The next job of the source, pulled when the intake takes it.
  std::optional<ArrivingJob> peeked_;
  std::uint64_t next_id_ = 0;
  std::size_t peak_queued_ = 0;
  std::size_t peak_in_flight_ = 0;
};

}  // namespace

StreamingMetrics run_lifecycle(JobSource& source, QuantumCloud& cloud,
                               const Placer& placer,
                               const CommAllocator& allocator,
                               const EngineOptions& options,
                               const LifecycleSettings& settings) {
  return JobLifecycle(source, cloud, placer, allocator, options, settings)
      .run();
}

}  // namespace cloudqc
