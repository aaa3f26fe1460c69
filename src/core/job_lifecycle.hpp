// The job lifecycle shared by every queue engine (run_batch, run_incoming,
// run_streaming): a pull intake, one ordered queue of arrived-but-unplaced
// jobs, the admission walk over it, the in-flight reservations, churn
// fencing, preemption and the single event/arrival/churn loop that drives
// the NetworkSimulator. This is the paper's control loop (Sec. V-B): the
// batch manager or the FIFO intake orders jobs, the placer admits a job
// when capacity allows, and the network scheduler runs every admitted job
// on the shared cloud.
//
// The engines are thin adaptors that differ only in their
// LifecycleSettings and their source:
//   run_streaming — a pulled JobSource, bounded pending set with defer or
//                   reject backpressure, intake shards, checkpoints, and
//                   the drop policy for unplaceable jobs;
//   run_incoming  — a vector source over the caller's trace, unbounded
//                   pending set, one shard, tenant classes, churn, a
//                   per-job table, and the throw policy;
//   run_batch     — run_incoming with every job arriving at t = 0 in
//                   batch-manager order.
//
// Queue order: jobs are kept sorted by (shard, priority desc, id), where
// the id is the submission index (the trace index; for run_batch the
// admission rank). With one shard that is priority-first FIFO; without
// classes it is shards in index order, FIFO inside each. A displaced or
// preempted job re-enters at its key.
//
// In-flight walks (offline displacement, preemption victim search) visit
// jobs in admission order: the in-flight table is keyed by an admission
// sequence number, never by simulator job id, so the simulator's slot
// recycling cannot reorder them.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "cloud/cloud.hpp"
#include "metrics/streaming_metrics.hpp"
#include "placement/placement.hpp"
#include "schedule/allocators.hpp"
#include "sim/event_queue.hpp"

namespace cloudqc {

class PlacementCache;
struct ChurnPlan;

/// Knobs every queue engine shares (IncomingOptions, and through it
/// MultiTenantOptions, and StreamingOptions derive from this).
struct EngineOptions {
  /// Engine RNG seed (placement draws and EPR outcomes derive from it).
  std::uint64_t seed = 1;
  /// Change-gated decision points (see README "Simulator event loop &
  /// decision points"). Both default on; the ungated paths are kept as
  /// the regression baseline for bench_network_sim and for A/B studies.
  /// `gated_admission` suppresses placement retries for queued jobs until
  /// computing qubits have been released since their last failed attempt
  /// (capacity-signature rule; bypassed whenever the cloud is idle).
  /// `gated_allocation` is NetworkSimulator::set_change_gated.
  bool gated_admission = true;
  bool gated_allocation = true;
  /// Optional cross-request placement cache (not owned; see
  /// placement/placement_cache.hpp). Null keeps the exact pre-cache
  /// behaviour: every admission attempt runs the placer cold. The caller
  /// owns the cache so it can persist across runs and read stats; it must
  /// only be shared across *serial* runs against the same cloud topology.
  PlacementCache* cache = nullptr;
};

/// Tenant-class attributes of one job in a shared-cloud engine run
/// (batch and incoming modes). Default-constructed = the classless
/// engine: priority 0, no preemption.
struct JobClass {
  /// Higher-priority jobs are attempted first at every admission round.
  int priority = 0;
  /// May evict strictly-lower-priority in-flight jobs when placement
  /// fails (restart semantics: the victim re-runs from scratch).
  bool preempt = false;
};

/// Per-job outcome of one batch or incoming run. Times are simulation time
/// units (CX-gate durations); batch jobs all arrive at t = 0.
struct JobStats {
  std::string name;
  SimTime arrival = 0.0;
  /// When the job was admitted (placement succeeded).
  SimTime placed_time = 0.0;
  /// When its last gate finished.
  SimTime completion_time = 0.0;
  /// JCT measured from arrival (queueing + execution).
  double jct() const { return completion_time - arrival; }
  /// 2-qubit gates whose endpoints landed on different QPUs.
  std::size_t remote_ops = 0;
  /// Distinct QPUs the placement spans.
  int qpus_used = 0;
  /// First-order output-fidelity estimate (see FidelityModel).
  double est_fidelity = 1.0;
  /// Times the job was displaced (churn) or preempted and re-run from
  /// scratch; placed_time/remote_ops/qpus_used describe the final run.
  int restarts = 0;
};

/// Throws std::logic_error when `circuit` cannot fit the cloud even when it
/// is completely idle — the oversize rule of every engine.
void check_fits_cloud(const Circuit& circuit, const QuantumCloud& cloud);

/// One entry of an arrival trace: a circuit and its submission time.
struct ArrivingJob {
  Circuit circuit;
  SimTime arrival = 0.0;
};

/// Pull-based job stream: next() yields jobs with non-decreasing arrival
/// times until exhausted (nullopt). Sources own their RNG, so a (source
/// factory args, seed) pair fully determines the stream.
class JobSource {
 public:
  virtual ~JobSource() = default;
  virtual std::optional<ArrivingJob> next() = 0;
};

/// Mid-run state snapshot handed to the checkpoint hook.
struct StreamingProgress {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t pending = 0;    ///< intake queues (arrived, not placed)
  std::uint64_t in_flight = 0;  ///< placed, still executing
  double sim_now = 0.0;
};

/// What to do with a job that can never be placed: one larger than the
/// cloud's total capacity, or one that failed a forced attempt against an
/// idle cloud with nothing left that could change capacity.
enum class UnplaceablePolicy {
  kThrow,  ///< std::logic_error (batch and incoming engines)
  kDrop,   ///< count it as rejected and go on (streaming)
};

/// What distinguishes one engine's run of the lifecycle from another's.
struct LifecycleSettings {
  /// Maintenance/churn timeline (not owned); null = static cloud.
  const ChurnPlan* churn = nullptr;
  /// Tenant classes indexed by submission order (not owned); null or
  /// empty = classless.
  const std::vector<JobClass>* classes = nullptr;
  /// At most `max_pending` arrived jobs wait in the queue. While it is
  /// full the intake stops pulling (defer), or — with `reject_overflow` —
  /// keeps pulling and drops the overflow as rejected.
  std::size_t max_pending = std::numeric_limits<std::size_t>::max();
  bool reject_overflow = false;
  /// Job i lands in intake shard i % intake_shards; shards are walked in
  /// index order and fold into per-shard metrics merged at the end.
  std::size_t intake_shards = 1;
  UnplaceablePolicy policy = UnplaceablePolicy::kThrow;
  /// Optional per-job table indexed by submission order (not owned; sized
  /// by the caller).
  std::vector<JobStats>* table = nullptr;
  /// Call `on_checkpoint` after every `checkpoint_interval` completions
  /// (0 = never).
  std::uint64_t checkpoint_interval = 0;
  std::function<void(const StreamingProgress&)> on_checkpoint;
};

/// Drain `source` through the lifecycle until every job has completed or
/// been dropped, and return the folded metrics (shard folds merged in
/// shard order, plus the queue and in-flight high-water marks). Every
/// reservation and churn fence is released before returning — also when
/// the run throws — so the caller's cloud is restored however it ended.
StreamingMetrics run_lifecycle(JobSource& source, QuantumCloud& cloud,
                               const Placer& placer,
                               const CommAllocator& allocator,
                               const EngineOptions& options,
                               const LifecycleSettings& settings);

}  // namespace cloudqc
