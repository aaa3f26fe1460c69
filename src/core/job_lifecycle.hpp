// The job lifecycle shared by every queue engine (run_batch, run_incoming
// and run_streaming, so every scenario mode but batch): a pull intake,
// one ordered queue of arrived-but-unplaced jobs, the admission walk over
// it, the in-flight reservations, churn fencing, preemption and the
// single event/arrival/churn loop that drives the NetworkSimulator.
// This is the paper's control loop (Sec. V-B): the batch manager or the
// FIFO intake orders jobs, the placer admits a job when capacity allows,
// and the network scheduler runs every admitted job on the shared cloud.
//
// Every engine reads the one EngineOptions below; the engines are thin
// adaptors that differ only in their source and in whether they keep a
// per-job table:
//   run_streaming — a pulled JobSource, no table (StreamingOptions only
//                   changes the pending bound and shard defaults);
//   run_incoming  — a vector source over the caller's trace, with a table;
//   run_batch     — run_incoming with every job arriving at t = 0 in
//                   batch-manager order.
// Each takes the same optional EprRouter; a routed run is no engine of
// its own. A job that can never be placed throws when there is a table
// (a per-job view accounts for every job) and is dropped and counted when
// there is none.
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

class EprRouter;
class PlacementCache;
struct ChurnPlan;

/// Tenant-class attributes of one job in a lifecycle run.
/// Default-constructed = the classless engine: priority 0, no preemption.
struct JobClass {
  /// Higher-priority jobs are attempted first at every admission round.
  int priority = 0;
  /// May evict strictly-lower-priority in-flight jobs when placement
  /// fails (restart semantics: the victim re-runs from scratch).
  bool preempt = false;
};

/// Per-job outcome of one shared-cloud run (batch, incoming).
/// Times are simulation time units (CX-gate durations); batch jobs all
/// arrive at t = 0.
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
  /// Communication cost of the admitted placement (paper Obj. 1).
  double comm_cost = 0.0;
  /// Distinct QPUs the placement spans.
  int qpus_used = 0;
  /// First-order output-fidelity estimate (see FidelityModel).
  double est_fidelity = 1.0;
  /// Times the job was displaced (churn) or preempted and re-run from
  /// scratch; placed_time/remote_ops/comm_cost/qpus_used describe the
  /// final run.
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

/// What to do with new arrivals while the pending set is at max_pending.
enum class StreamingBackpressure {
  /// Stop pulling from the source until admissions free space. Arrival
  /// timestamps are the source's own and do not shift — deferral delays
  /// *admission* (queueing time counts into JCT), models an upstream
  /// buffer that absorbs the burst.
  kDefer,
  /// Keep pulling and drop overflow arrivals, counted in
  /// StreamingMetrics::rejected — models a load-shedding front end. Needs
  /// a run without a per-job table.
  kReject,
};

/// Every setting of a lifecycle run, read by run_lifecycle directly; each
/// engine's options are this struct (MultiTenantOptions adds run_batch's
/// ordering inputs, StreamingOptions only other defaults). The defaults
/// are the core's own: unbounded pending set, defer, one shard, no
/// checkpoints, static classless cloud.
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
  /// EPR-path router handed to the simulator (not owned; see
  /// schedule/routing.hpp). Null keeps the static hop model. Not
  /// supported together with churn (NetworkSimulator::set_qpu_offline).
  const EprRouter* router = nullptr;
  /// Optional maintenance/churn timeline (not owned; see cloud/churn.hpp).
  /// Null — or a plan with no events and zero drift — keeps the
  /// static-cloud trajectory. Offline edges displace every in-flight job
  /// holding qubits on the departing QPU (policy kRequeue re-queues it at
  /// its key, kMigrate attempts an immediate re-placement first) and fence
  /// the QPU's computing and communication capacity until the matching
  /// online edge, or until the run ends.
  const ChurnPlan* churn = nullptr;
  /// Optional tenant classes indexed by submission order. Empty keeps the
  /// classless engine bit-identical; otherwise every submitted job needs
  /// an entry. A job enters the queue before every strictly lower-priority
  /// entry (stable within a priority level, so uniform classes reproduce
  /// the classless order exactly), and preempt-enabled jobs may evict
  /// strictly-lower-priority in-flight work when placement fails.
  std::vector<JobClass> classes;
  /// At most `max_pending` (>= 1) arrived jobs wait in the queue; the
  /// residual memory is O(max_pending + in-flight + sketches). While it is
  /// full the intake stops pulling (defer), or keeps pulling and drops
  /// the overflow as rejected (reject).
  std::size_t max_pending = std::numeric_limits<std::size_t>::max();
  StreamingBackpressure backpressure = StreamingBackpressure::kDefer;
  /// Intake shard count (>= 1). A *fixed* partition of the fold: job i
  /// lands in shard i % intake_shards, shards are walked in index order
  /// and their metrics merge in shard order. Deliberately not tied to any
  /// worker count, so the metrics partition never changes with
  /// parallelism.
  std::size_t intake_shards = 1;
  /// Call `on_checkpoint` after every `checkpoint_interval` completions
  /// (0 = never). The callback must not mutate engine state; it exists so
  /// benches can sample memory/throughput at fractions of the run.
  std::uint64_t checkpoint_interval = 0;
  std::function<void(const StreamingProgress&)> on_checkpoint;
};

/// Drain `source` through the lifecycle until every job has completed or
/// been dropped, and return the folded metrics (shard folds merged in
/// shard order, plus the queue and in-flight high-water marks and the
/// simulator's event and allocation-round counts). A non-null `table` is
/// refilled with one JobStats per submitted job, indexed by submission
/// order, and an unplaceable job throws
/// std::logic_error; reject backpressure is refused there, since a
/// rejected job would leave a hole. Without a table unplaceable jobs are
/// dropped and counted. Every reservation and churn fence is released
/// before returning — also when the run throws — so the caller's cloud is
/// restored however it ended.
StreamingMetrics run_lifecycle(JobSource& source, QuantumCloud& cloud,
                               const Placer& placer,
                               const CommAllocator& allocator,
                               const EngineOptions& options,
                               std::vector<JobStats>* table);

}  // namespace cloudqc
