// Discrete-event simulator executing one or more *placed* circuits on the
// quantum cloud. Local gates run as soon as their DAG predecessors finish;
// remote gates additionally contend for communication qubits, which a
// pluggable CommAllocator hands out at every decision point (Algorithm 3's
// main loop). EPR generation is probabilistic per the EprModel.
//
// Decision points are *change-gated*: an allocation round only fires when
// the communication-resource state actually changed — a completed remote
// gate released its pairs, or a newly ready remote gate joined the wait
// queue. Events that free no communication qubits and ready no remote ops
// (the bulk of the event stream for local-gate-heavy circuits) skip the
// allocator entirely. For RNG-free allocators (CloudQC/Greedy/Average)
// this is a pure no-op elimination — a repeated round on unchanged state
// provably starts nothing — so completion records are bit-identical to the
// ungated event loop; the Random allocator consumes RNG per round, so its
// trajectory changes but stays deterministic per seed. The ungated loop is
// kept behind set_change_gated(false) as the regression baseline
// (bench_network_sim fails CI when gating stops paying for itself).
//
// With a router, one decision point may run several allocation rounds
// (see allocate_and_start). Within a decision point free communication
// qubits only shrink, so an op the router blocked in an earlier round is
// still blocked (the monotone-blocking clause of the EprRouter contract):
// it stays in the wait queue, and a later round that funds it again
// requeues it without asking the router. The next decision point asks
// afresh. Grants and trajectories are those of asking every time.
//
// The simulator supports dynamic job admission, which is how the shared
// job lifecycle (core/job_lifecycle.hpp) runs concurrent tenants on one
// network.
//
// Concurrency contract: a NetworkSimulator instance is confined to one
// thread, but it only *reads* the cloud and the allocator and owns its RNG
// by value, so any number of instances may run in parallel over the same
// QuantumCloud/CommAllocator (the parallel executor's job-level
// parallelism). Callers must not mutate the cloud's reservations from
// another thread while a simulation is running on it.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/dag.hpp"
#include "cloud/cloud.hpp"
#include "common/rng.hpp"
#include "schedule/allocators.hpp"
#include "schedule/remote_dag.hpp"
#include "schedule/routing.hpp"
#include "sim/epr.hpp"
#include "sim/event_queue.hpp"

namespace cloudqc {

struct JobCompletion {
  int job = -1;
  SimTime time = 0.0;
  /// First-order output-fidelity estimate: product of per-gate fidelity
  /// factors (FidelityModel), remote gates paying per swap hop. Underflows
  /// to 0 for very large circuits — use log_fidelity for comparisons.
  double est_fidelity = 1.0;
  /// ln(est_fidelity), exact even when the product underflows.
  double log_fidelity = 0.0;
};

class NetworkSimulator {
 public:
  /// `cloud` provides the latency model, the EPR success probability and
  /// the per-QPU communication-qubit capacities. Computing-qubit
  /// bookkeeping stays with the caller (the placement layer).
  ///
  /// When `router` is non-null, each multi-hop remote operation is routed
  /// at start time against the live congestion state, and communication
  /// qubits are reserved on every QPU along the chosen path (entanglement
  /// swapping at intermediate nodes consumes qubits there too). A router
  /// returning nullopt means every usable path is saturated: the operation
  /// is requeued and retried at the next decision point — it is never
  /// executed over the static hop model while the network says it cannot
  /// be routed. With a null router, ops use the static hop distance from
  /// placement time and only endpoint qubits are accounted — the paper's
  /// simpler model.
  NetworkSimulator(const QuantumCloud& cloud, const CommAllocator& allocator,
                   Rng rng, const EprRouter* router = nullptr);

  /// Admit a placed job at the current simulation time. Returns a job id.
  /// `qubit_to_qpu` must cover every qubit of `circuit`.
  int add_job(const Circuit& circuit, std::vector<QpuId> qubit_to_qpu);

  /// Advance the simulation until the next job completes; nullopt when all
  /// admitted jobs have finished.
  std::optional<JobCompletion> run_until_next_completion();

  /// Time of the next scheduled event, or nullopt when idle.
  std::optional<SimTime> next_event_time() const;

  /// Process exactly one event; returns a completion record when that
  /// event finished a job. Precondition: !idle (next_event_time() has a
  /// value).
  std::optional<JobCompletion> step();

  /// Move the clock forward to `t` without processing events (used by
  /// drivers to align job arrivals with simulation time). Precondition:
  /// now() <= t <= next_event_time() (if any event is scheduled).
  void advance_time(SimTime t);

  /// Drain everything; returns the completion record of every job admitted
  /// so far, in completion order.
  std::vector<JobCompletion> run_to_completion();

  SimTime now() const { return now_; }

  /// Number of jobs admitted so far (recycled slots still count).
  int num_jobs() const { return jobs_admitted_; }

  /// Job slots currently holding live (admitted, not yet completed) state.
  /// With recycling on this is the simulator's memory bound; without it,
  /// it equals num_jobs().
  std::size_t live_jobs() const { return jobs_.size() - free_slots_.size(); }

  /// Recycle completed job slots (default off): when a job completes, its
  /// per-job state (DAG, remote DAG, mapping) is released and the slot is
  /// reused by a later add_job — the streaming engine's O(1)-residual
  /// contract. Job ids handed out by add_job are then *not* unique across
  /// the run (a completion's id may be reassigned by the next add_job), so
  /// callers must consume each JobCompletion before admitting more work.
  /// Event trajectories, completion times and fidelities are bit-identical
  /// to the non-recycled run — allocation decisions never read job ids —
  /// only the id labels differ. Off by default: direct callers (benches,
  /// tests) join completions on stable ids.
  void set_recycle_completed(bool enabled) { recycle_completed_ = enabled; }

  /// Total EPR attempt rounds consumed so far (all jobs) — a network-cost
  /// counter used by benches and tests.
  std::uint64_t total_epr_rounds() const { return total_epr_rounds_; }

  /// Change-gated decision points (default on): allocation rounds fire
  /// only when communication pairs were released or a remote gate became
  /// ready. `false` disables only the change gate, making decision points
  /// fire after *every* event — the baseline bench_network_sim and the
  /// parity tests compare against. It does not restore pre-gating
  /// behavior wholesale: the router-stall requeue and the routed
  /// fixed-point rounds apply in both modes.
  void set_change_gated(bool enabled) { change_gated_ = enabled; }

  /// Cancel a live job: its pending gate events are dropped, in-flight
  /// remote operations return their communication qubits, and the slot is
  /// wiped (and recycled when recycling is on). The job produces no
  /// completion record; re-admitting it restarts the circuit from
  /// scratch. Used by the churn layer to displace jobs from a departing
  /// QPU. Precondition: the slot holds a live job.
  void cancel_job(int job_id);

  /// QPU maintenance fence: impound a QPU's *free* communication qubits
  /// so no decision point hands them out; operations already holding
  /// qubits there keep running and their releases flow into the impound
  /// as they finish. The caller is responsible for displacing jobs placed
  /// on the QPU first (cancel_job) and for fencing computing capacity in
  /// the placement layer — the simulator only fences communication
  /// resources. Not supported together with a router (a path could
  /// transit the offline QPU); the churn engines run router-free.
  /// set_qpu_online returns every impounded qubit to the free pool and
  /// marks a decision point dirty.
  void set_qpu_offline(QpuId q);
  void set_qpu_online(QpuId q);

  /// Run a decision point now if the resource state changed — the churn
  /// layer's hook after cancellations and QPU state flips (which do not
  /// flow through step()).
  void run_pending_allocation() { maybe_allocate(); }

  /// Sinusoidal calibration drift (cloud/churn.hpp): at each remote-op
  /// start, the EPR success probability and the per-hop link fidelity
  /// are scaled by calibration_drift_factor(now(), amplitude, period).
  /// The drifted path consumes exactly as many RNG draws as the static
  /// one, so amplitude = 0 (the default) is bit-identical to never
  /// calling this.
  void set_calibration_drift(double amplitude, double period);

  /// Events processed so far (step() calls) — the events/sec numerator.
  std::uint64_t num_events_processed() const { return events_processed_; }

  /// Allocation rounds in which the allocator was actually invoked (the
  /// wait queue was non-empty). Gating shrinks this without changing
  /// completions for deterministic allocators.
  std::uint64_t num_allocation_rounds() const { return alloc_rounds_; }

 private:
  struct GateDone {
    int job;
    int gate;
    int comm_pairs;  // communication qubits to release (remote gates)
    /// QPUs holding `comm_pairs` qubits each for this op (endpoints, plus
    /// intermediate swap nodes when routing is enabled).
    std::vector<QpuId> reserved_on;
  };

  /// A remote op waiting for communication qubits. Its allocator request
  /// (priority and endpoints) sits at the same index of requests_, built
  /// once when the op becomes ready.
  struct WaitingOp {
    int job = -1;
    int gate = -1;
    int node = -1;  // remote-DAG node
    /// Decision point in which the router last returned no path for it
    /// (0 = never).
    std::uint64_t blocked_at = 0;
  };

  struct Job {
    const Circuit* circuit = nullptr;
    std::vector<QpuId> map;
    CircuitDag dag;
    RemoteDag remote;
    std::vector<int> remote_prio;     // priority per remote-dag node
    std::vector<int> remote_of_gate;  // gate index -> remote node id or -1
    std::vector<int> pending_preds;   // per gate
    std::size_t gates_left = 0;
    SimTime admitted = 0.0;
    double log_fidelity = 0.0;  // Σ log f per executed gate
    bool done = false;
  };

  /// Gate became ready: local gates start immediately; remote gates join
  /// the wait queue for the next allocation round (and mark it dirty).
  void on_ready(int job, int gate);
  void start_local(int job, int gate);
  /// Run allocation rounds over the waiting remote ops and start the
  /// funded ones. Without a router one round is terminal (a second round
  /// on the residual budget provably starts nothing); with a router,
  /// rounds repeat until a fixed point because a funded op can be blocked
  /// by a saturated path without consuming its grant, leaving budget the
  /// next round may redistribute. The grant-conservation half of that
  /// rule — a path-blocked op returns its *full* grant, nothing is
  /// deducted — is asserted per round in debug builds, for every router
  /// implementation (the cached frontier router included).
  void allocate_and_start();
  /// One allocator round over requests_; returns the number of operations
  /// started. Started ops leave the waiting set in place (retain_waiting);
  /// in release builds the round allocates only the allocator's grant
  /// vector and each started op's path.
  std::size_t run_allocation_round();
  /// Keep the waiting ops i (and their requests) for which keep(i) holds,
  /// in order, compacting both vectors in place. keep is called once per
  /// op in index order, so it may start the ops it drops.
  template <typename Keep>
  void retain_waiting(Keep keep);
  /// Invoke allocate_and_start() only when the resource state changed
  /// since the last round (always, when change gating is off).
  void maybe_allocate();
  void finish_gate(const GateDone& done);
  /// Return released communication qubits to the free pool — or into the
  /// impound while the QPU is offline.
  void release_comm(QpuId q, int pairs);
  /// Free a completed job's per-job state and queue its slot for reuse.
  void release_job(int job_id);
  double gate_duration(const Job& job, int gate) const;

  const QuantumCloud& cloud_;
  const CommAllocator& allocator_;
  const EprRouter* router_;  // may be null (static shortest-hop model)
  Rng rng_;
  EprModel epr_;
  EventQueue<GateDone> events_;
  std::vector<Job> jobs_;
  /// Completed slots awaiting reuse (recycle mode), LIFO for locality.
  std::vector<int> free_slots_;
  int jobs_admitted_ = 0;
  bool recycle_completed_ = false;
  /// Waiting remote ops in the order they became ready, and their
  /// allocator requests at the same indices: the allocator's input, kept
  /// across rounds rather than rebuilt.
  std::vector<WaitingOp> waiting_remote_;
  std::vector<CommRequest> requests_;
  /// Budget-check scratch, one entry per QPU, all zero between rounds.
  std::vector<int> spend_;
  /// Count of allocate_and_start() calls, the stamp in
  /// WaitingOp::blocked_at.
  std::uint64_t decision_point_ = 0;
  /// Free communication qubits per QPU (simulator-owned view).
  std::vector<int> free_comm_;
  /// Communication qubits fenced off per offline QPU (maintenance).
  std::vector<int> impounded_;
  /// Maintenance state per QPU (1 = offline).
  std::vector<char> offline_;
  double drift_amplitude_ = 0.0;
  double drift_period_ = 0.0;
  SimTime now_ = 0.0;
  std::uint64_t total_epr_rounds_ = 0;
  /// True when comm pairs were released or the waiting set grew since the
  /// last allocation round — the change-gate for the next decision point.
  bool alloc_dirty_ = false;
  bool change_gated_ = true;
  std::uint64_t events_processed_ = 0;
  std::uint64_t alloc_rounds_ = 0;
};

}  // namespace cloudqc
