#include "sim/network_sim.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "cloud/churn.hpp"
#include "common/check.hpp"

namespace cloudqc {

NetworkSimulator::NetworkSimulator(const QuantumCloud& cloud,
                                   const CommAllocator& allocator, Rng rng,
                                   const EprRouter* router)
    : cloud_(cloud),
      allocator_(allocator),
      router_(router),
      rng_(rng),
      epr_(cloud.config().epr_success_prob) {
  free_comm_.resize(static_cast<std::size_t>(cloud.num_qpus()));
  for (QpuId q = 0; q < cloud.num_qpus(); ++q) {
    free_comm_[static_cast<std::size_t>(q)] = cloud.qpu(q).comm_capacity();
  }
  impounded_.assign(free_comm_.size(), 0);
  offline_.assign(free_comm_.size(), 0);
  spend_.assign(free_comm_.size(), 0);
}

template <typename Keep>
void NetworkSimulator::retain_waiting(Keep keep) {
  // One stable write cursor over both parallel vectors. Ops before the
  // first dropped one stay where they are, so a pass that drops nothing
  // writes nothing back.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < waiting_remote_.size(); ++i) {
    if (!keep(i)) continue;
    if (kept != i) {
      waiting_remote_[kept] = waiting_remote_[i];
      requests_[kept] = requests_[i];
    }
    ++kept;
  }
  waiting_remote_.resize(kept);
  requests_.resize(kept);
}

int NetworkSimulator::add_job(const Circuit& circuit,
                              std::vector<QpuId> qubit_to_qpu) {
  CLOUDQC_CHECK(qubit_to_qpu.size() ==
                static_cast<std::size_t>(circuit.num_qubits()));
  CircuitDag dag(circuit);
  RemoteDag remote(circuit, dag, qubit_to_qpu, cloud_);
  // The static hop model serves an op over the placement-time distance,
  // which is -1 between disconnected QPUs: refuse the job before it takes
  // a slot or draws from the RNG.
  for (std::size_t i = 0; router_ == nullptr && i < remote.num_ops(); ++i) {
    if (remote.op(static_cast<int>(i)).hops < 1) {
      throw std::logic_error(
          "deadlock: job '" + circuit.name() +
          "' has a remote operation with no EPR path between its QPUs");
    }
  }
  int id;
  if (recycle_completed_ && !free_slots_.empty()) {
    id = free_slots_.back();
    free_slots_.pop_back();
  } else {
    id = static_cast<int>(jobs_.size());
    jobs_.emplace_back();
  }
  ++jobs_admitted_;

  Job job;
  job.circuit = &circuit;
  job.map = std::move(qubit_to_qpu);
  job.remote_prio = remote.priorities();
  job.remote_of_gate.assign(circuit.num_gates(), -1);
  for (std::size_t i = 0; i < remote.num_ops(); ++i) {
    job.remote_of_gate[static_cast<std::size_t>(
        remote.op(static_cast<int>(i)).gate_index)] = static_cast<int>(i);
  }
  job.pending_preds.resize(circuit.num_gates());
  for (std::size_t g = 0; g < circuit.num_gates(); ++g) {
    job.pending_preds[g] = dag.in_degree(static_cast<int>(g));
  }
  job.gates_left = circuit.num_gates();
  job.admitted = now_;
  job.dag = std::move(dag);
  job.remote = std::move(remote);
  jobs_[static_cast<std::size_t>(id)] = std::move(job);

  Job& admitted = jobs_[static_cast<std::size_t>(id)];
  if (admitted.gates_left == 0) {
    admitted.done = true;
    if (recycle_completed_) release_job(id);
  } else {
    for (const int g : admitted.dag.front_layer()) {
      on_ready(id, g);
    }
    maybe_allocate();
  }
  return id;
}

void NetworkSimulator::cancel_job(int job_id) {
  CLOUDQC_CHECK(job_id >= 0 &&
                static_cast<std::size_t>(job_id) < jobs_.size());
  Job& job = jobs_[static_cast<std::size_t>(job_id)];
  CLOUDQC_CHECK_MSG(job.circuit != nullptr && !job.done,
                    "cancel_job on an empty or completed slot");
  // Drop every pending event of the job; in-flight remote operations
  // return their communication qubits at cancel time.
  events_.remove_if([&](const GateDone& done) {
    if (done.job != job_id) return false;
    if (done.comm_pairs > 0) {
      for (const QpuId q : done.reserved_on) release_comm(q, done.comm_pairs);
      alloc_dirty_ = true;  // released pairs may fund a waiting op
    }
    return true;
  });
  retain_waiting(
      [&](std::size_t i) { return waiting_remote_[i].job != job_id; });
  jobs_[static_cast<std::size_t>(job_id)] = Job{};
  jobs_[static_cast<std::size_t>(job_id)].done = true;
  if (recycle_completed_) free_slots_.push_back(job_id);
}

void NetworkSimulator::set_qpu_offline(QpuId q) {
  CLOUDQC_CHECK(q >= 0 && static_cast<std::size_t>(q) < offline_.size());
  CLOUDQC_CHECK_MSG(!offline_[static_cast<std::size_t>(q)],
                    "QPU is already offline");
  CLOUDQC_CHECK_MSG(router_ == nullptr,
                    "QPU maintenance is not supported with a router");
  offline_[static_cast<std::size_t>(q)] = 1;
  impounded_[static_cast<std::size_t>(q)] +=
      free_comm_[static_cast<std::size_t>(q)];
  free_comm_[static_cast<std::size_t>(q)] = 0;
}

void NetworkSimulator::set_qpu_online(QpuId q) {
  CLOUDQC_CHECK(q >= 0 && static_cast<std::size_t>(q) < offline_.size());
  CLOUDQC_CHECK_MSG(offline_[static_cast<std::size_t>(q)],
                    "QPU is not offline");
  offline_[static_cast<std::size_t>(q)] = 0;
  if (impounded_[static_cast<std::size_t>(q)] > 0) {
    free_comm_[static_cast<std::size_t>(q)] +=
        impounded_[static_cast<std::size_t>(q)];
    impounded_[static_cast<std::size_t>(q)] = 0;
    alloc_dirty_ = true;  // returned pairs may fund a waiting op
  }
}

void NetworkSimulator::set_calibration_drift(double amplitude,
                                             double period) {
  CLOUDQC_CHECK_MSG(amplitude >= 0.0 && amplitude < 1.0,
                    "drift amplitude must be in [0, 1)");
  CLOUDQC_CHECK_MSG(amplitude == 0.0 || period > 0.0,
                    "drift period must be > 0");
  drift_amplitude_ = amplitude;
  drift_period_ = period;
}

void NetworkSimulator::release_comm(QpuId q, int pairs) {
  if (offline_[static_cast<std::size_t>(q)]) {
    impounded_[static_cast<std::size_t>(q)] += pairs;
  } else {
    free_comm_[static_cast<std::size_t>(q)] += pairs;
  }
}

void NetworkSimulator::release_job(int job_id) {
  // Every gate of the job has fired its one GateDone event and no waiting
  // remote op can reference it, so the slot holds no reachable state —
  // replace it with an empty Job (frees the DAGs and vectors) and queue
  // the slot for reuse. O(1) residual per completed job.
  jobs_[static_cast<std::size_t>(job_id)] = Job{};
  jobs_[static_cast<std::size_t>(job_id)].done = true;
  free_slots_.push_back(job_id);
}

double NetworkSimulator::gate_duration(const Job& job, int gate) const {
  const LatencyModel& lat = cloud_.config().latency;
  const Gate& g = job.circuit->gates()[static_cast<std::size_t>(gate)];
  switch (g.kind) {
    case GateKind::kMeasure:
      return lat.t_measure;
    case GateKind::kReset:
      return lat.t_measure;  // reset = measure + conditional flip
    case GateKind::kBarrier:
      return 0.0;
    default:
      break;
  }
  return g.two_qubit() ? lat.t_2q : lat.t_1q;
}

void NetworkSimulator::on_ready(int job_id, int gate) {
  const Job& job = jobs_[static_cast<std::size_t>(job_id)];
  const int node = job.remote_of_gate[static_cast<std::size_t>(gate)];
  if (node >= 0) {
    const RemoteOp& op = job.remote.op(node);
    const double priority =
        static_cast<double>(job.remote_prio[static_cast<std::size_t>(node)]);
    requests_.push_back({0, priority, op.qpu_a, op.qpu_b});
    waiting_remote_.push_back({job_id, gate, node, 0});
    alloc_dirty_ = true;  // the waiting set grew: a new decision is due
  } else {
    start_local(job_id, gate);
  }
}

void NetworkSimulator::start_local(int job_id, int gate) {
  Job& job = jobs_[static_cast<std::size_t>(job_id)];
  const FidelityModel& fid = cloud_.config().fidelity;
  const Gate& g = job.circuit->gates()[static_cast<std::size_t>(gate)];
  switch (g.kind) {
    case GateKind::kMeasure:
    case GateKind::kReset:
      job.log_fidelity += std::log(fid.f_measure);
      break;
    case GateKind::kBarrier:
      break;
    default:
      job.log_fidelity += std::log(g.two_qubit() ? fid.f_2q : fid.f_1q);
      break;
  }
  events_.push(now_ + gate_duration(job, gate), GateDone{job_id, gate, 0, {}});
}

void NetworkSimulator::maybe_allocate() {
  if (!change_gated_ || alloc_dirty_) allocate_and_start();
}

void NetworkSimulator::allocate_and_start() {
  alloc_dirty_ = false;
  ++decision_point_;
  while (!waiting_remote_.empty()) {
    const std::size_t started = run_allocation_round();
    // Without a router the round is terminal: every grant was consumed in
    // full, so the allocator's residual budget equals free_comm_ and a
    // re-run hands out nothing. With a router, an op the allocator funded
    // may have been blocked by a saturated path (its grant returned to the
    // pool) — keep redistributing until a round starts nothing.
    if (router_ == nullptr || started == 0) break;
  }
}

std::size_t NetworkSimulator::run_allocation_round() {
  ++alloc_rounds_;
  const std::vector<int> pairs =
      allocator_.allocate(requests_, free_comm_, rng_);
  CLOUDQC_CHECK(pairs.size() == requests_.size());

  // Validate the allocator respected per-QPU budgets (zeroing the scratch
  // behind the check), then start funded operations.
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    CLOUDQC_CHECK(pairs[i] >= 0);
    if (pairs[i] == 0) continue;
    spend_[static_cast<std::size_t>(requests_[i].qpu_a)] += pairs[i];
    spend_[static_cast<std::size_t>(requests_[i].qpu_b)] += pairs[i];
  }
  for (std::size_t q = 0; q < free_comm_.size(); ++q) {
    CLOUDQC_CHECK_MSG(spend_[q] <= free_comm_[q],
                      "allocator exceeded communication budget");
    spend_[q] = 0;
  }

  std::size_t started = 0;
  const LatencyModel& lat = cloud_.config().latency;
#ifndef NDEBUG
  // Grant conservation (the PR 3 fixed-point rule, asserted for every
  // router implementation — per-op and frontier alike): an op the
  // allocator funded but the router path-blocked (nullopt, or capped to
  // x <= 0 by a saturated reserved node) must return its *full* grant for
  // redistribution. Equivalently, the only qubits leaving the pool this
  // round are those reserved by ops that actually started.
  const std::vector<int> free_before = free_comm_;
  std::vector<int> started_spend(free_comm_.size(), 0);
#endif
  // Ops that start leave the waiting set; the rest keep arrival order.
  retain_waiting([&](std::size_t i) {
    WaitingOp& w = waiting_remote_[i];
    const CommRequest& req = requests_[i];
    // An op the router blocked earlier in this decision point is blocked
    // still: free_comm_ has only shrunk since, and a blocked answer
    // survives any shrink (the EprRouter contract).
    if (pairs[i] == 0 || w.blocked_at == decision_point_) return true;
    const int job_id = w.job;
    const int gate = w.gate;
    Job& job = jobs_[static_cast<std::size_t>(job_id)];

    // Decide the path (and hence hop count + the QPUs that hold qubits).
    int hops = 0;
    int x = pairs[i];
    std::vector<QpuId> reserved_on;
    if (router_ == nullptr) {
      hops = job.remote.op(w.node).hops;
      reserved_on = {req.qpu_a, req.qpu_b};
    } else {
      auto path = router_->route(cloud_, req.qpu_a, req.qpu_b, free_comm_);
      if (!path.has_value() || !path->valid()) {
        // Every usable path is saturated. The routing contract says this
        // op cannot run right now — requeue it for the next decision
        // point instead of executing it over the stale static hop count
        // with endpoint-only reservation (which would bypass the very
        // intermediates the router reported as exhausted).
        w.blocked_at = decision_point_;
        return true;
      }
      // Entanglement swapping consumes qubits at every QPU on the path;
      // earlier ops in this batch may have consumed path/endpoint qubits
      // the allocator assumed free, so redundancy is capped by the
      // tightest node on the path.
      for (const QpuId q : path->nodes) {
        x = std::min(x, free_comm_[static_cast<std::size_t>(q)]);
      }
      if (x <= 0) {
        // A saturated swap node blocks this op for now; retry at the next
        // decision point (endpoint qubits were never deducted).
        return true;
      }
      hops = path->hops();
      reserved_on = std::move(path->nodes);
    }
    for (const QpuId q : reserved_on) {
      free_comm_[static_cast<std::size_t>(q)] -= x;
      CLOUDQC_DCHECK(free_comm_[static_cast<std::size_t>(q)] >= 0);
#ifndef NDEBUG
      started_spend[static_cast<std::size_t>(q)] += x;
#endif
    }
    // Purification: each delivered pair costs 2^level raw successes and
    // lifts the pair fidelity by the BBPSSW recurrence.
    const int level = cloud_.config().purification_level;
    const int raw_needed = purification::raw_pairs_needed(level);
    const FidelityModel& fid = cloud_.config().fidelity;
    int rounds;
    double path_fidelity;
    if (drift_amplitude_ > 0.0) {
      // Calibration drift: scale the EPR success probability and the
      // per-hop link fidelity by the current drift factor. The drifted
      // model draws exactly as many uniforms as the static one, so the
      // amplitude-0 branch below stays bit-identical.
      const double d =
          calibration_drift_factor(now_, drift_amplitude_, drift_period_);
      const EprModel drifted(cloud_.config().epr_success_prob * d);
      rounds = raw_needed == 1
                   ? drifted.rounds_until_success(hops, x, rng_)
                   : drifted.rounds_until_k_successes(hops, x, raw_needed,
                                                      rng_);
      path_fidelity = std::pow(fid.f_epr * d, hops);
    } else {
      rounds = raw_needed == 1
                   ? epr_.rounds_until_success(hops, x, rng_)
                   : epr_.rounds_until_k_successes(hops, x, raw_needed, rng_);
      path_fidelity = fid.epr_path_fidelity(hops);
    }
    total_epr_rounds_ += static_cast<std::uint64_t>(rounds);
    const double duration =
        rounds * lat.t_epr + lat.remote_gate_overhead();
    const double pair_fidelity =
        purification::purified_fidelity(path_fidelity, level);
    job.log_fidelity += std::log(pair_fidelity * fid.f_2q * fid.f_measure *
                                 fid.f_1q);
    events_.push(now_ + duration,
                 GateDone{job_id, gate, x, std::move(reserved_on)});
    ++started;
    return false;
  });
#ifndef NDEBUG
  for (std::size_t q = 0; q < free_comm_.size(); ++q) {
    CLOUDQC_CHECK_MSG(free_comm_[q] == free_before[q] - started_spend[q],
                      "requeued op did not return its full grant");
  }
#endif
  return started;
}

void NetworkSimulator::finish_gate(const GateDone& done) {
  Job& job = jobs_[static_cast<std::size_t>(done.job)];
  if (done.comm_pairs > 0) {
    for (const QpuId q : done.reserved_on) {
      release_comm(q, done.comm_pairs);
    }
    alloc_dirty_ = true;  // released pairs may fund a waiting op
  }
  CLOUDQC_CHECK(job.gates_left > 0);
  --job.gates_left;
  for (const int s : job.dag.successors(done.gate)) {
    if (--job.pending_preds[static_cast<std::size_t>(s)] == 0) {
      on_ready(done.job, s);
    }
  }
}

std::optional<SimTime> NetworkSimulator::next_event_time() const {
  if (events_.empty()) return std::nullopt;
  return events_.next_time();
}

std::optional<JobCompletion> NetworkSimulator::step() {
  CLOUDQC_CHECK_MSG(!events_.empty(), "step() on an idle simulator");
  auto [time, done] = events_.pop();
  now_ = time;
  ++events_processed_;
  finish_gate(done);
  // Run an allocation round only when this event freed communication
  // pairs or readied a remote gate — on a no-op event a round provably
  // starts nothing (deterministic allocators) or merely burns RNG
  // (Random), so the change gate skips it.
  maybe_allocate();
  Job& job = jobs_[static_cast<std::size_t>(done.job)];
  if (job.gates_left == 0 && !job.done) {
    job.done = true;
    const JobCompletion completion{done.job, now_, std::exp(job.log_fidelity),
                                   job.log_fidelity};
    if (recycle_completed_) release_job(done.job);
    return completion;
  }
  return std::nullopt;
}

void NetworkSimulator::advance_time(SimTime t) {
  CLOUDQC_CHECK(t >= now_);
  if (!events_.empty()) {
    CLOUDQC_CHECK_MSG(t <= events_.next_time(),
                      "advance_time would skip scheduled events");
  }
  now_ = t;
}

std::optional<JobCompletion> NetworkSimulator::run_until_next_completion() {
  while (!events_.empty()) {
    if (auto completion = step()) return completion;
  }
  CLOUDQC_CHECK_MSG(waiting_remote_.empty(),
                    "simulation stalled with waiting remote operations");
  return std::nullopt;
}

std::vector<JobCompletion> NetworkSimulator::run_to_completion() {
  std::vector<JobCompletion> completions;
  while (auto c = run_until_next_completion()) {
    completions.push_back(*c);
  }
  return completions;
}

}  // namespace cloudqc
