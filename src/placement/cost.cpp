#include "placement/cost.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace cloudqc {

int Placement::num_qpus_used() const {
  // Finalized placements carry cloud-sized per-QPU usage: count occupied
  // QPUs directly. Raw placements fall back to a flat seen-array scan —
  // either way no per-call std::set allocation.
  if (!qubits_per_qpu.empty()) {
    return static_cast<int>(std::count_if(qubits_per_qpu.begin(),
                                          qubits_per_qpu.end(),
                                          [](int c) { return c > 0; }));
  }
  QpuId max_id = -1;
  for (const QpuId q : qubit_to_qpu) max_id = std::max(max_id, q);
  if (max_id < 0) return 0;
  std::vector<char> seen(static_cast<std::size_t>(max_id) + 1, 0);
  int count = 0;
  for (const QpuId q : qubit_to_qpu) {
    char& s = seen[static_cast<std::size_t>(q)];
    count += 1 - s;
    s = 1;
  }
  return count;
}

double placement_comm_cost(const Circuit& circuit, const QuantumCloud& cloud,
                           const std::vector<QpuId>& qubit_to_qpu) {
  CLOUDQC_CHECK(qubit_to_qpu.size() ==
                static_cast<std::size_t>(circuit.num_qubits()));
  double cost = 0.0;
  for (const auto& g : circuit.gates()) {
    if (!g.two_qubit()) continue;
    const QpuId a = qubit_to_qpu[static_cast<std::size_t>(g.qubits[0])];
    const QpuId b = qubit_to_qpu[static_cast<std::size_t>(g.qubits[1])];
    if (a != b) cost += cloud.distance(a, b);
  }
  return cost;
}

std::size_t placement_remote_ops(const Circuit& circuit,
                                 const std::vector<QpuId>& qubit_to_qpu) {
  std::size_t remote = 0;
  for (const auto& g : circuit.gates()) {
    if (!g.two_qubit()) continue;
    if (qubit_to_qpu[static_cast<std::size_t>(g.qubits[0])] !=
        qubit_to_qpu[static_cast<std::size_t>(g.qubits[1])]) {
      ++remote;
    }
  }
  return remote;
}

std::vector<std::size_t> remote_ops_per_qpu(
    const Circuit& circuit, const std::vector<QpuId>& qubit_to_qpu,
    int num_qpus) {
  std::vector<std::size_t> count(static_cast<std::size_t>(num_qpus), 0);
  for (const auto& g : circuit.gates()) {
    if (!g.two_qubit()) continue;
    const QpuId a = qubit_to_qpu[static_cast<std::size_t>(g.qubits[0])];
    const QpuId b = qubit_to_qpu[static_cast<std::size_t>(g.qubits[1])];
    if (a == b) continue;
    ++count[static_cast<std::size_t>(a)];
    ++count[static_cast<std::size_t>(b)];
  }
  return count;
}

namespace {

/// What finalize_placement derives from the gate list, in one pass: the
/// communication cost and remote-op count (summed in gate order, as
/// placement_comm_cost and placement_remote_ops do) and the execution-time
/// estimate.
struct GateCosts {
  double comm_cost = 0.0;
  std::size_t remote_ops = 0;
  double est_time = 0.0;
};

GateCosts cost_gates(const Circuit& circuit, const CircuitDag& dag,
                     const QuantumCloud& cloud,
                     const std::vector<QpuId>& qubit_to_qpu) {
  CLOUDQC_CHECK(qubit_to_qpu.size() ==
                static_cast<std::size_t>(circuit.num_qubits()));
  const LatencyModel& lat = cloud.config().latency;
  const EprModel epr(cloud.config().epr_success_prob);
  auto price = [&](int hops) {
    return epr.expected_rounds(hops, 1) * lat.t_epr +
           lat.remote_gate_overhead();
  };
  // A remote gate's cost depends only on its hop count, so each distinct
  // count is priced once (negative = not yet priced). A disconnected pair
  // (hops -1) goes straight to the EPR model, which rejects it.
  std::vector<double> remote_cost;
  GateCosts out;
  std::vector<double> node_cost(circuit.num_gates());
  for (std::size_t i = 0; i < circuit.num_gates(); ++i) {
    const Gate& g = circuit.gates()[i];
    if (g.kind == GateKind::kMeasure) {
      node_cost[i] = lat.t_measure;
    } else if (g.kind == GateKind::kBarrier) {
      node_cost[i] = 0.0;
    } else if (!g.two_qubit()) {
      node_cost[i] = lat.t_1q;
    } else {
      const QpuId a = qubit_to_qpu[static_cast<std::size_t>(g.qubits[0])];
      const QpuId b = qubit_to_qpu[static_cast<std::size_t>(g.qubits[1])];
      if (a == b) {
        node_cost[i] = lat.t_2q;
        continue;
      }
      const int hops = cloud.distance(a, b);
      out.comm_cost += hops;
      ++out.remote_ops;
      if (hops < 0) {
        node_cost[i] = price(hops);
      } else {
        const auto h = static_cast<std::size_t>(hops);
        if (h >= remote_cost.size()) remote_cost.resize(h + 1, -1.0);
        if (remote_cost[h] < 0.0) remote_cost[h] = price(hops);
        node_cost[i] = remote_cost[h];
      }
    }
  }
  out.est_time = dag.critical_path(node_cost);
  return out;
}

}  // namespace

double estimate_execution_time(const Circuit& circuit, const CircuitDag& dag,
                               const QuantumCloud& cloud,
                               const std::vector<QpuId>& qubit_to_qpu) {
  return cost_gates(circuit, dag, cloud, qubit_to_qpu).est_time;
}

std::vector<int> qubits_per_qpu(const QuantumCloud& cloud,
                                const std::vector<QpuId>& qubit_to_qpu) {
  std::vector<int> count(static_cast<std::size_t>(cloud.num_qpus()), 0);
  for (const QpuId q : qubit_to_qpu) {
    CLOUDQC_CHECK(q >= 0 && q < static_cast<QpuId>(count.size()));
    ++count[static_cast<std::size_t>(q)];
  }
  return count;
}

bool placement_fits(const QuantumCloud& cloud,
                    const std::vector<QpuId>& qubit_to_qpu) {
  const auto usage = qubits_per_qpu(cloud, qubit_to_qpu);
  for (int i = 0; i < cloud.num_qpus(); ++i) {
    if (usage[static_cast<std::size_t>(i)] >
        cloud.qpu(i).free_computing()) {
      return false;
    }
  }
  return true;
}

Placement finalize_placement(const Circuit& circuit, const CircuitDag& dag,
                             const QuantumCloud& cloud,
                             std::vector<QpuId> qubit_to_qpu, double alpha,
                             double beta) {
  CLOUDQC_CHECK(dag.num_nodes() == circuit.num_gates());
  Placement p;
  p.qubit_to_qpu = std::move(qubit_to_qpu);
  p.qubits_per_qpu = qubits_per_qpu(cloud, p.qubit_to_qpu);
  const GateCosts costs = cost_gates(circuit, dag, cloud, p.qubit_to_qpu);
  p.comm_cost = costs.comm_cost;
  p.remote_ops = costs.remote_ops;
  p.est_time = costs.est_time;
  // S = α/T + β/C; a zero-cost (single-QPU) placement is the best possible
  // for the C-term, represented by treating 1/C as 1/(C+1) shifted — we use
  // C+1 and T+1 to keep the score finite and monotone.
  p.score = alpha / (p.est_time + 1.0) + beta / (p.comm_cost + 1.0);
  return p;
}

Placement finalize_placement(const Circuit& circuit, const QuantumCloud& cloud,
                             std::vector<QpuId> qubit_to_qpu, double alpha,
                             double beta) {
  return finalize_placement(circuit, CircuitDag(circuit), cloud,
                            std::move(qubit_to_qpu), alpha, beta);
}

}  // namespace cloudqc
