// The quantum cloud: a fixed QPU-network topology plus the controller's
// live view of per-QPU resource usage (Sec. III of the paper).
#pragma once

#include <vector>

#include "cloud/fidelity_model.hpp"
#include "cloud/latency_model.hpp"
#include "cloud/qpu.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "graph/algorithms.hpp"
#include "graph/graph.hpp"

namespace cloudqc {

/// Cloud-wide configuration: topology size, per-QPU resource defaults and
/// the physical-layer models. Heterogeneous clouds override the per-QPU
/// capacities via the QuantumCloud capacity-vector constructor; the
/// `*_qubits_per_qpu` fields then act as the profile *average* (see
/// cloud/topologies.hpp).
struct CloudConfig {
  int num_qpus = 20;                 // paper default
  int computing_qubits_per_qpu = 20; // paper default
  int comm_qubits_per_qpu = 5;       // paper default
  double link_probability = 0.3;     // Erdős–Rényi edge probability
  double epr_success_prob = 0.3;     // per-attempt EPR success
  LatencyModel latency{};
  FidelityModel fidelity{};
  /// Entanglement-purification rounds per delivered pair (0 = off). Each
  /// level doubles the raw pairs a remote gate must generate but boosts
  /// the delivered pair's fidelity (BBPSSW recurrence) — a latency-vs-
  /// fidelity knob (see bench_ablation_purification).
  int purification_level = 0;
};

class QuantumCloud {
 public:
  /// Build a cloud with a random (connected) topology drawn from `rng`.
  QuantumCloud(const CloudConfig& config, Rng& rng);

  /// Build a cloud over an explicit topology (QPU i = node i).
  QuantumCloud(const CloudConfig& config, Graph topology);

  /// Build a heterogeneous cloud: QPU i gets capacities[i] instead of the
  /// uniform per-QPU counts in `config`. Requires capacities.size() ==
  /// topology.num_nodes() == config.num_qpus.
  QuantumCloud(const CloudConfig& config, Graph topology,
               const std::vector<QpuCapacity>& capacities);

  /// Number of QPUs (== topology().num_nodes()).
  int num_qpus() const { return static_cast<int>(qpus_.size()); }
  /// The fixed QPU-network graph (node i = QPU i).
  const Graph& topology() const { return topology_; }
  /// The configuration this cloud was built from.
  const CloudConfig& config() const { return config_; }

  /// The QPU with id `id` (checked; ids are 0..num_qpus()-1). Inline:
  /// the placers' capacity scans call it millions of times per run.
  Qpu& qpu(QpuId id) {
    CLOUDQC_CHECK(id >= 0 && id < static_cast<QpuId>(qpus_.size()));
    return qpus_[static_cast<std::size_t>(id)];
  }
  const Qpu& qpu(QpuId id) const {
    CLOUDQC_CHECK(id >= 0 && id < static_cast<QpuId>(qpus_.size()));
    return qpus_[static_cast<std::size_t>(id)];
  }

  /// Hop distance between two QPUs (the placement cost C_ij); -1 never
  /// occurs because topologies are connected by construction.
  int distance(QpuId a, QpuId b) const { return hops_(a, b); }

  /// Sum of computing-qubit capacities across the cloud (heterogeneous
  /// clouds may differ from num_qpus * config().computing_qubits_per_qpu's
  /// uniform value only in distribution, never in this total — see the
  /// sum-conserving capacity profiles in cloud/topologies.hpp).
  int total_computing_capacity() const;

  /// Sum of communication-qubit capacities across the cloud.
  int total_comm_capacity() const;

  /// Sum of free computing qubits across the cloud.
  int total_free_computing() const;

  /// Largest free computing block on any single QPU.
  int max_free_computing() const;

  /// QPU-topology graph with node weights set to current free computing
  /// qubits and each edge re-weighted by the endpoint resource availability
  /// — the input CloudQC feeds to community detection so that "dense"
  /// communities are both well-connected and resource-rich.
  Graph resource_weighted_topology() const;

  /// Reserve `qubits[i]` computing qubits on QPU i (all-or-nothing).
  /// Returns false (and changes nothing) if any QPU lacks capacity.
  bool try_reserve(const std::vector<int>& qubits_per_qpu);
  void release(const std::vector<int>& qubits_per_qpu);

 private:
  CloudConfig config_;
  Graph topology_;
  std::vector<Qpu> qpus_;
  HopDistanceMatrix hops_;
};

}  // namespace cloudqc
