#include "cloud/cloud.hpp"

#include <algorithm>

#include "graph/topology.hpp"

namespace cloudqc {

QuantumCloud::QuantumCloud(const CloudConfig& config, Rng& rng)
    : QuantumCloud(config, random_topology(config.num_qpus,
                                           config.link_probability, rng)) {}

QuantumCloud::QuantumCloud(const CloudConfig& config, Graph topology)
    : config_(config), topology_(std::move(topology)), hops_(topology_) {
  CLOUDQC_CHECK(topology_.num_nodes() == config.num_qpus);
  qpus_.assign(static_cast<std::size_t>(config.num_qpus),
               Qpu(config.computing_qubits_per_qpu,
                   config.comm_qubits_per_qpu));
}

QuantumCloud::QuantumCloud(const CloudConfig& config, Graph topology,
                           const std::vector<QpuCapacity>& capacities)
    : config_(config), topology_(std::move(topology)), hops_(topology_) {
  CLOUDQC_CHECK(topology_.num_nodes() == config.num_qpus);
  CLOUDQC_CHECK(capacities.size() ==
                static_cast<std::size_t>(config.num_qpus));
  qpus_.reserve(capacities.size());
  for (const QpuCapacity& cap : capacities) {
    qpus_.emplace_back(cap.computing, cap.comm);
  }
}

int QuantumCloud::total_computing_capacity() const {
  int total = 0;
  for (const auto& q : qpus_) total += q.computing_capacity();
  return total;
}

int QuantumCloud::total_comm_capacity() const {
  int total = 0;
  for (const auto& q : qpus_) total += q.comm_capacity();
  return total;
}

int QuantumCloud::total_free_computing() const {
  int total = 0;
  for (const auto& q : qpus_) total += q.free_computing();
  return total;
}

int QuantumCloud::max_free_computing() const {
  int best = 0;
  for (const auto& q : qpus_) best = std::max(best, q.free_computing());
  return best;
}

Graph QuantumCloud::resource_weighted_topology() const {
  Graph g(topology_.num_nodes());
  for (QpuId u = 0; u < topology_.num_nodes(); ++u) {
    g.set_node_weight(u, qpu(u).free_computing());
  }
  for (const auto& e : topology_.edges()) {
    // Edge weight grows with the free capacity of both endpoints, so that
    // community detection prefers resource-rich neighbourhoods; +1 keeps
    // links between saturated QPUs visible.
    const double w = 1.0 + qpu(e.u).free_computing() +
                     qpu(e.v).free_computing();
    g.add_edge(e.u, e.v, w * e.weight);
  }
  return g;
}

bool QuantumCloud::try_reserve(const std::vector<int>& qubits_per_qpu) {
  CLOUDQC_CHECK(qubits_per_qpu.size() == qpus_.size());
  for (std::size_t i = 0; i < qpus_.size(); ++i) {
    if (qubits_per_qpu[i] > qpus_[i].free_computing()) return false;
  }
  for (std::size_t i = 0; i < qpus_.size(); ++i) {
    qpus_[i].reserve_computing(qubits_per_qpu[i]);
  }
  return true;
}

void QuantumCloud::release(const std::vector<int>& qubits_per_qpu) {
  CLOUDQC_CHECK(qubits_per_qpu.size() == qpus_.size());
  for (std::size_t i = 0; i < qpus_.size(); ++i) {
    qpus_[i].release_computing(qubits_per_qpu[i]);
  }
}

}  // namespace cloudqc
