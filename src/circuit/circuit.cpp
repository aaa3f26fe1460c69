#include "circuit/circuit.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace cloudqc {

Circuit::Circuit(std::string name, QubitId num_qubits)
    : name_(std::move(name)), num_qubits_(num_qubits) {
  CLOUDQC_CHECK(num_qubits >= 0);
}

void Circuit::add(Gate g) {
  CLOUDQC_CHECK_MSG(g.qubits[0] >= 0 && g.qubits[0] < num_qubits_,
                    "qubit index out of range");
  if (g.two_qubit()) {
    CLOUDQC_CHECK_MSG(g.qubits[1] >= 0 && g.qubits[1] < num_qubits_,
                      "qubit index out of range");
    CLOUDQC_CHECK_MSG(g.qubits[0] != g.qubits[1],
                      "2-qubit gate needs distinct qubits");
  }
  if (gates_ == nullptr) {
    gates_ = std::make_shared<std::vector<Gate>>();
  } else if (gates_.use_count() > 1) {
    gates_ = std::make_shared<std::vector<Gate>>(*gates_);
  }
  gates_->push_back(g);
}

std::size_t Circuit::two_qubit_gate_count() const {
  return static_cast<std::size_t>(
      std::count_if(gates().begin(), gates().end(),
                    [](const Gate& g) { return g.two_qubit(); }));
}

int Circuit::depth() const {
  std::vector<int> level(static_cast<std::size_t>(num_qubits_), 0);
  int max_level = 0;
  for (const auto& g : gates()) {
    if (g.kind == GateKind::kBarrier) continue;
    const auto a = static_cast<std::size_t>(g.qubits[0]);
    int l = level[a];
    if (g.two_qubit()) {
      const auto b = static_cast<std::size_t>(g.qubits[1]);
      l = std::max(l, level[b]);
      level[b] = l + 1;
    }
    level[a] = l + 1;
    max_level = std::max(max_level, l + 1);
  }
  return max_level;
}

Graph Circuit::interaction_graph() const {
  Graph g(num_qubits_);
  for (const auto& gate : gates()) {
    if (gate.two_qubit()) {
      g.add_edge(gate.qubits[0], gate.qubits[1], 1.0);
    }
  }
  return g;
}

double Circuit::two_qubit_density() const {
  if (num_qubits_ == 0) return 0.0;
  return static_cast<double>(two_qubit_gate_count()) /
         static_cast<double>(num_qubits_);
}

}  // namespace cloudqc
