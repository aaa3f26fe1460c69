// Quantum circuit container plus the derived artefacts the placement
// pipeline needs: interaction graph, depth, and gate statistics.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "circuit/gate.hpp"
#include "graph/graph.hpp"

namespace cloudqc {

/// A quantum circuit: a qubit count and an ordered gate list. Gate order is
/// program order; the DAG (circuit/dag.hpp) recovers the true dependency
/// structure.
///
/// Copies share one gate list, so copying a circuit costs O(1) however many
/// gates it holds. add() on a circuit whose list another copy still holds
/// first gives it a private copy (copy-on-write); the other copies never
/// see the new gate. Copies may be made, read and destroyed on any number
/// of threads at once, but add() must not run while a copy sharing its
/// list is in use or being destroyed on another thread: finish building a
/// circuit before handing copies of it to other threads.
class Circuit {
 public:
  Circuit() = default;
  Circuit(std::string name, QubitId num_qubits);

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  QubitId num_qubits() const { return num_qubits_; }
  const std::vector<Gate>& gates() const {
    return gates_ ? *gates_ : kNoGates;
  }
  std::size_t num_gates() const { return gates().size(); }

  /// Append a gate; qubit indices are validated against num_qubits().
  void add(Gate g);

  // Convenience emitters used by the generators.
  void h(QubitId q) { add(Gate::one(GateKind::kH, q)); }
  void x(QubitId q) { add(Gate::one(GateKind::kX, q)); }
  void y(QubitId q) { add(Gate::one(GateKind::kY, q)); }
  void z(QubitId q) { add(Gate::one(GateKind::kZ, q)); }
  void t(QubitId q) { add(Gate::one(GateKind::kT, q)); }
  void rx(QubitId q, double a) { add(Gate::one(GateKind::kRx, q, a)); }
  void ry(QubitId q, double a) { add(Gate::one(GateKind::kRy, q, a)); }
  void rz(QubitId q, double a) { add(Gate::one(GateKind::kRz, q, a)); }
  void cx(QubitId c, QubitId t) { add(Gate::two(GateKind::kCx, c, t)); }
  void cz(QubitId c, QubitId t) { add(Gate::two(GateKind::kCz, c, t)); }
  void cp(QubitId c, QubitId t, double a) {
    add(Gate::two(GateKind::kCp, c, t, a));
  }
  void swap(QubitId a, QubitId b) { add(Gate::two(GateKind::kSwap, a, b)); }
  void rzz(QubitId a, QubitId b, double t) {
    add(Gate::two(GateKind::kRzz, a, b, t));
  }
  void measure(QubitId q) { add(Gate::one(GateKind::kMeasure, q)); }

  /// Number of 2-qubit gates.
  std::size_t two_qubit_gate_count() const;

  /// Circuit depth: length of the longest chain under per-qubit ordering
  /// (every gate depth 1; barriers are synchronisation-only, depth 0).
  int depth() const;

  /// Weighted interaction graph: one node per qubit; edge (i, j) weighted by
  /// the number of 2-qubit gates touching qubits i and j (the paper's D_ij).
  Graph interaction_graph() const;

  /// CNOT-density metric numerator used by the batch manager (Eq. 11).
  double two_qubit_density() const;

 private:
  std::string name_;
  QubitId num_qubits_ = 0;
  /// Null until the first add(); shared by every copy made since.
  std::shared_ptr<std::vector<Gate>> gates_;
  inline static const std::vector<Gate> kNoGates{};
};

}  // namespace cloudqc
