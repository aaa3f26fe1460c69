// Shared test doubles and placement assertions for the engine and placer
// suites (not a ctest target: only tests/*_test.cpp files become test
// binaries).
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "placement/placement.hpp"

namespace cloudqc::testing {

/// Exact (==) equality of every Placement field; a failure names the first
/// field that differs.
inline ::testing::AssertionResult identical_placements(const Placement& a,
                                                       const Placement& b) {
  if (a.qubit_to_qpu != b.qubit_to_qpu) {
    return ::testing::AssertionFailure() << "qubit_to_qpu differs";
  }
  if (a.qubits_per_qpu != b.qubits_per_qpu) {
    return ::testing::AssertionFailure() << "qubits_per_qpu differs";
  }
  if (a.comm_cost != b.comm_cost || a.remote_ops != b.remote_ops ||
      a.est_time != b.est_time || a.score != b.score) {
    return ::testing::AssertionFailure()
           << "comm_cost " << a.comm_cost << " vs " << b.comm_cost
           << ", remote_ops " << a.remote_ops << " vs " << b.remote_ops
           << ", est_time " << a.est_time << " vs " << b.est_time
           << ", score " << a.score << " vs " << b.score;
  }
  return ::testing::AssertionSuccess();
}

/// As above for placer results: both empty, or both set and identical.
inline ::testing::AssertionResult identical_placements(
    const std::optional<Placement>& a, const std::optional<Placement>& b) {
  if (a.has_value() != b.has_value()) {
    return ::testing::AssertionFailure() << "only one placement is set";
  }
  return a.has_value() ? identical_placements(*a, *b)
                       : ::testing::AssertionSuccess();
}

/// Forwards to a real placer and counts placement invocations — used by
/// the admission-gate and placement-cache suites to prove that suppressed
/// retries and cache hits actually skip the placer. Both entry points
/// forward unchanged (the context variant must reach the inner placer so
/// warm-start seeds are not silently dropped).
class CountingPlacer final : public Placer {
 public:
  explicit CountingPlacer(std::unique_ptr<Placer> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override {
    return "counting(" + inner_->name() + ")";
  }

  std::optional<Placement> place(const Circuit& circuit,
                                 const QuantumCloud& cloud,
                                 Rng& rng) const override {
    ++calls_;
    return inner_->place(circuit, cloud, rng);
  }

  std::optional<Placement> place_with_context(
      const Circuit& circuit, const QuantumCloud& cloud, Rng& rng,
      const PlacementContext& ctx) const override {
    ++calls_;
    return inner_->place_with_context(circuit, cloud, rng, ctx);
  }

  std::uint64_t calls() const { return calls_; }

 private:
  std::unique_ptr<Placer> inner_;
  mutable std::uint64_t calls_ = 0;
};

/// Forwards to a real placer except for circuits named `refused`, which it
/// never places — a job that fits the cloud's total capacity yet fails
/// every attempt, even against an idle cloud.
class RefusingPlacer final : public Placer {
 public:
  RefusingPlacer(std::unique_ptr<Placer> inner, std::string refused)
      : inner_(std::move(inner)), refused_(std::move(refused)) {}

  std::string name() const override {
    return "refusing(" + inner_->name() + ")";
  }

  std::optional<Placement> place(const Circuit& circuit,
                                 const QuantumCloud& cloud,
                                 Rng& rng) const override {
    if (circuit.name() == refused_) return std::nullopt;
    return inner_->place(circuit, cloud, rng);
  }

  std::optional<Placement> place_with_context(
      const Circuit& circuit, const QuantumCloud& cloud, Rng& rng,
      const PlacementContext& ctx) const override {
    if (circuit.name() == refused_) return std::nullopt;
    return inner_->place_with_context(circuit, cloud, rng, ctx);
  }

 private:
  std::unique_ptr<Placer> inner_;
  std::string refused_;
};

/// Places every circuit with one fixed qubit -> QPU map, whatever the
/// topology: pins a job onto QPUs the test chooses (for instance across
/// the components of a disconnected cloud). Nullopt while the map does not
/// fit the free computing capacity.
class FixedPlacer final : public Placer {
 public:
  explicit FixedPlacer(std::vector<QpuId> qubit_to_qpu)
      : qubit_to_qpu_(std::move(qubit_to_qpu)) {}

  std::string name() const override { return "fixed"; }

  std::optional<Placement> place(const Circuit& circuit,
                                 const QuantumCloud& cloud,
                                 Rng& /*rng*/) const override {
    EXPECT_EQ(circuit.num_qubits(),
              static_cast<int>(qubit_to_qpu_.size()));
    Placement p;
    p.qubit_to_qpu = qubit_to_qpu_;
    p.qubits_per_qpu.assign(static_cast<std::size_t>(cloud.num_qpus()), 0);
    for (const QpuId q : qubit_to_qpu_) {
      ++p.qubits_per_qpu[static_cast<std::size_t>(q)];
    }
    for (QpuId q = 0; q < cloud.num_qpus(); ++q) {
      if (p.qubits_per_qpu[static_cast<std::size_t>(q)] >
          cloud.qpu(q).free_computing()) {
        return std::nullopt;
      }
    }
    return p;
  }

 private:
  std::vector<QpuId> qubit_to_qpu_;
};

}  // namespace cloudqc::testing
