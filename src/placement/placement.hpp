// Placement types and the common Placer interface implemented by CloudQC
// and all baselines (Random, Simulated Annealing, Genetic, CloudQC-BFS).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "cloud/cloud.hpp"
#include "common/rng.hpp"

namespace cloudqc {

/// A concrete placement of one circuit: the paper's mapping function
/// π(q) → QPU for every logical qubit.
struct Placement {
  /// qubit_to_qpu[q] = QPU hosting logical qubit q.
  std::vector<QpuId> qubit_to_qpu;

  /// Computing qubits this placement consumes on each QPU (indexed by QPU).
  std::vector<int> qubits_per_qpu;

  /// Σ_{i<j} D_ij · C_{π(i)π(j)} with C = hop distance (paper Obj. 1).
  double comm_cost = 0.0;

  /// Number of 2-qubit gates whose endpoints land on different QPUs (the
  /// Table III metric).
  std::size_t remote_ops = 0;

  /// Deterministic execution-time estimate (Algorithm 1's estimate_time).
  double est_time = 0.0;

  /// Scoring-function value S = α·1/T + β·1/C used to pick among candidate
  /// placements.
  double score = 0.0;

  /// Number of distinct QPUs used.
  int num_qpus_used() const;
};

/// Strict-weak "better candidate" order of the racing placer: higher
/// score first, then lower communication cost, then fewer remote ops.
/// Candidate order breaks the final tie, so race winners are unique and
/// deterministic.
bool better_placement(const Placement& a, const Placement& b);

/// The paper's parameters of the CloudQC family. The rest of Algorithms
/// 1–2 is fixed: k sweeps from the fewest feasible parts up to
/// min(QPUs, qubits), and the winning placement gets at most 4 polish
/// passes.
struct PlacerOptions {
  /// Imbalance-factor sweep for graph partitioning (Algorithm 1 input).
  std::vector<double> imbalance_factors{0.05, 0.15, 0.3, 0.5};
  /// Scoring weights: score = alpha / T + beta / C.
  double alpha = 0.5;
  double beta = 0.5;
  /// The ε of Inequation 6: candidate placements where any QPU is touched
  /// by more than this many remote operations are rejected (they would
  /// bottleneck that QPU's communication qubits). 0 = unconstrained.
  std::size_t max_remote_ops_per_qpu = 0;
};

/// Shared per-request precomputation (interaction graph + CSR snapshot);
/// defined in placement/incremental_cost.hpp.
struct PlacementContext;

/// Strategy interface. place() returns nullopt when the circuit cannot fit
/// the currently free cloud resources.
class Placer {
 public:
  virtual ~Placer() = default;
  virtual std::string name() const = 0;
  virtual std::optional<Placement> place(const Circuit& circuit,
                                         const QuantumCloud& cloud,
                                         Rng& rng) const = 0;

  /// Like place(), but reusing `ctx`'s precomputed artefacts (the
  /// interaction-graph CSR driving the incremental delta-cost engine).
  /// Racing entry points build one context per request and share it across
  /// strategies. Contract: bit-identical to place() for the same RNG state
  /// — the context only removes redundant recomputation, never changes
  /// results. The default ignores the context.
  virtual std::optional<Placement> place_with_context(
      const Circuit& circuit, const QuantumCloud& cloud, Rng& rng,
      const PlacementContext& ctx) const {
    (void)ctx;
    return place(circuit, cloud, rng);
  }
};

/// Factories. `opts` applies to the CloudQC family.
std::unique_ptr<Placer> make_cloudqc_placer(PlacerOptions opts = {});
std::unique_ptr<Placer> make_cloudqc_bfs_placer(PlacerOptions opts = {});
std::unique_ptr<Placer> make_random_placer();
std::unique_ptr<Placer> make_annealing_placer(int iterations = 20000);
std::unique_ptr<Placer> make_genetic_placer(int population = 40,
                                            int generations = 120);

class ThreadPool;

/// Racing placer: runs every strategy on the same request and keeps the
/// best candidate by better_placement() (score, then comm cost, then
/// remote ops), with strategy order breaking exact ties. Each strategy
/// draws from a private
/// SplitMix-derived RNG stream, so the outcome — and the caller-visible
/// RNG consumption (exactly one draw per place() call) — is identical
/// whether the strategies run serially or race across `pool`'s workers.
/// `pool` may be null (serial) and must outlive the placer.
std::unique_ptr<Placer> make_racing_placer(
    std::vector<std::unique_ptr<Placer>> strategies, ThreadPool* pool = nullptr);

/// The default racing field: CloudQC, CloudQC-BFS, annealing, genetic and
/// random, with the given options applied to the CloudQC family.
std::unique_ptr<Placer> make_default_racing_placer(PlacerOptions opts = {},
                                                   ThreadPool* pool = nullptr);

}  // namespace cloudqc
