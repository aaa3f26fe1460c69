// Entanglement path selection for remote operations (the "Selected paths"
// input to resource allocation in the paper's Fig. 4 workflow; the
// congestion-aware variant follows the concurrent entanglement-routing line
// of work the paper cites [37]).
//
// A remote gate between QPUs more than one hop apart must entangle every
// link along a path and swap at intermediate nodes. Which path is chosen
// matters under contention: the shortest path may run through a hot QPU
// whose communication qubits are exhausted.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cloud/cloud.hpp"

namespace cloudqc {

/// A routed path: QPU sequence from source to destination (inclusive).
struct EprPath {
  std::vector<QpuId> nodes;

  int hops() const { return static_cast<int>(nodes.size()) - 1; }
  bool valid() const { return nodes.size() >= 2; }
};

/// Router interface: choose a path for a remote op given the current free
/// communication qubits per QPU (`free_comm`). Returns nullopt when no
/// usable path exists (e.g. an intermediate QPU has zero free qubits and
/// every detour is saturated too). nullopt is binding on the caller: the
/// simulator requeues the operation until the congestion state changes —
/// it never falls back to executing over the static hop count, which
/// would silently bypass the saturated intermediates this contract is
/// reporting. Implementations must be deterministic functions of their
/// arguments (the change-gated event loop may consult them repeatedly on
/// identical state and relies on identical answers).
///
/// Blocking is monotone: a router that returns nullopt under `free_comm` F
/// must also return nullopt under every F' <= F (entry by entry) — fewer
/// free qubits never open a path. The simulator relies on this to requeue
/// an op the router blocked earlier in the same decision point without
/// asking again (budgets only shrink within one). The four routers below
/// satisfy it: the congestion-blind ones block only on a disconnected
/// topology, and the masked ones only gain saturated nodes as F shrinks.
class EprRouter {
 public:
  virtual ~EprRouter() = default;
  virtual std::string name() const = 0;
  virtual std::optional<EprPath> route(const QuantumCloud& cloud, QpuId src,
                                       QpuId dst,
                                       const std::vector<int>& free_comm)
      const = 0;
};

/// Always the hop-shortest path (ties broken deterministically by node id).
/// Ignores congestion — the paper's implicit default.
std::unique_ptr<EprRouter> make_shortest_path_router();

/// Congestion-aware: among *minimal-hop* paths, picks the one whose
/// intermediate QPUs are least loaded. Longer detours are taken only when
/// every shorter path has a saturated (zero-free) swap node, and never more
/// than 2 hops beyond the minimum — EPR success decays as p^hops, so a
/// detour costs exponentially more generation rounds and is only worth it
/// to avoid outright blocking. Falls back to the plain shortest path when
/// every alternative is saturated.
std::unique_ptr<EprRouter> make_congestion_aware_router();

/// Masked shortest path — the "frontier" routing policy, per-operation
/// reference implementation. The path is the hop-shortest one that never
/// transits a *saturated* intermediate QPU (free_comm <= 0); the endpoints
/// are exempt (their qubits are accounted by the endpoint allocation).
/// Unlike the congestion-aware router there is no detour cap and no load
/// scoring: a saturated cut means nullopt, and the simulator requeues the
/// op until the congestion state changes (the PR-3 stall contract).
///
/// Canonical tie-break (the determinism contract shared with the batched
/// FrontierRouter in schedule/frontier_router.hpp): the BFS is
/// level-synchronous and every node's parent is its lowest-indexed
/// neighbour in the previous level — "lowest-index neighbour wins" at
/// every hop, so the chosen path is a pure function of (topology, src,
/// dst, saturation set). This implementation recomputes a fresh BFS per
/// call; it is the differential-test baseline and the per-op bench leg
/// that FrontierRouter must match result-for-result while amortising the
/// sweeps.
std::unique_ptr<EprRouter> make_masked_shortest_router();

/// Enumerate up to `k` loop-free shortest paths between two QPUs (Yen's
/// algorithm over hop counts). Exposed for tests and for router
/// implementations.
std::vector<EprPath> k_shortest_paths(const Graph& topology, QpuId src,
                                      QpuId dst, int k);

}  // namespace cloudqc
