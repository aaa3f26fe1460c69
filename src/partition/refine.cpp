#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "common/check.hpp"
#include "partition/internal.hpp"
#include "placement/incremental_cost.hpp"

namespace cloudqc::internal {

void refine_partition(const WeightedCsr& g, std::vector<int>& part, int k,
                      double max_part_weight, int passes, Rng& rng) {
  CLOUDQC_CHECK(part.size() == static_cast<std::size_t>(g.num_nodes()));
  if (k <= 1 || g.num_nodes() == 0) return;

  // The cut-metric leg of the incremental delta-cost engine: per-node
  // connectivity scatters in O(degree(u)) with sparse clearing, part
  // weights maintained incrementally.
  PartitionConnectivity model(g, k);
  model.reset(part);
  std::vector<NodeId> order(static_cast<std::size_t>(g.num_nodes()));
  std::iota(order.begin(), order.end(), 0);
  // settled[u]: at u's last visit no part offered it a positive gain, and
  // neither u nor a neighbour has moved since. Gains depend only on the
  // parts of u and its neighbours, so such a node cannot move unless its
  // part has since gone over the ceiling; its visit is skipped.
  std::vector<char> settled(static_cast<std::size_t>(g.num_nodes()), 0);

  for (int pass = 0; pass < passes; ++pass) {
    rng.shuffle(order);
    bool moved = false;
    for (const NodeId u : order) {
      const int from = model.part()[static_cast<std::size_t>(u)];
      const bool overweight = model.part_weight(from) > max_part_weight;
      if (settled[static_cast<std::size_t>(u)] && !overweight) continue;
      const std::vector<double>& conn = model.connectivity(u);
      const double internal = conn[static_cast<std::size_t>(from)];
      const double wu = g.node_weight(u);

      // When `from` is over the balance ceiling, any move into a part with
      // room is admissible (even cut-worsening), so every part is scanned.
      // Otherwise only boundary moves with room are considered, which are
      // the parts u's neighbours sit in, and only positive gain is
      // accepted. Either way the highest gain wins and ties go to the
      // lowest part index.
      int best_to = -1;
      double best_gain = -std::numeric_limits<double>::infinity();
      bool any_gain = false;  // a positive gain, with or without room
      auto consider = [&](int to) {
        if (to == from) return;
        if (conn[static_cast<std::size_t>(to)] == 0.0 && !overweight) return;
        const double gain = conn[static_cast<std::size_t>(to)] - internal;
        any_gain = any_gain || gain > 0.0;
        if (model.part_weight(to) + wu > max_part_weight) return;
        if (gain > best_gain || (gain == best_gain && to < best_to)) {
          best_gain = gain;
          best_to = to;
        }
      };
      if (overweight) {
        for (int to = 0; to < k; ++to) consider(to);
      } else {
        for (const int to : model.neighbor_parts()) consider(to);
        settled[static_cast<std::size_t>(u)] = !any_gain;
      }
      if (best_to >= 0 && (best_gain > 0.0 || overweight)) {
        model.move(u, best_to);
        moved = true;
        settled[static_cast<std::size_t>(u)] = 0;
        for (std::size_t i = g.begin(u); i < g.end(u); ++i) {
          settled[static_cast<std::size_t>(g.to(i))] = 0;
        }
      }
    }
    if (!moved) break;
  }
  part = model.part();
}

void repair_empty_parts(const WeightedCsr& g, std::vector<int>& part, int k) {
  if (g.num_nodes() < static_cast<NodeId>(k)) return;
  std::vector<int> count(static_cast<std::size_t>(k), 0);
  for (int p : part) ++count[static_cast<std::size_t>(p)];
  if (std::find(count.begin(), count.end(), 0) == count.end()) return;

  for (int empty = 0; empty < k; ++empty) {
    if (count[static_cast<std::size_t>(empty)] > 0) continue;
    // Donor: the part with the most nodes.
    const int donor = static_cast<int>(
        std::max_element(count.begin(), count.end()) - count.begin());
    CLOUDQC_CHECK(count[static_cast<std::size_t>(donor)] >= 2);
    // Pick the donor node with the least connectivity into its own part so
    // the cut increase is minimal.
    NodeId pick = kInvalidNode;
    double pick_conn = std::numeric_limits<double>::infinity();
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (part[static_cast<std::size_t>(u)] != donor) continue;
      double c = 0.0;
      for (std::size_t i = g.begin(u); i < g.end(u); ++i) {
        const NodeId v = g.to(i);
        if (v != u && part[static_cast<std::size_t>(v)] == donor) {
          c += g.weight(i);
        }
      }
      if (c < pick_conn) {
        pick_conn = c;
        pick = u;
      }
    }
    CLOUDQC_CHECK(pick != kInvalidNode);
    part[static_cast<std::size_t>(pick)] = empty;
    --count[static_cast<std::size_t>(donor)];
    ++count[static_cast<std::size_t>(empty)];
  }
}

}  // namespace cloudqc::internal
