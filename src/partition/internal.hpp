// Internal refinement helpers shared between the multilevel driver and its
// tests. Not part of the public API.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "graph/csr.hpp"

namespace cloudqc::internal {

/// Greedy boundary (FM-style) k-way refinement. Repeatedly moves boundary
/// nodes to the neighboring part with the highest cut-gain, subject to the
/// balance ceiling `max_part_weight`. `passes` bounds the number of sweeps;
/// each sweep stops early when no improving move exists. Ties in gain go
/// to the lowest part index.
void refine_partition(const WeightedCsr& g, std::vector<int>& part, int k,
                      double max_part_weight, int passes, Rng& rng);

/// Ensure no part is empty (when k <= num_nodes) by moving the
/// lowest-connectivity node of the part with the most nodes into each
/// empty part.
void repair_empty_parts(const WeightedCsr& g, std::vector<int>& part, int k);

}  // namespace cloudqc::internal
