#include "graph/csr.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"

namespace cloudqc {

WeightedCsr::WeightedCsr(const Graph& g)
    : total_edge_weight_(g.total_edge_weight()) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  offset_.assign(n + 1, 0);
  node_weight_.resize(n);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto su = static_cast<std::size_t>(u);
    offset_[su + 1] = offset_[su] + g.neighbors(u).size();
    node_weight_[su] = g.node_weight(u);
  }
  to_.reserve(offset_[n]);
  weight_.reserve(offset_[n]);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const Edge& e : g.neighbors(u)) {
      to_.push_back(e.to);
      weight_.push_back(e.weight);
    }
  }
}

WeightedCsr::WeightedCsr(std::vector<double> node_weights,
                         const std::vector<Graph::FlatEdge>& edges)
    : node_weight_(std::move(node_weights)) {
  const std::size_t n = node_weight_.size();
  // Bucket the half-edges by endpoint, stably, so every node sees its
  // pairs in stream order. After the fill, offset_[u] is the end of u's
  // bucket.
  offset_.assign(n + 1, 0);
  for (const Graph::FlatEdge& e : edges) {
    CLOUDQC_CHECK(e.u >= 0 && static_cast<std::size_t>(e.u) < n &&
                  e.v >= 0 && static_cast<std::size_t>(e.v) < n);
    ++offset_[static_cast<std::size_t>(e.u) + 1];
    if (e.u != e.v) ++offset_[static_cast<std::size_t>(e.v) + 1];
    total_edge_weight_ += e.weight;
  }
  for (std::size_t u = 0; u < n; ++u) offset_[u + 1] += offset_[u];
  to_.resize(offset_[n]);
  weight_.resize(offset_[n]);
  for (const Graph::FlatEdge& e : edges) {
    std::size_t a = offset_[static_cast<std::size_t>(e.u)]++;
    to_[a] = e.v;
    weight_[a] = e.weight;
    if (e.u == e.v) continue;
    std::size_t b = offset_[static_cast<std::size_t>(e.v)]++;
    to_[b] = e.u;
    weight_[b] = e.weight;
  }
  // Collapse repeated pairs in place: the first occurrence keeps its slot
  // (Graph's insertion order) and later ones add to it in stream order.
  // Writes never overtake reads, since a node keeps at most as many
  // entries as its bucket holds.
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> slot(n, kNone);
  std::size_t out = 0;
  std::size_t bucket_begin = 0;
  for (std::size_t u = 0; u < n; ++u) {
    const std::size_t first = out;
    const std::size_t bucket_end = offset_[u];
    for (std::size_t i = bucket_begin; i < bucket_end; ++i) {
      std::size_t& s = slot[static_cast<std::size_t>(to_[i])];
      if (s == kNone) {
        s = out;
        to_[out] = to_[i];
        weight_[out++] = weight_[i];
      } else {
        weight_[s] += weight_[i];
      }
    }
    for (std::size_t j = first; j < out; ++j) {
      slot[static_cast<std::size_t>(to_[j])] = kNone;
    }
    offset_[u] = first;
    bucket_begin = bucket_end;
  }
  offset_[n] = out;
  to_.resize(out);
  weight_.resize(out);
}

double WeightedCsr::total_node_weight() const {
  double s = 0.0;
  for (const double w : node_weight_) s += w;
  return s;
}

double WeightedCsr::weighted_degree(NodeId u) const {
  double d = 0.0;
  for (std::size_t i = begin(u); i < end(u); ++i) {
    d += to_[i] == u ? 2.0 * weight_[i] : weight_[i];
  }
  return d;
}

SortedCsr::SortedCsr(const Graph& g) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  offset_.assign(n + 1, 0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    offset_[static_cast<std::size_t>(u) + 1] =
        offset_[static_cast<std::size_t>(u)] + g.neighbors(u).size();
  }
  to_.resize(offset_[n]);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    std::size_t i = offset_[static_cast<std::size_t>(u)];
    for (const Edge& e : g.neighbors(u)) to_[i++] = e.to;
    std::sort(to_.begin() +
                  static_cast<std::ptrdiff_t>(
                      offset_[static_cast<std::size_t>(u)]),
              to_.begin() + static_cast<std::ptrdiff_t>(i));
  }
}

int NodeBitmap::count() const {
  int total = 0;
  for (const std::uint64_t w : words_) {
#if defined(__GNUC__) || defined(__clang__)
    total += __builtin_popcountll(w);
#else
    for (std::uint64_t x = w; x != 0; x &= x - 1) ++total;
#endif
  }
  return total;
}

bool NodeBitmap::equals_under_mask(const NodeBitmap& other,
                                   const NodeBitmap& mask) const {
  CLOUDQC_DCHECK(words_.size() == other.words_.size() &&
                 words_.size() == mask.words_.size());
  for (std::size_t w = 0; w < words_.size(); ++w) {
    if ((words_[w] ^ other.words_[w]) & mask.words_[w]) return false;
  }
  return true;
}

}  // namespace cloudqc
