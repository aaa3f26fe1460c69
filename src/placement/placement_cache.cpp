#include "placement/placement_cache.hpp"

#include <cstring>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "common/check.hpp"
#include "placement/incremental_cost.hpp"

namespace cloudqc {

namespace {

/// Mixes one undirected weighted edge into a 64-bit value. Weights are
/// integer-valued doubles (2-qubit-gate counts), so hashing the bit
/// pattern is stable across runs and platforms.
std::uint64_t edge_hash(NodeId u, NodeId v, double weight,
                        std::uint64_t salt) {
  std::uint64_t w_bits = 0;
  static_assert(sizeof w_bits == sizeof weight, "double must be 64-bit");
  std::memcpy(&w_bits, &weight, sizeof w_bits);
  std::uint64_t h = salt;
  h = splitmix64(h ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(u)));
  h = splitmix64(h ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(v)));
  h = splitmix64(h ^ w_bits);
  return h;
}

constexpr std::uint64_t kSaltHi = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kSaltLo = 0x165667B19E3779F9ull;

}  // namespace

CircuitFingerprint circuit_fingerprint(const WeightedCsr& csr) {
  // Commutative (wrapping-sum) combine over undirected edges: the CSR's
  // adjacency order depends on gate order, the fingerprint must not.
  CircuitFingerprint fp;
  const NodeId n = csr.num_nodes();
  for (NodeId u = 0; u < n; ++u) {
    for (std::size_t i = csr.begin(u); i < csr.end(u); ++i) {
      const NodeId v = csr.to(i);
      if (v < u) continue;  // each undirected edge once (self-loops kept)
      fp.hi += edge_hash(u, v, csr.weight(i), kSaltHi);
      fp.lo += edge_hash(u, v, csr.weight(i), kSaltLo);
    }
  }
  // Fold in the qubit count: circuits that differ only in isolated qubits
  // are different placement problems (they consume different capacity).
  fp.hi ^= splitmix64(kSaltHi ^ static_cast<std::uint64_t>(n));
  fp.lo ^= splitmix64(kSaltLo ^ static_cast<std::uint64_t>(n));
  return fp;
}

CircuitFingerprint circuit_fingerprint(const Circuit& circuit) {
  return circuit_fingerprint(*PlacementContext::for_circuit(circuit).csr);
}

std::vector<int> capacity_signature(const QuantumCloud& cloud) {
  std::vector<int> sig(static_cast<std::size_t>(cloud.num_qpus()));
  for (QpuId q = 0; q < cloud.num_qpus(); ++q) {
    sig[static_cast<std::size_t>(q)] = cloud.qpu(q).free_computing();
  }
  return sig;
}

std::uint64_t capacity_signature_hash(
    const std::vector<int>& free_computing) {
  std::uint64_t h = splitmix64(free_computing.size());
  for (const int free : free_computing) {
    h = splitmix64(h ^ static_cast<std::uint64_t>(
                           static_cast<std::uint32_t>(free)));
  }
  return h;
}

// -------------------------------------------------------------------- LRU

struct PlacementCache::Lru {
  struct Entry {
    CircuitFingerprint fingerprint;
    std::uint64_t cap_hash = 0;
    /// Immutable once stored: handed out as the warm-start seed without
    /// copying, and stays alive through shared ownership even if the entry
    /// is evicted while a caller still holds it.
    std::shared_ptr<const std::vector<QpuId>> mapping;
    Placement placement;
  };

  mutable std::mutex mutex;
  /// Front = most recently used.
  std::list<Entry> entries;
  /// fingerprint.hi is already well-mixed; use it as the map hash.
  struct FpHash {
    std::size_t operator()(const CircuitFingerprint& fp) const {
      return static_cast<std::size_t>(fp.hi);
    }
  };
  std::unordered_map<CircuitFingerprint, std::list<Entry>::iterator, FpHash>
      index;
  PlacementCacheStats stats;
};

PlacementCache::PlacementCache(CacheOptions options)
    : options_(options), lru_(std::make_unique<Lru>()) {
  CLOUDQC_CHECK_MSG(options_.capacity >= 1, "cache capacity must be >= 1");
}

PlacementCache::~PlacementCache() = default;

PlacementCache::Lookup PlacementCache::lookup(
    const CircuitFingerprint& fingerprint, std::uint64_t cap_hash,
    const QuantumCloud& cloud) {
  Lru& lru = *lru_;
  std::lock_guard<std::mutex> lock(lru.mutex);
  ++lru.stats.lookups;

  Lookup result;
  const auto it = lru.index.find(fingerprint);
  if (it == lru.index.end()) {
    ++lru.stats.misses;
    return result;
  }
  // Touch: move to the LRU front.
  lru.entries.splice(lru.entries.begin(), lru.entries, it->second);
  const Lru::Entry& entry = lru.entries.front();

  if (entry.cap_hash == cap_hash) {
    // Verify-on-hit: the signature says the free-computing state matches,
    // but reuse is only safe if the reservation actually fits the live
    // cloud (guards hash collisions; O(num_qpus)).
    bool fits = true;
    const std::vector<int>& need = entry.placement.qubits_per_qpu;
    for (QpuId q = 0; q < cloud.num_qpus(); ++q) {
      if (need[static_cast<std::size_t>(q)] >
          cloud.qpu(q).free_computing()) {
        fits = false;
        break;
      }
    }
    if (fits) {
      ++lru.stats.exact_hits;
      result.outcome = Outcome::kExact;
      result.placement = entry.placement;
      result.seed = entry.mapping;
      return result;
    }
    ++lru.stats.verify_rejects;
  }
  ++lru.stats.warm_hits;
  result.outcome = Outcome::kWarm;
  result.seed = entry.mapping;
  return result;
}

void PlacementCache::insert(const CircuitFingerprint& fingerprint,
                            std::uint64_t cap_hash,
                            const Placement& placement) {
  Lru& lru = *lru_;
  std::lock_guard<std::mutex> lock(lru.mutex);
  ++lru.stats.insertions;

  const auto it = lru.index.find(fingerprint);
  if (it != lru.index.end()) {
    lru.entries.splice(lru.entries.begin(), lru.entries, it->second);
    Lru::Entry& entry = lru.entries.front();
    entry.cap_hash = cap_hash;
    entry.mapping = std::make_shared<const std::vector<QpuId>>(
        placement.qubit_to_qpu);
    entry.placement = placement;
    return;
  }

  Lru::Entry entry;
  entry.fingerprint = fingerprint;
  entry.cap_hash = cap_hash;
  entry.mapping =
      std::make_shared<const std::vector<QpuId>>(placement.qubit_to_qpu);
  entry.placement = placement;
  lru.entries.push_front(std::move(entry));
  lru.index.emplace(fingerprint, lru.entries.begin());

  while (lru.entries.size() > options_.capacity) {
    lru.index.erase(lru.entries.back().fingerprint);
    lru.entries.pop_back();
    ++lru.stats.evictions;
  }
}

std::size_t PlacementCache::size() const {
  std::lock_guard<std::mutex> lock(lru_->mutex);
  return lru_->entries.size();
}

PlacementCacheStats PlacementCache::stats() const {
  std::lock_guard<std::mutex> lock(lru_->mutex);
  return lru_->stats;
}

// ----------------------------------------------------------- cached_place

std::optional<Placement> cached_place(PlacementCache* cache,
                                      const Circuit& circuit,
                                      const QuantumCloud& cloud,
                                      const Placer& placer, Rng& rng,
                                      const std::vector<int>* capacity_sig) {
  if (cache == nullptr) {
    // Uncached engines stay bit-identical to the pre-cache code path.
    return placer.place(circuit, cloud, rng);
  }

  PlacementContext ctx = PlacementContext::for_circuit(circuit);
  const CircuitFingerprint fingerprint = circuit_fingerprint(*ctx.csr);
  const std::uint64_t cap_hash =
      capacity_sig != nullptr ? capacity_signature_hash(*capacity_sig)
                              : capacity_signature_hash(
                                    capacity_signature(cloud));

  PlacementCache::Lookup hit = cache->lookup(fingerprint, cap_hash, cloud);
  if (hit.outcome == PlacementCache::Outcome::kExact) {
    // Verified reuse: no placer call, no RNG draw — repeat traffic is
    // O(fingerprint + verify).
    return std::move(hit.placement);
  }
  if (hit.outcome == PlacementCache::Outcome::kWarm) {
    ctx.warm_start = std::move(hit.seed);
  }
  std::optional<Placement> placement =
      placer.place_with_context(circuit, cloud, rng, ctx);
  if (placement.has_value()) {
    cache->insert(fingerprint, cap_hash, *placement);
  }
  return placement;
}

}  // namespace cloudqc
