// In-memory span recorder for the traced pass.
//
// A span is (layer, parent, start, end). Spans are kept in one flat vector
// for the duration of a traced run and written out when the benchmark
// ends; per-layer self times are derived from them afterwards (a span's
// self time is its duration minus the time of its children).
//
// Router calls are the exception: a network-sim run makes millions of
// them, too many to keep one span each. They are timed like spans, but
// their time and count are added to the enclosing span (leaf_ns,
// leaf_calls) and to per-layer totals instead of being stored.
//
// The recorder is single-threaded by design: every benchmark run is one
// thread, and the library is never given a thread pool.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Layers a span can belong to; names are the library's module names.
enum class Layer : std::uint8_t {
  kEngine,     ///< core.engine — the run span (run_streaming or the
               ///< network-sim loop)
  kPlacement,  ///< placement — Placer::place / place_with_context
  kAlloc,      ///< schedule.alloc — CommAllocator::allocate
  kRoute,      ///< schedule.route — EprRouter::route (aggregated leaves)
  kSim,        ///< sim — NetworkSimulator::add_job / step
};
constexpr std::size_t kNumLayers = 5;

const char* layer_name(Layer layer);

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

  struct Span {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;  ///< -1 while open
    std::int64_t leaf_ns = 0;  ///< aggregated leaf calls inside this span
    std::uint32_t leaf_calls = 0;
    std::uint32_t parent = kNoParent;
    Layer layer = Layer::kEngine;
  };

  /// Open a span as a child of the innermost open span.
  std::uint32_t open(Layer layer) {
    const auto id = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back({now_ns(), -1, 0, 0, current_, layer});
    current_ = id;
    return id;
  }

  /// Close `id`, which must be the innermost open span.
  void close(std::uint32_t id) {
    spans_[id].end_ns = now_ns();
    current_ = spans_[id].parent;
  }

  /// Account a leaf call of `layer` that started at `start_ns` and ends
  /// now, without storing a span for it.
  void add_leaf(Layer layer, std::int64_t start_ns) {
    const std::int64_t dur = now_ns() - start_ns;
    const auto l = static_cast<std::size_t>(layer);
    leaf_ns_[l] += dur;
    ++leaf_calls_[l];
    if (current_ != kNoParent) {
      spans_[current_].leaf_ns += dur;
      ++spans_[current_].leaf_calls;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::int64_t leaf_ns(Layer layer) const {
    return leaf_ns_[static_cast<std::size_t>(layer)];
  }
  std::uint64_t leaf_calls(Layer layer) const {
    return leaf_calls_[static_cast<std::size_t>(layer)];
  }

  void clear() {
    spans_.clear();
    current_ = kNoParent;
    leaf_ns_.fill(0);
    leaf_calls_.fill(0);
  }

 private:
  std::vector<Span> spans_;
  std::uint32_t current_ = kNoParent;
  std::array<std::int64_t, kNumLayers> leaf_ns_{};
  std::array<std::uint64_t, kNumLayers> leaf_calls_{};
};

/// RAII span; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* tracer, Layer layer)
      : tracer_(tracer), id_(tracer ? tracer->open(layer) : 0) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

/// RAII leaf call (see Tracer::add_leaf); a null tracer records nothing.
class LeafScope {
 public:
  LeafScope(Tracer* tracer, Layer layer)
      : tracer_(tracer), layer_(layer), start_ns_(tracer ? now_ns() : 0) {}
  ~LeafScope() {
    if (tracer_ != nullptr) tracer_->add_leaf(layer_, start_ns_);
  }
  LeafScope(const LeafScope&) = delete;
  LeafScope& operator=(const LeafScope&) = delete;

 private:
  Tracer* tracer_;
  Layer layer_;
  std::int64_t start_ns_;
};

/// What the span tree of one traced run adds up to.
struct SpanSummary {
  /// Σ self time per layer, seconds.
  std::array<double, kNumLayers> self_s{};
  /// Σ inclusive duration per layer, seconds.
  std::array<double, kNumLayers> busy_s{};
  /// Calls per layer (stored spans plus aggregated leaves).
  std::array<std::uint64_t, kNumLayers> count{};
  /// Inclusive duration of every placement / allocation span,
  /// milliseconds (the per-call quantiles).
  std::vector<double> placement_ms;
  std::vector<double> alloc_ms;
  /// Σ duration of root spans, seconds.
  double roots_s = 0.0;
  /// Empty when the tree is well formed: every span closed, children
  /// nested inside their parents, no negative self time.
  std::string error;
};

SpanSummary summarize(const Tracer& tracer);

/// Write the spans as CSV (id,parent,layer,start_ns,end_ns,leaf_ns,
/// leaf_calls; parent -1 for roots, times relative to the first span).
/// Returns false on I/O error.
bool write_spans_csv(const Tracer& tracer, const std::string& path);

}  // namespace perfbench
