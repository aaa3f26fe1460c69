// Forwarding decorators over the library's virtual interfaces. Each one
// counts the call, opens a span around it when given a tracer, and
// returns the inner result unchanged. Untraced runs use them too, with a
// null tracer (no clock read, no span), so both passes execute the same
// code and the traced one differs only by its spans; the benchmark checks
// that both produce identical simulated outputs, and its self-test checks
// that every entry point matches a direct call on the inner object.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "placement/placement.hpp"
#include "schedule/allocators.hpp"
#include "schedule/routing.hpp"
#include "trace.hpp"

namespace perfbench {

class TracedPlacer final : public cloudqc::Placer {
 public:
  TracedPlacer(const cloudqc::Placer& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  std::string name() const override { return inner_.name(); }

  std::optional<cloudqc::Placement> place(const cloudqc::Circuit& circuit,
                                          const cloudqc::QuantumCloud& cloud,
                                          cloudqc::Rng& rng) const override {
    std::optional<cloudqc::Placement> out;
    {
      Scope span(tracer_, Layer::kPlacement);
      out = inner_.place(circuit, cloud, rng);
    }
    count(out);
    return out;
  }

  std::optional<cloudqc::Placement> place_with_context(
      const cloudqc::Circuit& circuit, const cloudqc::QuantumCloud& cloud,
      cloudqc::Rng& rng, const cloudqc::PlacementContext& ctx) const override {
    std::optional<cloudqc::Placement> out;
    {
      Scope span(tracer_, Layer::kPlacement);
      out = inner_.place_with_context(circuit, cloud, rng, ctx);
    }
    ++ctx_calls;
    count(out);
    return out;
  }

  mutable std::uint64_t calls = 0;      ///< both entry points
  mutable std::uint64_t ctx_calls = 0;  ///< place_with_context only
  mutable std::uint64_t fails = 0;      ///< returned nullopt
  /// Σ Placement::remote_ops over the placements returned.
  mutable std::uint64_t remote_ops = 0;

 private:
  void count(const std::optional<cloudqc::Placement>& out) const {
    ++calls;
    if (out) {
      remote_ops += out->remote_ops;
    } else {
      ++fails;
    }
  }

  const cloudqc::Placer& inner_;
  Tracer* tracer_;
};

class TracedAllocator final : public cloudqc::CommAllocator {
 public:
  TracedAllocator(const cloudqc::CommAllocator& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  std::string name() const override { return inner_.name(); }

  std::vector<int> allocate(const std::vector<cloudqc::CommRequest>& requests,
                            std::vector<int> free_comm,
                            cloudqc::Rng& rng) const override {
    Scope span(tracer_, Layer::kAlloc);
    ++calls;
    this->requests += requests.size();
    return inner_.allocate(requests, std::move(free_comm), rng);
  }

  mutable std::uint64_t calls = 0;
  mutable std::uint64_t requests = 0;  ///< Σ ready remote ops offered

 private:
  const cloudqc::CommAllocator& inner_;
  Tracer* tracer_;
};

class TracedRouter final : public cloudqc::EprRouter {
 public:
  TracedRouter(const cloudqc::EprRouter& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  std::string name() const override { return inner_.name(); }

  std::optional<cloudqc::EprPath> route(
      const cloudqc::QuantumCloud& cloud, cloudqc::QpuId src,
      cloudqc::QpuId dst, const std::vector<int>& free_comm) const override {
    std::optional<cloudqc::EprPath> out;
    {
      LeafScope call(tracer_, Layer::kRoute);
      out = inner_.route(cloud, src, dst, free_comm);
    }
    ++calls;
    if (!out) ++blocked;
    return out;
  }

  mutable std::uint64_t calls = 0;
  mutable std::uint64_t blocked = 0;  ///< returned nullopt (path saturated)

 private:
  const cloudqc::EprRouter& inner_;
  Tracer* tracer_;
};

}  // namespace perfbench
