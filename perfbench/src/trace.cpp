#include "trace.hpp"

#include <cstdio>

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kEngine:
      return "core.engine";
    case Layer::kPlacement:
      return "placement";
    case Layer::kAlloc:
      return "schedule.alloc";
    case Layer::kRoute:
      return "schedule.route";
    case Layer::kSim:
      return "sim";
  }
  return "?";
}

SpanSummary summarize(const Tracer& tracer) {
  const std::vector<Tracer::Span>& spans = tracer.spans();
  SpanSummary out;
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  // Children are always recorded after their parent, so one reverse pass
  // sees every child before its parent.
  for (std::size_t i = spans.size(); i-- > 0;) {
    const Tracer::Span& s = spans[i];
    if (s.end_ns < s.start_ns) {
      out.error = "span " + std::to_string(i) + " was never closed";
      return out;
    }
    const std::int64_t dur = s.end_ns - s.start_ns;
    const std::int64_t self = dur - child_ns[i] - s.leaf_ns;
    if (self < 0) {
      out.error = "span " + std::to_string(i) + " has negative self time";
      return out;
    }
    const auto l = static_cast<std::size_t>(s.layer);
    out.self_s[l] += static_cast<double>(self) * 1e-9;
    out.busy_s[l] += static_cast<double>(dur) * 1e-9;
    ++out.count[l];
    if (s.layer == Layer::kPlacement) out.placement_ms.push_back(dur * 1e-6);
    if (s.layer == Layer::kAlloc) out.alloc_ms.push_back(dur * 1e-6);
    if (s.parent == Tracer::kNoParent) {
      out.roots_s += static_cast<double>(dur) * 1e-9;
      continue;
    }
    const Tracer::Span& p = spans[s.parent];
    if (s.parent >= i || s.start_ns < p.start_ns ||
        (p.end_ns >= 0 && s.end_ns > p.end_ns)) {
      out.error = "span " + std::to_string(i) + " escapes its parent";
      return out;
    }
    child_ns[s.parent] += dur;
  }
  for (std::size_t l = 0; l < kNumLayers; ++l) {
    const double leaf_s =
        static_cast<double>(tracer.leaf_ns(static_cast<Layer>(l))) * 1e-9;
    out.self_s[l] += leaf_s;
    out.busy_s[l] += leaf_s;
    out.count[l] += tracer.leaf_calls(static_cast<Layer>(l));
  }
  return out;
}

bool write_spans_csv(const Tracer& tracer, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<Tracer::Span>& spans = tracer.spans();
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(f, "id,parent,layer,start_ns,end_ns,leaf_ns,leaf_calls\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    const long long parent =
        s.parent == Tracer::kNoParent ? -1 : static_cast<long long>(s.parent);
    std::fprintf(f, "%zu,%lld,%s,%lld,%lld,%lld,%u\n", i, parent,
                 layer_name(s.layer), static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0),
                 static_cast<long long>(s.leaf_ns), s.leaf_calls);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
