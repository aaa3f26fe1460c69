#include "core/scenario.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "circuit/qasm.hpp"
#include "circuit/workloads.hpp"
#include "cloud/churn.hpp"
#include "common/enum_names.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/incoming.hpp"
#include "core/multi_tenant.hpp"
#include "core/parallel_executor.hpp"
#include "core/streaming.hpp"
#include "metrics/quantile_sketch.hpp"
#include "metrics/stats.hpp"
#include "placement/placement.hpp"
#include "placement/placement_cache.hpp"
#include "schedule/allocators.hpp"
#include "schedule/frontier_router.hpp"
#include "schedule/routing.hpp"

namespace cloudqc {

namespace {

// ------------------------------------ enum names (common/enum_names.hpp)

constexpr EnumName<WorkloadSource> kSourceNames[] = {
    {WorkloadSource::kGenerator, "generator"},
    {WorkloadSource::kQasm, "qasm"},
    {WorkloadSource::kTrace, "trace"},
};
constexpr EnumName<TraceShape> kTraceNames[] = {
    {TraceShape::kPoisson, "poisson"},
    {TraceShape::kBurst, "burst"},
};
constexpr EnumName<EngineMode> kEngineNames[] = {
    {EngineMode::kBatch, "batch"},
    {EngineMode::kMultiTenant, "multi_tenant"},
    {EngineMode::kIncoming, "incoming"},
    {EngineMode::kStreaming, "streaming"},
};
constexpr EnumName<StreamingBackpressure> kBackpressureNames[] = {
    {StreamingBackpressure::kDefer, "defer"},
    {StreamingBackpressure::kReject, "reject"},
};
constexpr EnumName<PlacerKind> kPlacerNames[] = {
    {PlacerKind::kCloudQC, "cloudqc"}, {PlacerKind::kBfs, "bfs"},
    {PlacerKind::kRandom, "random"},   {PlacerKind::kAnnealing, "annealing"},
    {PlacerKind::kGenetic, "genetic"}, {PlacerKind::kRace, "race"},
};
constexpr EnumName<AllocatorKind> kAllocatorNames[] = {
    {AllocatorKind::kCloudQC, "cloudqc"},
    {AllocatorKind::kGreedy, "greedy"},
    {AllocatorKind::kAverage, "average"},
    {AllocatorKind::kRandom, "random"},
};
constexpr EnumName<RouterKind> kRouterNames[] = {
    {RouterKind::kNone, "none"},
    {RouterKind::kShortest, "shortest"},
    {RouterKind::kCongestion, "congestion"},
    {RouterKind::kFrontier, "frontier"},
};
constexpr EnumName<ChurnPolicy> kChurnPolicyNames[] = {
    {ChurnPolicy::kRequeue, "requeue"},
    {ChurnPolicy::kMigrate, "migrate"},
};

// -------------------------------------------------------------- parsing

std::string trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

/// Line 0 marks a programmatic spec (validate()), which has no line to name.
[[noreturn]] void fail(int line, const std::string& message) {
  if (line == 0) throw ScenarioError(message);
  throw ScenarioError("line " + std::to_string(line) + ": " + message);
}

int to_int(const std::string& value, int line) {
  try {
    std::size_t pos = 0;
    const long long parsed = std::stoll(value, &pos);
    if (pos != value.size()) throw std::invalid_argument(value);
    // Reject rather than truncate: a wrapped value would silently run a
    // different experiment than the spec says.
    if (parsed < std::numeric_limits<int>::min() ||
        parsed > std::numeric_limits<int>::max()) {
      fail(line, "integer out of range: '" + value + "'");
    }
    return static_cast<int>(parsed);
  } catch (const ScenarioError&) {
    throw;
  } catch (const std::exception&) {
    fail(line, "expected an integer, got '" + value + "'");
  }
}

std::uint64_t to_u64(const std::string& value, int line) {
  try {
    std::size_t pos = 0;
    const std::uint64_t parsed = std::stoull(value, &pos);
    if (pos != value.size() || value.find('-') != std::string::npos) {
      throw std::invalid_argument(value);
    }
    return parsed;
  } catch (const std::exception&) {
    fail(line, "expected a non-negative integer, got '" + value + "'");
  }
}

double to_double(const std::string& value, int line) {
  double parsed = 0.0;
  try {
    std::size_t pos = 0;
    parsed = std::stod(value, &pos);
    if (pos != value.size()) throw std::invalid_argument(value);
  } catch (const std::exception&) {
    fail(line, "expected a number, got '" + value + "'");
  }
  // inf and nan pass every range check in validate() and would fail deep
  // inside an engine instead; 1e9 is the way to write "never".
  if (!std::isfinite(parsed)) {
    fail(line, "expected a finite number, got '" + value + "'");
  }
  return parsed;
}

bool to_bool(const std::string& value, int line) {
  if (value == "true" || value == "1" || value == "yes" || value == "on") {
    return true;
  }
  if (value == "false" || value == "0" || value == "no" || value == "off") {
    return false;
  }
  fail(line, "expected a boolean (true/false), got '" + value + "'");
}

/// Comma-separated list, entries trimmed, empties dropped.
std::vector<std::string> to_list(const std::string& value) {
  std::vector<std::string> out;
  std::stringstream ss(value);
  std::string item;
  while (std::getline(ss, item, ',')) {
    item = trim(item);
    if (!item.empty()) out.push_back(std::move(item));
  }
  return out;
}

/// Shortest %g rendering that parses back to exactly `value` (keeps
/// to_ini() human-readable without losing round-trip precision).
std::string fmt_double(double value) {
  char buf[64];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, value);
    if (std::stod(buf) == value) break;
  }
  return buf;
}

std::string fmt_bool(bool value) { return value ? "true" : "false"; }

constexpr auto fmt_number = [](auto value) { return std::to_string(value); };

std::string join(const std::vector<std::string>& items) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += items[i];
  }
  return out;
}

/// Characters allowed in tenant names and written into result filenames.
bool is_name_char(char ch) {
  return std::isalnum(static_cast<unsigned char>(ch)) || ch == '_' ||
         ch == '-';
}

/// The tenant-name rule: non-empty, [A-Za-z0-9_-]+ (so to_ini round-trips)
/// and unique. Returns what tenants[i] violates, or "" when it is valid.
std::string tenant_name_error(const std::vector<TenantSpec>& tenants,
                              std::size_t i) {
  const std::string& name = tenants[i].name;
  if (name.empty()) return "empty tenant name";
  if (!std::all_of(name.begin(), name.end(), is_name_char)) {
    return "tenant name must be [A-Za-z0-9_-]+, got '" + name + "'";
  }
  for (std::size_t j = 0; j < i; ++j) {
    if (tenants[j].name == name) return "duplicate tenant '" + name + "'";
  }
  return "";
}

/// Largest sweep grid, and so also the largest single range axis.
constexpr std::size_t kMaxSweepPoints = 1024;

// ------------------------------------------------------------ key table

/// INI sections. [tenant.NAME] is the one dotted header; [sweep] has no
/// rows of its own, its axes name scalar rows of the other sections.
enum class Section { kCloud, kWorkload, kEngine, kChurn, kTenant, kSweep };
constexpr EnumName<Section> kSectionNames[] = {
    {Section::kCloud, "cloud"},   {Section::kWorkload, "workload"},
    {Section::kEngine, "engine"}, {Section::kChurn, "churn"},
    {Section::kTenant, "tenant"}, {Section::kSweep, "sweep"},
};

std::optional<Section> find_section(const std::string& name) {
  for (const auto& entry : kSectionNames) {
    if (name == entry.name) return entry.value;
  }
  return std::nullopt;
}

/// scalar: set once, sweepable. list: each line appends, emitted as one
/// line only when non-empty. repeated: each line appends one element,
/// emitted one line per element.
enum class KeyKind { kScalar, kList, kRepeated };

/// How one key reads into and writes out of a spec. `tenant` indexes
/// spec.tenants on tenant rows; other rows ignore it. `format` returns
/// the values to_ini() writes, one `key = value` line each.
struct KeyCodec {
  KeyKind kind;
  std::function<void(ScenarioSpec&, std::size_t tenant, const std::string&,
                     int line)>
      parse;
  std::function<std::vector<std::string>(const ScenarioSpec&,
                                         std::size_t tenant)>
      format;
};

struct KeyRow {
  Section section;
  const char* key;
  KeyCodec codec;
};

/// A scalar field named by `get(spec, tenant)`, read by `parse(value,
/// line)` and written back by `format(field)`.
template <typename Get, typename Parse, typename Format>
KeyCodec scalar(Get get, Parse parse, Format format) {
  return {KeyKind::kScalar,
          [get, parse](ScenarioSpec& s, std::size_t t, const std::string& v,
                       int line) { get(s, t) = parse(v, line); },
          [get, format](const ScenarioSpec& s, std::size_t t) {
            return std::vector<std::string>{format(get(s, t))};
          }};
}

template <typename Get>
KeyCodec int_key(Get get) { return scalar(get, to_int, fmt_number); }

template <typename Get>
KeyCodec u64_key(Get get) { return scalar(get, to_u64, fmt_number); }

template <typename Get>
KeyCodec double_key(Get get) { return scalar(get, to_double, fmt_double); }

template <typename Get>
KeyCodec bool_key(Get get) { return scalar(get, to_bool, fmt_bool); }

template <typename E, std::size_t N, typename Get>
KeyCodec enum_key(const EnumName<E> (&names)[N], const char* what, Get get) {
  return scalar(
      get,
      [&names, what](const std::string& v, int) {
        return parse_enum(names, v, what);
      },
      [&names](E v) { return enum_name(names, v); });
}

/// Topology family and capacity profile, named by cloud/topologies.hpp.
template <typename T, typename Get>
KeyCodec cloud_name_key(T (*parse)(const std::string&), Get get) {
  return scalar(
      get, [parse](const std::string& v, int) { return parse(v); },
      [](T v) { return to_string(v); });
}

template <typename Get>
KeyCodec list_key(Get get) {
  return {KeyKind::kList,
          [get](ScenarioSpec& s, std::size_t t, const std::string& v, int) {
            for (std::string& item : to_list(v)) {
              get(s, t).push_back(std::move(item));
            }
          },
          [get](const ScenarioSpec& s, std::size_t t) {
            const std::vector<std::string>& items = get(s, t);
            if (items.empty()) return std::vector<std::string>{};
            return std::vector<std::string>{join(items)};
          }};
}

/// One maintenance window per line: qpu:start:end.
KeyCodec window_key() {
  return {KeyKind::kRepeated,
          [](ScenarioSpec& s, std::size_t, const std::string& value,
             int line) {
            const std::size_t c1 = value.find(':');
            const std::size_t c2 = c1 == std::string::npos
                                       ? std::string::npos
                                       : value.find(':', c1 + 1);
            if (c1 == std::string::npos || c2 == std::string::npos) {
              fail(line,
                   "expected window = qpu:start:end, got '" + value + "'");
            }
            MaintenanceWindow w;
            w.qpu = to_int(trim(value.substr(0, c1)), line);
            w.start = to_double(trim(value.substr(c1 + 1, c2 - c1 - 1)), line);
            w.end = to_double(trim(value.substr(c2 + 1)), line);
            s.churn.windows.push_back(w);
          },
          [](const ScenarioSpec& s, std::size_t) {
            std::vector<std::string> lines;
            for (const MaintenanceWindow& w : s.churn.windows) {
              lines.push_back(std::to_string(w.qpu) + ":" +
                              fmt_double(w.start) + ":" + fmt_double(w.end));
            }
            return lines;
          }};
}

// The spec field a row reads and writes; `t` picks a tenant row's tenant.
#define SPEC_FIELD(path) \
  [](auto& s, [[maybe_unused]] std::size_t t) -> auto& { return s.path; }

/// Every INI key, grouped by section in to_ini() order. parse_scenario,
/// the [sweep] axes and to_ini() all walk this one table.
const std::vector<KeyRow>& key_table() {
  using S = Section;
  static const std::vector<KeyRow> table = {
      {S::kCloud, "topology",
       cloud_name_key(parse_topology_family, SPEC_FIELD(cloud.family))},
      {S::kCloud, "num_qpus", int_key(SPEC_FIELD(cloud.num_qpus))},
      {S::kCloud, "rows", int_key(SPEC_FIELD(cloud.rows))},
      {S::kCloud, "cols", int_key(SPEC_FIELD(cloud.cols))},
      {S::kCloud, "bridge_width", int_key(SPEC_FIELD(cloud.bridge_width))},
      {S::kCloud, "fanout", int_key(SPEC_FIELD(cloud.fanout))},
      {S::kCloud, "topology_seed", u64_key(SPEC_FIELD(cloud.topology_seed))},
      {S::kCloud, "capacity_profile",
       cloud_name_key(parse_capacity_profile, SPEC_FIELD(cloud.profile))},
      {S::kCloud, "computing_qubits_per_qpu",
       int_key(SPEC_FIELD(cloud.config.computing_qubits_per_qpu))},
      {S::kCloud, "comm_qubits_per_qpu",
       int_key(SPEC_FIELD(cloud.config.comm_qubits_per_qpu))},
      {S::kCloud, "link_probability",
       double_key(SPEC_FIELD(cloud.config.link_probability))},
      {S::kCloud, "epr_success_prob",
       double_key(SPEC_FIELD(cloud.config.epr_success_prob))},
      {S::kCloud, "purification_level",
       int_key(SPEC_FIELD(cloud.config.purification_level))},

      {S::kWorkload, "source",
       enum_key(kSourceNames, "workload source", SPEC_FIELD(workload.source))},
      {S::kWorkload, "circuits", list_key(SPEC_FIELD(workload.circuits))},
      {S::kWorkload, "qasm_files", list_key(SPEC_FIELD(workload.qasm_files))},
      {S::kWorkload, "trace",
       enum_key(kTraceNames, "trace shape", SPEC_FIELD(workload.trace))},
      {S::kWorkload, "trace_jobs", int_key(SPEC_FIELD(workload.trace_jobs))},
      {S::kWorkload, "trace_mean_gap",
       double_key(SPEC_FIELD(workload.trace_mean_gap))},
      {S::kWorkload, "trace_burst_size",
       int_key(SPEC_FIELD(workload.trace_burst_size))},
      {S::kWorkload, "trace_seed", u64_key(SPEC_FIELD(workload.trace_seed))},

      {S::kEngine, "mode",
       enum_key(kEngineNames, "engine mode", SPEC_FIELD(engine.mode))},
      {S::kEngine, "placer",
       enum_key(kPlacerNames, "placer", SPEC_FIELD(engine.placer))},
      {S::kEngine, "allocator",
       enum_key(kAllocatorNames, "allocator", SPEC_FIELD(engine.allocator))},
      {S::kEngine, "router",
       enum_key(kRouterNames, "router", SPEC_FIELD(engine.router))},
      {S::kEngine, "seed", u64_key(SPEC_FIELD(engine.seed))},
      {S::kEngine, "fifo", bool_key(SPEC_FIELD(engine.fifo))},
      {S::kEngine, "gated_admission",
       bool_key(SPEC_FIELD(engine.gated_admission))},
      {S::kEngine, "gated_allocation",
       bool_key(SPEC_FIELD(engine.gated_allocation))},
      {S::kEngine, "workers", int_key(SPEC_FIELD(engine.workers))},
      {S::kEngine, "cache", bool_key(SPEC_FIELD(engine.cache))},
      {S::kEngine, "cache_capacity",
       int_key(SPEC_FIELD(engine.cache_capacity))},
      {S::kEngine, "max_pending", int_key(SPEC_FIELD(engine.max_pending))},
      {S::kEngine, "backpressure",
       enum_key(kBackpressureNames, "backpressure policy",
                SPEC_FIELD(engine.backpressure))},
      {S::kEngine, "intake_shards", int_key(SPEC_FIELD(engine.intake_shards))},

      {S::kChurn, "policy",
       enum_key(kChurnPolicyNames, "churn policy", SPEC_FIELD(churn.policy))},
      {S::kChurn, "window", window_key()},
      {S::kChurn, "random_windows", int_key(SPEC_FIELD(churn.random_windows))},
      {S::kChurn, "horizon", double_key(SPEC_FIELD(churn.horizon))},
      {S::kChurn, "mean_duration", double_key(SPEC_FIELD(churn.mean_duration))},
      {S::kChurn, "seed", u64_key(SPEC_FIELD(churn.seed))},
      {S::kChurn, "drift_amplitude",
       double_key(SPEC_FIELD(churn.drift_amplitude))},
      {S::kChurn, "drift_period", double_key(SPEC_FIELD(churn.drift_period))},

      {S::kTenant, "priority", int_key(SPEC_FIELD(tenants[t].priority))},
      {S::kTenant, "weight", double_key(SPEC_FIELD(tenants[t].weight))},
      {S::kTenant, "slo_jct", double_key(SPEC_FIELD(tenants[t].slo_jct))},
      {S::kTenant, "preempt", bool_key(SPEC_FIELD(tenants[t].preempt))},
  };
  return table;
}

#undef SPEC_FIELD

const KeyRow* find_row(Section section, const std::string& key) {
  for (const KeyRow& row : key_table()) {
    if (row.section == section && key == row.key) return &row;
  }
  return nullptr;
}

/// Apply `value` through `row`; a tenant row fills the last tenant.
void apply_row(const KeyRow& row, ScenarioSpec& spec,
               const std::string& value, int line) {
  const std::size_t tenant =
      row.section == Section::kTenant ? spec.tenants.size() - 1 : 0;
  try {
    row.codec.parse(spec, tenant, value, line);
  } catch (const std::invalid_argument& e) {
    fail(line, e.what());
  }
}

/// The row a "section.key" sweep axis names. Sweepable are exactly the
/// scalar rows of the cloud, workload, engine and churn sections.
const KeyRow& sweep_row(const std::string& axis) {
  const std::size_t dot = axis.find('.');
  if (dot == std::string::npos) {
    throw ScenarioError("sweep axis must be 'section.key', got '" + axis +
                        "'");
  }
  const std::optional<Section> section = find_section(axis.substr(0, dot));
  if (!section || *section == Section::kTenant ||
      *section == Section::kSweep) {
    throw ScenarioError(
        "sweep axis section must be cloud, workload, engine or churn");
  }
  const std::string key = axis.substr(dot + 1);
  const KeyRow* row = find_row(*section, key);
  if (row == nullptr) {
    throw ScenarioError("unknown [" + axis.substr(0, dot) + "] key '" + key +
                        "'");
  }
  if (row->codec.kind != KeyKind::kScalar) {
    // These keys append; sweeping them would not assign one value per point.
    throw ScenarioError("cannot sweep list-valued key '" + axis + "'");
  }
  return *row;
}

/// "lo..hi" or "lo..hi..step" (integers, inclusive): appends the expanded
/// values and returns true; returns false when `value` has no "..".
bool try_expand_range(const std::string& value, std::vector<std::string>& out,
                      int line) {
  const std::size_t d1 = value.find("..");
  if (d1 == std::string::npos) return false;
  const std::size_t d2 = value.find("..", d1 + 2);
  const std::string hi_s = d2 == std::string::npos
                               ? trim(value.substr(d1 + 2))
                               : trim(value.substr(d1 + 2, d2 - d1 - 2));
  const int lo = to_int(trim(value.substr(0, d1)), line);
  const int hi = to_int(hi_s, line);
  const int step =
      d2 == std::string::npos ? 1 : to_int(trim(value.substr(d2 + 2)), line);
  if (step < 1) fail(line, "sweep range step must be >= 1");
  if (hi < lo) fail(line, "sweep range needs lo <= hi, got '" + value + "'");
  // Bound the count before materialising: 0..2000000000 would otherwise
  // allocate two billion strings before the grid limit is checked.
  const long long count = (static_cast<long long>(hi) - lo) / step + 1;
  if (count > static_cast<long long>(kMaxSweepPoints)) {
    fail(line, "sweep range '" + value + "' exceeds " +
                   std::to_string(kMaxSweepPoints) + " points");
  }
  for (long long v = lo; v <= hi; v += step) out.push_back(std::to_string(v));
  return true;
}

/// Assign one sweep value onto `spec` through the axis's key row; a bad
/// value fails at `line`, the [sweep] line it came from (0 for none).
void apply_sweep_assignment(ScenarioSpec& spec, const std::string& key,
                            const std::string& value, int line = 0) {
  try {
    apply_row(sweep_row(key), spec, value, 0);
  } catch (const ScenarioError& e) {
    fail(line, "sweep axis '" + key + "' = '" + value + "': " + e.what());
  }
}

void apply_sweep_key(std::vector<SweepAxis>& sweep, const std::string& key,
                     const std::string& value, int line) {
  for (const SweepAxis& axis : sweep) {
    if (axis.key == key) fail(line, "duplicate [sweep] axis '" + key + "'");
  }
  try {
    sweep_row(key);
  } catch (const ScenarioError& e) {
    fail(line, e.what());
  }
  SweepAxis axis;
  axis.key = key;
  axis.values = to_list(value);
  if (axis.values.size() == 1) {
    std::vector<std::string> expanded;
    if (try_expand_range(axis.values.front(), expanded, line)) {
      axis.values = std::move(expanded);
    }
  }
  if (axis.values.empty()) {
    fail(line, "sweep axis '" + key + "' has no values");
  }
  // Scalar rows parse independently of the rest of the spec, so a default
  // probe finds every bad value here, at its own line.
  ScenarioSpec probe;
  for (const std::string& v : axis.values) {
    apply_sweep_assignment(probe, key, v, line);
  }
  sweep.push_back(std::move(axis));
}

/// Largest accepted [cloud] num_qpus. The cloud's hop matrix holds
/// num_qpus² ints (64 MiB at 4096), so far larger values run out of memory
/// or time before any output; the committed specs use at most 31 QPUs and
/// the largest cloud anywhere in the repo has 127.
constexpr int kMaxQpus = 4096;

/// Ranges of the [cloud] size, probabilities and purification level, which
/// the cloud builder, the EPR model and the random topology would otherwise
/// reject (or choke on) mid-run.
void validate_cloud_ranges(const ScenarioSpec& spec) {
  if (spec.cloud.num_qpus > kMaxQpus) {
    throw ScenarioError("scenario '" + spec.name + "': num_qpus must be <= " +
                        std::to_string(kMaxQpus));
  }
  const CloudConfig& c = spec.cloud.config;
  if (!(c.epr_success_prob > 0.0 && c.epr_success_prob <= 1.0)) {
    throw ScenarioError("scenario '" + spec.name +
                        "': epr_success_prob must be in (0, 1]");
  }
  if (!(c.link_probability >= 0.0 && c.link_probability <= 1.0)) {
    throw ScenarioError("scenario '" + spec.name +
                        "': link_probability must be in [0, 1]");
  }
  if (c.purification_level < 0 || c.purification_level >= 16) {
    throw ScenarioError("scenario '" + spec.name +
                        "': purification_level must be in [0, 16)");
  }
}

/// Every [engine] key that only some modes read is loud elsewhere: a
/// non-default value outside those modes is an error, not silently
/// ignored, so two specs that differ in such a key never give the same
/// output.
void validate_mode_keys(const ScenarioSpec& spec) {
  const ScenarioEngine& e = spec.engine;
  const ScenarioEngine d;
  const auto require = [&](bool set, const char* key, bool read,
                           const char* modes) {
    if (set && !read) {
      throw ScenarioError("scenario '" + spec.name + "': " + key +
                          " requires mode = " + modes);
    }
  };
  const bool serial = e.mode != EngineMode::kBatch;
  const bool streaming = e.mode == EngineMode::kStreaming;
  const char* const serial_modes = "multi_tenant, incoming or streaming";
  require(e.router != d.router, "router", serial, serial_modes);
  require(e.fifo != d.fifo, "fifo", e.mode == EngineMode::kMultiTenant,
          "multi_tenant");
  // The batch engine runs jobs concurrently on private cloud copies: it
  // has no admission gate or shared allocation loop, and a cache shared
  // across concurrent requests would make results depend on worker
  // scheduling.
  require(e.gated_admission != d.gated_admission, "gated_admission", serial,
          serial_modes);
  require(e.gated_allocation != d.gated_allocation, "gated_allocation",
          serial, serial_modes);
  require(e.cache, "cache", serial, serial_modes);
  require(e.max_pending != d.max_pending, "max_pending", streaming,
          "streaming");
  require(e.backpressure != d.backpressure, "backpressure", streaming,
          "streaming");
  require(e.intake_shards != d.intake_shards, "intake_shards", streaming,
          "streaming");
}

/// Spec-level consistency checks shared by parse_scenario (fail early with
/// a good message) and run_scenario (programmatically built specs).
void validate(const ScenarioSpec& spec) {
  validate_cloud_ranges(spec);
  const ScenarioWorkload& w = spec.workload;
  if (w.source == WorkloadSource::kGenerator && w.circuits.empty()) {
    throw ScenarioError("scenario '" + spec.name +
                        "': source = generator needs a non-empty circuits "
                        "list");
  }
  if (w.source == WorkloadSource::kQasm && w.qasm_files.empty()) {
    throw ScenarioError("scenario '" + spec.name +
                        "': source = qasm needs a non-empty qasm_files list");
  }
  if (w.source == WorkloadSource::kTrace) {
    if (w.trace_jobs < 0) {
      throw ScenarioError("scenario '" + spec.name + "': trace_jobs < 0");
    }
    if (w.trace_mean_gap <= 0.0) {
      throw ScenarioError("scenario '" + spec.name + "': trace_mean_gap <= 0");
    }
    if (w.trace == TraceShape::kBurst && w.trace_burst_size < 1) {
      throw ScenarioError("scenario '" + spec.name +
                          "': trace_burst_size < 1");
    }
  }
  if (spec.engine.workers < 1) {
    throw ScenarioError("scenario '" + spec.name + "': workers < 1");
  }
  validate_mode_keys(spec);
  if (spec.engine.cache_capacity < 1) {
    throw ScenarioError("scenario '" + spec.name + "': cache_capacity < 1");
  }
  if (spec.engine.max_pending < 1) {
    throw ScenarioError("scenario '" + spec.name + "': max_pending < 1");
  }
  if (spec.engine.intake_shards < 1) {
    throw ScenarioError("scenario '" + spec.name + "': intake_shards < 1");
  }

  // Churn runs through every mode with a pending queue to displace jobs
  // into; tenants also need the per-job table their results are folded
  // from, which streaming does not keep.
  const bool queue_engine = spec.engine.mode == EngineMode::kMultiTenant ||
                            spec.engine.mode == EngineMode::kIncoming;
  const ChurnSpec& churn = spec.churn;
  if (churn.random_windows < 0) {
    throw ScenarioError("scenario '" + spec.name + "': random_windows < 0");
  }
  if (churn.drift_amplitude < 0.0 || churn.drift_amplitude >= 1.0) {
    throw ScenarioError("scenario '" + spec.name +
                        "': drift_amplitude must be in [0, 1)");
  }
  if (churn.enabled()) {
    if (spec.engine.mode == EngineMode::kBatch) {
      throw ScenarioError("scenario '" + spec.name +
                          "': [churn] requires mode = multi_tenant, "
                          "incoming or streaming");
    }
    // A routed path could transit an offline QPU
    // (NetworkSimulator::set_qpu_offline CHECKs that no router is set).
    if (spec.engine.router != RouterKind::kNone) {
      throw ScenarioError("scenario '" + spec.name +
                          "': [churn] cannot be combined with a router");
    }
    if (churn.random_windows > 0 &&
        (churn.horizon <= 0.0 || churn.mean_duration <= 0.0)) {
      throw ScenarioError("scenario '" + spec.name +
                          "': random windows need horizon > 0 and "
                          "mean_duration > 0");
    }
    if (churn.drift_amplitude > 0.0 && churn.drift_period <= 0.0) {
      throw ScenarioError("scenario '" + spec.name + "': drift_period <= 0");
    }
    for (const MaintenanceWindow& w : churn.windows) {
      if (w.qpu < 0 || w.start < 0.0 || w.end <= w.start) {
        throw ScenarioError("scenario '" + spec.name +
                            "': maintenance window needs qpu >= 0, "
                            "start >= 0 and end > start");
      }
    }
  }
  if (!spec.tenants.empty() && !queue_engine) {
    throw ScenarioError("scenario '" + spec.name +
                        "': [tenant.*] requires mode = multi_tenant or "
                        "incoming");
  }
  for (std::size_t i = 0; i < spec.tenants.size(); ++i) {
    const TenantSpec& t = spec.tenants[i];
    const std::string name_error = tenant_name_error(spec.tenants, i);
    if (!name_error.empty()) {
      throw ScenarioError("scenario '" + spec.name + "': " + name_error);
    }
    if (t.weight <= 0.0) {
      throw ScenarioError("scenario '" + spec.name + "': tenant '" + t.name +
                          "' needs weight > 0");
    }
    if (t.slo_jct < 0.0) {
      throw ScenarioError("scenario '" + spec.name + "': tenant '" + t.name +
                          "' needs slo_jct >= 0");
    }
  }
  if (!spec.sweep.empty()) {
    std::size_t grid = 1;
    for (std::size_t i = 0; i < spec.sweep.size(); ++i) {
      const SweepAxis& axis = spec.sweep[i];
      if (axis.values.empty()) {
        throw ScenarioError("scenario '" + spec.name + "': sweep axis '" +
                            axis.key + "' has no values");
      }
      for (std::size_t j = 0; j < i; ++j) {
        if (spec.sweep[j].key == axis.key) {
          throw ScenarioError("scenario '" + spec.name +
                              "': duplicate sweep axis '" + axis.key + "'");
        }
      }
      grid *= axis.values.size();
      if (grid > kMaxSweepPoints) {
        throw ScenarioError("scenario '" + spec.name +
                            "': sweep grid exceeds " +
                            std::to_string(kMaxSweepPoints) + " points");
      }
      // Test-apply every value now so a bad axis of a programmatic spec
      // fails before the run, not halfway through it (parsed specs already
      // did this at the axis's line).
      for (const std::string& value : axis.values) {
        ScenarioSpec probe = spec;
        probe.sweep.clear();
        apply_sweep_assignment(probe, axis.key, value);
        validate_cloud_ranges(probe);
        validate_mode_keys(probe);
      }
    }
  }
}

// ----------------------------------------------------- engine execution

/// Thread-safe placement-call counter: forwards both entry points
/// unchanged, so engine trajectories are bit-identical to the bare placer.
class CountingPlacer final : public Placer {
 public:
  explicit CountingPlacer(const Placer& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  std::optional<Placement> place(const Circuit& circuit,
                                 const QuantumCloud& cloud,
                                 Rng& rng) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return inner_.place(circuit, cloud, rng);
  }
  std::optional<Placement> place_with_context(
      const Circuit& circuit, const QuantumCloud& cloud, Rng& rng,
      const PlacementContext& ctx) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return inner_.place_with_context(circuit, cloud, rng, ctx);
  }
  std::size_t calls() const {
    return calls_.load(std::memory_order_relaxed);
  }

 private:
  const Placer& inner_;
  mutable std::atomic<std::size_t> calls_{0};
};

std::unique_ptr<Placer> make_placer(PlacerKind kind, ThreadPool* pool) {
  switch (kind) {
    case PlacerKind::kCloudQC:
      return make_cloudqc_placer();
    case PlacerKind::kBfs:
      return make_cloudqc_bfs_placer();
    case PlacerKind::kRandom:
      return make_random_placer();
    case PlacerKind::kAnnealing:
      return make_annealing_placer();
    case PlacerKind::kGenetic:
      return make_genetic_placer();
    case PlacerKind::kRace:
      return make_default_racing_placer({}, pool);
  }
  throw ScenarioError("unknown placer kind");
}

std::unique_ptr<CommAllocator> make_allocator(AllocatorKind kind) {
  switch (kind) {
    case AllocatorKind::kCloudQC:
      return make_cloudqc_allocator();
    case AllocatorKind::kGreedy:
      return make_greedy_allocator();
    case AllocatorKind::kAverage:
      return make_average_allocator();
    case AllocatorKind::kRandom:
      return make_random_allocator();
  }
  throw ScenarioError("unknown allocator kind");
}

std::unique_ptr<EprRouter> make_router(RouterKind kind) {
  switch (kind) {
    case RouterKind::kNone:
      return nullptr;
    case RouterKind::kShortest:
      return make_shortest_path_router();
    case RouterKind::kCongestion:
      return make_congestion_aware_router();
    case RouterKind::kFrontier:
      return make_frontier_router();
  }
  throw ScenarioError("unknown router kind");
}

/// The trace mix: explicit circuits, or the paper's mixed workload list.
const std::vector<std::string>& trace_mix(const ScenarioWorkload& w) {
  return w.circuits.empty() ? mixed_workload_names() : w.circuits;
}

/// The workload as a job source: a kTrace workload is a generator source
/// that never holds more than one job; list sources arrive all at t = 0 in
/// list order (so every engine accepts every source). The per-job engines
/// drain it.
std::unique_ptr<JobSource> build_source(const ScenarioWorkload& w) {
  switch (w.source) {
    case WorkloadSource::kGenerator: {
      std::vector<ArrivingJob> jobs;
      jobs.reserve(w.circuits.size());
      for (const auto& name : w.circuits) {
        jobs.push_back({make_workload(name), 0.0});
      }
      return make_vector_source(std::move(jobs));
    }
    case WorkloadSource::kQasm: {
      std::vector<ArrivingJob> jobs;
      jobs.reserve(w.qasm_files.size());
      for (const auto& path : w.qasm_files) {
        jobs.push_back({parse_qasm_file(path), 0.0});
      }
      return make_vector_source(std::move(jobs));
    }
    case WorkloadSource::kTrace:
      if (w.trace == TraceShape::kPoisson) {
        return make_poisson_source(trace_mix(w), w.trace_jobs,
                                   w.trace_mean_gap, w.trace_seed);
      }
      return make_burst_source(trace_mix(w), w.trace_jobs, w.trace_burst_size,
                               w.trace_mean_gap, w.trace_seed);
  }
  throw ScenarioError("unknown workload source");
}

std::vector<Circuit> strip_arrivals(std::vector<ArrivingJob> trace) {
  std::vector<Circuit> jobs;
  jobs.reserve(trace.size());
  for (auto& job : trace) jobs.push_back(std::move(job.circuit));
  return jobs;
}

/// Dedicated RNG stream for tenant assignment; must only differ from the
/// per-task stream indices the executors use.
constexpr std::uint64_t kTenantAssignStream = 0x74656e616e74ULL;  // "tenant"

/// Weighted tenant draw per job, from a stream derived from trace_seed (the
/// assignment is part of the workload, not the engine). A single tenant
/// draws nothing, so a 1-tenant spec stays byte-identical to a tenantless
/// one everywhere downstream.
std::vector<int> assign_tenants(const std::vector<TenantSpec>& tenants,
                                std::size_t num_jobs,
                                std::uint64_t trace_seed) {
  std::vector<int> assignment(num_jobs, 0);
  if (tenants.size() <= 1) return assignment;
  double total = 0.0;
  for (const TenantSpec& t : tenants) total += t.weight;
  Rng rng(stream_seed(trace_seed, kTenantAssignStream));
  for (std::size_t i = 0; i < num_jobs; ++i) {
    const double draw = rng.uniform() * total;
    double cum = 0.0;
    int pick = static_cast<int>(tenants.size()) - 1;
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      cum += tenants[t].weight;
      if (draw < cum) {
        pick = static_cast<int>(t);
        break;
      }
    }
    assignment[i] = pick;
  }
  return assignment;
}

std::vector<JobClass> classes_for(const std::vector<TenantSpec>& tenants,
                                  const std::vector<int>& assignment) {
  std::vector<JobClass> classes(assignment.size());
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    const TenantSpec& t = tenants[static_cast<std::size_t>(assignment[i])];
    classes[i] = JobClass{t.priority, t.preempt};
  }
  return classes;
}

/// Fold per-job outcomes into the per-tenant aggregates + Jain's index.
void finalize_tenant_metrics(const std::vector<TenantSpec>& tenants,
                             ScenarioResult& result) {
  if (tenants.empty()) return;
  result.tenants.resize(tenants.size());
  std::vector<QuantileSketch> sketches(tenants.size());
  std::vector<double> jct_sums(tenants.size(), 0.0);
  std::vector<std::size_t> within_slo(tenants.size(), 0);
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    result.tenants[t].name = tenants[t].name;
    result.tenants[t].slo_target = tenants[t].slo_jct;
  }
  for (const ScenarioJobResult& job : result.jobs) {
    if (job.tenant < 0) continue;
    const auto t = static_cast<std::size_t>(job.tenant);
    ++result.tenants[t].jobs;
    if (!job.placed) continue;
    ++result.tenants[t].completed;
    const double jct = job.completion_time - job.arrival;
    sketches[t].add(jct);
    jct_sums[t] += jct;
    if (jct <= tenants[t].slo_jct) ++within_slo[t];
  }
  std::vector<double> mean_jcts;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    ScenarioTenantResult& tr = result.tenants[t];
    if (tr.completed == 0) continue;  // mean/quantiles stay 0, SLO stays 1
    tr.mean_jct = jct_sums[t] / static_cast<double>(tr.completed);
    tr.jct_p50 = sketches[t].quantile(0.50);
    tr.jct_p95 = sketches[t].quantile(0.95);
    tr.jct_p99 = sketches[t].quantile(0.99);
    if (tr.slo_target > 0.0) {
      tr.slo_attainment = static_cast<double>(within_slo[t]) /
                          static_cast<double>(tr.completed);
    }
    mean_jcts.push_back(tr.mean_jct);
  }
  result.jain_fairness = jains_index(mean_jcts);
}

void finalize_metrics(ScenarioResult& result) {
  double jct_sum = 0.0, fid_sum = 0.0;
  std::size_t placed = 0;
  for (const auto& job : result.jobs) {
    if (!job.placed) continue;
    ++placed;
    result.makespan = std::max(result.makespan, job.completion_time);
    jct_sum += job.completion_time - job.arrival;
    fid_sum += job.est_fidelity;
  }
  if (placed > 0) {
    result.mean_jct = jct_sum / static_cast<double>(placed);
    result.mean_fidelity = fid_sum / static_cast<double>(placed);
  }
}

}  // namespace

ScenarioSpec parse_scenario(std::string_view text, const std::string& name) {
  ScenarioSpec spec;
  spec.name = name;
  std::optional<Section> section;
  std::string header;
  int line_no = 0;
  std::string line;
  std::istringstream in{std::string(text)};
  while (std::getline(in, line)) {
    ++line_no;
    // Strip comments ('#' or ';' to end of line), then whitespace.
    const std::size_t comment = line.find_first_of("#;");
    if (comment != std::string::npos) line.erase(comment);
    const std::string content = trim(line);
    if (content.empty()) continue;
    if (content.front() == '[') {
      if (content.back() != ']') fail(line_no, "unterminated section header");
      header = trim(content.substr(1, content.size() - 2));
      // Only a tenant header is dotted: [tenant.NAME] pushes the tenant
      // that the section's keys fill.
      const std::size_t dot = header.find('.');
      section = find_section(header.substr(0, dot));
      if (!section ||
          (*section == Section::kTenant) != (dot != std::string::npos)) {
        fail(line_no, "unknown section [" + header + "]");
      }
      if (*section == Section::kTenant) {
        spec.tenants.push_back(TenantSpec{header.substr(dot + 1)});
        const std::string error =
            tenant_name_error(spec.tenants, spec.tenants.size() - 1);
        if (!error.empty()) fail(line_no, error);
      }
      continue;
    }
    const std::size_t eq = content.find('=');
    if (eq == std::string::npos) {
      fail(line_no, "expected 'key = value', got '" + content + "'");
    }
    const std::string key = trim(content.substr(0, eq));
    const std::string value = trim(content.substr(eq + 1));
    if (key.empty()) fail(line_no, "empty key");
    if (!section) fail(line_no, "key '" + key + "' outside any section");
    if (*section == Section::kSweep) {
      apply_sweep_key(spec.sweep, key, value, line_no);
      continue;
    }
    const KeyRow* row = find_row(*section, key);
    if (row == nullptr) {
      fail(line_no, "unknown [" + header + "] key '" + key + "'");
    }
    apply_row(*row, spec, value, line_no);
  }
  validate(spec);
  return spec;
}

ScenarioSpec load_scenario_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ScenarioError("cannot open scenario file '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();

  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string()
                              : path.substr(0, slash + 1);
  std::string stem = slash == std::string::npos ? path : path.substr(slash + 1);
  const std::size_t dot = stem.rfind('.');
  if (dot != std::string::npos && dot > 0) stem.erase(dot);

  ScenarioSpec spec = parse_scenario(text.str(), stem);
  // Relative QASM paths are relative to the spec file, not the CWD.
  for (std::string& qasm : spec.workload.qasm_files) {
    if (!qasm.empty() && qasm.front() != '/') qasm = dir + qasm;
  }
  return spec;
}

std::string to_ini(const ScenarioSpec& spec) {
  std::ostringstream out;
  auto emit = [&](Section section, const std::string& header,
                  std::size_t tenant) {
    if (out.tellp() > 0) out << "\n";
    out << "[" << header << "]\n";
    for (const KeyRow& row : key_table()) {
      if (row.section != section) continue;
      for (const std::string& value : row.codec.format(spec, tenant)) {
        out << row.key << " = " << value << "\n";
      }
    }
  };
  for (const auto& [section, name] : kSectionNames) {
    if (section == Section::kTenant) {
      for (std::size_t t = 0; t < spec.tenants.size(); ++t) {
        emit(section, std::string(name) + "." + spec.tenants[t].name, t);
      }
    } else if (section == Section::kSweep) {
      if (spec.sweep.empty()) continue;
      emit(section, name, 0);
      for (const SweepAxis& axis : spec.sweep) {
        // Ranges were expanded at parse time, so values re-emit as the
        // explicit list (round-trip-stable by construction).
        out << axis.key << " = " << join(axis.values) << "\n";
      }
    } else if (section != Section::kChurn || spec.churn.enabled()) {
      // [churn] is emitted only when it changes anything: a disabled spec
      // parses back to the identical default, keeping the round trip stable.
      emit(section, name, 0);
    }
  }
  return out.str();
}

ScenarioResult run_scenario(const ScenarioSpec& spec) {
  validate(spec);
  // det-lint: allow(wall-clock) wall_seconds is reported for operators and
  // excluded from golden output; no engine decision reads it.
  const auto start = std::chrono::steady_clock::now();

  ScenarioResult result;
  result.scenario = spec.name;
  result.engine = enum_name(kEngineNames, spec.engine.mode);

  QuantumCloud cloud = build_cloud(spec.cloud);
  const std::unique_ptr<CommAllocator> allocator =
      make_allocator(spec.engine.allocator);

  // Expand [churn] against the built cloud (only now is the QPU count
  // known for grid/tree topologies); plan errors become spec errors.
  ChurnPlan churn_plan;
  const bool churn_on = spec.churn.enabled();
  if (churn_on) {
    try {
      churn_plan = build_churn_plan(spec.churn, cloud.num_qpus());
    } catch (const std::invalid_argument& e) {
      throw ScenarioError("scenario '" + spec.name + "': " + e.what());
    }
  }

  // The batch engine fans out across its executor's pool; the other
  // engines are serial loops that only use workers for a racing placer.
  std::unique_ptr<ParallelExecutor> executor;
  std::unique_ptr<ThreadPool> race_pool;
  ThreadPool* pool = nullptr;
  if (spec.engine.mode == EngineMode::kBatch) {
    executor = std::make_unique<ParallelExecutor>(spec.engine.workers);
    pool = executor->pool();
  } else if (spec.engine.placer == PlacerKind::kRace &&
             spec.engine.workers > 1) {
    race_pool = std::make_unique<ThreadPool>(spec.engine.workers);
    pool = race_pool.get();
  }
  const std::unique_ptr<Placer> placer =
      make_placer(spec.engine.placer, pool);
  const CountingPlacer counting(*placer);

  // Per-run cache: scenarios are self-contained experiments, so the cache
  // never leaks state between runs (bit-identical reruns of one spec).
  std::unique_ptr<PlacementCache> cache;
  if (spec.engine.cache) {
    CacheOptions cache_options;
    cache_options.capacity =
        static_cast<std::size_t>(spec.engine.cache_capacity);
    cache = std::make_unique<PlacementCache>(cache_options);
  }

  // One set of lifecycle options for every shared-cloud mode; validate()
  // has refused each key a mode does not read, so the fields below that a
  // mode leaves at their defaults are exactly the ones it ignores.
  const std::unique_ptr<EprRouter> router = make_router(spec.engine.router);
  MultiTenantOptions options;
  options.seed = spec.engine.seed;
  options.gated_admission = spec.engine.gated_admission;
  options.gated_allocation = spec.engine.gated_allocation;
  options.cache = cache.get();
  options.router = router.get();
  options.churn = churn_on ? &churn_plan : nullptr;
  options.fifo = spec.engine.fifo;
  if (spec.engine.mode == EngineMode::kStreaming) {
    options.max_pending = static_cast<std::size_t>(spec.engine.max_pending);
    options.backpressure = spec.engine.backpressure;
    options.intake_shards =
        static_cast<std::size_t>(spec.engine.intake_shards);
  }

  // The lifecycle modes fill it; batch runs one private simulator per job
  // and leaves it empty.
  StreamingMetrics metrics;
  switch (spec.engine.mode) {
    case EngineMode::kBatch: {
      const std::vector<Circuit> jobs =
          strip_arrivals(drain(*build_source(spec.workload)));
      const auto stats = executor->run_independent(
          jobs, cloud, counting, *allocator, spec.engine.seed);
      result.jobs.resize(stats.size());
      for (std::size_t i = 0; i < stats.size(); ++i) {
        ScenarioJobResult& job = result.jobs[i];
        job.name = stats[i].name;
        job.placed = stats[i].placed;
        job.completion_time = stats[i].completion_time;
        job.remote_ops = stats[i].remote_ops;
        job.comm_cost = stats[i].comm_cost;
        job.qpus_used = stats[i].qpus_used;
        job.est_fidelity = stats[i].est_fidelity;
      }
      break;
    }
    case EngineMode::kMultiTenant:
    case EngineMode::kIncoming: {
      std::vector<ArrivingJob> trace = drain(*build_source(spec.workload));
      std::vector<int> tenant_of;
      if (!spec.tenants.empty()) {
        tenant_of = assign_tenants(spec.tenants, trace.size(),
                                   spec.workload.trace_seed);
        options.classes = classes_for(spec.tenants, tenant_of);
      }
      std::vector<JobStats> stats;
      if (spec.engine.mode == EngineMode::kMultiTenant) {
        stats = run_batch(strip_arrivals(std::move(trace)), cloud, counting,
                          *allocator, options, &metrics);
      } else {
        stats = run_incoming(std::move(trace), cloud, counting, *allocator,
                             options, &metrics);
      }
      result.jobs.reserve(stats.size());
      for (std::size_t i = 0; i < stats.size(); ++i) {
        result.jobs.push_back({std::move(stats[i]), /*placed=*/true,
                               tenant_of.empty() ? -1 : tenant_of[i]});
      }
      break;
    }
    case EngineMode::kStreaming: {
      const std::unique_ptr<JobSource> source = build_source(spec.workload);
      metrics = run_streaming(*source, cloud, counting, *allocator, options);
      // result.jobs stays empty by design: the engine freed per-job state
      // as jobs completed, so the aggregates below ARE the run's record
      // (finalize_metrics() is a no-op on an empty job table).
      result.makespan = metrics.makespan;
      result.mean_jct = metrics.jct.mean();
      result.mean_fidelity = metrics.fidelity.mean();
      result.stream_submitted = metrics.submitted;
      result.stream_completed = metrics.completed;
      result.stream_rejected = metrics.rejected;
      result.stream_peak_pending = metrics.peak_pending;
      result.stream_peak_in_flight = metrics.peak_in_flight;
      result.jct_p50 = metrics.jct_p50();
      result.jct_p95 = metrics.jct_p95();
      result.jct_p99 = metrics.jct_p99();
      result.fidelity_p50 = metrics.fidelity_p50();
      result.fidelity_p95 = metrics.fidelity_p95();
      result.fidelity_p99 = metrics.fidelity_p99();
      break;
    }
  }

  result.placement_calls = counting.calls();
  result.events_processed = metrics.events_processed;
  result.allocation_rounds = metrics.allocation_rounds;
  if (cache != nullptr) {
    const PlacementCacheStats cache_stats = cache->stats();
    result.cache_exact_hits = cache_stats.exact_hits;
    result.cache_warm_hits = cache_stats.warm_hits;
    result.cache_misses = cache_stats.misses;
  }
  finalize_metrics(result);
  finalize_tenant_metrics(spec.tenants, result);
  result.wall_seconds =
      // det-lint: allow(wall-clock) reporting-only; goldens exclude it.
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

namespace {

/// %.17g: every double the result writers emit reads back exactly.
std::string fmt_exact(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

/// Conservative filename: the scenario name may come from user input.
std::string safe_filename(std::string name) {
  for (char& ch : name) {
    if (!is_name_char(ch)) ch = '_';
  }
  return name;
}

std::size_t placed_jobs(const ScenarioResult& result) {
  return static_cast<std::size_t>(
      std::count_if(result.jobs.begin(), result.jobs.end(),
                    [](const ScenarioJobResult& job) { return job.placed; }));
}

/// The aggregates both single-run writers record, in order, as (key, JSON
/// value). Streaming runs have no per-job table; their deterministic
/// record is the streaming block, absent for every other engine (as
/// jain_fairness is on tenantless runs) so older goldens stay
/// byte-identical.
std::vector<std::pair<const char*, std::string>> aggregate_fields(
    const ScenarioResult& r) {
  const auto n = [](std::uint64_t v) { return std::to_string(v); };
  std::vector<std::pair<const char*, std::string>> fields = {
      {"engine", "\"" + r.engine + "\""},
      {"num_jobs", n(r.jobs.size())},
      {"placed_jobs", n(placed_jobs(r))},
      {"makespan", fmt_exact(r.makespan)},
      {"mean_jct", fmt_exact(r.mean_jct)},
      {"mean_fidelity", fmt_exact(r.mean_fidelity)},
      {"placement_calls", n(r.placement_calls)},
      {"events_processed", n(r.events_processed)},
      {"allocation_rounds", n(r.allocation_rounds)},
      {"cache_exact_hits", n(r.cache_exact_hits)},
      {"cache_warm_hits", n(r.cache_warm_hits)},
      {"cache_misses", n(r.cache_misses)},
  };
  if (r.engine == "streaming") {
    fields.insert(fields.end(),
                  {{"stream_submitted", n(r.stream_submitted)},
                   {"stream_completed", n(r.stream_completed)},
                   {"stream_rejected", n(r.stream_rejected)},
                   {"stream_peak_pending", n(r.stream_peak_pending)},
                   {"stream_peak_in_flight", n(r.stream_peak_in_flight)},
                   {"jct_p50", fmt_exact(r.jct_p50)},
                   {"jct_p95", fmt_exact(r.jct_p95)},
                   {"jct_p99", fmt_exact(r.jct_p99)},
                   {"fidelity_p50", fmt_exact(r.fidelity_p50)},
                   {"fidelity_p95", fmt_exact(r.fidelity_p95)},
                   {"fidelity_p99", fmt_exact(r.fidelity_p99)}});
  }
  if (!r.tenants.empty()) {
    fields.emplace_back("jain_fairness", fmt_exact(r.jain_fairness));
  }
  return fields;
}

/// Shared row format of the two sweep writers: axis assignment + headline
/// deterministic aggregates of one grid point.
void write_sweep_row(std::ofstream& os, const SweepPoint& point) {
  const ScenarioResult& r = point.result;
  os << "{\"assignment\": {";
  for (std::size_t j = 0; j < point.assignment.size(); ++j) {
    os << (j > 0 ? ", " : "") << "\"" << point.assignment[j].first
       << "\": \"" << point.assignment[j].second << "\"";
  }
  os << "}, \"engine\": \"" << r.engine << "\""
     << ", \"num_jobs\": " << r.jobs.size()
     << ", \"placed_jobs\": " << placed_jobs(r)
     << ", \"makespan\": " << fmt_exact(r.makespan)
     << ", \"mean_jct\": " << fmt_exact(r.mean_jct)
     << ", \"mean_fidelity\": " << fmt_exact(r.mean_fidelity)
     << ", \"placement_calls\": " << r.placement_calls
     << ", \"cache_exact_hits\": " << r.cache_exact_hits
     << ", \"cache_warm_hits\": " << r.cache_warm_hits
     << ", \"cache_misses\": " << r.cache_misses;
  if (!r.tenants.empty()) {
    os << ", \"jain_fairness\": " << fmt_exact(r.jain_fairness);
  }
  os << "}";
}

}  // namespace

std::string write_bench_json(const ScenarioResult& result, std::string dir) {
  if (dir.empty()) dir = env_or("CLOUDQC_BENCH_JSON_DIR", ".");
  const std::string safe = safe_filename(result.scenario);
  const std::string path = dir + "/BENCH_scenario_" + safe + ".json";
  std::ofstream os(path);
  if (!os) return "";
  os << "{\n  \"bench\": \"scenario_" << safe << "\"";
  for (const auto& [key, value] : aggregate_fields(result)) {
    os << ",\n  \"" << key << "\": " << value;
  }
  for (const ScenarioTenantResult& t : result.tenants) {
    os << ",\n  \"tenant_" << t.name << "_jobs\": " << t.jobs;
    os << ",\n  \"tenant_" << t.name
       << "_mean_jct\": " << fmt_exact(t.mean_jct);
    os << ",\n  \"tenant_" << t.name
       << "_slo_attainment\": " << fmt_exact(t.slo_attainment);
  }
  os << ",\n  \"wall_seconds\": " << fmt_exact(result.wall_seconds);
  os << "\n}\n";
  return os ? path : "";
}

std::string write_golden_json(const ScenarioResult& result,
                              const std::string& dir) {
  const std::string path = dir + "/" + result.scenario + ".golden.json";
  std::ofstream os(path);
  if (!os) return "";
  os << "{\n";
  os << "  \"scenario\": \"" << result.scenario << "\",\n";
  for (const auto& [key, value] : aggregate_fields(result)) {
    os << "  \"" << key << "\": " << value << ",\n";
  }
  // Tenant block and per-job tenant/restart fields appear only on tenant
  // runs, so goldens predating tenant classes stay byte-identical.
  if (!result.tenants.empty()) {
    os << "  \"tenants\": [";
    for (std::size_t i = 0; i < result.tenants.size(); ++i) {
      const ScenarioTenantResult& t = result.tenants[i];
      os << (i > 0 ? "," : "") << "\n    {\"name\": \"" << t.name << "\""
         << ", \"jobs\": " << t.jobs << ", \"completed\": " << t.completed
         << ", \"slo_target\": " << fmt_exact(t.slo_target)
         << ", \"slo_attainment\": " << fmt_exact(t.slo_attainment)
         << ", \"mean_jct\": " << fmt_exact(t.mean_jct)
         << ", \"jct_p50\": " << fmt_exact(t.jct_p50)
         << ", \"jct_p95\": " << fmt_exact(t.jct_p95)
         << ", \"jct_p99\": " << fmt_exact(t.jct_p99) << "}";
    }
    os << "\n  ],\n";
  }
  os << "  \"jobs\": [";
  for (std::size_t i = 0; i < result.jobs.size(); ++i) {
    const ScenarioJobResult& job = result.jobs[i];
    os << (i > 0 ? "," : "") << "\n    {\"name\": \"" << job.name << "\""
       << ", \"placed\": " << (job.placed ? "true" : "false")
       << ", \"arrival\": " << fmt_exact(job.arrival)
       << ", \"placed_time\": " << fmt_exact(job.placed_time)
       << ", \"completion_time\": " << fmt_exact(job.completion_time)
       << ", \"remote_ops\": " << job.remote_ops
       << ", \"comm_cost\": " << fmt_exact(job.comm_cost)
       << ", \"qpus_used\": " << job.qpus_used
       << ", \"est_fidelity\": " << fmt_exact(job.est_fidelity);
    if (!result.tenants.empty()) {
      os << ", \"tenant\": " << job.tenant
         << ", \"restarts\": " << job.restarts;
    }
    os << "}";
  }
  os << "\n  ]\n}\n";
  return os ? path : "";
}

std::vector<SweepPointSpec> expand_sweep(const ScenarioSpec& spec) {
  validate(spec);
  ScenarioSpec base = spec;
  base.sweep.clear();
  std::vector<SweepPointSpec> points;
  if (spec.sweep.empty()) {
    points.push_back(SweepPointSpec{std::move(base), {}});
    return points;
  }
  std::size_t total = 1;
  for (const SweepAxis& axis : spec.sweep) total *= axis.values.size();
  points.reserve(total);
  for (std::size_t p = 0; p < total; ++p) {
    SweepPointSpec point;
    point.spec = base;
    // Row-major: the first axis varies slowest.
    std::size_t stride = total;
    for (const SweepAxis& axis : spec.sweep) {
      stride /= axis.values.size();
      const std::string& value = axis.values[(p / stride) % axis.values.size()];
      apply_sweep_assignment(point.spec, axis.key, value);
      point.assignment.emplace_back(axis.key, value);
    }
    validate(point.spec);
    points.push_back(std::move(point));
  }
  return points;
}

SweepResult run_sweep(const ScenarioSpec& spec) {
  // det-lint: allow(wall-clock) wall_seconds is reporting-only, excluded
  // from golden output; no sweep decision reads it.
  const auto start = std::chrono::steady_clock::now();
  std::vector<SweepPointSpec> points = expand_sweep(spec);
  SweepResult result;
  result.name = spec.name;
  result.points.resize(points.size());
  // Every point is an independent run_scenario() on a private spec, writing
  // only its own slot: bit-identical merged results at any worker count.
  ParallelExecutor executor(spec.engine.workers);
  executor.run_indexed(points.size(), [&](std::size_t i) {
    result.points[i].assignment = std::move(points[i].assignment);
    result.points[i].result = run_scenario(points[i].spec);
  });
  result.wall_seconds =
      // det-lint: allow(wall-clock) reporting-only; goldens exclude it.
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

std::string write_sweep_json(const SweepResult& result, std::string dir) {
  if (dir.empty()) dir = env_or("CLOUDQC_BENCH_JSON_DIR", ".");
  const std::string safe = safe_filename(result.name);
  const std::string path = dir + "/BENCH_sweep_" + safe + ".json";
  std::ofstream os(path);
  if (!os) return "";
  os << "{\n  \"bench\": \"sweep_" << safe << "\"";
  os << ",\n  \"points\": " << result.points.size();
  os << ",\n  \"rows\": [";
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    os << (i > 0 ? "," : "") << "\n    ";
    write_sweep_row(os, result.points[i]);
  }
  os << "\n  ]";
  os << ",\n  \"wall_seconds\": " << fmt_exact(result.wall_seconds);
  os << "\n}\n";
  return os ? path : "";
}

std::string write_sweep_golden_json(const SweepResult& result,
                                    const std::string& dir) {
  const std::string path = dir + "/" + result.name + ".golden.json";
  std::ofstream os(path);
  if (!os) return "";
  os << "{\n";
  os << "  \"sweep\": \"" << result.name << "\",\n";
  os << "  \"num_points\": " << result.points.size() << ",\n";
  os << "  \"points\": [";
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    os << (i > 0 ? "," : "") << "\n    ";
    write_sweep_row(os, result.points[i]);
  }
  os << "\n  ]\n}\n";
  return os ? path : "";
}

}  // namespace cloudqc
