// Dynamic-cloud churn: declarative QPU maintenance windows plus
// calibration drift, expanded into a deterministic offline/online event
// timeline that the engines drain alongside the simulator event queue.
//
// The spec side (`ChurnSpec`) mirrors the scenario `[churn]` section:
// explicit windows, optionally a batch of generated windows drawn from
// the spec seed, a policy for in-flight jobs on a departing QPU, and a
// sinusoidal calibration-drift model. `build_churn_plan` merges
// overlapping windows per QPU so the resulting event list is a clean
// alternation of offline/online edges — engines never see nested
// outages.
#pragma once

#include <cstdint>
#include <vector>

namespace cloudqc {

/// One scheduled maintenance outage: QPU `qpu` is offline over
/// [start, end).
struct MaintenanceWindow {
  int qpu = 0;
  double start = 0.0;
  double end = 0.0;
};

/// What happens to in-flight jobs on a QPU that goes offline.
///
/// Both policies cancel the job in the simulator and release its
/// reservation; they differ in how the job re-enters the system:
/// `kRequeue` puts it back in the pending queue at its original rank
/// (it waits its turn through the admission gate), `kMigrate` attempts
/// an immediate re-placement on the remaining QPUs via the normal
/// placement path (cache warm starts apply) and only falls back to the
/// queue when that fails.
enum class ChurnPolicy {
  kRequeue,
  kMigrate,
};

/// Declarative churn description (scenario `[churn]` section).
struct ChurnSpec {
  ChurnPolicy policy = ChurnPolicy::kRequeue;
  /// Explicit maintenance windows.
  std::vector<MaintenanceWindow> windows;
  /// Number of additional windows generated from `seed`: each draws a
  /// QPU uniformly, a start uniform in [0, horizon), and an
  /// exponentially distributed duration with mean `mean_duration`.
  int random_windows = 0;
  double horizon = 1000.0;
  double mean_duration = 100.0;
  std::uint64_t seed = 13;
  /// Sinusoidal calibration drift: EPR success probability and link
  /// fidelity are scaled by d(t) = 1 - amplitude/2 * (1 - cos(2*pi*t /
  /// period)), i.e. d oscillates in [1 - amplitude, 1] starting at 1.
  /// amplitude = 0 disables drift (and the simulator's drift-off path
  /// is bit-identical to a build without churn at all).
  double drift_amplitude = 0.0;
  double drift_period = 1000.0;

  /// True when this spec changes anything at all.
  bool enabled() const {
    return !windows.empty() || random_windows > 0 || drift_amplitude > 0.0;
  }
};

/// One offline/online edge of the merged maintenance timeline.
struct ChurnEvent {
  double time = 0.0;
  int qpu = 0;
  bool offline = false;  ///< true = QPU leaves, false = QPU returns
};

/// Executable churn timeline: deterministic for a fixed spec. Events
/// are sorted by (time, online-before-offline, qpu) so capacity that
/// frees and capacity that leaves at the same instant settle in a
/// fixed order, and per QPU the offline/online edges strictly
/// alternate (overlapping windows are merged).
struct ChurnPlan {
  ChurnPolicy policy = ChurnPolicy::kRequeue;
  std::vector<ChurnEvent> events;
  double drift_amplitude = 0.0;
  double drift_period = 1000.0;
};

/// Expand a spec into its event timeline for a cloud of `num_qpus`
/// QPUs. Generated windows draw from Rng(spec.seed) in a fixed order
/// (qpu, start, duration per window). Throws std::invalid_argument on
/// out-of-range QPU ids, inverted windows, or bad drift parameters.
ChurnPlan build_churn_plan(const ChurnSpec& spec, int num_qpus);

/// Calibration drift factor d(t) in [1 - amplitude, 1]; d(0) = 1.
/// amplitude = 0 returns exactly 1.0 without touching `period`.
double calibration_drift_factor(double t, double amplitude, double period);

}  // namespace cloudqc
