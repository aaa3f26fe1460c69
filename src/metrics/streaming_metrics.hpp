// Streaming aggregates of a bounded-memory job lifecycle: everything a
// million-job run reports, in O(1) space per completed job.
//
// A completed job folds into counters, exact extremes and two
// QuantileSketch instances (JCT and fidelity), then its per-job state is
// freed — StreamingMetrics is the *only* thing the streaming engine
// retains per completed job. Sketch merges are commutative and
// associative, so per-shard accumulators merged in any order produce
// bit-identical metrics (the worker-count determinism contract).
#pragma once

#include <cstdint>

#include "metrics/quantile_sketch.hpp"

namespace cloudqc {

struct StreamingMetrics {
  /// Jobs pulled from the source (completed + rejected + still pending /
  /// in flight when a run is sampled mid-stream; at the end of a run,
  /// submitted == completed + rejected).
  std::uint64_t submitted = 0;
  /// Jobs that ran to completion and were folded in.
  std::uint64_t completed = 0;
  /// Jobs dropped by the backpressure policy (bounded pending set full
  /// under StreamingBackpressure::kReject).
  std::uint64_t rejected = 0;
  /// Jobs dropped because they can never fit the cloud's total capacity
  /// (counted in `rejected` too; a streaming service skips them instead of
  /// aborting a million-job run the way the batch engines' precondition
  /// CHECK would).
  std::uint64_t rejected_oversize = 0;
  /// High-water marks of the bounded job lifecycle (diagnostics for the
  /// backpressure policy; both are bounded by the engine's max_pending and
  /// the cloud's capacity respectively).
  std::uint64_t peak_pending = 0;
  std::uint64_t peak_in_flight = 0;
  /// Simulator work of the whole run: events processed and allocation
  /// rounds that invoked the allocator. Set once by run_lifecycle; shard
  /// folds leave them 0, so merge() and operator== ignore them (they
  /// describe what the run cost, not what happened to its jobs).
  std::uint64_t events_processed = 0;
  std::uint64_t allocation_rounds = 0;
  /// Latest completion time (simulation units).
  double makespan = 0.0;

  /// JCT (completion - arrival) of every completed job.
  QuantileSketch jct;
  /// First-order output-fidelity estimate of every completed job.
  QuantileSketch fidelity;

  double jct_p50() const { return jct.quantile(0.50); }
  double jct_p95() const { return jct.quantile(0.95); }
  double jct_p99() const { return jct.quantile(0.99); }
  double fidelity_p50() const { return fidelity.quantile(0.50); }
  double fidelity_p95() const { return fidelity.quantile(0.95); }
  double fidelity_p99() const { return fidelity.quantile(0.99); }

  /// Fold one completed job in (O(1)).
  void record_completion(double jct_value, double fidelity_value,
                         double completion_time) {
    ++completed;
    jct.add(jct_value);
    fidelity.add(fidelity_value);
    if (completion_time > makespan) makespan = completion_time;
  }

  /// Fold a shard's metrics in. Counter additions and sketch merges are
  /// order-independent; call in shard-index order anyway for clarity.
  void merge(const StreamingMetrics& other) {
    submitted += other.submitted;
    completed += other.completed;
    rejected += other.rejected;
    rejected_oversize += other.rejected_oversize;
    peak_pending = peak_pending > other.peak_pending ? peak_pending
                                                     : other.peak_pending;
    peak_in_flight = peak_in_flight > other.peak_in_flight
                         ? peak_in_flight
                         : other.peak_in_flight;
    if (other.makespan > makespan) makespan = other.makespan;
    jct.merge(other.jct);
    fidelity.merge(other.fidelity);
  }

  /// Bit-identity over every deterministic outcome field (all but the
  /// simulator work counters) — the equality the 1/2/8-worker contract
  /// tests assert.
  bool operator==(const StreamingMetrics& other) const {
    return submitted == other.submitted && completed == other.completed &&
           rejected == other.rejected &&
           rejected_oversize == other.rejected_oversize &&
           peak_pending == other.peak_pending &&
           peak_in_flight == other.peak_in_flight &&
           makespan == other.makespan && jct == other.jct &&
           fidelity == other.fidelity;
  }
  bool operator!=(const StreamingMetrics& other) const {
    return !(*this == other);
  }
};

}  // namespace cloudqc
