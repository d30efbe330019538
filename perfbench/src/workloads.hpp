// The benchmark's workloads (see perfbench/README.md for why each exists).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "harness.hpp"

namespace mtd::perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke-test sizing: a few BSs, still enough sessions per service for
  /// ModelRegistry::fit.
  bool tiny = false;
  /// Flips one reference digest, so the stream check must fail.
  bool corrupt_reference = false;
  std::string scratch_root = ".bench_scratch";
  /// When set, the spans of the last traced repetition are written here.
  std::string trace_file;
};

/// Handles one repetition gets from the run loop.
struct Rep {
  int index = 0;
  /// Null in untraced repetitions.
  Tracer* tracer = nullptr;
  /// Root span of the repetition (its wall time), -1 untraced.
  int root = -1;
  Checks* checks = nullptr;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the inputs from the seed and the reference the outputs are
  /// checked against. Timed as setup_s; the run loop calls it more than
  /// once.
  virtual void setup() = 0;

  /// One repetition: the timed phases, then the output checks. Returns the
  /// end-to-end values (sessions_per_s, events_per_s, ingest_s, analyze_s,
  /// pipeline_s, store_bytes_per_event) and, when traced, per-layer values.
  virtual Values run(const Rep& rep) = 0;

  /// Per-layer values measured once per traced run, outside the
  /// repetitions (single-thread and one-worker baselines).
  virtual Values traced_once(Checks& checks) {
    (void)checks;
    return {};
  }

  /// Digest of the workload's output, identical for every repetition of
  /// one seed and across builds that do not change the output.
  [[nodiscard]] virtual std::uint64_t output_digest() const = 0;
};

/// Null for an unknown workload name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const Options& options);

}  // namespace mtd::perfbench
