// Measurement scaffolding of the pipeline benchmark: clocks, the span
// tracer, stream digests, output checks, summary statistics and the host /
// build identity every result carries.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mtd::perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// One span of the trace. Plain spans cover [start, end] and are busy for
/// all of it. Aggregated spans stand for many short calls into one layer
/// (one span per simulated day instead of one per event): they cover the
/// first call's start to the last call's end and are busy only for the sum
/// of the calls. A span's self time is its busy time minus its children's.
struct Span {
  std::string name;
  int parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t busy_ns = 0;
  std::uint64_t calls = 0;
};

/// In-memory span recorder. Spans are only opened on the thread that
/// currently drives the pipeline (the caller, or the engine's consumer
/// while the caller is blocked in StreamEngine::run), so it needs no lock.
class Tracer {
 public:
  int open(std::string name, int parent) {
    const std::int64_t t = now_ns();
    spans_.push_back(Span{std::move(name), parent, t, t, 0, 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = now_ns();
    s.busy_ns = s.end_ns - s.start_ns;
    s.calls = 1;
  }
  /// Adds one call [t0, t1] to an aggregated span.
  void add_call(int id, std::int64_t t0, std::int64_t t1) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    if (s.calls == 0) s.start_ns = t0;
    s.end_ns = t1;
    s.busy_ns += t1 - t0;
    ++s.calls;
  }

  [[nodiscard]] const Span& span(int id) const {
    return spans_[static_cast<std::size_t>(id)];
  }

  /// Busy time of every span named `name`, seconds.
  [[nodiscard]] double busy_s(const std::string& name) const;
  /// Busy time of `id` not covered by its direct children, seconds.
  [[nodiscard]] double self_s(int id) const;
  /// Self time of every span named `name`, seconds.
  [[nodiscard]] double self_busy_s(const std::string& name) const;
  /// Every child lies within its parent's interval, busy <= duration, and
  /// every self time is >= 0. Names the first violation in `why`.
  [[nodiscard]] bool well_formed(std::string& why) const;
  /// The spans as a JSON array (name, parent, start/end/busy ns, calls).
  [[nodiscard]] std::string to_json() const;

 private:
  std::vector<Span> spans_;
};

/// RAII plain span; a null tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int parent)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->open(std::move(name), parent) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Order-dependent 64-bit stream digest: one multiply-xorshift round per
/// word, cheap enough to run on the engine's consumer thread at ten
/// million events per second.
[[nodiscard]] constexpr std::uint64_t mix(std::uint64_t h,
                                          std::uint64_t v) noexcept {
  h = (h ^ v) * 0x9e3779b97f4a7c15ULL;
  return h ^ (h >> 29);
}

inline constexpr std::uint64_t kDigestSeed = 0xcbf29ce484222325ULL;

/// Folds a per-BS digest table into one value.
[[nodiscard]] std::uint64_t fold(const std::vector<std::uint64_t>& per_bs);

[[nodiscard]] std::string hex(std::uint64_t v);

/// Output checks of one run: counted into `attempted` / `failed`, and each
/// failure is reported on stderr with what failed.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1].
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// Named values of one repetition, keyed by metric name.
using Values = std::map<std::string, double>;

/// Peak resident set size of this process, MB.
[[nodiscard]] double peak_rss_mb();

/// Host and build identity (hostname, nproc, CPU model, build type, compile
/// flags, compiler) as a JSON object. Results whose identity differ are not
/// comparable.
[[nodiscard]] std::string identity_json();

/// Worker count of every engine run: one hardware thread stays free for the
/// consumer, so workers plus consumer never exceed nproc.
[[nodiscard]] std::size_t engine_workers();

/// A directory of its own for one repetition's files, named from the pid,
/// the workload and the repetition; removed (with its contents) on
/// destruction.
class ScratchDir {
 public:
  ScratchDir(const std::string& root, const std::string& workload, int rep);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] std::string file(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

/// Filesystem type name of `path` (statfs magic), "unknown" if unlisted.
[[nodiscard]] std::string filesystem_of(const std::string& path);

/// Size of a file in bytes (0 when absent).
[[nodiscard]] std::uint64_t file_bytes(const std::string& path);

}  // namespace mtd::perfbench
