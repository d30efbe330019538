// The benchmark's probes: a digesting tap for the event stream, timing
// decorators for EventSink and SessionSource, and the single-thread
// reference generator the engine stream is checked against. They sit around
// the calls into each layer; nothing inside the program is instrumented.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "dataset/generator.hpp"
#include "events/event_sink.hpp"
#include "events/session_source.hpp"
#include "harness.hpp"
#include "store/store_session_source.hpp"

namespace mtd::perfbench {

/// Digest words of a minute event, shared by the tap and the reference.
[[nodiscard]] inline std::uint64_t minute_word(std::size_t day,
                                               std::size_t minute,
                                               std::uint32_t arrivals) {
  return (static_cast<std::uint64_t>(day) << 48) |
         (static_cast<std::uint64_t>(minute) << 32) | arrivals;
}

[[nodiscard]] inline std::uint64_t digest_session(std::uint64_t h,
                                                  const Session& s) {
  h = mix(h, (static_cast<std::uint64_t>(s.day) << 48) |
                 (static_cast<std::uint64_t>(s.minute_of_day) << 32) |
                 (static_cast<std::uint64_t>(s.service) << 1) |
                 (s.transient ? 1u : 0u));
  h = mix(h, std::bit_cast<std::uint64_t>(s.volume_mb));
  return mix(h, std::bit_cast<std::uint64_t>(s.duration_s));
}

/// Per-BS digests of a trace's minute and session events, in the order the
/// trace holds them.
struct SessionDigest {
  std::vector<std::uint64_t> per_bs;
  std::uint64_t minutes = 0;
  std::uint64_t sessions = 0;

  explicit SessionDigest(std::size_t num_bs) : per_bs(num_bs, kDigestSeed) {}

  /// Digests one event; other kinds are ignored.
  void add(const StreamEvent& event) {
    if (event.kind() == EventKind::kMinute) {
      std::uint64_t& h = per_bs[event.key.bs];
      h = mix(h, minute_word(event.key.day, event.key.minute_of_day,
                             std::get<MinuteEvent>(event.payload).arrivals));
      ++minutes;
    } else if (event.kind() == EventKind::kSession) {
      std::uint64_t& h = per_bs[event.key.bs];
      h = digest_session(h, std::get<SessionEvent>(event.payload).session);
      ++sessions;
    }
  }
};

/// The check target of every workload: TraceGenerator::run_bs_day under the
/// batch kernel, one thread, BS by BS and day by day.
SessionDigest reference_digest(const TraceGenerator& generator);

/// EventSink that digests the stream it sees and forwards it to `inner`
/// (when set). Keeps the minute/session digest the reference covers, a
/// digest of the segment and packet events, per-kind counts, per-service
/// session counts and per-(BS, minute of day) arrival totals.
class DigestTap final : public EventSink {
 public:
  DigestTap(std::size_t num_bs, std::size_t num_services,
            EventSink* inner = nullptr)
      : sessions_(num_bs),
        expansion_(num_bs, kDigestSeed),
        service_sessions_(num_services, 0),
        arrivals_(num_bs * kMinutesPerDay, 0),
        inner_(inner) {}

  void on_event(const StreamEvent& event) override;
  void close() override {
    if (inner_ != nullptr) inner_->close();
  }

  [[nodiscard]] const SessionDigest& sessions() const noexcept {
    return sessions_;
  }
  /// The printed output digest: every kind, per BS in stream order.
  [[nodiscard]] std::uint64_t output_digest() const {
    return mix(fold(sessions_.per_bs), fold(expansion_));
  }
  [[nodiscard]] std::uint64_t count(EventKind kind) const noexcept {
    return kinds_[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] const std::vector<std::uint64_t>& service_sessions()
      const noexcept {
    return service_sessions_;
  }
  /// Arrivals of BS b in minute-of-day m, summed over days, at
  /// b * kMinutesPerDay + m.
  [[nodiscard]] const std::vector<std::uint64_t>& arrivals() const noexcept {
    return arrivals_;
  }

 private:
  SessionDigest sessions_;
  std::vector<std::uint64_t> expansion_;
  std::array<std::uint64_t, kNumEventKinds> kinds_{};
  std::vector<std::uint64_t> service_sessions_;
  std::vector<std::uint64_t> arrivals_;
  EventSink* inner_;
};

/// Timing decorator around a sink or a fan-out branch. Calls are folded
/// into one aggregated span per simulated day, named `name`, whose parent
/// is the enclosing decorator's call in progress (`enclosing`) or else the
/// span set with set_parent(). close() is a plain span of the same name.
class TimedSink final : public EventSink {
 public:
  TimedSink(EventSink& inner, Tracer& tracer, std::string name,
            const TimedSink* enclosing = nullptr)
      : inner_(&inner),
        tracer_(&tracer),
        name_(std::move(name)),
        enclosing_(enclosing) {}

  void set_parent(int span) noexcept { parent_ = span; }
  void set_enclosing(const TimedSink* enclosing) noexcept {
    enclosing_ = enclosing;
  }

  void on_event(const StreamEvent& event) override;
  void close() override;

  /// Span of the call in progress (-1 outside a call).
  [[nodiscard]] int current() const noexcept { return current_; }

 private:
  [[nodiscard]] int parent() const noexcept {
    return enclosing_ != nullptr ? enclosing_->current() : parent_;
  }

  EventSink* inner_;
  Tracer* tracer_;
  std::string name_;
  const TimedSink* enclosing_;
  int parent_ = -1;
  int current_ = -1;
  // (parent span, day) -> aggregated span; the last lookup is cached, as
  // consecutive events almost always share it.
  std::map<std::pair<int, std::uint16_t>, int> day_spans_;
  std::pair<int, std::uint16_t> last_key_{-2, 0};
  int last_span_ = -1;
};

/// Read-side counters of an ObservedSource, split by query shape: per-BS
/// scans (fence/bloom-pruned) and full replays.
struct SourceStats {
  std::uint64_t replay_events = 0;
  std::uint64_t scan_events = 0;
  std::vector<double> scan_us;
  std::uint64_t scan_pages_read = 0;
  std::uint64_t scan_leaf_pages_read = 0;
  std::uint64_t scan_leaves_skipped_fence = 0;
  std::uint64_t scan_leaves_skipped_bloom = 0;
};

/// Decorator around a StoreSessionSource. It digests the first full
/// replay (the check that the store gives back what was ingested) and,
/// with a tracer, records one span per scan() under the span set with
/// set_parent(), plus the TraceStore read-telemetry deltas of each scan.
class ObservedSource final : public SessionSource {
 public:
  ObservedSource(store::StoreSessionSource& inner, std::size_t num_bs,
                 Tracer* tracer)
      : inner_(&inner), tracer_(tracer), replay_digest_(num_bs) {}

  std::uint64_t scan(const SourceQuery& query,
                     const std::function<void(const StreamEvent&)>& fn)
      override;

  void set_parent(int span) noexcept { parent_ = span; }

  [[nodiscard]] const SessionDigest& replay_digest() const noexcept {
    return replay_digest_;
  }
  [[nodiscard]] std::uint64_t first_replay_events() const noexcept {
    return first_replay_events_;
  }
  [[nodiscard]] const SourceStats& stats() const noexcept { return stats_; }

 private:
  store::StoreSessionSource* inner_;
  Tracer* tracer_;
  int parent_ = -1;
  SessionDigest replay_digest_;
  bool digested_ = false;
  std::uint64_t first_replay_events_ = 0;
  SourceStats stats_;
};

}  // namespace mtd::perfbench
