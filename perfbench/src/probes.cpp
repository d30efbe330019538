#include "probes.hpp"

namespace mtd::perfbench {

namespace {

/// TraceSink feeding a SessionDigest with what run_bs_day emits, in the
/// same words the tap digests from the engine stream.
struct ReferenceSink final : TraceSink {
  SessionDigest* digest;

  explicit ReferenceSink(SessionDigest& d) : digest(&d) {}

  void on_minute(const BaseStation& bs, std::size_t day,
                 std::size_t minute_of_day, std::uint32_t count) override {
    std::uint64_t& h = digest->per_bs[bs.id];
    h = mix(h, minute_word(day, minute_of_day, count));
    ++digest->minutes;
  }
  void on_session(const Session& session) override {
    std::uint64_t& h = digest->per_bs[session.bs];
    h = digest_session(h, session);
    ++digest->sessions;
  }
};

}  // namespace

SessionDigest reference_digest(const TraceGenerator& generator) {
  const Network& network = generator.network();
  SessionDigest digest(network.size());
  ReferenceSink sink(digest);
  for (const BaseStation& bs : network.base_stations()) {
    for (std::size_t day = 0; day < generator.config().num_days; ++day) {
      generator.run_bs_day(bs, day, sink, GeneratorKernel::kBatch);
    }
  }
  return digest;
}

void DigestTap::on_event(const StreamEvent& event) {
  const EventKind kind = event.kind();
  ++kinds_[static_cast<std::size_t>(kind)];
  switch (kind) {
    case EventKind::kMinute:
      sessions_.add(event);
      arrivals_[event.key.bs * kMinutesPerDay + event.key.minute_of_day] +=
          std::get<MinuteEvent>(event.payload).arrivals;
      break;
    case EventKind::kSession: {
      sessions_.add(event);
      const std::uint16_t service =
          std::get<SessionEvent>(event.payload).session.service;
      if (service < service_sessions_.size()) ++service_sessions_[service];
      break;
    }
    case EventKind::kSegment: {
      const SegmentEvent& e = std::get<SegmentEvent>(event.payload);
      std::uint64_t& h = expansion_[event.key.bs];
      h = mix(h, event.key.seq);
      h = mix(h, (static_cast<std::uint64_t>(e.segment.hop) << 32) |
                     (static_cast<std::uint64_t>(e.service) << 8) |
                     (static_cast<std::uint64_t>(e.state) << 2) |
                     (e.segment.first ? 2u : 0u) | (e.segment.last ? 1u : 0u));
      h = mix(h, std::bit_cast<std::uint64_t>(e.segment.volume_mb));
      h = mix(h, std::bit_cast<std::uint64_t>(e.segment.duration_s));
      break;
    }
    case EventKind::kPacket: {
      const PacketEvent& e = std::get<PacketEvent>(event.payload);
      std::uint64_t& h = expansion_[event.key.bs];
      h = mix(h, event.key.seq);
      h = mix(h, (static_cast<std::uint64_t>(e.packet.size_bytes) << 16) |
                     e.service);
      h = mix(h, std::bit_cast<std::uint64_t>(e.packet.time_s));
      break;
    }
  }
  if (inner_ != nullptr) inner_->on_event(event);
}

void TimedSink::on_event(const StreamEvent& event) {
  const std::pair<int, std::uint16_t> key(parent(), event.key.day);
  if (key != last_key_) {
    auto [it, fresh] = day_spans_.try_emplace(key, -1);
    if (fresh) it->second = tracer_->open(name_, key.first);
    last_key_ = key;
    last_span_ = it->second;
  }
  const int previous = current_;
  current_ = last_span_;
  const std::int64_t t0 = now_ns();
  inner_->on_event(event);
  tracer_->add_call(current_, t0, now_ns());
  current_ = previous;
}

void TimedSink::close() {
  const int previous = current_;
  current_ = tracer_->open(name_, parent());
  inner_->close();
  tracer_->close(current_);
  current_ = previous;
}

std::uint64_t ObservedSource::scan(
    const SourceQuery& query,
    const std::function<void(const StreamEvent&)>& fn) {
  const bool replay = !query.bs.has_value();
  const bool digest = replay && !digested_;
  const store::StoreReadTelemetry before = inner_->store().telemetry();
  ScopedSpan span(tracer_, replay ? "store.replay" : "store.scan", parent_);
  const std::int64_t t0 = now_ns();
  const std::uint64_t events =
      digest ? inner_->scan(query,
                            [this, &fn](const StreamEvent& event) {
                              replay_digest_.add(event);
                              fn(event);
                            })
             : inner_->scan(query, fn);
  const double us = static_cast<double>(now_ns() - t0) * 1e-3;
  if (digest) {
    digested_ = true;
    first_replay_events_ = events;
  }
  const store::StoreReadTelemetry& after = inner_->store().telemetry();
  if (replay) {
    stats_.replay_events += events;
  } else {
    stats_.scan_events += events;
    stats_.scan_us.push_back(us);
    stats_.scan_pages_read += after.pages_read - before.pages_read;
    stats_.scan_leaf_pages_read +=
        after.leaf_pages_read - before.leaf_pages_read;
    stats_.scan_leaves_skipped_fence +=
        after.leaves_skipped_fence - before.leaves_skipped_fence;
    stats_.scan_leaves_skipped_bloom +=
        after.leaves_skipped_bloom - before.leaves_skipped_bloom;
  }
  return events;
}

}  // namespace mtd::perfbench
