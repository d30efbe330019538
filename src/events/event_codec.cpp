#include "events/event_codec.hpp"

#include <bit>

#include "common/error.hpp"
#include "common/fmt.hpp"

namespace mtd {

double ByteCursor::f64(const char* what) {
  return std::bit_cast<double>(u64(what));
}

void ByteCursor::fail_truncated(const char* what) const {
  throw ParseError(*context_ + ": truncated " + what + " at byte " +
                   std::to_string(base_ + pos_));
}

std::size_t encode_event_payload(const StreamEvent& event, char* buf) {
  char* p = buf;
  *p++ = static_cast<char>(event.kind());
  p = store_le(p, event.key.bs);
  p = store_le(p, event.key.day);
  p = store_le(p, event.key.minute_of_day);
  p = store_le(p, event.key.seq);
  switch (event.kind()) {
    case EventKind::kMinute:
      p = store_le(p, std::get<MinuteEvent>(event.payload).arrivals);
      break;
    case EventKind::kSession: {
      const Session& s = std::get<SessionEvent>(event.payload).session;
      p = store_le(p, s.service);
      *p++ = s.transient ? 1 : 0;
      p = store_f64_le(p, s.volume_mb);
      p = store_f64_le(p, s.duration_s);
      break;
    }
    case EventKind::kSegment: {
      const SegmentEvent& e = std::get<SegmentEvent>(event.payload);
      p = store_le(p, e.service);
      *p++ = static_cast<char>(e.state);
      p = store_le(p, e.session_seq);
      p = store_le(p, e.segment.hop);
      *p++ = e.segment.first ? 1 : 0;
      *p++ = e.segment.last ? 1 : 0;
      p = store_f64_le(p, e.segment.volume_mb);
      p = store_f64_le(p, e.segment.duration_s);
      break;
    }
    case EventKind::kPacket: {
      const PacketEvent& e = std::get<PacketEvent>(event.payload);
      p = store_le(p, e.service);
      p = store_le(p, e.session_seq);
      p = store_f64_le(p, e.packet.time_s);
      p = store_le(p, e.packet.size_bytes);
      break;
    }
  }
  return static_cast<std::size_t>(p - buf);
}

bool decode_event_payload(ByteCursor& rec, StreamEvent& out) {
  const std::uint8_t kind = rec.u8("event kind");
  if (kind >= kNumEventKinds) return false;
  StreamEvent event;
  event.key.bs = rec.u32("event key");
  event.key.day = rec.u16("event key");
  event.key.minute_of_day = rec.u16("event key");
  event.key.seq = rec.u64("event key");
  switch (static_cast<EventKind>(kind)) {
    case EventKind::kMinute: {
      MinuteEvent e;
      e.arrivals = rec.u32("minute payload");
      event.payload = e;
      break;
    }
    case EventKind::kSession: {
      SessionEvent e;
      e.session.bs = event.key.bs;
      e.session.day = event.key.day;
      e.session.minute_of_day = event.key.minute_of_day;
      e.session.service = rec.u16("session payload");
      e.session.transient = rec.u8("session payload") != 0;
      e.session.volume_mb = rec.f64("session payload");
      e.session.duration_s = rec.f64("session payload");
      event.payload = e;
      break;
    }
    case EventKind::kSegment: {
      SegmentEvent e;
      e.service = rec.u16("segment payload");
      e.state = static_cast<MobilityState>(rec.u8("segment payload"));
      e.session_seq = rec.u64("segment payload");
      e.segment.hop = rec.u32("segment payload");
      e.segment.first = rec.u8("segment payload") != 0;
      e.segment.last = rec.u8("segment payload") != 0;
      e.segment.volume_mb = rec.f64("segment payload");
      e.segment.duration_s = rec.f64("segment payload");
      event.payload = e;
      break;
    }
    case EventKind::kPacket: {
      PacketEvent e;
      e.service = rec.u16("packet payload");
      e.session_seq = rec.u64("packet payload");
      e.packet.time_s = rec.f64("packet payload");
      e.packet.size_bytes = rec.u32("packet payload");
      event.payload = e;
      break;
    }
  }
  out = std::move(event);
  return true;
}

}  // namespace mtd
