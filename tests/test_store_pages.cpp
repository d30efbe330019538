// The trace store's page path (DESIGN.md section 12): the 4-lane page
// checksum, the bytes a streamed segment write produces, and the leaf-run
// reader's diagnostics and pruning. A run reads up to kRunPages
// consecutive leaves at once; a fault inside a run must still be reported
// at the faulty page's own id and byte offset, and a pruned leaf inside a
// run must stay unread.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "dataset/network.hpp"
#include "engine/engine.hpp"
#include "engine/store_runner.hpp"
#include "events/event_codec.hpp"
#include "scratch_path.hpp"
#include "store/bloom.hpp"
#include "store/format.hpp"
#include "store/page_reader.hpp"
#include "store/trace_store.hpp"

namespace mtd {
namespace {

using store::StoreOptions;
using store::TraceStore;
using store::TraceStoreWriter;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

StreamEvent minute_event(std::uint32_t bs, std::uint16_t minute,
                         std::uint32_t arrivals) {
  StreamEvent event;
  event.key = EventKey{bs, 0, minute, minute};
  event.payload = MinuteEvent{arrivals};
  return event;
}

struct Count final : EventSink {
  std::uint64_t events = 0;
  void on_event(const StreamEvent&) override { ++events; }
};

TEST(StorePages, Fnv1a64x4MatchesScalarOnEveryLane) {
  std::string bytes(5000, '\0');
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (char& c : bytes) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    c = static_cast<char>(x >> 56);
  }
  const std::string_view all(bytes);
  const std::array<std::array<std::size_t, 4>, 6> shapes = {{
      {0, 0, 0, 0},
      {4056, 4056, 4056, 4056},
      {4056, 4000, 17, 3},
      {0, 1, 4096, 2},
      {5000, 0, 0, 7},
      {1, 2, 3, 4},
  }};
  for (const auto& lengths : shapes) {
    std::array<std::string_view, 4> lanes;
    for (std::size_t lane = 0; lane < 4; ++lane) {
      // Distinct starting offsets so equal lengths still hash different
      // bytes.
      lanes[lane] = all.substr(lane * 3, std::min(lengths[lane],
                                                  all.size() - lane * 3));
    }
    const std::array<std::uint64_t, 4> sums = store::fnv1a64_x4(lanes);
    for (std::size_t lane = 0; lane < 4; ++lane) {
      EXPECT_EQ(sums[lane], store::fnv1a64(lanes[lane]))
          << "lane " << lane << " of length " << lanes[lane].size();
    }
  }
}

TEST(StorePages, PayloadSizeTableMatchesTheEncoder) {
  char buf[kMaxEventPayloadBytes];
  StreamEvent minute;
  minute.payload = MinuteEvent{};
  StreamEvent session;
  session.payload = SessionEvent{};
  StreamEvent segment;
  segment.payload = SegmentEvent{};
  StreamEvent packet;
  packet.payload = PacketEvent{};
  for (const StreamEvent& event : {minute, session, segment, packet}) {
    EXPECT_EQ(encode_event_payload(event, buf),
              kEventPayloadBytes[static_cast<std::size_t>(event.kind())])
        << to_string(event.kind());
  }
}

// The streamed write path is pinned to the bytes of the whole-segment
// builder it replaced: an engine run with hourly commits and daily
// compaction writes this exact page file.
TEST(StorePages, PagesFileDigestIsPinned) {
  NetworkConfig net;
  net.num_bs = 10;
  net.last_decile_rate = 15.0;
  Rng rng(17);
  const Network network = Network::build(net, rng);
  TraceConfig trace;
  trace.num_days = 2;
  trace.seed = 29;
  EngineConfig config;
  config.num_workers = 2;
  config.checkpoint_interval_minutes = 60;
  const std::string path = test::scratch_path("pinned.store");
  {
    StreamEngine engine(network, trace, config);
    TraceStoreWriter writer = TraceStoreWriter::create(path);
    const EngineResult result =
        run_engine_into_store(engine, writer, StoreRunPolicy{1});
    ASSERT_TRUE(result.checkpoint.complete());
    writer.close();
  }
  const TraceStore reader(path);
  EXPECT_EQ(reader.manifest().segments.size(), 1u);
  EXPECT_GT(reader.manifest().dead_pages, 0u);
  const std::string pages = read_file(path + ".pages");
  EXPECT_EQ(pages.size(), 13660160u);
  EXPECT_EQ(store::fnv1a64(pages), 0x9b49728fc32b6e15ULL);
}

/// One segment of 512-byte pages: `per_bs` minute events for each of
/// `bss`, in key order (18 minute records fill a leaf).
store::StoreManifest build_small_page_store(
    const std::string& path, const std::vector<std::uint32_t>& bss,
    std::uint16_t per_bs) {
  TraceStoreWriter writer =
      TraceStoreWriter::create(path, StoreOptions{.page_size = 512});
  for (const std::uint32_t bs : bss) {
    for (std::uint16_t m = 0; m < per_bs; ++m) {
      writer.on_event(minute_event(bs, m, bs + m));
    }
  }
  writer.close();
  return writer.manifest();
}

void expect_parse_error(const std::function<void()>& read,
                        const std::vector<std::string>& needles) {
  try {
    read();
    FAIL() << "read past a faulty page";
  } catch (const ParseError& error) {
    const std::string what = error.what();
    for (const std::string& needle : needles) {
      EXPECT_NE(what.find(needle), std::string::npos)
          << "expected '" << needle << "' in: " << what;
    }
  }
}

TEST(StorePages, FlippedByteInsideARunNamesItsOwnPage) {
  const std::string path = test::scratch_path("flip.store");
  const store::StoreManifest manifest =
      build_small_page_store(path, {1, 2, 3, 4, 5, 6, 7, 8}, 40);
  const store::SegmentInfo& seg = manifest.segments.at(0);
  ASSERT_GE(seg.num_leaves, 12u);
  const std::string pages_path = path + ".pages";
  const std::string clean = read_file(pages_path);
  constexpr std::size_t kPage = 512;

  // A payload byte of the 7th leaf (lane 2 of the second group of four):
  // the checksum names that page, wherever it sits in the run.
  const std::uint64_t victim = seg.first_leaf + 6;
  std::string bytes = clean;
  bytes[victim * kPage + store::kPageHeaderBytes + 30] ^= 0x10;
  write_file(pages_path, bytes);
  const std::vector<std::string> checksum = {
      pages_path, "page " + std::to_string(victim) + " checksum mismatch",
      "at byte " + std::to_string(victim * kPage)};
  {
    TraceStore reader(path);
    Count sink;
    expect_parse_error([&] { (void)reader.replay(sink); }, checksum);
    expect_parse_error([&] { (void)reader.verify(); }, checksum);
  }

  // Two faulty pages in one group: the earlier one is reported, with the
  // one-page check's own diagnostic (here a misdirected page id).
  const std::uint64_t earlier = seg.first_leaf + 5;
  bytes[earlier * kPage + 8] ^= 0x01;  // the header's page id
  write_file(pages_path, bytes);
  {
    TraceStore reader(path);
    Count sink;
    expect_parse_error(
        [&] { (void)reader.replay(sink); },
        {"page " + std::to_string(earlier) + " carries id",
         "at byte " + std::to_string(earlier * kPage), "misdirected"});
  }
  write_file(pages_path, clean);
  TraceStore reader(path);
  EXPECT_EQ(reader.verify().events, manifest.events);
}

TEST(StorePages, TruncationInsideARunNamesItsOwnPage) {
  const std::string path = test::scratch_path("trunc.store");
  const store::StoreManifest manifest =
      build_small_page_store(path, {1, 2, 3, 4, 5, 6, 7, 8}, 40);
  const store::SegmentInfo& seg = manifest.segments.at(0);
  ASSERT_GE(seg.num_leaves, 12u);
  ASSERT_LT(seg.num_leaves, store::kRunPages);  // all leaves in one run
  constexpr std::size_t kPage = 512;

  // Opened whole, then the file loses its tail from the middle of the 10th
  // leaf on: the run read comes up short there. verify() reads the leaves
  // before the bloom and fence pages behind them; the stream reads the
  // leaves alone.
  TraceStore reader(path);
  store::PageFile file(path + ".pages", kPage, manifest.committed_pages);
  const std::uint64_t victim = seg.first_leaf + 9;
  const std::uint64_t cut = victim * kPage + 100;
  std::filesystem::resize_file(path + ".pages", cut);
  const std::vector<std::string> truncated = {
      "truncated page " + std::to_string(victim),
      "at byte " + std::to_string(cut)};
  expect_parse_error([&] { (void)reader.verify(); }, truncated);
  std::vector<std::uint64_t> leaves;
  for (std::uint64_t i = 0; i < seg.num_leaves; ++i) {
    leaves.push_back(seg.first_leaf + i);
  }
  store::LeafStream stream(file, leaves, store::RecordFilter{});
  expect_parse_error([&] { (void)stream.next(); }, truncated);
}

// A run ends at a leaf its prune predicate rejects, and that leaf is never
// read: here the predicate is the segment's own bloom filters, asked for
// BS 2 or 9, and the leaves holding only BS 5 sit between theirs. A
// corrupted pruned leaf proves it: the pass still succeeds.
TEST(StorePages, BloomPrunedLeafInsideARunIsNeitherReadNorCounted) {
  const std::string path = test::scratch_path("prune.store");
  const store::StoreManifest manifest =
      build_small_page_store(path, {2, 5, 9}, 80);
  const store::SegmentInfo& seg = manifest.segments.at(0);
  constexpr std::size_t kPage = 512;
  const std::string pages_path = path + ".pages";
  std::string bytes = read_file(pages_path);

  // Which leaves each BS's bloom filter admits, read off the bloom pages.
  const std::size_t per_page =
      store::bloom_filters_per_page(kPage, seg.bloom_bytes);
  auto admits = [&](std::uint64_t ordinal, std::uint32_t bs) {
    const std::size_t at = (seg.first_bloom_page + ordinal / per_page) *
                               kPage +
                           store::kPageHeaderBytes +
                           (ordinal % per_page) * seg.bloom_bytes;
    const auto* begin = reinterpret_cast<const std::uint8_t*>(bytes.data());
    return store::BsBloom::from_bytes(
               std::vector<std::uint8_t>(begin + at,
                                         begin + at + seg.bloom_bytes),
               seg.bloom_hashes)
        .maybe_contains(bs);
  };
  std::vector<std::uint64_t> leaves;
  std::vector<std::uint64_t> pruned;
  for (std::uint64_t i = 0; i < seg.num_leaves; ++i) {
    leaves.push_back(seg.first_leaf + i);
    if (!admits(i, 2) && !admits(i, 9)) pruned.push_back(seg.first_leaf + i);
  }
  // 80 records per BS at 18 per leaf: BS 5 alone fills leaves 6-8.
  ASSERT_EQ(pruned, (std::vector<std::uint64_t>{seg.first_leaf + 5,
                                                 seg.first_leaf + 6,
                                                 seg.first_leaf + 7}));
  ASSERT_LT(leaves.size(), store::kRunPages);  // one run without pruning

  bytes[pruned[1] * kPage + store::kPageHeaderBytes + 3] ^= 0x55;
  write_file(pages_path, bytes);

  store::PageFile file(pages_path, kPage, manifest.committed_pages);
  std::uint64_t probes = 0;
  store::LeafStream stream(file, leaves, store::RecordFilter{},
                           [&](std::uint64_t leaf) {
                             ++probes;
                             return std::find(pruned.begin(), pruned.end(),
                                              leaf) != pruned.end();
                           });
  std::uint64_t records = 0;
  while (stream.next() != nullptr) ++records;

  // The pruned leaves were neither read nor counted; every other leaf was.
  EXPECT_EQ(file.telemetry().pages_read, seg.num_leaves - pruned.size());
  EXPECT_EQ(file.telemetry().leaf_pages_read, seg.num_leaves - pruned.size());
  EXPECT_EQ(probes, seg.num_leaves);  // each leaf probed exactly once
  EXPECT_EQ(records, manifest.events - 18 * pruned.size());
}

}  // namespace
}  // namespace mtd
