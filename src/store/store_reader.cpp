#include <optional>
#include <utility>

#include "common/error.hpp"
#include "events/event_codec.hpp"
#include "events/session_source.hpp"
#include "store/bloom.hpp"
#include "store/page_reader.hpp"
#include "store/trace_store.hpp"

namespace mtd::store {

namespace {

constexpr std::uint64_t kNoPage = ~std::uint64_t{0};

}  // namespace

struct TraceStore::Impl {
  explicit Impl(const std::string& path)
      : manifest(StoreManifest::load(path)),
        file(path + ".pages", manifest.options.page_size,
             manifest.committed_pages) {}

  StoreManifest manifest;
  PageFile file;
  /// Last bloom page decoded, so consecutive leaf probes of one segment
  /// don't reread it.
  std::uint64_t cached_bloom_page = kNoPage;
  std::string bloom_payload;

  [[nodiscard]] const std::string& context() const noexcept {
    return file.context();
  }
  [[nodiscard]] StoreReadTelemetry& telemetry() noexcept {
    return file.telemetry();
  }

  /// Bloom probe of leaf `ordinal` (0-based within `seg`) for `bs`.
  bool bloom_maybe_contains(const SegmentInfo& seg, std::uint64_t ordinal,
                            std::uint32_t bs) {
    if (seg.num_bloom_pages == 0 || seg.bloom_bytes == 0) return true;
    const std::size_t per_page = bloom_filters_per_page(
        manifest.options.page_size, seg.bloom_bytes);
    const std::uint64_t page_id = seg.first_bloom_page + ordinal / per_page;
    const std::size_t slot =
        static_cast<std::size_t>(ordinal % per_page) * seg.bloom_bytes;
    if (cached_bloom_page != page_id) {
      const PageFile::Page page = file.load(page_id, PageType::kBloom);
      bloom_payload.assign(page.payload);
      cached_bloom_page = page_id;
    }
    if (slot + seg.bloom_bytes > bloom_payload.size()) {
      throw ParseError(context() + ": bloom page " + std::to_string(page_id) +
                       " is too short for filter slot " +
                       std::to_string(slot));
    }
    const auto* begin =
        reinterpret_cast<const std::uint8_t*>(bloom_payload.data()) + slot;
    const BsBloom bloom = BsBloom::from_bytes(
        std::vector<std::uint8_t>(begin, begin + seg.bloom_bytes),
        seg.bloom_hashes);
    return bloom.maybe_contains(bs);
  }

  /// The prune predicate of a one-BS query over `seg`: a leaf whose bloom
  /// filter rules `bs` out is skipped unread.
  LeafStream::Prune bloom_prune(const SegmentInfo& seg, std::uint32_t bs) {
    return [this, &seg, bs](std::uint64_t leaf) {
      if (bloom_maybe_contains(seg, leaf - seg.first_leaf, bs)) return false;
      ++telemetry().leaves_skipped_bloom;
      return true;
    };
  }

  /// Collects, in key order, the leaves of `seg` whose fences overlap
  /// [lo, hi], descending the segment's fence tree and counting pruned
  /// leaf candidates.
  std::vector<std::uint64_t> collect_leaves(const SegmentInfo& seg,
                                            const EventKey& lo,
                                            const EventKey& hi) {
    std::vector<std::uint64_t> out;
    if (seg.num_leaves == 0 || seg.min_key > hi || seg.max_key < lo) {
      return out;
    }
    if (seg.depth == 0) {
      out.push_back(seg.root);
      return out;
    }
    descend(seg.root, seg.depth, lo, hi, out);
    return out;
  }

  void descend(std::uint64_t page_id, std::uint32_t level, const EventKey& lo,
               const EventKey& hi, std::vector<std::uint64_t>& out) {
    const PageFile::Page page = file.load(page_id, PageType::kInternal);
    struct Fence {
      EventKey min_key;
      EventKey max_key;
      std::uint64_t child;
    };
    // Decode the fences up front: the page buffer is reused by child loads.
    std::vector<Fence> fences;
    fences.reserve(page.header.entry_count);
    ByteCursor cursor(page.payload,
                      page_id * manifest.options.page_size + kPageHeaderBytes,
                      context());
    for (std::uint16_t i = 0; i < page.header.entry_count; ++i) {
      Fence fence;
      fence.min_key = decode_key(cursor, "fence min key");
      fence.max_key = decode_key(cursor, "fence max key");
      fence.child = cursor.u64("fence child");
      fences.push_back(fence);
    }
    for (const Fence& fence : fences) {
      if (fence.min_key > hi || fence.max_key < lo) {
        if (level == 1) ++telemetry().leaves_skipped_fence;
        continue;
      }
      if (level == 1) {
        out.push_back(fence.child);
      } else {
        descend(fence.child, level - 1, lo, hi, out);
      }
    }
  }

  /// K-way merge of every segment's records matching `filter`, decoded
  /// and delivered in canonical key order. With `bs` set, each candidate
  /// leaf's bloom filter is probed before the leaf is read.
  std::uint64_t merge(const RecordFilter& filter,
                      std::optional<std::uint32_t> bs,
                      const std::function<void(const StreamEvent&)>& fn) {
    RecordMerge merge;
    for (const SegmentInfo& seg : manifest.segments) {
      std::vector<std::uint64_t> leaves =
          collect_leaves(seg, filter.lo, filter.hi);
      if (leaves.empty()) continue;
      merge.add(file, std::move(leaves), filter,
                bs.has_value() ? bloom_prune(seg, *bs) : LeafStream::Prune{});
    }
    std::uint64_t delivered = 0;
    StreamEvent event;
    for (const RawRecord* record = merge.front(); record != nullptr;
         record = merge.front()) {
      record->decode(event, context());
      fn(event);
      ++delivered;
      merge.pop();
    }
    return delivered;
  }
};

TraceStore::TraceStore(const std::string& path)
    : impl_(std::make_unique<Impl>(path)) {}

TraceStore::~TraceStore() = default;
TraceStore::TraceStore(TraceStore&&) noexcept = default;
TraceStore& TraceStore::operator=(TraceStore&&) noexcept = default;

const StoreManifest& TraceStore::manifest() const noexcept {
  return impl_->manifest;
}

std::optional<StreamEvent> TraceStore::get(const EventKey& key) {
  ++impl_->telemetry().point_lookups;
  const RecordFilter filter{.lo = key, .hi = key};
  for (const SegmentInfo& seg : impl_->manifest.segments) {
    std::vector<std::uint64_t> leaves = impl_->collect_leaves(seg, key, key);
    if (leaves.empty()) continue;
    LeafStream stream(impl_->file, std::move(leaves), filter,
                      impl_->bloom_prune(seg, key.bs));
    if (const RawRecord* record = stream.next()) {
      StreamEvent event;
      record->decode(event, impl_->context());
      return event;
    }
  }
  return std::nullopt;
}

std::uint64_t TraceStore::scan(
    const SourceQuery& query,
    const std::function<void(const StreamEvent&)>& fn) {
  ++impl_->telemetry().range_scans;
  RecordFilter filter;
  filter.day_lo = query.day_lo;
  filter.day_hi = query.day_hi;
  filter.kinds = query.kinds;
  if (query.bs.has_value()) {
    // Keys order by BS first: one BS's day range is one key range.
    filter.lo = EventKey{*query.bs, query.day_lo, 0, 0};
    filter.hi = EventKey{*query.bs, query.day_hi, 0xffff, ~std::uint64_t{0}};
  }
  return impl_->merge(filter, query.bs, fn);
}

std::uint64_t TraceStore::scan(
    std::uint32_t bs, std::uint16_t day_lo, std::uint16_t day_hi,
    const std::function<void(const StreamEvent&)>& fn) {
  SourceQuery query;
  query.bs = bs;
  query.day_lo = day_lo;
  query.day_hi = day_hi;
  return scan(query, fn);
}

std::uint64_t TraceStore::replay(EventSink& sink) {
  return scan(SourceQuery{},
              [&sink](const StreamEvent& event) { sink.on_event(event); });
}

StoreVerifyReport TraceStore::verify() {
  StoreVerifyReport report;
  report.pages = impl_->manifest.committed_pages;
  // Superblock plus the pages compaction retired: dead ranges hold the
  // superseded segments' bytes, which no live index references — they are
  // accounted, not walked.
  std::uint64_t accounted = 1 + impl_->manifest.dead_pages;
  for (const SegmentInfo& seg : impl_->manifest.segments) {
    // Every leaf is read once, every record checked; the entry counts of
    // the leaves must add up to the segment's event count.
    std::vector<std::uint64_t> leaves(seg.num_leaves);
    for (std::uint64_t i = 0; i < seg.num_leaves; ++i) {
      leaves[i] = seg.first_leaf + i;
    }
    LeafStream stream(impl_->file, std::move(leaves), RecordFilter{});
    while (stream.next() != nullptr) {
    }
    const std::uint64_t counted = stream.entries_read();
    if (counted != seg.events) {
      throw ParseError(impl_->context() + ": segment at page " +
                       std::to_string(seg.first_page) + " indexes " +
                       std::to_string(seg.events) +
                       " events but its leaves hold " +
                       std::to_string(counted));
    }
    for (std::uint64_t i = 0; i < seg.num_bloom_pages; ++i) {
      (void)impl_->file.load(seg.first_bloom_page + i, PageType::kBloom);
    }
    const std::uint64_t internals =
        seg.num_pages - seg.num_leaves - seg.num_bloom_pages;
    const std::uint64_t first_internal =
        seg.first_bloom_page + seg.num_bloom_pages;
    for (std::uint64_t i = 0; i < internals; ++i) {
      (void)impl_->file.load(first_internal + i, PageType::kInternal);
    }
    report.leaf_pages += seg.num_leaves;
    report.events += seg.events;
    ++report.segments;
    accounted += seg.num_pages;
  }
  if (accounted != impl_->manifest.committed_pages) {
    throw ParseError(impl_->context() + ": manifest commits " +
                     std::to_string(impl_->manifest.committed_pages) +
                     " pages but its segments account for " +
                     std::to_string(accounted));
  }
  return report;
}

const StoreReadTelemetry& TraceStore::telemetry() const noexcept {
  return impl_->file.telemetry();
}

void TraceStore::reset_telemetry() noexcept { impl_->telemetry() = {}; }

}  // namespace mtd::store
