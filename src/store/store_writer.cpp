#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/fmt.hpp"
#include "events/event_codec.hpp"
#include "io/json.hpp"
#include "store/page_reader.hpp"
#include "store/segment_builder.hpp"
#include "store/trace_store.hpp"

namespace mtd::store {

namespace {

/// Sentinel for "no cursor update pending" (valid cursors are >= -1).
constexpr std::int64_t kNoCursor = -2;

std::string pages_path_of(const std::string& path) { return path + ".pages"; }

std::string context_of(const std::string& pages_path) {
  return "trace store '" + pages_path + "'";
}

}  // namespace

struct TraceStoreWriter::Impl {
  std::string path;
  std::string pages_path;
  std::string context;
  std::fstream file;
  FaultInjector* fault = nullptr;
  StoreManifest manifest;
  std::vector<StreamEvent> pending;
  std::array<std::uint64_t, kNumEventKinds> pending_by_kind{};
  std::int64_t pending_cursor = kNoCursor;
  std::optional<std::string> pending_checkpoint;
  bool open = false;

  void commit();
  CompactionReport compact();
  /// A builder appending at the committed length of the page file.
  SegmentBuilder append_segment();
  /// Writes the sorted pending events as one segment past the committed
  /// length.
  SegmentInfo write_pending();
  /// Writes the k-way merge of every committed segment (read through
  /// `pages`) as one segment past the committed length.
  SegmentInfo write_merged(PageFile& pages);
};

TraceStoreWriter::TraceStoreWriter(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
TraceStoreWriter::~TraceStoreWriter() = default;
TraceStoreWriter::TraceStoreWriter(TraceStoreWriter&&) noexcept = default;
TraceStoreWriter& TraceStoreWriter::operator=(TraceStoreWriter&&) noexcept =
    default;

TraceStoreWriter TraceStoreWriter::create(const std::string& path,
                                          StoreOptions options,
                                          FaultInjector* fault) {
  require(options.page_size >= kMinPageSize,
          "TraceStoreWriter: page_size must be at least " +
              std::to_string(kMinPageSize) + " bytes");
  require(options.bloom_bits_per_key > 0.0,
          "TraceStoreWriter: bloom_bits_per_key must be positive");
  auto impl = std::make_unique<Impl>();
  impl->path = path;
  impl->pages_path = pages_path_of(path);
  impl->context = context_of(impl->pages_path);
  impl->fault = fault;
  impl->manifest.options = options;
  {
    // A fresh page file holding only the superblock. create() itself is not
    // crash-atomic (it replaces an existing store destructively); commit()
    // is.
    std::ofstream out(impl->pages_path,
                      std::ios::binary | std::ios::trunc | std::ios::out);
    if (!out) {
      throw IoError("TraceStoreWriter: cannot create '" + impl->pages_path +
                    "'");
    }
    const std::string super = build_superblock(options.page_size);
    out.write(super.data(), static_cast<std::streamsize>(super.size()));
    out.flush();
    if (out.fail()) {
      throw IoError("TraceStoreWriter: short write creating '" +
                    impl->pages_path + "'");
    }
  }
  write_file_atomic(path, impl->manifest.to_text());
  impl->file.open(impl->pages_path,
                  std::ios::binary | std::ios::in | std::ios::out);
  if (!impl->file) {
    throw IoError("TraceStoreWriter: cannot reopen '" + impl->pages_path +
                  "'");
  }
  impl->open = true;
  return TraceStoreWriter(std::move(impl));
}

TraceStoreWriter TraceStoreWriter::append(const std::string& path,
                                          FaultInjector* fault) {
  auto impl = std::make_unique<Impl>();
  impl->path = path;
  impl->pages_path = pages_path_of(path);
  impl->context = context_of(impl->pages_path);
  impl->fault = fault;
  impl->manifest = StoreManifest::load(path);
  {
    // Page accounting must close: the superblock, the dead_pages a
    // compaction retired and every live segment together cover exactly the
    // committed length. A manifest that fails this was not written by a
    // completed commit or compact pass.
    std::uint64_t accounted = 1 + impl->manifest.dead_pages;
    for (const SegmentInfo& seg : impl->manifest.segments) {
      accounted += seg.num_pages;
    }
    if (accounted != impl->manifest.committed_pages) {
      throw ParseError("TraceStoreWriter: manifest '" + path + "' commits " +
                       std::to_string(impl->manifest.committed_pages) +
                       " pages but superblock + dead_pages + segments "
                       "account for " +
                       std::to_string(accounted));
    }
  }
  const std::uint64_t committed = impl->manifest.committed_bytes();
  std::uint64_t size = 0;
  {
    std::ifstream in(impl->pages_path, std::ios::binary);
    if (!in) {
      throw IoError("TraceStoreWriter: cannot open '" + impl->pages_path +
                    "'");
    }
    in.seekg(0, std::ios::end);
    size = static_cast<std::uint64_t>(in.tellg());
    if (size < committed) {
      throw ParseError(impl->context + ": page file is " +
                       std::to_string(size) +
                       " bytes but the manifest commits " +
                       std::to_string(committed) + " — truncated at byte " +
                       std::to_string(size));
    }
    in.seekg(0);
    std::string page(impl->manifest.options.page_size, '\0');
    in.read(page.data(), static_cast<std::streamsize>(page.size()));
    if (static_cast<std::size_t>(in.gcount()) != page.size()) {
      throw ParseError(impl->context + ": truncated superblock at byte " +
                       std::to_string(in.gcount()));
    }
    check_superblock(page, impl->manifest.options.page_size, impl->context);
  }
  if (size > committed) {
    // Reclaim the uncommitted tail a crashed commit left behind; the
    // manifest never vouched for those bytes.
    std::error_code ec;
    std::filesystem::resize_file(impl->pages_path, committed, ec);
    if (ec) {
      throw IoError("TraceStoreWriter: cannot truncate uncommitted tail of '" +
                    impl->pages_path + "': " + ec.message());
    }
  }
  impl->file.open(impl->pages_path,
                  std::ios::binary | std::ios::in | std::ios::out);
  if (!impl->file) {
    throw IoError("TraceStoreWriter: cannot reopen '" + impl->pages_path +
                  "'");
  }
  impl->open = true;
  return TraceStoreWriter(std::move(impl));
}

void TraceStoreWriter::on_event(const StreamEvent& event) {
  ++impl_->pending_by_kind[static_cast<std::size_t>(event.kind())];
  impl_->pending.push_back(event);
}

void TraceStoreWriter::close() {
  if (impl_ == nullptr || !impl_->open) return;
  impl_->commit();
  impl_->file.close();
  impl_->open = false;
}

void TraceStoreWriter::commit() { impl_->commit(); }

CompactionReport TraceStoreWriter::compact() { return impl_->compact(); }

void TraceStoreWriter::set_engine_cursor(std::size_t next_day) {
  impl_->pending_cursor = static_cast<std::int64_t>(next_day);
}

void TraceStoreWriter::set_engine_checkpoint(std::string checkpoint_json) {
  impl_->pending_checkpoint = std::move(checkpoint_json);
}

const StoreManifest& TraceStoreWriter::manifest() const noexcept {
  return impl_->manifest;
}

std::uint64_t TraceStoreWriter::events_pending() const noexcept {
  return impl_->pending.size();
}

std::uint64_t TraceStoreWriter::events_committed() const noexcept {
  return impl_->manifest.events;
}

void TraceStoreWriter::Impl::commit() {
  const bool cursor_dirty =
      pending_cursor != kNoCursor && pending_cursor != manifest.engine_next_day;
  const bool checkpoint_dirty =
      pending_checkpoint.has_value() &&
      *pending_checkpoint != manifest.engine_checkpoint;
  if (pending.empty() && !cursor_dirty && !checkpoint_dirty) return;
  if (!open) {
    throw IoError("TraceStoreWriter: commit on a closed store '" + path + "'",
                  false);
  }
  // Canonical trace order; stable so equal keys (which do not occur in
  // engine streams, but are not rejected) keep arrival order.
  std::stable_sort(pending.begin(), pending.end(),
                   [](const StreamEvent& a, const StreamEvent& b) {
                     return a.key < b.key;
                   });

  // The commit sequence: append pages past the committed length, flush
  // them, then atomically publish the manifest that vouches for them. A
  // failure (or injected fault) anywhere leaves the previous manifest in
  // place — the appended bytes are invisible garbage and the pending
  // events are kept for a retry.
  fault_fire(fault, "store.commit.pages");
  std::optional<SegmentInfo> seg;
  if (!pending.empty()) seg = write_pending();
  fault_fire(fault, "store.commit.sync");
  file.flush();
  if (file.fail()) {
    file.clear();
    throw IoError("TraceStoreWriter: short write appending a segment to '" +
                  pages_path + "'");
  }

  StoreManifest next = manifest;
  if (pending_cursor != kNoCursor) next.engine_next_day = pending_cursor;
  if (pending_checkpoint.has_value()) {
    next.engine_checkpoint = *pending_checkpoint;
  }
  if (seg.has_value()) {
    next.committed_pages += seg->num_pages;
    next.events += seg->events;
    for (std::size_t k = 0; k < kNumEventKinds; ++k) {
      next.events_by_kind[k] += pending_by_kind[k];
    }
    next.segments.push_back(std::move(*seg));
  }
  fault_fire(fault, "store.commit.manifest");
  write_file_atomic(path, next.to_text());

  manifest = std::move(next);
  pending.clear();
  pending_by_kind = {};
  pending_cursor = kNoCursor;
  pending_checkpoint.reset();
}

SegmentInfo TraceStoreWriter::Impl::write_pending() {
  SegmentBuilder builder = append_segment();
  char record[4 + kMaxEventPayloadBytes];
  for (const StreamEvent& event : pending) {
    const std::size_t len = encode_event_payload(event, record + 4);
    (void)store_le(record, static_cast<std::uint32_t>(len));
    builder.add(std::string_view(record, 4 + len), event.key);
  }
  return builder.finish();
}

CompactionReport TraceStoreWriter::Impl::compact() {
  CompactionReport report;
  report.segments_before = manifest.segments.size();
  report.segments_after = manifest.segments.size();
  if (manifest.segments.size() < 2) return report;  // nothing to merge
  if (!open) {
    throw IoError("TraceStoreWriter: compact on a closed store '" + path +
                  "'", false);
  }

  // Same publication discipline as commit(): the merged segment is
  // appended past the committed length, flushed, then the manifest that
  // swaps it in (and retires the old segments) lands atomically. A crash
  // anywhere leaves the previous manifest, under which the old segments
  // are still the live index and the appended bytes are invisible.
  PageFile pages(pages_path, manifest.options.page_size,
                 manifest.committed_pages);
  fault_fire(fault, "store.compact.pages");
  const SegmentInfo seg = write_merged(pages);
  fault_fire(fault, "store.compact.sync");
  file.flush();
  if (file.fail()) {
    file.clear();
    throw IoError("TraceStoreWriter: short write appending the compacted "
                  "segment to '" + pages_path + "'");
  }

  StoreManifest next = manifest;
  std::uint64_t retired = 0;
  for (const SegmentInfo& old : manifest.segments) retired += old.num_pages;
  next.committed_pages += seg.num_pages;
  next.dead_pages += retired;
  next.segments.assign(1, seg);
  report.segments_after = 1;
  report.events = seg.events;
  report.pages_written = seg.num_pages;
  report.pages_retired = retired;
  fault_fire(fault, "store.compact.manifest");
  write_file_atomic(path, next.to_text());

  manifest = std::move(next);
  return report;
}

SegmentInfo TraceStoreWriter::Impl::write_merged(PageFile& pages) {
  // The committed snapshot is exactly `manifest` (pending events are
  // invisible until their commit). Its segments' raw records are k-way
  // merged by key straight into the new segment's pages — the record
  // order every reader already observes, with no decode/encode round trip.
  RecordMerge merge;
  for (const SegmentInfo& seg : manifest.segments) {
    std::vector<std::uint64_t> leaves(seg.num_leaves);
    for (std::uint64_t i = 0; i < seg.num_leaves; ++i) {
      leaves[i] = seg.first_leaf + i;
    }
    merge.add(pages, std::move(leaves), RecordFilter{});
  }
  SegmentBuilder builder = append_segment();
  for (const RawRecord* record = merge.front(); record != nullptr;
       record = merge.front()) {
    builder.add(record->bytes, record->key);
    merge.pop();
  }
  // Records of kinds this build does not know are not carried over, so
  // they surface here as a count the manifest does not vouch for.
  if (builder.events() != manifest.events) {
    throw ParseError(context + ": compaction replayed " +
                     std::to_string(builder.events()) +
                     " events but the manifest commits " +
                     std::to_string(manifest.events));
  }
  return builder.finish();
}

SegmentBuilder TraceStoreWriter::Impl::append_segment() {
  file.clear();
  file.seekp(static_cast<std::streamoff>(manifest.committed_bytes()));
  return SegmentBuilder(file, manifest.options, manifest.committed_pages);
}

}  // namespace mtd::store
