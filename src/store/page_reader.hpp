// The one read path of a committed page file (DESIGN.md section 12),
// private to src/store.
//
// PageFile hands out fully validated pages: single fence, bloom and
// superblock pages, and runs of consecutive leaves read in one call and
// checksummed four pages at a time. LeafStream walks the raw records of
// one segment's candidate leaves a run at a time and tests each record's
// kind and key against a RecordFilter on the record header, before any
// payload is decoded. RecordMerge k-way merges such streams into canonical
// key order. Replay, scans, point lookups, verify() and compaction all read
// through these three, so they share one set of checks and diagnostics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <fstream>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "events/stream_event.hpp"
#include "store/format.hpp"
#include "store/trace_store.hpp"

namespace mtd::store {

/// Leaves read by one LeafStream read call at most (128 KiB at the default
/// page size).
inline constexpr std::size_t kRunPages = 32;

/// The largest possible key: upper bound of unbounded scans.
[[nodiscard]] constexpr EventKey max_event_key() noexcept {
  return EventKey{0xffffffffu, 0xffff, 0xffff, ~std::uint64_t{0}};
}

/// Read handle on the committed pages of one store. Every page it returns
/// passed check_typed_page (or check_page_run) and is counted in its
/// telemetry.
class PageFile {
 public:
  /// Opens `pages_path`, checks that it holds the `committed_pages` the
  /// manifest vouches for and validates the superblock. ParseError (path
  /// and byte offset) on truncation or a corrupt superblock.
  PageFile(const std::string& pages_path, std::size_t page_size,
           std::uint64_t committed_pages);

  struct Page {
    PageHeader header;
    std::string_view payload;  ///< valid until the next load()
  };

  /// Reads and fully validates one committed page of type `expect`.
  Page load(std::uint64_t page_id, PageType expect);

  /// Reads the consecutive leaves [first, first + headers.size()) in one
  /// read into `buf` and fully validates every one, filling `headers`. A
  /// short read names the first incomplete page and its byte offset, after
  /// the complete pages before it passed their checks.
  void load_leaves(std::uint64_t first, std::span<PageHeader> headers,
                   std::string& buf);

  [[nodiscard]] const std::string& context() const noexcept {
    return context_;
  }
  [[nodiscard]] std::size_t page_size() const noexcept { return page_size_; }
  [[nodiscard]] StoreReadTelemetry& telemetry() noexcept { return telemetry_; }
  [[nodiscard]] const StoreReadTelemetry& telemetry() const noexcept {
    return telemetry_;
  }

 private:
  /// Reads `count` pages from `first` into `buf`; returns the bytes read.
  std::size_t read(std::uint64_t first, std::size_t count, std::string& buf);

  std::string context_;
  std::ifstream file_;
  std::size_t page_size_;
  std::uint64_t committed_pages_;
  std::string page_buf_;
  StoreReadTelemetry telemetry_;
};

/// One leaf record as stored: `bytes` is the u32 length prefix and the
/// event payload, `offset` the file position of the prefix.
struct RawRecord {
  std::string_view bytes;
  std::uint64_t offset = 0;
  EventKey key;

  /// Decodes the payload into `out` (its checks were passed on the read).
  void decode(StreamEvent& out, const std::string& context) const;
};

/// The records a LeafStream yields: keys in [lo, hi], days in [day_lo,
/// day_hi], kinds in `kinds`. Records of unknown kinds are never yielded.
struct RecordFilter {
  EventKey lo{};
  EventKey hi = max_event_key();
  std::uint16_t day_lo = 0;
  std::uint16_t day_hi = 0xffff;
  EventKindMask kinds = EventKindMask::all();

  [[nodiscard]] bool matches(const EventKey& key,
                             EventKind kind) const noexcept {
    return kinds.contains(kind) && !(key < lo) && !(hi < key) &&
           key.day >= day_lo && key.day <= day_hi;
  }
};

/// The matching records of one segment's candidate leaves, in key order.
/// Leaves are read in runs of up to kRunPages consecutive page ids; a leaf
/// the prune predicate rejects ends a run and is never read. Every record
/// of a read leaf is checked (length prefix within the page, payload long
/// enough for its kind) whether or not it matches, with the diagnostics
/// of decode_event_payload.
class LeafStream {
 public:
  /// True when a leaf can be skipped unread (e.g. its bloom filter rules
  /// the probe out); the predicate does its own accounting.
  using Prune = std::function<bool(std::uint64_t leaf)>;

  LeafStream(PageFile& file, std::vector<std::uint64_t> leaves,
             const RecordFilter& filter, Prune prune = {});
  LeafStream(const LeafStream&) = delete;
  LeafStream& operator=(const LeafStream&) = delete;

  /// The next matching record, or nullptr once the leaves are exhausted.
  /// The record stays valid until the next call.
  const RawRecord* next();

  /// Entry counts of every leaf read so far, all records included.
  [[nodiscard]] std::uint64_t entries_read() const noexcept {
    return entries_read_;
  }

 private:
  bool load_run();
  void open_page();

  PageFile* file_;
  std::vector<std::uint64_t> leaves_;
  RecordFilter filter_;
  Prune prune_;
  std::size_t next_leaf_ = 0;
  std::string run_;
  std::vector<PageHeader> headers_;
  std::uint64_t run_first_ = 0;
  std::size_t page_ = 0;
  std::string_view payload_;
  std::uint64_t payload_offset_ = 0;
  std::size_t pos_ = 0;
  std::uint16_t record_ = 0;
  std::uint64_t entries_read_ = 0;
  RawRecord current_;
};

/// K-way merge of LeafStreams into canonical key order; on equal keys the
/// stream added first (the older segment) goes first.
class RecordMerge {
 public:
  /// Adds a stream and reads its first record.
  void add(PageFile& file, std::vector<std::uint64_t> leaves,
           const RecordFilter& filter, LeafStream::Prune prune = {});

  /// The smallest head record, or nullptr when every stream is exhausted;
  /// valid until pop().
  [[nodiscard]] const RawRecord* front() const noexcept {
    return best_ < heads_.size() ? heads_[best_] : nullptr;
  }
  /// Advances the stream front() came from.
  void pop();

 private:
  void pick() noexcept;

  std::deque<LeafStream> streams_;  ///< a deque: heads point into streams
  std::vector<const RawRecord*> heads_;
  std::size_t best_ = 0;
};

}  // namespace mtd::store
