// The one write path of a sorted segment (DESIGN.md section 12), private to
// src/store.
//
// Records arrive in key order, already encoded (u32 length prefix plus the
// event payload), and are packed into leaf pages in place; full pages go
// to the output in chunks of about kChunkBytes, checksummed four pages at
// a time as a chunk is written. Only per-leaf metadata (key fences and
// distinct BS ids) stays in memory until finish() writes the bloom pages
// and the fence levels. commit() feeds it freshly encoded events and
// compact() the raw records of the merged segments, so both produce the
// same bytes for the same records.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "events/stream_event.hpp"
#include "store/format.hpp"
#include "store/trace_store.hpp"

namespace mtd::store {

/// Output chunk size of a SegmentBuilder (at least one page).
inline constexpr std::size_t kChunkBytes = std::size_t{1} << 20;

class SegmentBuilder {
 public:
  /// A builder writing at the current position of `out`, which must be the
  /// byte offset of page `first_page`.
  SegmentBuilder(std::ostream& out, const StoreOptions& options,
                 std::uint64_t first_page);

  /// Appends one record (length prefix included) whose key is `key`; keys
  /// must not decrease.
  void add(std::string_view record, const EventKey& key);

  [[nodiscard]] std::uint64_t events() const noexcept { return events_; }

  /// Writes the last leaf, the bloom pages and the fence levels; returns
  /// the segment's index entry. At least one record must have been added.
  /// Stream errors are left in `out`'s state for the caller's flush check.
  SegmentInfo finish();

 private:
  struct Leaf {
    EventKey min_key;
    EventKey max_key;
    std::size_t bss_end = 0;  ///< end of this leaf's ids in bss_
  };

  /// Opens a zeroed page in the chunk; returns its payload pointer.
  char* open_page();
  /// Records the header of the last opened page (checksummed on flush).
  void close_page(PageType type, std::uint16_t entries,
                  std::size_t payload_bytes);
  void emit_page(PageType type, std::uint16_t entries,
                 std::string_view payload);
  void close_leaf();
  void flush_chunk();

  std::ostream* out_;
  std::size_t page_size_;
  double bloom_bits_per_key_;
  std::uint64_t first_page_;
  std::uint64_t next_page_;
  std::uint64_t events_ = 0;

  std::string chunk_;
  std::vector<PageHeader> chunk_headers_;

  bool leaf_open_ = false;
  std::size_t leaf_bytes_ = 0;
  std::uint16_t leaf_entries_ = 0;
  std::size_t leaf_bss_begin_ = 0;
  std::vector<Leaf> leaves_;
  std::vector<std::uint32_t> bss_;  ///< distinct BS ids, leaf after leaf
};

}  // namespace mtd::store
