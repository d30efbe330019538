#include "store/segment_builder.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/error.hpp"
#include "common/fmt.hpp"
#include "store/bloom.hpp"

namespace mtd::store {

SegmentBuilder::SegmentBuilder(std::ostream& out, const StoreOptions& options,
                               std::uint64_t first_page)
    : out_(&out),
      page_size_(options.page_size),
      bloom_bits_per_key_(options.bloom_bits_per_key),
      first_page_(first_page),
      next_page_(first_page) {
  chunk_.reserve(std::max(kChunkBytes, page_size_));
}

char* SegmentBuilder::open_page() {
  if (!chunk_.empty() && chunk_.size() + page_size_ > kChunkBytes) {
    flush_chunk();
  }
  chunk_.append(page_size_, '\0');
  return chunk_.data() + chunk_.size() - page_size_ + kPageHeaderBytes;
}

void SegmentBuilder::close_page(PageType type, std::uint16_t entries,
                                std::size_t payload_bytes) {
  PageHeader header;
  header.page_id = next_page_++;
  header.type = type;
  header.entry_count = entries;
  header.payload_bytes = static_cast<std::uint32_t>(payload_bytes);
  chunk_headers_.push_back(header);
}

void SegmentBuilder::emit_page(PageType type, std::uint16_t entries,
                               std::string_view payload) {
  payload.copy(open_page(), payload.size());
  close_page(type, entries, payload.size());
}

void SegmentBuilder::add(std::string_view record, const EventKey& key) {
  const std::size_t capacity = page_size_ - kPageHeaderBytes;
  if (leaf_open_ &&
      (leaf_bytes_ + record.size() > capacity || leaf_entries_ == 0xffff)) {
    close_leaf();
  }
  if (!leaf_open_) {
    (void)open_page();
    leaf_open_ = true;
    leaf_bss_begin_ = bss_.size();
    leaves_.push_back({key, key, 0});
  }
  char* payload = chunk_.data() + chunk_.size() - page_size_ + kPageHeaderBytes;
  std::memcpy(payload + leaf_bytes_, record.data(), record.size());
  leaf_bytes_ += record.size();
  ++leaf_entries_;
  ++events_;
  Leaf& leaf = leaves_.back();
  leaf.max_key = key;
  if (bss_.size() == leaf_bss_begin_ || bss_.back() != key.bs) {
    bss_.push_back(key.bs);
  }
}

void SegmentBuilder::close_leaf() {
  close_page(PageType::kLeaf, leaf_entries_, leaf_bytes_);
  leaves_.back().bss_end = bss_.size();
  leaf_open_ = false;
  leaf_bytes_ = 0;
  leaf_entries_ = 0;
}

void SegmentBuilder::flush_chunk() {
  // Checksums four pages at a time, then headers, then one write.
  for (std::size_t first = 0; first < chunk_headers_.size(); first += 4) {
    std::array<std::string_view, 4> payloads{};
    const std::size_t lanes =
        std::min<std::size_t>(4, chunk_headers_.size() - first);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      payloads[lane] = std::string_view(
          chunk_.data() + (first + lane) * page_size_ + kPageHeaderBytes,
          chunk_headers_[first + lane].payload_bytes);
    }
    const std::array<std::uint64_t, 4> sums = fnv1a64_x4(payloads);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      PageHeader& header = chunk_headers_[first + lane];
      header.checksum = sums[lane];
      encode_page_header(header, chunk_.data() + (first + lane) * page_size_);
    }
  }
  out_->write(chunk_.data(), static_cast<std::streamsize>(chunk_.size()));
  chunk_.clear();
  chunk_headers_.clear();
}

SegmentInfo SegmentBuilder::finish() {
  require(events_ > 0, "SegmentBuilder: a segment needs at least one record");
  close_leaf();
  const std::size_t capacity = page_size_ - kPageHeaderBytes;

  // One bloom width per segment, sized for its densest leaf (filters must
  // be fixed-width so the reader can locate leaf L's filter by arithmetic).
  std::size_t max_distinct = 1;
  std::size_t bss_begin = 0;
  for (const Leaf& leaf : leaves_) {
    max_distinct = std::max(max_distinct, leaf.bss_end - bss_begin);
    bss_begin = leaf.bss_end;
  }
  const std::size_t bloom_bytes = std::min(
      bloom_bytes_for(max_distinct, bloom_bits_per_key_), capacity);
  const std::size_t bloom_hashes = bloom_hashes_for(bloom_bits_per_key_);
  const std::size_t filters_per_page =
      bloom_filters_per_page(page_size_, bloom_bytes);

  SegmentInfo seg;
  seg.first_page = first_page_;
  seg.first_leaf = first_page_;
  seg.num_leaves = leaves_.size();
  seg.bloom_bytes = static_cast<std::uint32_t>(bloom_bytes);
  seg.bloom_hashes = static_cast<std::uint32_t>(bloom_hashes);
  seg.events = events_;
  seg.min_key = leaves_.front().min_key;
  seg.max_key = leaves_.back().max_key;

  seg.first_bloom_page = next_page_;
  {
    std::string payload;
    std::uint16_t entries = 0;
    bss_begin = 0;
    for (const Leaf& leaf : leaves_) {
      BsBloom bloom(bloom_bytes, bloom_hashes);
      for (std::size_t i = bss_begin; i < leaf.bss_end; ++i) bloom.add(bss_[i]);
      bss_begin = leaf.bss_end;
      payload.append(reinterpret_cast<const char*>(bloom.bytes().data()),
                     bloom_bytes);
      if (++entries == filters_per_page) {
        emit_page(PageType::kBloom, entries, payload);
        payload.clear();
        entries = 0;
      }
    }
    if (entries > 0) emit_page(PageType::kBloom, entries, payload);
  }
  seg.num_bloom_pages = next_page_ - seg.first_bloom_page;

  // Fence levels, bottom-up: each level packs (min, max, child) entries of
  // the level below until a single root remains.
  struct Fence {
    EventKey min_key;
    EventKey max_key;
    std::uint64_t child = 0;
  };
  std::vector<Fence> level;
  level.reserve(leaves_.size());
  for (std::size_t i = 0; i < leaves_.size(); ++i) {
    level.push_back({leaves_[i].min_key, leaves_[i].max_key,
                     seg.first_leaf + i});
  }
  const std::size_t fences_per_page = fence_entries_per_page(page_size_);
  seg.depth = 0;
  while (level.size() > 1) {
    ++seg.depth;
    std::vector<Fence> parents;
    std::size_t begin = 0;
    while (begin < level.size()) {
      const std::size_t count =
          std::min(fences_per_page, level.size() - begin);
      std::string payload(count * kFenceEntryBytes, '\0');
      char* p = payload.data();
      for (std::size_t i = 0; i < count; ++i) {
        const Fence& f = level[begin + i];
        encode_key(f.min_key, p);
        encode_key(f.max_key, p + kKeyBytes);
        (void)store_le(p + 2 * kKeyBytes, f.child);
        p += kFenceEntryBytes;
      }
      const std::uint64_t id = next_page_;
      emit_page(PageType::kInternal, static_cast<std::uint16_t>(count),
                payload);
      parents.push_back(
          {level[begin].min_key, level[begin + count - 1].max_key, id});
      begin += count;
    }
    level = std::move(parents);
  }
  seg.root = level.front().child;
  seg.num_pages = next_page_ - seg.first_page;
  flush_chunk();
  return seg;
}

}  // namespace mtd::store
