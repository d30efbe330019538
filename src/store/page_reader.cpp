#include "store/page_reader.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/fmt.hpp"
#include "events/event_codec.hpp"

namespace mtd::store {

namespace {

constexpr std::size_t kRecordPrefixBytes = 4;

EventKey load_key(const char* p) noexcept {
  return EventKey{load_le<std::uint32_t>(p), load_le<std::uint16_t>(p + 4),
                  load_le<std::uint16_t>(p + 6), load_le<std::uint64_t>(p + 8)};
}

}  // namespace

PageFile::PageFile(const std::string& pages_path, std::size_t page_size,
                   std::uint64_t committed_pages)
    : context_("trace store '" + pages_path + "'"),
      page_size_(page_size),
      committed_pages_(committed_pages) {
  file_.open(pages_path, std::ios::binary);
  if (!file_) {
    throw IoError("TraceStore: cannot open '" + pages_path + "'");
  }
  file_.seekg(0, std::ios::end);
  const auto size = static_cast<std::uint64_t>(file_.tellg());
  const std::uint64_t committed = committed_pages * page_size;
  if (size < committed) {
    throw ParseError(context_ + ": page file is " + std::to_string(size) +
                     " bytes but the manifest commits " +
                     std::to_string(committed) + " — truncated at byte " +
                     std::to_string(size));
  }
  (void)load(0, PageType::kSuper);
  check_superblock(page_buf_, page_size_, context_);
  telemetry_ = {};
}

std::size_t PageFile::read(std::uint64_t first, std::size_t count,
                           std::string& buf) {
  if (first + count > committed_pages_) {
    throw ParseError(context_ + ": page id " +
                     std::to_string(std::max(first, committed_pages_)) +
                     " is beyond the " + std::to_string(committed_pages_) +
                     " committed pages");
  }
  buf.resize(count * page_size_);
  file_.clear();
  file_.seekg(static_cast<std::streamoff>(first * page_size_));
  file_.read(buf.data(), static_cast<std::streamsize>(buf.size()));
  return static_cast<std::size_t>(file_.gcount());
}

PageFile::Page PageFile::load(std::uint64_t page_id, PageType expect) {
  const std::size_t got = read(page_id, 1, page_buf_);
  if (got != page_size_) {
    throw ParseError(context_ + ": truncated page " + std::to_string(page_id) +
                     " at byte " + std::to_string(page_id * page_size_ + got));
  }
  Page page;
  page.header =
      check_typed_page(page_buf_, page_id, expect, context_, &page.payload);
  ++telemetry_.pages_read;
  switch (page.header.type) {
    case PageType::kLeaf: ++telemetry_.leaf_pages_read; break;
    case PageType::kInternal: ++telemetry_.internal_pages_read; break;
    case PageType::kBloom: ++telemetry_.bloom_pages_read; break;
    case PageType::kSuper: break;
  }
  return page;
}

void PageFile::load_leaves(std::uint64_t first, std::span<PageHeader> headers,
                           std::string& buf) {
  const std::size_t got = read(first, headers.size(), buf);
  const std::size_t whole = got / page_size_;
  check_page_run(buf, page_size_, first, PageType::kLeaf, context_,
                 headers.first(std::min(whole, headers.size())));
  if (whole < headers.size()) {
    throw ParseError(context_ + ": truncated page " +
                     std::to_string(first + whole) + " at byte " +
                     std::to_string(first * page_size_ + got));
  }
  telemetry_.pages_read += headers.size();
  telemetry_.leaf_pages_read += headers.size();
}

void RawRecord::decode(StreamEvent& out, const std::string& context) const {
  ByteCursor rec(bytes.substr(kRecordPrefixBytes), offset + kRecordPrefixBytes,
                 context);
  (void)decode_event_payload(rec, out);
}

LeafStream::LeafStream(PageFile& file, std::vector<std::uint64_t> leaves,
                       const RecordFilter& filter, Prune prune)
    : file_(&file),
      leaves_(std::move(leaves)),
      filter_(filter),
      prune_(std::move(prune)) {}

bool LeafStream::load_run() {
  while (next_leaf_ < leaves_.size() && prune_ && prune_(leaves_[next_leaf_])) {
    ++next_leaf_;
  }
  if (next_leaf_ == leaves_.size()) return false;
  const std::uint64_t first = leaves_[next_leaf_++];
  std::size_t count = 1;
  while (count < kRunPages && next_leaf_ < leaves_.size() &&
         leaves_[next_leaf_] == first + count) {
    const std::uint64_t leaf = leaves_[next_leaf_++];
    // A pruned leaf ends the run unread; it has been accounted already.
    if (prune_ && prune_(leaf)) break;
    ++count;
  }
  headers_.resize(count);
  file_->load_leaves(first, headers_, run_);
  run_first_ = first;
  page_ = 0;
  open_page();
  return true;
}

void LeafStream::open_page() {
  const std::size_t page_size = file_->page_size();
  const PageHeader& header = headers_[page_];
  payload_ = std::string_view(run_).substr(page_ * page_size + kPageHeaderBytes,
                                           header.payload_bytes);
  payload_offset_ = (run_first_ + page_) * page_size + kPageHeaderBytes;
  pos_ = 0;
  record_ = 0;
  entries_read_ += header.entry_count;
}

const RawRecord* LeafStream::next() {
  if (headers_.empty() && !load_run()) return nullptr;
  const std::string& context = file_->context();
  for (;;) {
    while (record_ < headers_[page_].entry_count) {
      ++record_;
      const std::uint64_t at = payload_offset_ + pos_;
      if (payload_.size() - pos_ < kRecordPrefixBytes) {
        // Throws "truncated record length at byte <at>".
        (void)ByteCursor(payload_.substr(pos_), at, context)
            .u32("record length");
      }
      const std::uint32_t len = load_le<std::uint32_t>(payload_.data() + pos_);
      const std::size_t remaining = payload_.size() - pos_ - kRecordPrefixBytes;
      if (len > remaining) {
        throw ParseError(context + ": record at byte " + std::to_string(at) +
                         " claims " + std::to_string(len) +
                         " bytes but only " + std::to_string(remaining) +
                         " remain in page " +
                         std::to_string(run_first_ + page_));
      }
      const std::string_view record =
          payload_.substr(pos_, kRecordPrefixBytes + len);
      pos_ += record.size();
      const std::uint8_t kind =
          len > 0 ? static_cast<std::uint8_t>(record[kRecordPrefixBytes]) : 0;
      if (len > 0 && kind >= kNumEventKinds) continue;  // a newer writer's
      current_.bytes = record;
      current_.offset = at;
      if (len < kEventPayloadBytes[kind]) {
        // Throws the decoder's own "truncated ..." diagnostic.
        StreamEvent scratch;
        current_.decode(scratch, context);
      }
      current_.key = load_key(record.data() + kRecordPrefixBytes + 1);
      if (filter_.matches(current_.key, static_cast<EventKind>(kind))) {
        return &current_;
      }
    }
    if (page_ + 1 < headers_.size()) {
      ++page_;
      open_page();
    } else if (!load_run()) {
      return nullptr;
    }
  }
}

void RecordMerge::add(PageFile& file, std::vector<std::uint64_t> leaves,
                      const RecordFilter& filter, LeafStream::Prune prune) {
  LeafStream& stream =
      streams_.emplace_back(file, std::move(leaves), filter, std::move(prune));
  heads_.push_back(stream.next());
  pick();
}

void RecordMerge::pop() {
  heads_[best_] = streams_[best_].next();
  pick();
}

void RecordMerge::pick() noexcept {
  best_ = heads_.size();
  for (std::size_t i = 0; i < heads_.size(); ++i) {
    if (heads_[i] == nullptr) continue;
    if (best_ == heads_.size() || heads_[i]->key < heads_[best_]->key) {
      best_ = i;
    }
  }
}

}  // namespace mtd::store
