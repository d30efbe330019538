#include "store/format.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/fmt.hpp"

namespace mtd::store {

const char* to_string(PageType type) noexcept {
  switch (type) {
    case PageType::kSuper: return "super";
    case PageType::kLeaf: return "leaf";
    case PageType::kBloom: return "bloom";
    case PageType::kInternal: return "internal";
  }
  return "?";
}

std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::array<std::uint64_t, 4> fnv1a64_x4(
    const std::array<std::string_view, 4>& lanes) noexcept {
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t h0 = 0xcbf29ce484222325ULL;
  std::uint64_t h1 = h0;
  std::uint64_t h2 = h0;
  std::uint64_t h3 = h0;
  const auto* p0 = reinterpret_cast<const std::uint8_t*>(lanes[0].data());
  const auto* p1 = reinterpret_cast<const std::uint8_t*>(lanes[1].data());
  const auto* p2 = reinterpret_cast<const std::uint8_t*>(lanes[2].data());
  const auto* p3 = reinterpret_cast<const std::uint8_t*>(lanes[3].data());
  const std::size_t common =
      std::min(std::min(lanes[0].size(), lanes[1].size()),
               std::min(lanes[2].size(), lanes[3].size()));
  for (std::size_t i = 0; i < common; ++i) {
    h0 = (h0 ^ p0[i]) * kPrime;
    h1 = (h1 ^ p1[i]) * kPrime;
    h2 = (h2 ^ p2[i]) * kPrime;
    h3 = (h3 ^ p3[i]) * kPrime;
  }
  std::array<std::uint64_t, 4> out = {h0, h1, h2, h3};
  for (std::size_t lane = 0; lane < 4; ++lane) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(lanes[lane].data());
    for (std::size_t i = common; i < lanes[lane].size(); ++i) {
      out[lane] = (out[lane] ^ p[i]) * kPrime;
    }
  }
  return out;
}

void encode_page_header(const PageHeader& header, char* out) {
  char* p = out;
  p = store_le(p, kPageMagic);
  p = store_le(p, header.page_id);
  *p++ = static_cast<char>(header.type);
  *p++ = static_cast<char>(kFormatVersion);
  p = store_le(p, header.entry_count);
  p = store_le(p, header.payload_bytes);
  p = store_le(p, header.checksum);
  p = store_le(p, std::uint32_t{0});  // reserved
}

PageHeader decode_page_header(ByteCursor& cursor) {
  const std::size_t at = cursor.file_pos();
  const std::uint64_t magic = cursor.u64("page magic");
  if (magic != kPageMagic) {
    throw ParseError(cursor.context() + ": bad page magic at byte " +
                     std::to_string(at) +
                     " (not a store page, or a torn write)");
  }
  PageHeader header;
  header.page_id = cursor.u64("page id");
  const std::uint8_t type = cursor.u8("page type");
  if (type > static_cast<std::uint8_t>(PageType::kInternal)) {
    throw ParseError(cursor.context() + ": unknown page type " +
                     std::to_string(type) + " at byte " + std::to_string(at));
  }
  header.type = static_cast<PageType>(type);
  const std::uint8_t version = cursor.u8("page version");
  if (version != kFormatVersion) {
    throw ParseError(cursor.context() + ": unsupported page version " +
                     std::to_string(version) + " at byte " +
                     std::to_string(at));
  }
  header.entry_count = cursor.u16("page entry count");
  header.payload_bytes = cursor.u32("page payload length");
  header.checksum = cursor.u64("page checksum");
  cursor.skip(4, "page header padding");
  return header;
}

void encode_key(const EventKey& key, char* out) {
  char* p = out;
  p = store_le(p, key.bs);
  p = store_le(p, key.day);
  p = store_le(p, key.minute_of_day);
  (void)store_le(p, key.seq);
}

EventKey decode_key(ByteCursor& cursor, const char* what) {
  EventKey key;
  key.bs = cursor.u32(what);
  key.day = cursor.u16(what);
  key.minute_of_day = cursor.u16(what);
  key.seq = cursor.u64(what);
  return key;
}

std::string build_superblock(std::size_t page_size) {
  std::string page(page_size, '\0');
  char* payload = page.data() + kPageHeaderBytes;
  char* p = payload;
  for (const char c : kStoreMagic) *p++ = c;
  p = store_le(p, kFormatVersion);
  p = store_le(p, static_cast<std::uint64_t>(page_size));
  PageHeader header;
  header.page_id = 0;
  header.type = PageType::kSuper;
  header.payload_bytes = static_cast<std::uint32_t>(p - payload);
  header.checksum = fnv1a64(std::string_view(payload, header.payload_bytes));
  encode_page_header(header, page.data());
  return page;
}

void check_superblock(std::string_view page, std::size_t page_size,
                      const std::string& context) {
  std::string_view payload;
  const PageHeader header = check_page(page, 0, context, &payload);
  if (header.type != PageType::kSuper) {
    throw ParseError(context + ": page 0 is a " +
                     std::string(to_string(header.type)) +
                     " page, not the superblock");
  }
  ByteCursor cursor(payload, kPageHeaderBytes, context);
  for (const char c : kStoreMagic) {
    if (static_cast<char>(cursor.u8("superblock magic")) != c) {
      throw ParseError(context +
                       ": not a trace store page file (bad superblock "
                       "magic at byte " +
                       std::to_string(kPageHeaderBytes) + ")");
    }
  }
  const std::uint32_t version = cursor.u32("superblock version");
  if (version != kFormatVersion) {
    throw ParseError(context + ": unsupported store format version " +
                     std::to_string(version));
  }
  const std::uint64_t recorded = cursor.u64("superblock page size");
  if (recorded != page_size) {
    throw ParseError(context + ": superblock records page size " +
                     std::to_string(recorded) + " but the manifest says " +
                     std::to_string(page_size));
  }
}

PageHeader check_page(std::string_view page, std::uint64_t page_id,
                      const std::string& context, std::string_view* payload) {
  const std::size_t base = page_id * page.size();
  ByteCursor cursor(page, base, context);
  const PageHeader header = decode_page_header(cursor);
  if (header.page_id != page_id) {
    throw ParseError(context + ": page " + std::to_string(page_id) +
                     " carries id " + std::to_string(header.page_id) +
                     " at byte " + std::to_string(base) +
                     " (misdirected write)");
  }
  if (header.payload_bytes > page.size() - kPageHeaderBytes) {
    throw ParseError(context + ": page " + std::to_string(page_id) +
                     " claims " + std::to_string(header.payload_bytes) +
                     " payload bytes, over the page capacity of " +
                     std::to_string(page.size() - kPageHeaderBytes) +
                     ", at byte " + std::to_string(base));
  }
  const std::string_view body =
      page.substr(kPageHeaderBytes, header.payload_bytes);
  const std::uint64_t checksum = fnv1a64(body);
  if (checksum != header.checksum) {
    throw ParseError(context + ": page " + std::to_string(page_id) +
                     " checksum mismatch at byte " + std::to_string(base) +
                     " (torn or corrupt page)");
  }
  if (payload != nullptr) *payload = body;
  return header;
}

PageHeader check_typed_page(std::string_view page, std::uint64_t page_id,
                            PageType expect, const std::string& context,
                            std::string_view* payload) {
  const PageHeader header = check_page(page, page_id, context, payload);
  if (header.type != expect) {
    throw ParseError(context + ": page " + std::to_string(page_id) +
                     " is a " + std::string(to_string(header.type)) +
                     " page where a " + std::string(to_string(expect)) +
                     " page was indexed, at byte " +
                     std::to_string(page_id * page.size()));
  }
  return header;
}

namespace {

/// The header checks of check_typed_page without the diagnostics: true
/// when the page's magic, type, version, id and payload length are all as
/// expected (its checksum is then the only check left).
bool header_ok(std::string_view page, std::uint64_t page_id, PageType expect,
               PageHeader& header) {
  const char* p = page.data();
  header.page_id = load_le<std::uint64_t>(p + 8);
  header.type = static_cast<PageType>(static_cast<std::uint8_t>(p[16]));
  header.entry_count = load_le<std::uint16_t>(p + 18);
  header.payload_bytes = load_le<std::uint32_t>(p + 20);
  header.checksum = load_le<std::uint64_t>(p + 24);
  return load_le<std::uint64_t>(p) == kPageMagic &&
         header.page_id == page_id && header.type == expect &&
         static_cast<std::uint8_t>(p[17]) == kFormatVersion &&
         header.payload_bytes <= page.size() - kPageHeaderBytes;
}

}  // namespace

void check_page_run(std::string_view pages, std::size_t page_size,
                    std::uint64_t first_id, PageType expect,
                    const std::string& context,
                    std::span<PageHeader> headers) {
  for (std::size_t group = 0; group < headers.size(); group += 4) {
    const std::size_t lanes = std::min<std::size_t>(4, headers.size() - group);
    std::array<std::string_view, 4> payloads{};
    std::array<bool, 4> ok{};
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const std::string_view page =
          pages.substr((group + lane) * page_size, page_size);
      ok[lane] = header_ok(page, first_id + group + lane, expect,
                           headers[group + lane]);
      if (ok[lane]) {
        payloads[lane] = page.substr(kPageHeaderBytes,
                                     headers[group + lane].payload_bytes);
      }
    }
    const std::array<std::uint64_t, 4> sums = fnv1a64_x4(payloads);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      if (ok[lane] && sums[lane] == headers[group + lane].checksum) continue;
      // Something is wrong with this page (and every earlier one passed):
      // the one-page check reports it with its own id and byte offset.
      headers[group + lane] = check_typed_page(
          pages.substr((group + lane) * page_size, page_size),
          first_id + group + lane, expect, context, nullptr);
    }
  }
}

}  // namespace mtd::store
