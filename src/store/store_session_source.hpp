// SessionSource over a TraceStore: the store-backed half of the streaming
// re-platform (DESIGN.md section 15).
//
// Push-down semantics: the whole query goes to TraceStore::scan. A query
// with `bs` set narrows the fence descent to one key range and per-leaf
// bloom filters reject leaves that never saw the BS, so the pass touches a
// fraction of the pages (the read telemetry proves it). A query without
// `bs` has no index to narrow by (keys order by BS first) and reads every
// leaf. Either way, kind and day are tested on each record's raw header,
// so only the delivered events are decoded.
#pragma once

#include "events/session_source.hpp"
#include "store/trace_store.hpp"

namespace mtd::store {

class StoreSessionSource final : public SessionSource {
 public:
  /// Wraps an open store (non-owning). The source reads the committed
  /// snapshot the TraceStore was opened on.
  explicit StoreSessionSource(TraceStore& store) : store_(&store) {}

  std::uint64_t scan(const SourceQuery& query,
                     const std::function<void(const StreamEvent&)>& fn)
      override;

  [[nodiscard]] TraceStore& store() noexcept { return *store_; }

 private:
  TraceStore* store_;
};

}  // namespace mtd::store
