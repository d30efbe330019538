#include "store/store_session_source.hpp"

namespace mtd::store {

std::uint64_t StoreSessionSource::scan(
    const SourceQuery& query,
    const std::function<void(const StreamEvent&)>& fn) {
  return store_->scan(query, fn);
}

}  // namespace mtd::store
