#include "core/solution_store.h"

namespace kbiplex {

void SolutionStore::ForEach(
    const std::function<void(const Biplex&)>& fn) const {
  tree_.ForEach([&](std::string_view key) { fn(DecodeBiplexKey(key)); });
}

std::vector<Biplex> SolutionStore::ToVector() const {
  std::vector<Biplex> out;
  out.reserve(Size());
  ForEach([&](const Biplex& b) { out.push_back(b); });
  return out;
}

}  // namespace kbiplex
