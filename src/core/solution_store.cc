#include "core/solution_store.h"

#include <stdexcept>

namespace kbiplex {
namespace {

/// The kBoth cross-check. It stays on in every build type: the backend
/// exists only to validate the B-tree against the hash set.
void CheckAgree(bool agree, const char* op) {
  if (!agree) {
    throw std::logic_error(
        std::string("SolutionStore: B-tree and hash set disagree in ") + op);
  }
}

}  // namespace

SolutionStore::SolutionStore(StoreBackend backend, size_t btree_order)
    : backend_(backend), tree_(btree_order) {}

bool SolutionStore::Insert(const Biplex& b) {
  const std::string key = EncodeBiplexKey(b);
  switch (backend_) {
    case StoreBackend::kBTree:
      return tree_.Insert(key);
    case StoreBackend::kHashSet:
      return hash_.insert(key).second;
    case StoreBackend::kBoth: {
      const bool added = tree_.Insert(key);
      CheckAgree(hash_.insert(key).second == added, "Insert");
      return added;
    }
  }
  return false;
}

bool SolutionStore::Contains(const Biplex& b) const {
  const std::string key = EncodeBiplexKey(b);
  switch (backend_) {
    case StoreBackend::kBTree:
      return tree_.Contains(key);
    case StoreBackend::kHashSet:
      return hash_.count(key) > 0;
    case StoreBackend::kBoth: {
      const bool found = tree_.Contains(key);
      CheckAgree((hash_.count(key) > 0) == found, "Contains");
      return found;
    }
  }
  return false;
}

size_t SolutionStore::Size() const {
  switch (backend_) {
    case StoreBackend::kBTree:
      return tree_.Size();
    case StoreBackend::kHashSet:
      return hash_.size();
    case StoreBackend::kBoth:
      CheckAgree(tree_.Size() == hash_.size(), "Size");
      return tree_.Size();
  }
  return 0;
}

void SolutionStore::ForEach(
    const std::function<void(const Biplex&)>& fn) const {
  if (backend_ == StoreBackend::kHashSet) {
    for (const std::string& key : hash_) fn(DecodeBiplexKey(key));
    return;
  }
  tree_.ForEach([&](std::string_view key) { fn(DecodeBiplexKey(key)); });
}

std::vector<Biplex> SolutionStore::ToVector() const {
  std::vector<Biplex> out;
  out.reserve(Size());
  ForEach([&](const Biplex& b) { out.push_back(b); });
  return out;
}

}  // namespace kbiplex
