#include "util/subset_enum.h"

#include <algorithm>

namespace kbiplex {

void BoundedSubsetEnumerator::Reset(size_t n, size_t max_size) {
  n_ = n;
  max_size_ = std::min(max_size, n);
  size_ = 0;
  started_ = false;
  current_.clear();
  base_items_.clear();
  base_ends_.clear();
}

bool BoundedSubsetEnumerator::AdvanceCombination() {
  if (!started_) {
    started_ = true;
    current_.clear();  // the empty subset, cardinality 0
    return true;
  }
  while (true) {
    // Try to advance within the current cardinality.
    size_t s = size_;
    if (s > 0) {
      size_t i = s;
      while (i > 0 && current_[i - 1] == n_ - s + (i - 1)) --i;
      if (i > 0) {
        ++current_[i - 1];
        for (size_t j = i; j < s; ++j) current_[j] = current_[j - 1] + 1;
        return true;
      }
    }
    // Move to the next cardinality.
    if (size_ >= max_size_) return false;
    ++size_;
    if (size_ > n_) return false;
    current_.resize(size_);
    for (size_t i = 0; i < size_; ++i) current_[i] = i;
    return true;
  }
}

bool BoundedSubsetEnumerator::IsPruned() const {
  size_t begin = 0;
  for (size_t end : base_ends_) {
    if (end - begin <= current_.size() &&
        std::includes(current_.begin(), current_.end(),
                      base_items_.begin() + begin, base_items_.begin() + end)) {
      return true;
    }
    begin = end;
  }
  return false;
}

bool BoundedSubsetEnumerator::Next() {
  while (AdvanceCombination()) {
    if (!IsPruned()) return true;
  }
  return false;
}

void BoundedSubsetEnumerator::PruneSupersetsOfCurrent() {
  base_items_.insert(base_items_.end(), current_.begin(), current_.end());
  base_ends_.push_back(base_items_.size());
}

}  // namespace kbiplex
