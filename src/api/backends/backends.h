// The built-in backend modules (traversal.cc: the traversal family and
// large-mbp; imb.cc; inflation.cc; brute_force.cc) and what they share.
// Each module holds its backends' option parsing, Run, split declarations
// and detail merge; RegisterBuiltinAlgorithms only composes the modules.
#ifndef KBIPLEX_API_BACKENDS_BACKENDS_H_
#define KBIPLEX_API_BACKENDS_BACKENDS_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "api/enumerate_request.h"
#include "api/enumerate_stats.h"
#include "api/registry.h"

namespace kbiplex {
namespace internal {

void RegisterTraversalBackends(AlgorithmRegistry* registry);
void RegisterImbBackend(AlgorithmRegistry* registry);
void RegisterInflationBackend(AlgorithmRegistry* registry);
void RegisterBruteForceBackend(AlgorithmRegistry* registry);

/// Consumes backend options in a factory, keeping the first parse failure;
/// a key no Take consumed is unknown.
class OptionReader {
 public:
  explicit OptionReader(const BackendOptions& opts) : rest_(opts) {}

  /// The value of `key`, consumed, or nullopt if absent.
  std::optional<std::string> Take(const std::string& key) {
    auto it = rest_.find(key);
    if (it == rest_.end()) return std::nullopt;
    std::string value = std::move(it->second);
    rest_.erase(it);
    return value;
  }

  void Fail(const std::string& key, const std::string& value,
            const std::string& expected) {
    if (error_.empty()) {
      error_ = "backend option '" + key + "' = '" + value + "' (expected " +
               expected + ")";
    }
  }

  /// A `Backend` built from `args` iff every option parsed and was taken;
  /// otherwise the first failure.
  template <typename Backend, typename... Args>
  ConfiguredBackend Configure(Args&&... args) const {
    if (!error_.empty()) return {nullptr, error_};
    if (!rest_.empty()) {
      return {nullptr, "unknown backend option '" + rest_.begin()->first + "'"};
    }
    return {std::make_unique<Backend>(std::forward<Args>(args)...), ""};
  }

 private:
  BackendOptions rest_;
  std::string error_;
};

/// MergeDetail of a backend whose detail block is `member`: engages the
/// merged block and folds the shard's into it with `merge`; a shard
/// without the block never started, which leaves the merge incomplete.
template <typename Detail, typename Merge>
void FoldDetail(std::optional<Detail> EnumerateStats::*member,
                const EnumerateStats& shard, EnumerateStats* into,
                Merge merge) {
  std::optional<Detail>& merged = into->*member;
  if (!merged.has_value()) merged.emplace();
  if ((shard.*member).has_value()) {
    merge(&*merged, *(shard.*member));
  } else {
    merged->completed = false;
  }
}

}  // namespace internal
}  // namespace kbiplex

#endif  // KBIPLEX_API_BACKENDS_BACKENDS_H_
