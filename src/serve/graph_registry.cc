#include "serve/graph_registry.h"

#include <algorithm>
#include <utility>

#include "graph/graph_io.h"

namespace kbiplex {
namespace serve {

std::string GraphRegistry::LoadFile(const std::string& name,
                                    const std::string& path) {
  LoadResult r = LoadEdgeList(path);
  if (!r.ok()) return r.error;
  RegisteredGraph entry;
  entry.prepared = PreparedGraph::Prepare(std::move(*r.graph));
  entry.path = path;
  Put(name, std::move(entry));
  return "";
}

void GraphRegistry::Add(const std::string& name, BipartiteGraph graph) {
  RegisteredGraph entry;
  entry.prepared = PreparedGraph::Prepare(std::move(graph));
  Put(name, std::move(entry));
}

void GraphRegistry::Put(const std::string& name, RegisteredGraph entry) {
  WriterLock lock(&mu_);
  entry.generation = next_generation_++;
  const auto it = graphs_.find(name);
  if (it != graphs_.end()) RetireLocked(name, it->second.prepared);
  graphs_[name] = std::move(entry);
}

bool GraphRegistry::Evict(const std::string& name) {
  WriterLock lock(&mu_);
  const auto it = graphs_.find(name);
  if (it == graphs_.end()) return false;
  RetireLocked(name, it->second.prepared);
  graphs_.erase(it);
  update_locks_.erase(name);
  return true;
}

void GraphRegistry::RetireLocked(
    const std::string& name,
    const std::shared_ptr<const PreparedGraph>& prepared) {
  auto& trackers = retired_[name];
  trackers.erase(
      std::remove_if(trackers.begin(), trackers.end(),
                     [](const std::weak_ptr<const PreparedGraph>& w) {
                       return w.expired();
                     }),
      trackers.end());
  trackers.push_back(prepared);
}

size_t GraphRegistry::PendingRetiredEpochs(const std::string& name) const {
  ReaderLock lock(&mu_);
  const auto it = retired_.find(name);
  if (it == retired_.end()) return 0;
  size_t pinned = 0;
  for (const auto& w : it->second) {
    if (!w.expired()) ++pinned;
  }
  return pinned;
}

UpdateApplyOutcome GraphRegistry::ApplyUpdates(
    const std::string& name, const update::UpdateBatch& batch) {
  UpdateApplyOutcome out;
  // Step 1: resolve (or create) the per-graph update lock. The brief
  // writer section only touches the lock map; the apply never runs here.
  std::shared_ptr<Mutex> update_lock;
  {
    WriterLock lock(&mu_);
    if (graphs_.find(name) == graphs_.end()) {
      out.error_code = 404;
      out.error = "unknown graph '" + name + "'";
      return out;
    }
    auto& slot = update_locks_[name];
    if (slot == nullptr) slot = std::make_shared<Mutex>();
    update_lock = slot;
  }

  // Step 2: serialize with other updates to this graph, so each apply
  // bases on the previously published epoch — a linear chain, never a
  // fork. Loads and evicts do not take this lock; the generation check
  // at publish time catches them.
  MutexLock serialize(update_lock.get());

  std::shared_ptr<const PreparedGraph> prev;
  uint64_t snapshot_generation = 0;
  {
    ReaderLock lock(&mu_);
    const auto it = graphs_.find(name);
    if (it == graphs_.end()) {
      out.error_code = 404;
      out.error = "graph '" + name + "' evicted before update";
      return out;
    }
    prev = it->second.prepared;
    snapshot_generation = it->second.generation;
  }

  // Step 3: the actual copy-on-write apply, outside every registry lock —
  // queries keep resolving and other graphs keep updating meanwhile.
  out.result = prev->ApplyUpdates(batch);
  if (!out.result.ok()) {
    out.error_code = 400;
    out.error = out.result.error;
    return out;
  }

  // Step 4: publish, unless a load/evict moved the graph underneath us —
  // then the new epoch is abandoned (it descends from a replaced state)
  // and the caller gets a retryable conflict.
  {
    WriterLock lock(&mu_);
    const auto it = graphs_.find(name);
    if (it == graphs_.end()) {
      out.error_code = 404;
      out.error = "graph '" + name + "' evicted during update";
      return out;
    }
    if (it->second.generation != snapshot_generation) {
      out.error_code = 409;
      out.error = "graph '" + name +
                  "' was reloaded during the update; retry against the new "
                  "generation";
      return out;
    }
    RetireLocked(name, it->second.prepared);
    it->second.prepared = out.result.prepared;
    it->second.generation = next_generation_++;
    out.generation = it->second.generation;
  }
  return out;
}

std::optional<RegisteredGraph> GraphRegistry::Get(
    const std::string& name) const {
  ReaderLock lock(&mu_);
  const auto it = graphs_.find(name);
  if (it == graphs_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::pair<std::string, RegisteredGraph>> GraphRegistry::List()
    const {
  ReaderLock lock(&mu_);
  return {graphs_.begin(), graphs_.end()};
}

size_t GraphRegistry::size() const {
  ReaderLock lock(&mu_);
  return graphs_.size();
}

}  // namespace serve
}  // namespace kbiplex
