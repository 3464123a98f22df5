#include "update/incremental.h"

#include <utility>

#include "util/timer.h"

namespace kbiplex {

update::UpdateResult PreparedGraph::ApplyUpdates(
    const update::UpdateBatch& batch) const {
  WallTimer timer;
  update::UpdateResult out;
  if (borrowed()) {
    out.error = "cannot update a borrowed graph";
    return out;
  }
  update::NormalizedDelta delta;
  if (std::string err = batch.Normalize(graph(), &delta); !err.empty()) {
    out.error = err;
    return out;
  }
  out.edges_inserted = delta.insert.size();
  out.edges_deleted = delta.erase.size();
  out.noop_inserts = delta.noop_inserts;
  out.noop_deletes = delta.noop_deletes;

  // The successor is built through the private constructor and its
  // lineage stamped before the instance is published.
  std::shared_ptr<PreparedGraph> next(
      new PreparedGraph(graph().WithEdgeDelta(delta.insert, delta.erase)));
  out.seconds = timer.ElapsedSeconds();
  next->lineage_ = lineage_;
  next->lineage_.epoch += 1;
  next->lineage_.updates_applied += 1;
  next->lineage_.edges_inserted += delta.insert.size();
  next->lineage_.edges_deleted += delta.erase.size();
  next->lineage_.apply_seconds += out.seconds;
  out.prepared = std::move(next);
  return out;
}

}  // namespace kbiplex
