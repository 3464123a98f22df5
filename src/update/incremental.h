// Copy-on-write epoch construction for PreparedGraph: apply a normalized
// edge delta to an existing epoch, producing a new immutable
// PreparedGraph. The delta-local work is the CSR splice
// (BipartiteGraph::WithEdgeDelta); the new epoch's artifacts (component
// labeling, core bound) are built lazily on first use, exactly as after a
// fresh Prepare, so they are always exact. See
// docs/incremental_updates.md.
#ifndef KBIPLEX_UPDATE_INCREMENTAL_H_
#define KBIPLEX_UPDATE_INCREMENTAL_H_

#include <cstddef>
#include <memory>
#include <string>

#include "api/prepared_graph.h"
#include "update/update_batch.h"

namespace kbiplex {
namespace update {

/// Outcome of one ApplyUpdates call.
struct UpdateResult {
  /// The new epoch (null on error). The predecessor is untouched; holders
  /// of its shared_ptr keep a consistent snapshot until they release it.
  std::shared_ptr<const PreparedGraph> prepared;
  size_t edges_inserted = 0;  // real inserts applied
  size_t edges_deleted = 0;   // real deletes applied
  size_t noop_inserts = 0;    // dropped: edge already present
  size_t noop_deletes = 0;    // dropped: edge not present
  double seconds = 0;         // wall time of this apply
  std::string error;          // non-empty iff the apply failed

  bool ok() const { return error.empty(); }
};

}  // namespace update
}  // namespace kbiplex

#endif  // KBIPLEX_UPDATE_INCREMENTAL_H_
