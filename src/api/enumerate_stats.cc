#include "api/enumerate_stats.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/json.h"

namespace kbiplex {

using json::AppendDouble;
using json::AppendEscaped;
using json::Bool;

namespace {

/// Adds worker-local traversal counters into an accumulator. `completed`
/// holds iff every contribution completed; `seconds` add up (aggregate
/// worker time, not wall clock); stack depths take the maximum.
void MergeInto(TraversalStats* into, const TraversalStats& s) {
  into->solutions_found += s.solutions_found;
  into->solutions_emitted += s.solutions_emitted;
  into->links += s.links;
  into->links_pruned_right_shrinking += s.links_pruned_right_shrinking;
  into->links_pruned_exclusion += s.links_pruned_exclusion;
  into->almost_sat_graphs += s.almost_sat_graphs;
  into->local_solutions += s.local_solutions;
  into->dedup_hits += s.dedup_hits;
  into->candidates_generated += s.candidates_generated;
  into->candidates_pruned += s.candidates_pruned;
  into->local_stats.b_subsets += s.local_stats.b_subsets;
  into->local_stats.a_subsets += s.local_stats.a_subsets;
  into->local_stats.local_solutions += s.local_stats.local_solutions;
  into->local_stats.adjacency_tests += s.local_stats.adjacency_tests;
  into->completed = into->completed && s.completed;
  into->seconds += s.seconds;
  into->max_stack_depth = std::max(into->max_stack_depth, s.max_stack_depth);
}

}  // namespace

EnumerateStats EnumerateStats::Rejected(std::string message) {
  EnumerateStats out;
  out.error = std::move(message);
  out.completed = false;
  return out;
}

void EnumerateStats::MergeShard(const EnumerateStats& s) {
  work_units += s.work_units;
  completed = completed && s.completed;
  out_of_memory = out_of_memory || s.out_of_memory;
  if (s.traversal.has_value()) {
    if (!traversal.has_value()) traversal.emplace();
    MergeInto(&*traversal, *s.traversal);
  }
  if (s.large_mbp.has_value()) {
    if (!large_mbp.has_value()) large_mbp.emplace();
    LargeMbpStats& l = *large_mbp;
    MergeInto(&l.traversal, s.large_mbp->traversal);
    l.core_left += s.large_mbp->core_left;
    l.core_right += s.large_mbp->core_right;
    l.completed = l.completed && s.large_mbp->completed;
    l.seconds += s.large_mbp->seconds;
  }
  if (s.imb.has_value()) {
    if (!imb.has_value()) imb.emplace();
    imb->nodes += s.imb->nodes;
    imb->solutions += s.imb->solutions;
    imb->completed = imb->completed && s.imb->completed;
    imb->seconds += s.imb->seconds;
  }
  if (s.inflation.has_value()) {
    if (!inflation.has_value()) inflation.emplace();
    inflation->solutions += s.inflation->solutions;
    inflation->completed = inflation->completed && s.inflation->completed;
    inflation->out_of_budget =
        inflation->out_of_budget || s.inflation->out_of_budget;
    inflation->inflated_edges += s.inflation->inflated_edges;
    inflation->seconds += s.inflation->seconds;
  }
}

std::string EnumerateStats::ToJson() const {
  std::ostringstream os;
  os << "{\"algorithm\":";
  AppendEscaped(os, algorithm);
  if (!error.empty()) {
    os << ",\"error\":";
    AppendEscaped(os, error);
  }
  os << ",\"solutions\":" << solutions << ",\"work_units\":" << work_units
     << ",\"completed\":" << Bool(completed)
     << ",\"cancelled\":" << Bool(cancelled)
     << ",\"out_of_memory\":" << Bool(out_of_memory) << ",\"seconds\":";
  AppendDouble(os, seconds);
  if (traversal.has_value()) {
    const TraversalStats& t = *traversal;
    os << ",\"traversal\":{\"solutions_found\":" << t.solutions_found
       << ",\"solutions_emitted\":" << t.solutions_emitted
       << ",\"links\":" << t.links << ",\"links_pruned_right_shrinking\":"
       << t.links_pruned_right_shrinking
       << ",\"links_pruned_exclusion\":" << t.links_pruned_exclusion
       << ",\"almost_sat_graphs\":" << t.almost_sat_graphs
       << ",\"local_solutions\":" << t.local_solutions
       << ",\"dedup_hits\":" << t.dedup_hits
       << ",\"max_stack_depth\":" << t.max_stack_depth
       << ",\"candidates_generated\":" << t.candidates_generated
       << ",\"candidates_pruned\":" << t.candidates_pruned
       << ",\"adjacency_tests\":" << t.local_stats.adjacency_tests
       << ",\"b_subsets\":" << t.local_stats.b_subsets
       << ",\"a_subsets\":" << t.local_stats.a_subsets << "}";
  }
  if (large_mbp.has_value()) {
    const LargeMbpStats& l = *large_mbp;
    os << ",\"large_mbp\":{\"core_left\":" << l.core_left
       << ",\"core_right\":" << l.core_right
       << ",\"links\":" << l.traversal.links
       << ",\"solutions_found\":" << l.traversal.solutions_found
       << ",\"candidates_generated\":" << l.traversal.candidates_generated
       << ",\"candidates_pruned\":" << l.traversal.candidates_pruned
       << ",\"adjacency_tests\":" << l.traversal.local_stats.adjacency_tests
       << "}";
  }
  if (imb.has_value()) {
    os << ",\"imb\":{\"nodes\":" << imb->nodes
       << ",\"solutions\":" << imb->solutions << "}";
  }
  if (inflation.has_value()) {
    os << ",\"inflation\":{\"inflated_edges\":" << inflation->inflated_edges
       << ",\"solutions\":" << inflation->solutions
       << ",\"out_of_budget\":" << Bool(inflation->out_of_budget) << "}";
  }
  os << "}";
  return os.str();
}

}  // namespace kbiplex
