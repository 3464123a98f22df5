#include "api/enumerate_stats.h"

#include <sstream>
#include <utility>

#include "util/json.h"

namespace kbiplex {

using json::AppendDouble;
using json::AppendEscaped;
using json::Bool;

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
       << ",\"a_subsets\":" << t.local_stats.a_subsets
       << ",\"step3_sweeps\":" << t.local_stats.step3_sweeps << "}";
  }
  if (large_mbp.has_value()) {
    const LargeMbpStats& l = *large_mbp;
    os << ",\"large_mbp\":{\"core_left\":" << l.core_left
       << ",\"core_right\":" << l.core_right
       << ",\"links\":" << l.traversal.links
       << ",\"solutions_found\":" << l.traversal.solutions_found
       << ",\"candidates_generated\":" << l.traversal.candidates_generated
       << ",\"candidates_pruned\":" << l.traversal.candidates_pruned
       << ",\"local_solutions\":" << l.traversal.local_solutions
       << ",\"links_pruned_right_shrinking\":"
       << l.traversal.links_pruned_right_shrinking
       << ",\"links_pruned_exclusion\":" << l.traversal.links_pruned_exclusion
       << ",\"adjacency_tests\":" << l.traversal.local_stats.adjacency_tests
       << ",\"step3_sweeps\":" << l.traversal.local_stats.step3_sweeps
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
