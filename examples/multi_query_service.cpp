// Multi-query serving with the prepare/execute API: load (or synthesize)
// a graph once, prepare it (cached component/core artifacts), then answer
// a batch of different queries through one QuerySession — the pattern a
// k-biplex service uses to amortize preprocessing over its query stream.
//
//   ./multi_query_service            (uses a built-in synthetic graph)
//   ./multi_query_service <edge-list-file>
#include <iostream>
#include <string>
#include <vector>

#include "api/prepared_graph.h"
#include "api/query_session.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "util/random.h"

using namespace kbiplex;

int main(int argc, char** argv) {
  BipartiteGraph g;
  if (argc >= 2) {
    LoadResult r = LoadEdgeList(argv[1]);
    if (!r.ok()) {
      std::cerr << "failed to load " << argv[1] << ": " << r.error << "\n";
      return 1;
    }
    g = std::move(*r.graph);
  } else {
    Rng rng(7);
    g = ErdosRenyiBipartite(40, 40, 360, &rng);
  }
  std::cout << "Graph: |L| = " << g.NumLeft() << ", |R| = " << g.NumRight()
            << ", |E| = " << g.NumEdges() << "\n";

  // Prepare once: queries run on the input graph itself, sharing the
  // cached artifacts.
  auto prepared = PreparedGraph::Prepare(std::move(g));
  prepared->Warmup();  // build all artifacts now instead of on first query
  std::cout << "Prepared: core bound = " << prepared->MaxUniformCore()
            << ", components = " << prepared->Components().num_components
            << ", artifact build time = "
            << prepared->artifact_stats().build_seconds << "s\n\n";

  // Execute many. One session per serving thread; this example serves a
  // small mixed workload sequentially.
  QuerySession session(prepared);
  struct Query {
    std::string label;
    EnumerateRequest request;
  };
  std::vector<Query> queries;
  {
    EnumerateRequest q1;  // all maximal 1-biplexes, capped
    q1.max_results = 50;
    queries.push_back({"first 50 MBPs (k=1)", q1});

    EnumerateRequest q2;  // large MBPs only; dense enumerations are
    q2.algorithm = "large-mbp";       // combinatorial, so cap the run —
    q2.k = KPair::Uniform(2);         // production queries should always
    q2.theta_left = 7;                // carry a budget
    q2.theta_right = 7;
    q2.max_results = 25;
    q2.time_budget_seconds = 5;
    queries.push_back({"first 25 large MBPs (k=2, theta=7)", q2});

    EnumerateRequest q3;  // an impossible threshold: answered from the
    q3.theta_left = 30;   // cached core bound without running a backend
    q3.theta_right = 30;
    queries.push_back({"impossible thresholds (shortcut)", q3});

    EnumerateRequest q4 = q1;  // same query again: scratch is warm now
    queries.push_back({"first 50 MBPs again (warm scratch)", q4});
  }

  for (const Query& q : queries) {
    EnumerateStats stats;
    CountingSink sink;
    stats = session.Run(q.request, &sink);
    if (!stats.ok()) {
      std::cerr << q.label << ": error: " << stats.error << "\n";
      return 1;
    }
    std::cout << q.label << ": " << stats.solutions << " solutions in "
              << stats.seconds << "s (" << stats.algorithm << ")\n";
  }
  std::cout << "\nSession answered " << session.queries_run() << " queries, "
            << session.short_circuits()
            << " of them straight from the cached core bound.\n";
  return 0;
}
