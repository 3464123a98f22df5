// kbiplex command-line tool: enumerate maximal k-biplexes of an edge-list
// graph from the shell, through the prepare/execute session API.
//
//   kbiplex enumerate <edge-list> [--k N | --kl N --kr N] [--max N]
//                     [--budget SECONDS] [--algo NAME] [--theta-l N]
//                     [--theta-r N] [--threads N] [--opt KEY=VALUE]...
//                     [--format text|json] [--quiet]
//   kbiplex large     <edge-list> --theta-l N --theta-r N [--k N] [...]
//   kbiplex batch     <edge-list> [--queries FILE]
//   kbiplex stats     <edge-list>
//   kbiplex algos
//
// `--help` or `-h` anywhere on the command line prints this usage to
// stdout and exits 0.
//
// --algo accepts every name in the algorithm registry (see `kbiplex
// algos`); --opt passes backend-specific options through. With --format
// json, solutions print as JSON lines and the unified run statistics
// follow as a final JSON object on stdout, ready for scripting.
//
// `batch` is the amortized serving mode: the graph is prepared once, then
// every line of the query file — request flags in the same syntax as
// `enumerate`, e.g. "--algo itraversal --k 2 --max 100" — executes
// against one QuerySession. Empty lines and lines starting with '#' are
// skipped. Exactly one JSON stats object is printed per query
// line; solutions themselves are not printed. --queries defaults to "-"
// (stdin).
//
// Batch files may also mutate the graph between queries:
//   update +L:R -L:R ...
// applies the edge delta (+ inserts, - deletes) as one batch, publishing
// a new epoch that subsequent query lines run against; one JSON object
// describing the apply is printed per update line.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "api/enumerator.h"
#include "api/prepared_graph.h"
#include "api/query_session.h"
#include "api/request_parse.h"
#include "graph/core_decomposition.h"
#include "graph/graph_io.h"
#include "update/incremental.h"
#include "update/update_batch.h"
#include "util/json.h"

using namespace kbiplex;

namespace {

struct CliArgs {
  std::string command;
  std::string path;
  EnumerateRequest request;
  std::string queries_path = "-";  // batch query source ("-" = stdin)
  bool json = false;
  bool sort = false;    // buffer + emit solutions in canonical order
  bool quiet = false;   // suppress solution lines, print counts only
};

void PrintUsage(std::ostream& out) {
  std::string names;
  for (const std::string& n : AlgorithmRegistry::Global().Names()) {
    if (!names.empty()) names += "|";
    names += n;
  }
  out << "usage:\n"
         "  kbiplex enumerate <edge-list> [--k N | --kl N --kr N] "
         "[--max N] [--budget S]\n"
         "                    [--algo NAME] [--theta-l N] [--theta-r N] "
         "[--threads N]\n"
         "                    [--opt KEY=VALUE]... [--format text|json] "
         "[--quiet]\n"
         "                    [--sort]\n"
         "  kbiplex large <edge-list> --theta-l N --theta-r N [--k N] "
         "[--max N] [--budget S] [--quiet]\n"
         "  kbiplex batch <edge-list> [--queries FILE|-]\n"
         "  kbiplex stats <edge-list>\n"
         "  kbiplex algos\n"
         "batch reads one query per line (request flags, e.g. \"--algo "
         "imb --k 1 --max 50\"),\n"
         "prepares the graph once, and prints one JSON stats object "
         "per query.\n"
         "batch lines starting with \"update\" mutate the graph: "
         "update +L:R -L:R ... — later queries see the new epoch.\n"
         "--help or -h prints this usage.\n"
         "algorithms: "
      << names << "\n";
}

/// True iff an argument is `--help` or `-h`.
bool WantsHelp(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return true;
  }
  return false;
}

std::optional<CliArgs> Parse(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  CliArgs args;
  args.command = argv[1];
  if (args.command == "algos") return args;
  if (argc < 3) return std::nullopt;
  args.path = argv[2];
  std::vector<std::string> tokens(argv + 3, argv + argc);
  for (size_t i = 0; i < tokens.size(); ++i) {
    const std::string& flag = tokens[i];
    std::string error;
    switch (ParseRequestFlag(tokens, &i, &args.request, &error)) {
      case RequestFlagParse::kConsumed:
        continue;
      case RequestFlagParse::kError:
        std::cerr << error << "\n";
        return std::nullopt;
      case RequestFlagParse::kUnknown:
        break;
    }
    auto next = [&]() -> std::optional<std::string> {
      if (i + 1 >= tokens.size()) return std::nullopt;
      return tokens[++i];
    };
    if (flag == "--quiet") {
      args.quiet = true;
    } else if (flag == "--sort") {
      args.sort = true;
    } else if (flag == "--queries") {
      auto v = next();
      if (!v) return std::nullopt;
      args.queries_path = *v;
    } else if (flag == "--format") {
      auto v = next();
      if (!v) return std::nullopt;
      if (*v == "json") {
        args.json = true;
      } else if (*v != "text") {
        std::cerr << "unknown format: " << *v << "\n";
        return std::nullopt;
      }
    } else {
      std::cerr << "unknown flag: " << flag << "\n";
      return std::nullopt;
    }
  }
  return args;
}

/// enumerate/large answer one query on a graph they own, so they Borrow
/// it: the core-bound short-circuit stays off, and the stats output,
/// backend counter blocks included, is that of a direct run.
int RunRequest(const CliArgs& args, const BipartiteGraph& g) {
  QuerySession session(PreparedGraph::Borrow(g));
  StreamWriterSink writer(&std::cout,
                          args.json ? StreamWriterSink::Format::kJsonLines
                                    : StreamWriterSink::Format::kText);
  CountingSink counter;
  SolutionSink* sink =
      args.quiet ? static_cast<SolutionSink*>(&counter) : &writer;
  // --sort buffers the run and emits in canonical order, making the
  // solution lines byte-identical across --threads values (a split
  // run's delivery order differs from an unsplit run's and, with several
  // threads, is scheduling-dependent; see docs/wire_protocol.md).
  SortingSink sorter(sink);
  const bool sorting = args.sort && !args.quiet;
  if (sorting) sink = &sorter;
  EnumerateStats stats = session.Run(args.request, sink);
  if (sorting) sorter.Flush();
  if (!stats.ok()) {
    std::cerr << "error: " << stats.error << "\n";
    if (args.json) std::cout << stats.ToJson() << "\n";
    return 2;
  }
  if (args.json) {
    std::cout << stats.ToJson() << "\n";
  } else {
    std::fprintf(stderr, "# %s: %llu maximal biplexes, %.3fs%s\n",
                 stats.algorithm.c_str(),
                 static_cast<unsigned long long>(stats.solutions),
                 stats.seconds, stats.completed ? "" : " (stopped early)");
    if (stats.large_mbp.has_value()) {
      std::fprintf(stderr, "# core %zu+%zu of %zu vertices\n",
                   stats.large_mbp->core_left, stats.large_mbp->core_right,
                   g.NumVertices());
    }
  }
  return 0;
}

int CmdLarge(CliArgs args, const BipartiteGraph& g) {
  if (args.request.theta_left == 0 || args.request.theta_right == 0) {
    std::cerr << "large requires --theta-l and --theta-r\n";
    return 2;
  }
  args.request.algorithm = "large-mbp";
  return RunRequest(args, g);
}

/// Parses one batch `update` line (everything after the keyword):
/// "+L:R" inserts, "-L:R" deletes. Returns the error message, empty on
/// success.
std::string ParseUpdateLine(const std::string& rest,
                            update::UpdateBatch* batch) {
  std::istringstream is(rest);
  std::string token;
  while (is >> token) {
    VertexId l = 0, r = 0;
    if ((token[0] != '+' && token[0] != '-') ||
        !ParseEdgeToken(token.substr(1), &l, &r)) {
      return "bad update token '" + token + "' (want +L:R or -L:R)";
    }
    if (token[0] == '+') {
      batch->Insert(l, r);
    } else {
      batch->Remove(l, r);
    }
  }
  if (batch->empty()) return "update line has no edges";
  return "";
}

int CmdBatch(const CliArgs& args, BipartiteGraph g) {
  std::ifstream file;
  std::istream* in = &std::cin;
  if (args.queries_path != "-") {
    file.open(args.queries_path);
    if (!file) {
      std::cerr << "error: cannot open query file " << args.queries_path
                << "\n";
      return 1;
    }
    in = &file;
  }

  // One prepare, N executes: every artifact (components, core bounds)
  // and all engine scratch is shared across the
  // whole batch through the session. An `update` line replaces the
  // prepared epoch (copy-on-write) and the session is rebuilt against it;
  // engine scratch is the only thing lost.
  std::shared_ptr<const PreparedGraph> prepared =
      PreparedGraph::Prepare(std::move(g));
  auto session = std::make_unique<QuerySession>(prepared);
  bool all_ok = true;
  std::string line;
  while (std::getline(*in, line)) {
    const size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;
    if (line.compare(start, 6, "update") == 0 &&
        (start + 6 == line.size() || line[start + 6] == ' ' ||
         line[start + 6] == '\t')) {
      update::UpdateBatch batch;
      std::string err = ParseUpdateLine(line.substr(start + 6), &batch);
      update::UpdateResult result;
      if (err.empty()) {
        result = prepared->ApplyUpdates(batch);
        err = result.error;
      }
      // Exactly one JSON object per update line, mirroring the per-query
      // stats contract.
      std::ostringstream os;
      if (!err.empty()) {
        os << "{\"update\":\"error\",\"error\":";
        json::AppendEscaped(os, err);
        os << '}';
        all_ok = false;
      } else {
        prepared = result.prepared;
        session = std::make_unique<QuerySession>(prepared);
        os << "{\"update\":\"ok\",\"epoch\":" << prepared->epoch()
           << ",\"inserted\":" << result.edges_inserted
           << ",\"deleted\":" << result.edges_deleted
           << ",\"noop_inserts\":" << result.noop_inserts
           << ",\"noop_deletes\":" << result.noop_deletes
           // Every epoch builds its artifacts lazily; the key stays for
           // readers of the output schema.
           << ",\"rebuilt\":false,\"seconds\":";
        json::AppendDouble(os, result.seconds);
        os << '}';
      }
      std::cout << os.str() << "\n";
      continue;
    }
    EnumerateRequest request;
    EnumerateStats stats;
    if (std::string err = ParseRequestLine(line, &request); !err.empty()) {
      stats.error = "bad query line: " + err;
      stats.completed = false;
    } else {
      CountingSink counter;
      stats = session->Run(request, &counter);
    }
    // Exactly one JSON stats object per query line, errors included, so
    // scripted consumers can zip queries with results.
    std::cout << stats.ToJson() << "\n";
    if (!stats.ok()) all_ok = false;
  }
  return all_ok ? 0 : 2;
}

int CmdStats(const BipartiteGraph& g) {
  std::printf("|L| = %zu\n|R| = %zu\n|E| = %zu\ndensity = %.4f\n",
              g.NumLeft(), g.NumRight(), g.NumEdges(), g.EdgeDensity());
  for (size_t a = 1; a <= 8; ++a) {
    CoreResult core = AlphaBetaCore(g, a, a);
    std::printf("(%zu,%zu)-core: %zu + %zu vertices\n", a, a,
                core.left.size(), core.right.size());
    if (core.Empty()) break;
  }
  return 0;
}

int CmdAlgos() {
  for (const AlgorithmInfo& info : AlgorithmRegistry::Global().List()) {
    std::printf("%-18s %s", info.name.c_str(), info.summary.c_str());
    if (!info.supports_asymmetric_k) std::printf(" [uniform k]");
    if (info.requires_theta) std::printf(" [requires theta]");
    if (info.max_side != 0) {
      std::printf(" [sides <= %zu]", info.max_side);
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (WantsHelp(argc, argv)) {
    PrintUsage(std::cout);
    return 0;
  }
  std::optional<CliArgs> args = Parse(argc, argv);
  if (!args) {
    PrintUsage(std::cerr);
    return 2;
  }
  if (args->command == "algos") return CmdAlgos();
  LoadResult r = LoadEdgeList(args->path);
  if (!r.ok()) {
    std::cerr << "error: " << r.error << "\n";
    return 1;
  }
  BipartiteGraph& g = *r.graph;
  if (args->command == "enumerate") return RunRequest(*args, g);
  if (args->command == "large") return CmdLarge(*args, g);
  if (args->command == "batch") return CmdBatch(*args, std::move(g));
  if (args->command == "stats") return CmdStats(g);
  PrintUsage(std::cerr);
  return 2;
}
