// kbiplex-client — a thin command-line client for kbiplexd.
//
// Passthrough mode (default): reads NDJSON command lines from stdin,
// sends each to the daemon, and prints every response line; after each
// command it waits for the terminal response ("solution" is the only
// non-terminal type) before sending the next, so output is never
// interleaved across commands.
//
//   kbiplex-client --port N [--host H]            < commands.ndjson
//
// Query mode: builds one query from the shared request-flag grammar
// (the same flags `kbiplex batch` lines use) and streams its responses.
//
//   kbiplex-client --port N query GRAPH [request flags...]
//                  [--deadline-ms N] [--count]
//
// Update mode: builds one update command from edge flags and prints its
// terminal response (see docs/wire_protocol.md, "Updates").
//
//   kbiplex-client --port N update GRAPH [--insert L:R]... [--delete L:R]...
//
// Exit status: 0 when every command ended in a non-error terminal
// response, 1 otherwise.

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "api/request_parse.h"
#include "serve/client.h"
#include "util/json.h"
#include "util/json_value.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --port N [--host H]                 (stdin NDJSON)\n"
               "       %s --port N query GRAPH [request flags]\n"
               "                  [--deadline-ms N] [--count]\n"
               "       %s --port N update GRAPH [--insert L:R]... "
               "[--delete L:R]...\n",
               argv0, argv0, argv0);
  return 2;
}

enum class Pump { kOk, kError, kFatal };

/// Reads response lines for one command, printing each. kError means the
/// terminal response was an error (the session can continue with the
/// next command); kFatal means the connection died or the server spoke
/// something that is not the protocol.
Pump PumpResponses(kbiplex::serve::LineClient* client) {
  std::string line;
  for (;;) {
    if (!client->ReadLine(&line)) {
      std::fprintf(stderr, "kbiplex-client: connection closed\n");
      return Pump::kFatal;
    }
    std::printf("%s\n", line.c_str());
    const kbiplex::json::ParseResult parsed = kbiplex::json::Parse(line);
    if (!parsed.ok()) return Pump::kFatal;
    const kbiplex::json::JsonValue* type = parsed.value.Find("type");
    if (type == nullptr || !type->is_string()) return Pump::kFatal;
    if (type->AsString() == "solution") continue;
    return type->AsString() == "error" ? Pump::kError : Pump::kOk;
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 0;
  int i = 1;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--host" && i + 1 < argc) {
      host = argv[++i];
    } else if (arg == "--port" && i + 1 < argc) {
      if (!kbiplex::ParseInt(argv[++i], &port) || port <= 0 || port > 65535) {
        std::fprintf(stderr, "kbiplex-client: bad --port '%s'\n", argv[i]);
        return 2;
      }
    } else {
      break;
    }
  }
  if (port == 0) return Usage(argv[0]);

  std::string query_line;
  if (i < argc && std::string(argv[i]) == "update") {
    if (i + 1 >= argc) return Usage(argv[0]);
    const std::string graph = argv[i + 1];
    std::ostringstream inserts, deletes;
    for (int t = i + 2; t < argc; ++t) {
      const std::string flag = argv[t];
      if ((flag == "--insert" || flag == "--delete") && t + 1 < argc) {
        kbiplex::VertexId l = 0, r = 0;
        if (!kbiplex::ParseEdgeToken(argv[++t], &l, &r)) {
          std::fprintf(stderr, "kbiplex-client: bad %s edge '%s'\n",
                       flag.c_str(), argv[t]);
          return 2;
        }
        std::ostringstream& list = flag == "--insert" ? inserts : deletes;
        if (list.tellp() > 0) list << ',';
        list << '[' << l << ',' << r << ']';
      } else {
        std::fprintf(stderr, "kbiplex-client: unknown flag '%s'\n",
                     flag.c_str());
        return 2;
      }
    }
    std::ostringstream line;
    line << "{\"op\":\"update\",\"id\":1,\"name\":";
    kbiplex::json::AppendEscaped(line, graph);
    line << ",\"insert\":[" << inserts.str() << "],\"delete\":["
         << deletes.str() << "]}";
    query_line = line.str();
  } else if (i < argc) {
    if (std::string(argv[i]) != "query" || i + 1 >= argc)
      return Usage(argv[0]);
    const std::string graph = argv[i + 1];
    std::vector<std::string> tokens(argv + i + 2, argv + argc);
    kbiplex::EnumerateRequest request;
    uint64_t deadline_ms = 0;
    bool count_only = false;
    for (size_t t = 0; t < tokens.size();) {
      std::string error;
      switch (kbiplex::ParseRequestFlag(tokens, &t, &request, &error)) {
        case kbiplex::RequestFlagParse::kConsumed:
          ++t;  // ParseRequestFlag leaves t on the last consumed token
          continue;
        case kbiplex::RequestFlagParse::kError:
          std::fprintf(stderr, "kbiplex-client: %s\n", error.c_str());
          return 2;
        case kbiplex::RequestFlagParse::kUnknown:
          break;
      }
      if (tokens[t] == "--deadline-ms" && t + 1 < tokens.size()) {
        if (!kbiplex::ParseUint64(tokens[t + 1], &deadline_ms)) {
          std::fprintf(stderr, "kbiplex-client: bad --deadline-ms '%s'\n",
                       tokens[t + 1].c_str());
          return 2;
        }
        t += 2;
      } else if (tokens[t] == "--count") {
        count_only = true;
        ++t;
      } else {
        std::fprintf(stderr, "kbiplex-client: unknown flag '%s'\n",
                     tokens[t].c_str());
        return 2;
      }
    }
    std::ostringstream line;
    line << "{\"op\":\"query\",\"id\":1,\"graph\":";
    kbiplex::json::AppendEscaped(line, graph);
    line << ",\"request\":" << kbiplex::RequestToWireJson(request);
    if (deadline_ms > 0) line << ",\"deadline_ms\":" << deadline_ms;
    if (count_only) line << ",\"emit\":\"count\"";
    line << '}';
    query_line = line.str();
  }

  kbiplex::serve::LineClient client;
  const std::string err = client.Connect(host, static_cast<uint16_t>(port));
  if (!err.empty()) {
    std::fprintf(stderr, "kbiplex-client: %s\n", err.c_str());
    return 1;
  }

  bool all_ok = true;
  if (!query_line.empty()) {
    if (!client.SendLine(query_line) ||
        PumpResponses(&client) != Pump::kOk) {
      all_ok = false;
    }
  } else {
    std::string line;
    while (std::getline(std::cin, line)) {
      if (line.empty()) continue;
      if (!client.SendLine(line)) {
        all_ok = false;
        break;
      }
      const Pump pump = PumpResponses(&client);
      if (pump == Pump::kFatal) {
        all_ok = false;
        break;
      }
      if (pump == Pump::kError) all_ok = false;  // keep pumping commands
    }
  }
  return all_ok ? 0 : 1;
}
