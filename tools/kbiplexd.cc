// kbiplexd — the k-biplex serving daemon. Loads graphs once, keeps their
// prepared artifacts warm, and serves enumeration queries over a
// line-delimited NDJSON protocol on loopback (docs/wire_protocol.md).
//
//   kbiplexd [--port N] [--workers N] [--queue N] [--grace SECONDS]
//            [--preload NAME=PATH ...]
//
// Prints "kbiplexd listening on 127.0.0.1:PORT" once ready (with --port 0
// that line is how callers learn the bound port). SIGINT/SIGTERM — or the
// wire "drain" op — trigger a graceful drain: in-flight and queued
// queries finish within the grace period, new ones are rejected with 503,
// then the process exits.

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "api/request_parse.h"
#include "serve/server.h"

namespace {

int g_signal_pipe[2] = {-1, -1};

void OnShutdownSignal(int) {
  const char byte = 0;
  // Best-effort, async-signal-safe; a full pipe means a wake is already
  // pending.
  (void)!write(g_signal_pipe[1], &byte, 1);
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port N] [--workers N] [--queue N]\n"
               "          [--grace SECONDS]\n"
               "          [--preload NAME=PATH ...]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using kbiplex::serve::Server;
  using kbiplex::serve::ServerOptions;

  ServerOptions options;
  std::vector<std::pair<std::string, std::string>> preloads;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--port" && has_value) {
      int port = 0;
      if (!kbiplex::ParseInt(argv[++i], &port) || port < 0 || port > 65535) {
        std::fprintf(stderr, "kbiplexd: bad --port '%s'\n", argv[i]);
        return 2;
      }
      options.port = static_cast<uint16_t>(port);
    } else if (arg == "--workers" && has_value) {
      if (!kbiplex::ParseSize(argv[++i], &options.workers) ||
          options.workers == 0) {
        std::fprintf(stderr, "kbiplexd: bad --workers '%s'\n", argv[i]);
        return 2;
      }
    } else if (arg == "--queue" && has_value) {
      if (!kbiplex::ParseSize(argv[++i], &options.queue_capacity) ||
          options.queue_capacity == 0) {
        std::fprintf(stderr, "kbiplexd: bad --queue '%s'\n", argv[i]);
        return 2;
      }
    } else if (arg == "--grace" && has_value) {
      if (!kbiplex::ParseDouble(argv[++i], &options.drain_grace_seconds) ||
          options.drain_grace_seconds < 0) {
        std::fprintf(stderr, "kbiplexd: bad --grace '%s'\n", argv[i]);
        return 2;
      }
    } else if (arg == "--preload" && has_value) {
      const std::string spec = argv[++i];
      const size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
        std::fprintf(stderr, "kbiplexd: bad --preload '%s' (want NAME=PATH)\n",
                     spec.c_str());
        return 2;
      }
      preloads.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else {
      return Usage(argv[0]);
    }
  }

  Server server(options);
  for (const auto& [name, path] : preloads) {
    const std::string err = server.registry().LoadFile(name, path);
    if (!err.empty()) {
      std::fprintf(stderr, "kbiplexd: preload %s: %s\n", name.c_str(),
                   err.c_str());
      return 1;
    }
    std::fprintf(stderr, "kbiplexd: preloaded %s from %s\n", name.c_str(),
                 path.c_str());
  }

  if (pipe(g_signal_pipe) != 0) {
    std::perror("kbiplexd: pipe");
    return 1;
  }
  struct sigaction sa = {};
  sa.sa_handler = OnShutdownSignal;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);

  const std::string err = server.Start();
  if (!err.empty()) {
    std::fprintf(stderr, "kbiplexd: %s\n", err.c_str());
    return 1;
  }
  std::printf("kbiplexd listening on 127.0.0.1:%u\n",
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  // Wait for a shutdown signal — or for a wire-initiated drain, which the
  // server starts on its own; poll the flag so either path exits.
  for (;;) {
    if (server.draining()) break;
    pollfd pfd = {g_signal_pipe[0], POLLIN, 0};
    const int rc = poll(&pfd, 1, 200);
    if (rc > 0 && (pfd.revents & POLLIN)) break;
  }
  std::fprintf(stderr, "kbiplexd: draining\n");
  server.RequestDrain();
  server.Wait();
  std::fprintf(stderr, "kbiplexd: drained, exiting\n");
  return 0;
}
