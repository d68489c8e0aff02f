// Client of a dmm_serve daemon: build a DesignRequest from the shared
// flag surface (api::RequestCli — the same flags drr_explore takes),
// submit it over the daemon's Unix socket, tail the progress stream, and
// print the reply.
//
//   dmm_serve --socket /tmp/dmm.sock &
//   dmm_client --socket /tmp/dmm.sock --search beam:2 --seed 3
//   dmm_client --socket /tmp/dmm.sock --family 1,2 --aggregate max
//   dmm_client --socket /tmp/dmm.sock --shutdown
//
// Extra flags:
//   --local            run the request in-process (api::run_design_request)
//                      instead of over a socket — same request, same
//                      output, so "daemon result == library result" is one
//                      diff away (the CI smoke test does exactly that)
//   --cancel-after N   send a cancel after N progress beats (exercises
//                      cooperative cancellation; the reply reports
//                      cancelled and the exit code is 3)
//   --shutdown         ask the daemon to exit gracefully (saves its cache
//                      snapshot); no request is sent
//   --quiet            suppress per-beat progress lines
//   --export-config F  write the reply's designed vectors as a checksummed
//                      config artifact (runtime/config_artifact.h) for
//                      runtime::DesignedAllocator
//
// Exit codes: 0 ok, 1 error reply / connection trouble, 2 usage,
// 3 request cancelled.

#include <cstdio>
#include <cstring>
#include <string>

#include "dmm/api/design_api.h"
#include "dmm/serve/client.h"

#include "example_util.h"

namespace {

int usage(const char* prog, const dmm::api::RequestCli& cli) {
  std::fprintf(stderr,
               "usage: %s --socket PATH [--local] [--shutdown] "
               "[--cancel-after N] [--quiet] [--export-config FILE] %s\n",
               prog, cli.flags_help().c_str());
  return 2;
}

/// Prints a final reply (both the daemon and the --local path), runs the
/// --export-config tail, and maps the outcome to the process exit code.
int print_reply(const char* prog, const dmm::api::DesignReply& reply,
                const std::string& export_path) {
  if (!reply.ok) {
    std::fprintf(stderr, "%s: request failed: %s\n", prog,
                 reply.error.c_str());
    return reply.cancelled ? 3 : 1;
  }
  std::printf("%s design, %s:\n", reply.family ? "family" : "single-trace",
              reply.feasible ? "feasible" : "INFEASIBLE");
  for (std::size_t p = 0; p < reply.phase_signatures.size(); ++p) {
    std::printf("  phase %zu: %s\n", p, reply.phase_signatures[p].c_str());
  }
  std::printf("best peak %llu B",
              static_cast<unsigned long long>(reply.best_peak));
  if (reply.family) {
    std::printf(", aggregate objective %.0f", reply.aggregate_objective);
  }
  std::printf("\ncost: %llu evaluations = %llu replays + %llu cache "
              "hits (%llu cross-search, %llu persisted)\n",
              static_cast<unsigned long long>(reply.evaluations),
              static_cast<unsigned long long>(reply.simulations),
              static_cast<unsigned long long>(reply.cache_hits),
              static_cast<unsigned long long>(reply.cross_search_hits),
              static_cast<unsigned long long>(reply.persisted_hits));
  std::printf("daemon cache: %llu entries, %llu evictions\n",
              static_cast<unsigned long long>(reply.cache_entries),
              static_cast<unsigned long long>(reply.cache_evictions));
  if (!export_path.empty() && reply.phase_configs.empty()) {
    // A well-formed ok reply always carries its configs; refuse to write
    // an empty artifact from a malformed one.
    std::fprintf(stderr, "%s: reply carries no configs to export\n", prog);
    return 1;
  }
  if (!dmm::examples::export_designed_configs(prog, export_path,
                                              reply.phase_configs)) {
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dmm;

  api::RequestCli cli("drr");
  std::string socket_path;
  bool local = false;
  bool shutdown = false;
  bool quiet = false;
  std::string export_path;
  std::uint64_t cancel_after = 0;
  bool cancel_set = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--socket") == 0 && i + 1 < argc) {
      socket_path = argv[++i];
      continue;
    }
    if (std::strncmp(argv[i], "--socket=", 9) == 0) {
      socket_path = argv[i] + 9;
      continue;
    }
    if (std::strcmp(argv[i], "--local") == 0) {
      local = true;
      continue;
    }
    if (std::strcmp(argv[i], "--shutdown") == 0) {
      shutdown = true;
      continue;
    }
    if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
      continue;
    }
    if (std::strcmp(argv[i], "--export-config") == 0 && i + 1 < argc) {
      export_path = argv[++i];
      continue;
    }
    if (std::strncmp(argv[i], "--export-config=", 16) == 0) {
      export_path = argv[i] + 16;
      continue;
    }
    if ((std::strcmp(argv[i], "--cancel-after") == 0 && i + 1 < argc) ||
        std::strncmp(argv[i], "--cancel-after=", 15) == 0) {
      const std::string value =
          argv[i][14] == '=' ? argv[i] + 15 : argv[++i];
      const auto n = core::parse_number(value);
      if (!n) {
        std::fprintf(stderr,
                     "%s: --cancel-after must be a non-negative integer, "
                     "got '%s'\n",
                     argv[0], value.c_str());
        return 2;
      }
      cancel_after = *n;
      cancel_set = true;
      continue;
    }
    const api::RequestCli::Arg arg = cli.consume(argc, argv, &i);
    if (arg == api::RequestCli::Arg::kConsumed) continue;
    if (arg == api::RequestCli::Arg::kError) {
      std::fprintf(stderr, "%s: %s\n", argv[0], cli.error().c_str());
      return 2;
    }
    return usage(argv[0], cli);
  }
  if (local) {
    if (!cli.finish()) {
      std::fprintf(stderr, "%s: %s\n", argv[0], cli.error().c_str());
      return 2;
    }
    return print_reply(argv[0], api::run_design_request(cli.request),
                       export_path);
  }
  if (socket_path.empty()) {
    std::fprintf(stderr, "%s: --socket PATH is required\n", argv[0]);
    return usage(argv[0], cli);
  }

  serve::Client client;
  std::string why;
  if (!client.connect_to(socket_path, &why)) {
    std::fprintf(stderr, "%s: %s\n", argv[0], why.c_str());
    return 1;
  }

  if (shutdown) {
    if (!client.send_shutdown(&why)) {
      std::fprintf(stderr, "%s: %s\n", argv[0], why.c_str());
      return 1;
    }
    // The daemon closes every connection on its way out; wait for that so
    // "dmm_client --shutdown && ..." sequences cleanly.
    api::ProgressEvent progress;
    api::DesignReply reply;
    while (client.next(&progress, &reply, &why) !=
           serve::Client::Event::kClosed) {
    }
    std::printf("daemon shut down\n");
    return 0;
  }

  if (!cli.finish()) {
    std::fprintf(stderr, "%s: %s\n", argv[0], cli.error().c_str());
    return 2;
  }
  if (!client.send_request(cli.request, &why)) {
    std::fprintf(stderr, "%s: %s\n", argv[0], why.c_str());
    return 1;
  }

  std::uint64_t beats = 0;
  bool cancel_sent = false;
  for (;;) {
    api::ProgressEvent progress;
    api::DesignReply reply;
    switch (client.next(&progress, &reply, &why)) {
      case serve::Client::Event::kProgress: {
        ++beats;
        if (!quiet) {
          std::printf("progress: phase %u/%u, %llu evals (%llu replays, "
                      "%llu cache hits)%s%s\n",
                      progress.phase + 1, progress.phase_count,
                      static_cast<unsigned long long>(progress.evaluations),
                      static_cast<unsigned long long>(progress.simulations),
                      static_cast<unsigned long long>(progress.cache_hits),
                      progress.has_incumbent ? ", incumbent " : "",
                      progress.has_incumbent ? progress.incumbent.c_str()
                                             : "");
        }
        if (cancel_set && !cancel_sent && beats >= cancel_after) {
          if (!client.send_cancel(&why)) {
            std::fprintf(stderr, "%s: %s\n", argv[0], why.c_str());
            return 1;
          }
          cancel_sent = true;
        }
        break;
      }
      case serve::Client::Event::kReply:
        return print_reply(argv[0], reply, export_path);
      case serve::Client::Event::kError:
        std::fprintf(stderr, "%s: %s\n", argv[0], why.c_str());
        return 1;
      case serve::Client::Event::kClosed:
        std::fprintf(stderr, "%s: daemon closed the connection\n", argv[0]);
        return 1;
    }
  }
}
