// The design-as-a-service daemon (see src/serve/server.h for the model):
// listens on a Unix-domain socket, multiplexes DesignRequests from any
// number of dmm_client connections over one warm score cache and one
// evaluation engine, and saves its cache snapshot on graceful shutdown
// (SIGINT/SIGTERM or a client's --shutdown).
//
//   dmm_serve --socket /tmp/dmm.sock --cache-file /tmp/dmm.cache
//             --max-entries 10000 --threads 0
//
// Flags:
//   --socket PATH       listening socket path (required)
//   --cache-file PATH   snapshot loaded at start, saved on shutdown
//   --max-entries N     score-cache entry bound (0 = unbounded)
//   --threads N         evaluation workers (1 = serial, 0 = one per
//                       hardware thread)
//   --slice N           evaluations dealt per scheduler turn

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include "dmm/core/search.h"
#include "dmm/serve/server.h"

namespace {

// Async-signal-safe shutdown flag; the server polls it between turns.
volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s --socket PATH [--cache-file PATH] "
               "[--max-entries N] [--threads N] "
               "[--slice N]\n",
               prog);
  return 2;
}

bool parse_u64_flag(const char* prog, const char* what,
                    const std::string& text, std::uint64_t* out) {
  const auto v = dmm::core::parse_number(text);
  if (!v) {
    std::fprintf(stderr, "%s: %s must be a non-negative integer, got '%s'\n",
                 prog, what, text.c_str());
    return false;
  }
  *out = *v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dmm;

  serve::ServeOptions options;
  std::uint64_t threads = 1;
  std::uint64_t slice = 64;
  std::uint64_t max_entries = 0;
  for (int i = 1; i < argc; ++i) {
    const auto value_of = [&](const char* flag,
                              std::string* value) -> bool {
      const std::size_t n = std::strlen(flag);
      if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) {
        *value = argv[++i];
        return true;
      }
      if (std::strncmp(argv[i], flag, n) == 0 && argv[i][n] == '=') {
        *value = argv[i] + n + 1;
        return true;
      }
      return false;
    };
    std::string value;
    if (value_of("--socket", &value)) {
      options.socket_path = value;
    } else if (value_of("--cache-file", &value)) {
      options.cache_file = value;
    } else if (value_of("--max-entries", &value)) {
      if (!parse_u64_flag(argv[0], "--max-entries", value, &max_entries)) {
        return 2;
      }
    } else if (value_of("--threads", &value)) {
      if (!parse_u64_flag(argv[0], "--threads", value, &threads)) return 2;
    } else if (value_of("--slice", &value)) {
      if (!parse_u64_flag(argv[0], "--slice", value, &slice)) return 2;
    } else {
      return usage(argv[0]);
    }
  }
  if (options.socket_path.empty()) {
    std::fprintf(stderr, "%s: --socket PATH is required\n", argv[0]);
    return usage(argv[0]);
  }
  options.cache_limits.max_entries = static_cast<std::size_t>(max_entries);
  options.num_threads = static_cast<unsigned>(threads);
  options.slice_evals = static_cast<std::size_t>(slice);
  options.should_stop = [] { return g_stop != 0; };

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  serve::Server server(std::move(options));
  std::string why;
  if (!server.start(&why)) {
    std::fprintf(stderr, "%s: %s\n", argv[0], why.c_str());
    return 1;
  }
  std::printf("dmm_serve: listening\n");
  std::fflush(stdout);  // the smoke test waits for this line
  const int rc = server.run();
  std::printf("dmm_serve: exiting (cache: %zu entries, %llu evictions)\n",
              server.cache().size(),
              static_cast<unsigned long long>(server.cache().stats().evictions));
  return rc;
}
