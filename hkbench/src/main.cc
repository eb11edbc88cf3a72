// hkbench: one workload, one run, one result line.
//
//   hkbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           --dir <scratch dir> [--spawn-ns <ns>] [--threads <n>]
//           [--corrupt delete|overwrite] [--trace-out <file>]
//
// Prints, as the last line of stdout, one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.  Failed checks are
// listed on stderr.  Exit codes: 0 result printed, 2 bad flag, 4 set-up
// failed, 5 the run could not continue.  run.py is the usual entry point.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "hkbench/src/common.h"

namespace hkb {
namespace {

const char* const kWorkloads[] = {"embed-read-hot", "embed-write-spill",
                                  "server-binary-pipelined", "server-memcached-rtt"};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr, "hkbench: %s\n", why.c_str());
  std::exit(kExitUsage);
}

uint64_t ParseUint(const std::string& flag, const std::string& text, uint64_t lo, uint64_t hi) {
  if (text.empty() || text[0] < '0' || text[0] > '9') {
    Usage("--" + flag + ": not a number: '" + text + "'");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || *end != '\0' || v < lo || v > hi) {
    Usage("--" + flag + ": expected a whole number in [" + std::to_string(lo) + ", " +
          std::to_string(hi) + "], got '" + text + "'");
  }
  return v;
}

Config ParseFlags(int argc, char** argv) {
  Config cfg;
  bool have_workload = false, have_dir = false;
  for (int a = 1; a < argc; ++a) {
    std::string arg = argv[a];
    if (arg.rfind("--", 0) != 0) {
      Usage("unexpected argument '" + arg + "'");
    }
    std::string name = arg.substr(2), value;
    if (const size_t eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name.resize(eq);
    } else if (a + 1 < argc) {
      value = argv[++a];
    } else {
      Usage("--" + name + " needs a value");
    }
    if (name == "workload") {
      bool known = false;
      for (const char* w : kWorkloads) {
        known |= value == w;
      }
      if (!known) {
        Usage("unknown workload '" + value + "'");
      }
      cfg.workload = value;
      have_workload = true;
    } else if (name == "seed") {
      cfg.seed = ParseUint(name, value, 0, ~uint64_t{0});
    } else if (name == "seconds") {
      cfg.seconds = static_cast<int>(ParseUint(name, value, 1, 120));
    } else if (name == "trace") {
      cfg.trace = ParseUint(name, value, 0, 1) == 1;
    } else if (name == "dir") {
      cfg.dir = value;
      have_dir = !value.empty();
    } else if (name == "spawn-ns") {
      cfg.spawn_ns = ParseUint(name, value, 0, ~uint64_t{0});
    } else if (name == "threads") {
      cfg.threads = static_cast<int>(ParseUint(name, value, 1, 256));
    } else if (name == "corrupt") {
      if (value != "delete" && value != "overwrite") {
        Usage("--corrupt: expected delete or overwrite, got '" + value + "'");
      }
      cfg.corrupt = value;
    } else if (name == "trace-out") {
      cfg.trace_out = value;
    } else {
      Usage("unknown flag --" + name);
    }
  }
  if (!have_workload) {
    Usage("--workload is required");
  }
  if (!have_dir) {
    Usage("--dir is required");
  }
  return cfg;
}

void PrintResult(const RunResult& r) {
  std::string line = std::string("{\"correct\": ") + (r.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (size_t m = 0; m < r.metrics.size(); ++m) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", r.metrics[m].value);
    line += (m ? ", \"" : "\"") + r.metrics[m].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + r.metrics[m].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace hkb

int main(int argc, char** argv) {
  const hkb::Config cfg = hkb::ParseFlags(argc, argv);
  hkb::RunResult result;
  const int rc = cfg.workload.rfind("embed-", 0) == 0 ? hkb::RunEmbedded(cfg, &result)
                                                      : hkb::RunServer(cfg, &result);
  for (const std::string& p : result.problems) {
    std::fprintf(stderr, "hkbench: check failed: %s\n", p.c_str());
  }
  if (rc != hkb::kExitOk) {
    return rc;
  }
  hkb::PrintResult(result);
  return 0;
}
