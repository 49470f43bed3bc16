// perfbench: one seeded run of one workload.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir> [--spans <file>]
//
// Human-readable progress goes to stderr; the last line on stdout is the
// result object. The exit code is non-zero when an output check failed.
#include <signal.h>
#include <sys/prctl.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "fixture.h"
#include "inputs.h"
#include "workloads.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --workdir <dir> [--spans <file>]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  // Die with the launcher; the forked servers die with this process.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  RunConfig cfg;
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        workload = val;
      } else if (key == "--seed") {
        cfg.seed = std::stoull(val);
      } else if (key == "--seconds") {
        cfg.seconds = std::stod(val);
      } else if (key == "--trace") {
        cfg.trace = val == "1";
      } else if (key == "--workdir") {
        cfg.workdir = val;
      } else if (key == "--spans") {
        cfg.spans_path = val;
      } else {
        usage(("unknown option " + key).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (!shape_of(workload, cfg.shape)) usage("unknown or missing --workload");
  if (cfg.workdir.empty()) usage("missing --workdir");
  if (!(cfg.seconds > 0)) usage("--seconds must be positive");
  std::filesystem::create_directories(cfg.workdir);
  isolate_generator();

  RunResult r;
  try {
    r = cfg.shape.groups > 0 ? run_fleet_workload(cfg) : run_cluster_workload(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run aborted: %s\n", e.what());
    return 1;
  }
  for (const std::string& v : r.violations) {
    std::fprintf(stderr, "VIOLATION: %s\n", v.c_str());
  }
  std::cout << result_json(r.correct, r.attempted, r.failed, r.metrics)
            << std::endl;
  return r.correct ? 0 : 1;
}
