// End-to-end benchmark of the deployed paths: the streaming monitor
// (campus, campus_par) and the sensor -> TCP -> aggregator fleet
// (fleet_tcp). See perfbench/README.md.
//
//   perfbench --workload campus --seed 1 --seconds 20 --trace 0
//             [--trace-out trace.json]
//
// Prints a human-readable report, one line per correctness gate, and as
// its last line one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
// of the traced re-drive with --trace 1.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload "
               "campus|campus_par|fleet_tcp --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = val;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') Usage("--seed expects an integer");
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0.0)) {
        Usage("--seconds expects a positive number");
      }
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") Usage("--trace expects 0 or 1");
      opt.trace = val == "1";
    } else if (arg == "--trace-out") {
      opt.trace_out = val;
    } else {
      Usage(("unknown flag " + arg).c_str());
    }
  }
  if (opt.workload.empty()) Usage("--workload is required");
  if (opt.seconds <= 0.0) Usage("--seconds is required");
  perfbench::Result res;
  try {
    if (opt.workload == "campus" || opt.workload == "campus_par") {
      res = perfbench::RunStreaming(opt);
    } else if (opt.workload == "fleet_tcp") {
      res = perfbench::RunFleet(opt);
    } else {
      Usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", res.JsonLine(opt.trace).c_str());
  std::fflush(stdout);
  return 0;
}
