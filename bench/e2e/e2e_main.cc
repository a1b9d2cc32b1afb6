// themis_e2e: one workload of the end-to-end benchmark per process, so
// peak RSS and the allocation count belong to that workload alone. run.py
// builds and drives it; its last stdout line is the run's JSON report.
//
//   themis_e2e --workload <name> [--seed N] [--seconds S] [--smoke]
//              [--trace-file PATH]
//
// Exit status: 0 when every check passed and no operation failed, 1
// otherwise, 2 on a bad command line.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/alloc_counter.h"
#include "measure.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: themis_e2e --workload dense_lan|wan_federation|"
               "churn_checkpoint|server_realtime [--seed N] [--seconds S] "
               "[--smoke] [--trace-file PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace themis::e2e;
  themis::ForceLinkAllocCounter();

  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (std::strcmp(arg, "--smoke") == 0) {
      options.smoke = true;
    } else if (value == nullptr) {
      return Usage();
    } else if (std::strcmp(arg, "--workload") == 0) {
      options.workload = value;
      ++i;
    } else if (std::strcmp(arg, "--seed") == 0) {
      options.seed = std::strtoull(value, nullptr, 10);
      ++i;
    } else if (std::strcmp(arg, "--seconds") == 0) {
      options.seconds = std::atof(value);
      ++i;
    } else if (std::strcmp(arg, "--trace-file") == 0) {
      options.trace_file = value;
      ++i;
    } else {
      return Usage();
    }
  }
  if (options.seconds <= 0.0) return Usage();

  Report report;
  if (options.workload == "server_realtime") {
    RunServerWorkload(options, &report);
  } else if (options.workload == "dense_lan" ||
             options.workload == "wan_federation" ||
             options.workload == "churn_checkpoint") {
    RunDesWorkload(options, &report);
  } else {
    return Usage();
  }
  report.Set("peak_rss_mb", PeakRssMb());
  std::printf("%s\n", report.ToJson().c_str());
  return report.ok() ? 0 : 1;
}
