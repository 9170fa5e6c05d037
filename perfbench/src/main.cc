// crsat_perfbench: runs one benchmark workload against the crsat library
// and prints its metrics. Usually driven by perfbench/run.py, which builds
// this binary first:
//
//   crsat_perfbench --workload check_batch|implication|serve_mixed
//                   --seed N --seconds S --trace 0|1 [--trace-file PATH]
//                   [--launched-ns T] [--setup-only 0|1]
//                   [--setup-samples S1,S2,...]
//
// The last line of standard output is the one-line JSON result. The exit
// status is 0 only when every operation succeeded and was judged correct.
//
// Set-up time runs from the process's launch, which the parent passes as
// a steady-clock (CLOCK_MONOTONIC) reading in `--launched-ns`; without it
// the clock starts at the top of main(). `--setup-only 1` sets the
// workload up, prints `setup_s <seconds>` and exits; `--setup-samples`
// hands the set-up times of such processes to the measuring run, which
// reports their median together with its own.

#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "src/workloads.h"

namespace {

int Usage() {
  std::cerr << "usage: crsat_perfbench --workload check_batch|implication|"
               "serve_mixed --seed N --seconds S --trace 0|1 "
               "[--trace-file PATH] [--launched-ns T] [--setup-only 0|1] "
               "[--setup-samples S1,S2,...]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  options.launched = perfbench::Clock::now();
  options.trace_path = "trace.json";
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = static_cast<std::uint32_t>(std::stoul(value));
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--trace-file") {
        options.trace_path = value;
      } else if (flag == "--launched-ns") {
        options.launched = perfbench::Clock::time_point(
            std::chrono::nanoseconds(std::stoll(value)));
      } else if (flag == "--setup-only") {
        options.setup_only = value == "1";
      } else if (flag == "--setup-samples") {
        std::istringstream samples(value);
        for (std::string sample; std::getline(samples, sample, ',');) {
          options.setup_samples_s.push_back(std::stod(sample));
        }
      } else {
        return Usage();
      }
    }
  } catch (const std::exception&) {  // From std::sto*.
    return Usage();
  }
  if (argc % 2 != 1 || options.seconds <= 0) {
    return Usage();
  }
  if (options.workload != "check_batch" && options.workload != "implication" &&
      options.workload != "serve_mixed") {
    return Usage();
  }
  perfbench::WorkloadResult result =
      options.workload == "check_batch"   ? perfbench::RunCheckBatch(options)
      : options.workload == "implication" ? perfbench::RunImplication(options)
                                          : perfbench::RunServeMixed(options);
  if (options.setup_only) {
    for (const std::string& failure : result.failures) {
      std::cout << "FAILED: " << failure << "\n";
    }
    std::cout << "setup_s " << result.setup_s << std::endl;
    return result.failed == 0 ? 0 : 1;
  }
  // After the workload, so that it stays out of the set-up time.
  const double yardstick = perfbench::AluYardstickMs();
  std::cout << "machine: fixed integer loop " << yardstick
            << " ms after the workload\n";
  if (options.trace) {
    result.per_layer.push_back({"machine.alu_ms", yardstick, "ms"});
  }
  std::cout << "workload " << options.workload << ", seed " << options.seed
            << ", pool threads " << result.pool_threads
            << (options.trace ? ", traced (spans in " + options.trace_path + ")"
                              : ", tracing off")
            << "\n";
  return perfbench::PrintResult(options, result);
}
