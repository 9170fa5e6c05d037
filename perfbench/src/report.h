#ifndef CRSAT_PERFBENCH_REPORT_H_
#define CRSAT_PERFBENCH_REPORT_H_

// What one workload run hands back to main(), and the statistics and
// process measurements shared by the workloads.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/probe.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint32_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_path;  // Chrome trace output (trace runs only).
  // When the process was launched; set-up time is measured from here.
  Clock::time_point launched;
  // Set up, report the set-up time, and exit without timed operations.
  bool setup_only = false;
  // Set-up times of earlier set-up-only processes of the same run, which
  // join this process's own in the reported median.
  std::vector<double> setup_samples_s;
};

// Seconds from the process's launch to now: a workload's set-up time when
// called as its first timed operation can be issued.
double SecondsSinceLaunch(const RunOptions& options);

// Median of a non-empty sample (mean of the middle two when even).
double Median(std::vector<double> values);

// p50 and the highest percentile that still has at least ten samples
// above it (the sample at sorted index n - 11).
struct LatencySummary {
  std::size_t samples = 0;
  double p50_ms = 0;
  double tail_ms = 0;
  double tail_percentile = 0;
};

LatencySummary SummarizeLatencies(std::vector<double> latencies_ms);

// getrusage(RUSAGE_SELF) snapshot.
struct ProcUsage {
  double user_s = 0;
  double sys_s = 0;
  std::uint64_t minor_faults = 0;
  double max_rss_mb = 0;

  static ProcUsage Read();
  // The usage accrued since `before` (max_rss_mb stays this snapshot's).
  ProcUsage Since(const ProcUsage& before) const;
};

// Milliseconds a fixed integer loop takes: a yardstick for the host's
// speed at the time of the run, so host drift between runs can be told
// apart from a change in the program.
double AluYardstickMs();

// part / whole, or 0 when `whole` is 0.
double Ratio(double part, double whole);

// proc.minflt_per_op and proc.sys_share from the usage of `ops` timed
// operations.
std::vector<std::pair<std::string, double>> ProcMetrics(const ProcUsage& used,
                                                        std::uint64_t ops);

// A named metric value with its unit, in output order.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct WorkloadResult {
  int pool_threads = 0;
  double setup_s = 0;                // This process's set-up time.
  std::vector<double> latencies_ms;  // One per timed operation.
  double busy_s = 0;                 // Denominator of ops_per_s.
  double peak_rss_mb = 0;            // Taken when the timed loop ends.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // UNSAT class verdicts that no independent voter settled either way,
  // and how many of them have a validated cyclic saturation graph.
  std::uint64_t unsettled = 0;
  std::uint64_t unsettled_cyclic = 0;
  std::vector<std::string> failures;  // First few failure descriptions.
  std::vector<Metric> per_layer;      // Filled by trace runs.
  // Counter totals over a fixed unit of work, for the repeatability
  // check across runs at one seed.
  std::string work_unit;
  std::vector<std::pair<std::string, std::uint64_t>> work;
  std::vector<std::string> notes;     // Printed before the result line.

  void Fail(const std::string& what);
};

// Per-layer metrics every trace run reports, in BENCHMARK.json order,
// with the unit each carries. Workloads that do not exercise a layer
// report 0 for it.
const std::vector<std::pair<std::string, std::string>>& PerLayerCatalog();

// Fills `result->per_layer` from the traced spans, the solver work of the
// traced pass (`work`, over `traced_ops` operations), and the workload's
// extra measurements (`extra`, by catalog name, which take precedence).
void FillPerLayer(const std::vector<LayerTotals>& totals,
                  const SolverCounters& work, std::uint64_t traced_ops,
                  const std::vector<std::pair<std::string, double>>& extra,
                  WorkloadResult* result);

// Prints the notes, the work line, and the final one-line JSON result.
// Returns the process exit code.
int PrintResult(const RunOptions& options, const WorkloadResult& result);

}  // namespace perfbench

#endif  // CRSAT_PERFBENCH_REPORT_H_
