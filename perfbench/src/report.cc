#include "src/report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>

namespace perfbench {
namespace {

std::string Number(double value) {
  std::ostringstream out;
  out << std::setprecision(17) << value;
  return out.str();
}

double PerCall(const LayerTotals& layer) {
  return layer.calls == 0 ? 0 : layer.self_ms / static_cast<double>(layer.calls);
}

}  // namespace

double Ratio(double part, double whole) {
  return whole == 0 ? 0 : part / whole;
}

void WorkloadResult::Fail(const std::string& what) {
  ++failed;
  if (failures.size() < 5) {
    failures.push_back(what);
  }
}

double SecondsSinceLaunch(const RunOptions& options) {
  return MsBetween(options.launched, Clock::now()) / 1e3;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

LatencySummary SummarizeLatencies(std::vector<double> latencies_ms) {
  LatencySummary summary;
  summary.samples = latencies_ms.size();
  if (latencies_ms.size() < 11) {
    return summary;
  }
  summary.p50_ms = Median(latencies_ms);
  std::sort(latencies_ms.begin(), latencies_ms.end());
  const std::size_t n = latencies_ms.size();
  summary.tail_ms = latencies_ms[n - 11];
  summary.tail_percentile =
      100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return summary;
}

ProcUsage ProcUsage::Read() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  ProcUsage result;
  result.user_s = static_cast<double>(usage.ru_utime.tv_sec) +
                  static_cast<double>(usage.ru_utime.tv_usec) / 1e6;
  result.sys_s = static_cast<double>(usage.ru_stime.tv_sec) +
                 static_cast<double>(usage.ru_stime.tv_usec) / 1e6;
  result.minor_faults = static_cast<std::uint64_t>(usage.ru_minflt);
  result.max_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return result;
}

double AluYardstickMs() {
  const Clock::time_point start = Clock::now();
  volatile std::uint64_t sink = 0;
  std::uint64_t x = 1;
  for (int i = 0; i < 20000000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    x ^= x >> 17;
  }
  sink = x;
  (void)sink;
  return MsBetween(start, Clock::now());
}

ProcUsage ProcUsage::Since(const ProcUsage& before) const {
  ProcUsage used = *this;
  used.user_s -= before.user_s;
  used.sys_s -= before.sys_s;
  used.minor_faults -= before.minor_faults;
  return used;
}

std::vector<std::pair<std::string, double>> ProcMetrics(const ProcUsage& used,
                                                        std::uint64_t ops) {
  return {{"proc.minflt_per_op",
           Ratio(used.minor_faults, ops)},
          {"proc.sys_share", Ratio(used.sys_s, used.user_s + used.sys_s)}};
}

const std::vector<std::pair<std::string, std::string>>& PerLayerCatalog() {
  static const std::vector<std::pair<std::string, std::string>> catalog = {
      {"cr.parse_ms", "ms"},
      {"analysis.empty_ms", "ms"},
      {"expansion.build_ms", "ms"},
      {"expansion.compounds", "count"},
      {"baseline.ln_ms", "ms"},
      {"baseline.ln_short_circuits", "count/op"},
      {"reasoner.support_ms", "ms"},
      {"reasoner.unsat_core_ms", "ms"},
      {"reasoner.engine_ms", "ms"},
      {"reasoner.check_all_ms", "ms"},
      {"reasoner.solves_per_batch", "count"},
      {"reasoner.dominance_hit_ratio", "ratio"},
      {"lp.solves", "count/op"},
      {"lp.pivots", "count/op"},
      {"lp.fast_pivot_fraction", "ratio"},
      {"lp.warm_start_hit_ratio", "ratio"},
      {"lp.us_per_pivot", "us"},
      {"witness.synthesize_ms", "ms"},
      {"witness.model_size", "count"},
      {"server.parse_ms", "ms"},
      {"server.check_ms", "ms"},
      {"server.lint_ms", "ms"},
      {"server.implications_ms", "ms"},
      {"server.witness_ms", "ms"},
      {"server.transport_ms", "ms"},
      {"server.refusals", "count"},
      {"proc.minflt_per_op", "count/op"},
      {"proc.sys_share", "ratio"},
      {"op.self_ms", "ms"},
      {"trace.overhead_share", "ratio"},
      {"pool.threads", "count"},
  };
  return catalog;
}

void FillPerLayer(const std::vector<LayerTotals>& totals,
                  const SolverCounters& work, std::uint64_t traced_ops,
                  const std::vector<std::pair<std::string, double>>& extra,
                  WorkloadResult* result) {
  auto layer = [&totals](Layer which) -> const LayerTotals& {
    return totals[static_cast<int>(which)];
  };
  std::map<std::string, double> values;
  values["cr.parse_ms"] = PerCall(layer(Layer::kParse));
  values["analysis.empty_ms"] = PerCall(layer(Layer::kEmpty));
  values["expansion.build_ms"] = PerCall(layer(Layer::kExpansion));
  values["baseline.ln_ms"] = PerCall(layer(Layer::kLn));
  values["baseline.ln_short_circuits"] =
      Ratio(work.ln_short_circuits, traced_ops);
  values["reasoner.support_ms"] = PerCall(layer(Layer::kSupport));
  values["reasoner.unsat_core_ms"] = PerCall(layer(Layer::kUnsatCore));
  values["reasoner.engine_ms"] = PerCall(layer(Layer::kEngine));
  values["reasoner.check_all_ms"] = PerCall(layer(Layer::kCheckAll));
  values["reasoner.solves_per_batch"] = Ratio(
      layer(Layer::kCheckAll).work.solves, layer(Layer::kCheckAll).calls);
  values["witness.synthesize_ms"] = PerCall(layer(Layer::kWitness));
  values["server.parse_ms"] = PerCall(layer(Layer::kServerParse));
  values["server.check_ms"] = PerCall(layer(Layer::kServerCheck));
  values["server.lint_ms"] = PerCall(layer(Layer::kServerLint));
  values["server.implications_ms"] =
      PerCall(layer(Layer::kServerImplications));
  values["server.witness_ms"] = PerCall(layer(Layer::kServerWitness));
  values["op.self_ms"] = PerCall(layer(Layer::kOp));
  // The LP-dominated call of the workload: CheckAll on implication,
  // SatisfiableClasses on check_batch.
  for (Layer lp_layer : {Layer::kCheckAll, Layer::kSupport}) {
    const LayerTotals& lp = layer(lp_layer);
    if (lp.calls > 0 && lp.work.pivots > 0) {
      values["lp.us_per_pivot"] =
          1000.0 * lp.total_ms / static_cast<double>(lp.work.pivots);
      break;
    }
  }
  values["lp.solves"] = Ratio(work.solves, traced_ops);
  values["lp.pivots"] = Ratio(work.pivots, traced_ops);
  values["lp.fast_pivot_fraction"] = Ratio(work.fast_pivots, work.pivots);
  values["lp.warm_start_hit_ratio"] = Ratio(
      work.warm_start_hits, work.warm_start_hits + work.warm_start_misses);
  values["reasoner.dominance_hit_ratio"] =
      Ratio(work.dominance_hits, work.dominance_lookups);
  for (const auto& [name, value] : extra) {
    values[name] = value;
  }
  result->per_layer.clear();
  for (const auto& [name, unit] : PerLayerCatalog()) {
    result->per_layer.push_back({name, values[name], unit});
  }
}

int PrintResult(const RunOptions& options, const WorkloadResult& result) {
  for (const std::string& note : result.notes) {
    std::cout << note << "\n";
  }
  for (const std::string& failure : result.failures) {
    std::cout << "FAILED: " << failure << "\n";
  }
  std::cout << "solver-work " << options.workload << " seed=" << options.seed
            << " unit=\"" << result.work_unit << "\"";
  for (const auto& [name, value] : result.work) {
    std::cout << " " << name << "=" << value;
  }
  std::cout << "\n";

  const LatencySummary latency = SummarizeLatencies(result.latencies_ms);
  std::vector<Metric> metrics;
  if (options.trace) {
    metrics = result.per_layer;
  } else {
    const double ops = static_cast<double>(result.latencies_ms.size());
    std::vector<double> setups = options.setup_samples_s;
    setups.push_back(result.setup_s);
    metrics = {
        {"setup_s", Median(setups), "s"},
        {"ops_per_s", result.busy_s > 0 ? ops / result.busy_s : 0, "1/s"},
        {"p50_ms", latency.p50_ms, "ms"},
        {"tail_ms", latency.tail_ms, "ms"},
        {"peak_rss_mb", result.peak_rss_mb, "MB"},
    };
    std::cout << "latency: " << latency.samples << " ops, p50 "
              << latency.p50_ms << " ms, tail = p"
              << Number(latency.tail_percentile) << " (10 samples beyond) "
              << latency.tail_ms << " ms\n";
    std::cout << "setup: from launch to the first timed operation, median "
              << "of " << setups.size() << " processes " << Median(setups)
              << " s, this process " << result.setup_s << " s\n";
  }
  std::cout << "failed " << result.failed << " of " << result.attempted
            << " attempted; unsettled UNSAT class verdicts "
            << result.unsettled << " (" << result.unsettled_cyclic
            << " with a validated cyclic saturation graph)\n";

  const bool enough = latency.samples >= 11;
  if (!enough) {
    std::cout << "FAILED: fewer than 11 timed operations\n";
  }
  const bool correct = result.failed == 0 && enough;
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
         << "\": {\"value\": " << Number(metrics[i].value) << ", \"unit\": \""
         << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace perfbench
