#include "src/probe.h"

#include <fstream>

#include "src/baseline/fast_path.h"
#include "src/lp/simplex.h"
#include "src/reasoner/implication_engine.h"

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kOp:
      return "op";
    case Layer::kParse:
      return "cr.parse";
    case Layer::kEmpty:
      return "analysis.empty";
    case Layer::kExpansion:
      return "expansion.build";
    case Layer::kLn:
      return "baseline.ln";
    case Layer::kSupport:
      return "reasoner.support";
    case Layer::kUnsatCore:
      return "reasoner.unsat_core";
    case Layer::kWitness:
      return "witness.synthesize";
    case Layer::kEngine:
      return "reasoner.engine";
    case Layer::kCheckAll:
      return "reasoner.check_all";
    case Layer::kServerParse:
      return "server.parse";
    case Layer::kServerCheck:
      return "server.check";
    case Layer::kServerLint:
      return "server.lint";
    case Layer::kServerImplications:
      return "server.implications";
    case Layer::kServerWitness:
      return "server.witness";
    case Layer::kCount:
      break;
  }
  return "?";
}

SolverCounters SolverCounters::Read() {
  const crsat::SimplexStats& simplex = crsat::GetSimplexStats();
  const crsat::ImplicationStats& implication = crsat::GetImplicationStats();
  SolverCounters counters;
  counters.solves = simplex.solves.load();
  counters.pivots = simplex.pivots.load();
  counters.fast_pivots = simplex.fast_pivots.load();
  counters.warm_start_hits = simplex.warm_start_hits.load();
  counters.warm_start_misses = simplex.warm_start_misses.load();
  counters.dominance_lookups = implication.dominance_lookups.load();
  counters.dominance_hits = implication.dominance_hits.load();
  counters.ln_short_circuits =
      crsat::GetFastPathStats().ln_short_circuits.load();
  return counters;
}

SolverCounters SolverCounters::operator-(const SolverCounters& earlier) const {
  SolverCounters delta;
  delta.solves = solves - earlier.solves;
  delta.pivots = pivots - earlier.pivots;
  delta.fast_pivots = fast_pivots - earlier.fast_pivots;
  delta.warm_start_hits = warm_start_hits - earlier.warm_start_hits;
  delta.warm_start_misses = warm_start_misses - earlier.warm_start_misses;
  delta.dominance_lookups = dominance_lookups - earlier.dominance_lookups;
  delta.dominance_hits = dominance_hits - earlier.dominance_hits;
  delta.ln_short_circuits = ln_short_circuits - earlier.ln_short_circuits;
  return delta;
}

SolverCounters& SolverCounters::operator+=(const SolverCounters& other) {
  solves += other.solves;
  pivots += other.pivots;
  fast_pivots += other.fast_pivots;
  warm_start_hits += other.warm_start_hits;
  warm_start_misses += other.warm_start_misses;
  dominance_lookups += other.dominance_lookups;
  dominance_hits += other.dominance_hits;
  ln_short_circuits += other.ln_short_circuits;
  return *this;
}

Probe::Scope::Scope(Probe* probe, Layer layer)
    : probe_(probe->tracing_ ? probe : nullptr) {
  if (probe_ != nullptr) {
    probe_->Open(layer);
  }
}

Probe::Scope::~Scope() {
  if (probe_ != nullptr) {
    probe_->Close();
  }
}

std::int64_t Probe::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

void Probe::Open(Layer layer) {
  if (layer == Layer::kOp) {
    current_op_id_ = next_op_id_++;
  }
  Span span;
  span.layer = layer;
  span.parent = open_.empty() ? -1 : open_.back();
  span.op_id = current_op_id_;
  open_.push_back(static_cast<int>(spans_.size()));
  spans_.push_back(span);
  open_counters_.push_back(SolverCounters::Read());
  spans_.back().start_ns = NowNs();
}

void Probe::Close() {
  const std::int64_t end = NowNs();
  Span& span = spans_[static_cast<std::size_t>(open_.back())];
  span.end_ns = end;
  span.work = SolverCounters::Read() - open_counters_.back();
  open_.pop_back();
  open_counters_.pop_back();
}

std::vector<LayerTotals> Summarize(const std::vector<const Probe*>& probes) {
  std::vector<LayerTotals> totals(kLayerCount);
  for (const Probe* probe : probes) {
    const std::vector<Span>& spans = probe->spans();
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        child_ns[static_cast<std::size_t>(span.parent)] +=
            span.end_ns - span.start_ns;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      LayerTotals& layer = totals[static_cast<int>(span.layer)];
      const std::int64_t duration = span.end_ns - span.start_ns;
      ++layer.calls;
      layer.total_ms += static_cast<double>(duration) / 1e6;
      layer.self_ms += static_cast<double>(duration - child_ns[i]) / 1e6;
      layer.work += span.work;
    }
  }
  return totals;
}

bool WriteChromeTrace(const std::vector<const Probe*>& probes,
                      const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  for (const Probe* probe : probes) {
    const std::vector<Span>& spans = probe->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      out << (first ? "" : ",\n") << "{\"name\": \"" << LayerName(span.layer)
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << probe->thread_id()
          << ", \"ts\": " << static_cast<double>(span.start_ns) / 1e3
          << ", \"dur\": "
          << static_cast<double>(span.end_ns - span.start_ns) / 1e3
          << ", \"args\": {\"op\": " << span.op_id << ", \"span\": " << i
          << ", \"parent\": " << span.parent
          << ", \"solves\": " << span.work.solves
          << ", \"pivots\": " << span.work.pivots << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
