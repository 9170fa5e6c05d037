#ifndef CRSAT_PERFBENCH_PROBE_H_
#define CRSAT_PERFBENCH_PROBE_H_

// Layer timing from outside the library. Every call the benchmark makes
// into a layer's public entry point goes through `Probe::Call`. With
// tracing off that is a plain call; with tracing on it records a span
// (name, start, end, parent, operation id) plus the solver-counter deltas
// across the call. Spans stay in memory and are written once at exit as
// Chrome trace-event JSON.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

// The layers the benchmark wraps. `kOp` is the root span of one timed
// operation; the others name the library call they wrap.
enum class Layer : int {
  kOp,
  kParse,               // ParseSchema
  kEmpty,               // ComputeProvablyEmpty
  kExpansion,           // Expansion::Build
  kLn,                  // TryLnSatisfiableClasses
  kSupport,             // SatisfiabilityChecker::SatisfiableClasses
  kUnsatCore,           // MinimizeUnsatCore
  kWitness,             // WitnessSynthesizer::Synthesize
  kEngine,              // CardinalityImplicationEngine::Create
  kCheckAll,            // CardinalityImplicationEngine::CheckAll
  kServerParse,         // Client::Call(kParse)
  kServerCheck,         // Client::Call(kCheck)
  kServerLint,          // Client::Call(kLint)
  kServerImplications,  // Client::Call(kImplications)
  kServerWitness,       // Client::Call(kWitness)
  kCount,
};

inline constexpr int kLayerCount = static_cast<int>(Layer::kCount);

// Span name, e.g. "reasoner.support".
const char* LayerName(Layer layer);

// The library's process-wide solver counters, read as plain integers.
struct SolverCounters {
  std::uint64_t solves = 0;
  std::uint64_t pivots = 0;
  std::uint64_t fast_pivots = 0;
  std::uint64_t warm_start_hits = 0;
  std::uint64_t warm_start_misses = 0;
  std::uint64_t dominance_lookups = 0;
  std::uint64_t dominance_hits = 0;
  std::uint64_t ln_short_circuits = 0;

  static SolverCounters Read();
  SolverCounters operator-(const SolverCounters& earlier) const;
  SolverCounters& operator+=(const SolverCounters& other);
};

struct Span {
  Layer layer = Layer::kOp;
  std::int64_t start_ns = 0;  // Since the probe epoch.
  std::int64_t end_ns = 0;
  int parent = -1;            // Index into the same probe's spans.
  std::uint64_t op_id = 0;
  SolverCounters work;        // Counter deltas across the call.
};

// Per-layer totals derived from the spans.
struct LayerTotals {
  std::uint64_t calls = 0;
  double total_ms = 0;
  double self_ms = 0;  // Total minus the time covered by child spans.
  SolverCounters work;
};

// One recorder per driving thread; not thread-safe.
class Probe {
 public:
  Probe(bool tracing, int thread_id, Clock::time_point epoch)
      : tracing_(tracing), thread_id_(thread_id), epoch_(epoch) {}

  bool tracing() const { return tracing_; }
  int thread_id() const { return thread_id_; }
  const std::vector<Span>& spans() const { return spans_; }

  // Runs `fn` as a call into `layer`.
  template <typename Fn>
  decltype(auto) Call(Layer layer, Fn&& fn) {
    Scope scope(this, layer);
    return fn();
  }

  // Opens a span for the enclosing scope; an operation root when `layer`
  // is `kOp` (all spans it encloses share its operation id).
  class Scope {
   public:
    Scope(Probe* probe, Layer layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Probe* probe_;
  };

 private:
  void Open(Layer layer);
  void Close();
  std::int64_t NowNs() const;

  const bool tracing_;
  const int thread_id_;
  const Clock::time_point epoch_;
  std::uint64_t next_op_id_ = 1;
  std::uint64_t current_op_id_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;  // Stack of open span indices.
  std::vector<SolverCounters> open_counters_;
};

// Self time and counters per layer over every span of `probes`.
std::vector<LayerTotals> Summarize(const std::vector<const Probe*>& probes);

// Writes every span as Chrome trace-event JSON ("X" events, one tid per
// probe). Returns false when the file cannot be written.
bool WriteChromeTrace(const std::vector<const Probe*>& probes,
                      const std::string& path);

}  // namespace perfbench

#endif  // CRSAT_PERFBENCH_PROBE_H_
