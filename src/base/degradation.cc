#include "src/base/degradation.h"

namespace crsat {

namespace {

std::string Load(const std::atomic<std::uint64_t>& counter) {
  return std::to_string(counter.load(std::memory_order_relaxed));
}

}  // namespace

std::string RecoveryStats::ToJson() const {
  return "{\"warm_start_fallbacks\": " + Load(warm_start_fallbacks) +
         ", \"cover_fallbacks\": " + Load(cover_fallbacks) +
         ", \"tier_fallbacks\": " + Load(tier_fallbacks) +
         ", \"witness_flow_refinements\": " + Load(witness_flow_refinements) +
         ", \"witness_rescales\": " + Load(witness_rescales) +
         ", \"bad_alloc_conversions\": " + Load(bad_alloc_conversions) +
         ", \"guard_trips\": " + Load(guard_trips) + "}";
}

RecoveryStats& GetRecoveryStats() {
  static RecoveryStats* stats = new RecoveryStats;
  return *stats;
}

}  // namespace crsat
