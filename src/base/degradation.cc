#include "src/base/degradation.h"

#include "src/base/json.h"

namespace crsat {

std::string RecoveryStats::ToJson() const {
  return JsonWriter()
      .BeginObject()
      .Member("warm_start_fallbacks", warm_start_fallbacks)
      .Member("cover_fallbacks", cover_fallbacks)
      .Member("tier_fallbacks", tier_fallbacks)
      .Member("witness_flow_refinements", witness_flow_refinements)
      .Member("witness_rescales", witness_rescales)
      .Member("bad_alloc_conversions", bad_alloc_conversions)
      .Member("guard_trips", guard_trips)
      .End()
      .str();
}

RecoveryStats& GetRecoveryStats() {
  static RecoveryStats* stats = new RecoveryStats;
  return *stats;
}

}  // namespace crsat
