#include "src/base/resource_guard.h"

#include <sstream>

#include "src/base/degradation.h"
#include "src/base/failpoint.h"
#include "src/base/json.h"

namespace crsat {

namespace {

std::string FormatMs(double ms) {
  std::ostringstream out;
  out.precision(1);
  out << std::fixed << ms;
  return out.str();
}

}  // namespace

const char* ResourceLimitKindToString(ResourceLimitKind kind) {
  switch (kind) {
    case ResourceLimitKind::kNone:
      return "none";
    case ResourceLimitKind::kDeadline:
      return "deadline";
    case ResourceLimitKind::kCompounds:
      return "compounds";
    case ResourceLimitKind::kMemory:
      return "memory";
    case ResourceLimitKind::kCancelled:
      return "cancelled";
    case ResourceLimitKind::kInjected:
      return "injected";
  }
  return "unknown";
}

std::string ResourceReport::ToString() const {
  std::string text;
  if (tripped == ResourceLimitKind::kNone) {
    text = "no limit tripped";
  } else {
    text = std::string(ResourceLimitKindToString(tripped)) +
           " limit tripped at " + (site.empty() ? "?" : site);
  }
  text += " (elapsed " + FormatMs(elapsed_ms) + " ms, compounds " +
          std::to_string(compounds) + ", memory " +
          std::to_string(memory_bytes) + " B, peak " +
          std::to_string(peak_memory_bytes) + " B, checks " +
          std::to_string(checks) + ")";
  return text;
}

std::string ResourceReport::ToJson() const {
  JsonWriter json;
  json.BeginObject().Member("tripped", ResourceLimitKindToString(tripped));
  json.Member("site", site).Member("elapsed_ms", elapsed_ms);
  json.Member("compounds", compounds).Member("memory_bytes", memory_bytes);
  json.Member("peak_memory_bytes", peak_memory_bytes);
  return json.Member("checks", checks).End().str();
}

ResourceGuard::ResourceGuard(const ResourceLimits& limits)
    : limits_(limits), start_(Clock::now()) {
  deadline_ = limits_.timeout.has_value() ? start_ + *limits_.timeout
                                          : Clock::time_point::max();
}

void ResourceGuard::AddMemory(std::uint64_t bytes) {
  const std::uint64_t now =
      memory_bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::uint64_t peak = peak_memory_bytes_.load(std::memory_order_relaxed);
  while (now > peak && !peak_memory_bytes_.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
}

double ResourceGuard::elapsed_ms() const {
  return std::chrono::duration<double, std::milli>(Clock::now() - start_)
      .count();
}

Status ResourceGuard::MakeStatus(ResourceLimitKind kind,
                                 const std::string& site) const {
  const std::string where = site.empty() ? "?" : site;
  switch (kind) {
    case ResourceLimitKind::kDeadline:
      return DeadlineExceededError("deadline exceeded at " + where +
                                   " after " + FormatMs(elapsed_ms()) +
                                   " ms");
    case ResourceLimitKind::kCompounds:
      return ResourceExhaustedError(
          "compound budget exhausted at " + where + " (" +
          std::to_string(compounds()) + " compounds, limit " +
          std::to_string(limits_.max_compounds.value_or(0)) + ")");
    case ResourceLimitKind::kMemory:
      return ResourceExhaustedError(
          "memory budget exhausted at " + where + " (" +
          std::to_string(memory_bytes()) + " B instrumented, limit " +
          std::to_string(limits_.max_memory_bytes.value_or(0)) + " B)");
    case ResourceLimitKind::kCancelled:
      return CancelledError("cancelled at " + where);
    case ResourceLimitKind::kInjected:
      return ResourceExhaustedError("injected fault at " + where);
    case ResourceLimitKind::kNone:
      break;
  }
  return OkStatus();
}

Status ResourceGuard::Trip(ResourceLimitKind kind, const char* site) {
  ResourceLimitKind expected = ResourceLimitKind::kNone;
  if (tripped_kind_.compare_exchange_strong(expected, kind,
                                            std::memory_order_acq_rel)) {
    {
      MutexLock lock(trip_mutex_);
      trip_site_ = site;
    }
    GetRecoveryStats().guard_trips.fetch_add(1, std::memory_order_relaxed);
  }
  return TripStatus();
}

Status ResourceGuard::TripStatus() const {
  const ResourceLimitKind kind = tripped_kind_.load(std::memory_order_acquire);
  if (kind == ResourceLimitKind::kNone) {
    return OkStatus();
  }
  std::string site;
  {
    MutexLock lock(trip_mutex_);
    site = trip_site_;
  }
  return MakeStatus(kind, site);
}

Status ResourceGuard::Check(const char* site) {
  const std::uint64_t check_index =
      checks_.fetch_add(1, std::memory_order_relaxed);
  if (tripped()) {
    return TripStatus();
  }
  if (cancel_requested()) {
    return Trip(ResourceLimitKind::kCancelled, site);
  }
  if (CRSAT_FAILPOINT("guard/trip")) {
    // Injected mid-batch trip: sticks exactly like a genuine one.
    return Trip(ResourceLimitKind::kInjected, site);
  }
  if (limits_.max_compounds.has_value() &&
      compounds() > *limits_.max_compounds) {
    return Trip(ResourceLimitKind::kCompounds, site);
  }
  if (limits_.max_memory_bytes.has_value() &&
      memory_bytes() > *limits_.max_memory_bytes) {
    return Trip(ResourceLimitKind::kMemory, site);
  }
  // The clock is the only non-trivial poll, so it is strided: the first
  // check always reads it (a zero timeout must trip immediately), later
  // ones every kDeadlineStride-th call. The stride counter is shared
  // across threads, which only affects *when* a trip is noticed, never
  // any computed value.
  if (limits_.timeout.has_value() &&
      (check_index % kDeadlineStride == 0) && Clock::now() >= deadline_) {
    return Trip(ResourceLimitKind::kDeadline, site);
  }
  return OkStatus();
}

Status ResourceGuard::CheckNow(const char* site) {
  CRSAT_RETURN_IF_ERROR(Check(site));
  if (limits_.timeout.has_value() && Clock::now() >= deadline_) {
    return Trip(ResourceLimitKind::kDeadline, site);
  }
  return OkStatus();
}

ResourceReport ResourceGuard::report() const {
  ResourceReport report;
  report.tripped = tripped_kind_.load(std::memory_order_acquire);
  if (report.tripped != ResourceLimitKind::kNone) {
    MutexLock lock(trip_mutex_);
    report.site = trip_site_;
  }
  report.compounds = compounds();
  report.memory_bytes = memory_bytes();
  report.peak_memory_bytes =
      peak_memory_bytes_.load(std::memory_order_relaxed);
  report.elapsed_ms = elapsed_ms();
  report.checks = checks_.load(std::memory_order_relaxed);
  return report;
}

}  // namespace crsat
