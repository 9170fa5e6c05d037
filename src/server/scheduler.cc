#include "src/server/scheduler.h"

#include <algorithm>

#include "src/base/failpoint.h"
#include "src/base/json.h"

namespace crsat {
namespace server {

namespace {

// DRR cost of one request: a floor of 1 plus one unit per payload KiB,
// clamped so a single megabyte schema cannot demand an unbounded number
// of round-robin passes before dispatching.
std::uint64_t CostOf(std::size_t cost_bytes) {
  const std::uint64_t kibs = static_cast<std::uint64_t>(cost_bytes) / 1024;
  return 1 + std::min<std::uint64_t>(kibs, 63);
}

// Deficit added to a lane each time the round-robin pass visits it.
constexpr std::uint64_t kQuantum = 4;

}  // namespace

std::string RequestScheduler::Stats::ToJson() const {
  JsonWriter json;
  json.BeginObject().Member("submitted", submitted);
  json.Member("admitted", admitted).Member("shed", shed);
  json.Member("refused_draining", refused_draining);
  json.Member("completed", completed).Member("queued_now", queued_now);
  json.Member("running_now", running_now).Member("lanes_now", lanes_now);
  return json.Member("max_concurrency", max_concurrency).End().str();
}

RequestScheduler::RequestScheduler(ThreadPool* pool, const Options& options)
    : pool_(pool), options_(options) {}

RequestScheduler::~RequestScheduler() { AwaitIdle(); }

void RequestScheduler::OpenLane(std::uint64_t lane_id) {
  MutexLock lock(mutex_);
  auto lane = std::make_shared<Lane>();
  lane->id = lane_id;
  lanes_[lane_id] = std::move(lane);
}

void RequestScheduler::CloseLane(std::uint64_t lane_id) {
  MutexLock lock(mutex_);
  auto it = lanes_.find(lane_id);
  if (it == lanes_.end()) {
    return;
  }
  // Queued work still runs: the lane object stays alive through the
  // ready ring's shared_ptr until its queue drains; only the id mapping
  // goes away (the connection is gone, nothing new can arrive).
  lanes_.erase(it);
}

ResponseStatus RequestScheduler::Submit(std::uint64_t lane_id,
                                        std::size_t cost_bytes,
                                        std::function<void()> work) {
  {
    MutexLock lock(mutex_);
    ++counters_.submitted;
    if (draining_) {
      ++counters_.refused_draining;
      return ResponseStatus::kShuttingDown;
    }
    auto it = lanes_.find(lane_id);
    if (it == lanes_.end()) {
      ++counters_.shed;
      return ResponseStatus::kOverloaded;  // Lane already closed.
    }
    const std::shared_ptr<Lane>& lane = it->second;
    if (CRSAT_FAILPOINT("server/queue-full") ||
        queued_total_ >= options_.max_queued ||
        lane->queue.size() >= options_.max_queued_per_lane) {
      ++counters_.shed;
      return ResponseStatus::kOverloaded;
    }
    ++counters_.admitted;
    lane->queue.emplace_back(CostOf(cost_bytes), std::move(work));
    ++queued_total_;
    if (!lane->running && !lane->in_ready_ring) {
      lane->in_ready_ring = true;
      ready_ring_.push_back(lane);
    }
    PumpLocked();
  }
  return ResponseStatus::kOk;
}

bool RequestScheduler::NextDispatchLocked(std::shared_ptr<Lane>* lane,
                                          std::function<void()>* work) {
  if (running_total_ >= pool_->num_threads()) {
    return false;
  }
  // Deficit round robin over the ready ring. Each visit tops up the
  // lane's deficit by kQuantum; a lane whose head request still
  // costs more than its deficit rotates to the back with the deficit
  // retained, so it dispatches within a bounded number of passes. The
  // ring only holds lanes with non-empty queues and nothing running, so
  // every full rotation strictly increases every ready lane's deficit —
  // the loop terminates.
  while (!ready_ring_.empty()) {
    std::shared_ptr<Lane> front = ready_ring_.front();
    front->deficit += kQuantum;
    const std::uint64_t head_cost = front->queue.front().first;
    if (front->deficit < head_cost) {
      ready_ring_.pop_front();
      ready_ring_.push_back(front);
      continue;
    }
    front->deficit -= head_cost;
    *work = std::move(front->queue.front().second);
    front->queue.pop_front();
    --queued_total_;
    front->running = true;
    front->in_ready_ring = false;
    ready_ring_.pop_front();
    if (front->queue.empty()) {
      front->deficit = 0;  // Classic DRR: an idle lane banks nothing.
    }
    ++running_total_;
    *lane = std::move(front);
    return true;
  }
  return false;
}

void RequestScheduler::PumpLocked() {
  // Post never runs the task on this thread, so dispatching under the
  // lock cannot re-enter the scheduler.
  std::shared_ptr<Lane> lane;
  std::function<void()> work;
  while (NextDispatchLocked(&lane, &work)) {
    pool_->Post([this, lane = std::move(lane), work = std::move(work)] {
      work();
      OnComplete(lane);
    });
  }
}

void RequestScheduler::OnComplete(const std::shared_ptr<Lane>& lane) {
  // Everything happens under the lock: once it is released with the
  // scheduler idle, AwaitIdle (and so the destructor) may return, and
  // this thread must not touch the scheduler again.
  MutexLock lock(mutex_);
  lane->running = false;
  --running_total_;
  ++counters_.completed;
  if (!lane->queue.empty() && !lane->in_ready_ring) {
    lane->in_ready_ring = true;
    ready_ring_.push_back(lane);
  }
  PumpLocked();
  if (queued_total_ == 0 && running_total_ == 0) {
    idle_.NotifyAll();
  }
}

void RequestScheduler::BeginDrain() {
  MutexLock lock(mutex_);
  draining_ = true;
}

bool RequestScheduler::draining() const {
  MutexLock lock(mutex_);
  return draining_;
}

void RequestScheduler::AwaitIdle() {
  MutexLock lock(mutex_);
  while (queued_total_ != 0 || running_total_ != 0) {
    idle_.Wait(lock);
  }
}

RequestScheduler::Stats RequestScheduler::stats() const {
  MutexLock lock(mutex_);
  Stats snapshot = counters_;
  snapshot.queued_now = queued_total_;
  snapshot.running_now = static_cast<std::uint64_t>(running_total_);
  snapshot.lanes_now = lanes_.size();
  snapshot.max_concurrency = static_cast<std::uint64_t>(pool_->num_threads());
  return snapshot;
}

}  // namespace server
}  // namespace crsat
