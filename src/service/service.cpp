#include "service/service.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "obsv/metrics.hpp"
#include "obsv/recorder.hpp"
#include "util/contracts.hpp"

namespace pfar::service {
namespace {

constexpr long long kNever = std::numeric_limits<long long>::max();

bool queued_before(const QueuedJob& a, const QueuedJob& b) {
  return a.queued_cycle != b.queued_cycle ? a.queued_cycle < b.queued_cycle
                                          : a.seq < b.seq;
}

}  // namespace

// pfar-lint: allow(contract-coverage) total switch over the enum; the "?" fallthrough is the documented answer for out-of-range values
const char* to_string(SchedulerPolicy policy) {
  switch (policy) {
    case SchedulerPolicy::kSerial: return "serial";
    case SchedulerPolicy::kPartitioned: return "partitioned";
    case SchedulerPolicy::kPartitionedBatched: return "batched";
  }
  return "?";
}

AllreduceService::AllreduceService(core::AllreducePlan plan,
                                   ServiceConfig config)
    : plan_(std::move(plan)), config_(config) {
  PFAR_REQUIRE(config_.max_queue_jobs >= 1, config_.max_queue_jobs);
  PFAR_REQUIRE(config_.batch_max_jobs >= 1, config_.batch_max_jobs);
  // Lane costs recover through the resilient driver, whose repack spans
  // the whole residual topology (core::degrade_repack). That is exact only
  // when no other lane exists: a partitioned lane's repacked trees could
  // take links another lane's runs use.
  PFAR_REQUIRE(config_.sim.faults.empty() ||
               config_.policy == SchedulerPolicy::kSerial);
  lanes_ = build_lanes(plan_.topology(), plan_.trees(), config_.policy);
  // One-tree lanes of one rooted shape share a cost on a quiet network.
  const bool share = !config_.sim.background.active();
  trees::RootedShapes shapes;
  std::map<int, std::size_t> cost_of_shape;
  costs_.reserve(lanes_.size());
  for (const Lane& lane : lanes_) {
    if (share && lane.tree_ids.size() == 1) {
      const int shape = shapes.name(
          plan_.trees()[static_cast<std::size_t>(lane.tree_ids[0])]);
      const auto [it, fresh] = cost_of_shape.emplace(shape, costs_.size());
      lane_cost_.push_back(it->second);
      if (!fresh) continue;
    } else {
      lane_cost_.push_back(costs_.size());
    }
    std::vector<trees::SpanningTree> lane_trees;
    for (int t : lane.tree_ids) {
      lane_trees.push_back(plan_.trees()[static_cast<std::size_t>(t)]);
    }
    costs_.emplace_back(plan_.topology(), std::move(lane_trees), config_.sim,
                        collectives::ResilienceConfig{});
  }
  lane_state_.assign(lanes_.size(), LaneState{});
  if (obsv::Recorder* rec = config_.sim.recorder) {
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
      rec->trace.name_track(
          obsv::kTrackServiceBase + static_cast<std::uint32_t>(l),
          "lane " + std::to_string(l));
    }
  }
}

int AllreduceService::submit(const JobSpec& spec) {
  PFAR_REQUIRE(spec.elements >= 0, spec.elements);
  PFAR_REQUIRE(spec.tenant >= 0, spec.tenant);
  const int id = static_cast<int>(records_.size());
  JobRecord record;
  record.spec = spec;
  record.spec.arrival_cycle = std::max(spec.arrival_cycle, clock_);
  records_.push_back(record);
  QueuedJob qj;
  qj.job_id = id;
  qj.tenant = spec.tenant;
  qj.elements = spec.elements;
  qj.op = spec.op;
  qj.priority = spec.priority;
  qj.queued_cycle = record.spec.arrival_cycle;
  qj.seq = next_seq_++;
  pending_.push_back(qj);
  return id;
}

void AllreduceService::drain() {
  std::stable_sort(pending_.begin(), pending_.end(), queued_before);
  for (;;) {
    long long t = kNever;
    if (!pending_.empty()) t = std::min(t, pending_.front().queued_cycle);
    for (const LaneState& lane : lane_state_) {
      if (lane.busy) t = std::min(t, lane.batch.finish);
    }
    if (t == kNever) break;
    process(t);
  }
  PFAR_ENSURE(pending_.empty() && queue_.empty(), queue_.size());
}

/// Deterministic ordering at one event instant t: (1) batches finishing at
/// or before t deliver, (2) arrivals at or before t are admitted, (3)
/// freed lanes dispatch.
void AllreduceService::process(long long t) {
  PFAR_REQUIRE(t >= 0, t, clock_);
  clock_ = std::max(clock_, t);
  complete_lanes(t);
  admit_arrivals(t);
  dispatch_free_lanes();
}

void AllreduceService::complete_lanes(long long t) {
  PFAR_REQUIRE(t <= clock_, t, clock_);
  for (std::size_t l = 0; l < lane_state_.size(); ++l) {
    LaneState& lane = lane_state_[l];
    if (!lane.busy || lane.batch.finish > t) continue;
    const Batch& b = lane.batch;
    for (int id : b.job_ids) {
      finish_job(id, b.finish, static_cast<int>(l),
                 static_cast<int>(b.job_ids.size()));
    }
    total_flits_ += b.flits;
    if (obsv::Recorder* rec = config_.sim.recorder) {
      rec->trace.complete(
          b.start, b.finish - b.start,
          rec->trace.intern("batch x" + std::to_string(b.job_ids.size())),
          obsv::kTrackServiceBase + static_cast<std::uint32_t>(l),
          {"jobs", static_cast<long long>(b.job_ids.size())},
          {"elements", b.total_elements});
    }
    lane.busy = false;
  }
}

void AllreduceService::admit_arrivals(long long t) {
  PFAR_REQUIRE(t <= clock_, t, clock_);
  std::size_t taken = 0;
  for (const QueuedJob& job : pending_) {
    if (job.queued_cycle > t) break;
    ++taken;
    JobRecord& record = records_[static_cast<std::size_t>(job.job_id)];
    if (static_cast<int>(queue_.size()) >= config_.max_queue_jobs) {
      record.rejected = true;
      if (obsv::Recorder* rec = config_.sim.recorder) {
        rec->metrics.add("service.jobs.rejected");
      }
      continue;
    }
    record.admit_cycle = job.queued_cycle;
    if (obsv::Recorder* rec = config_.sim.recorder) {
      rec->metrics.add("service.jobs.admitted");
    }
    // A zero-element job has nothing to move: it needs no fabric, so it
    // completes at its arrival instead of waiting for a lane.
    if (job.elements == 0) {
      finish_job(job.job_id, job.queued_cycle, -1, 1);
      continue;
    }
    queue_.push_back(job);
    if (obsv::Recorder* rec = config_.sim.recorder) {
      rec->metrics.hwm("service.queue_depth",
                       static_cast<long long>(queue_.size()));
    }
  }
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(taken));
}

void AllreduceService::dispatch_free_lanes() {
  for (std::size_t l = 0; l < lane_state_.size() && !queue_.empty(); ++l) {
    if (lane_state_[l].busy) continue;
    const std::size_t seed = pick_seed(queue_, served_elements_);
    const auto batch_indices = collect_batch(queue_, seed, config_);
    Batch b;
    for (std::size_t i : batch_indices) {
      const QueuedJob& job = queue_[i];
      b.job_ids.push_back(job.job_id);
      b.total_elements += job.elements;
      served_elements_[job.tenant] += job.elements;
      records_[static_cast<std::size_t>(job.job_id)].start_cycle = clock_;
    }
    collectives::TreeSetCost& lane_cost = costs_[lane_cost_[l]];
    const collectives::TreeSetCost::Answers before = lane_cost.answers();
    const collectives::RunCost cost = lane_cost.cost(b.total_elements);
    values_correct_ = values_correct_ && cost.correct;
    replayed_elements_ += cost.replayed;
    b.start = clock_;
    b.finish = clock_ + cost.cycles;
    b.flits = cost.flits;
    ++batches_;
    if (batch_indices.size() > 1) {
      coalesced_jobs_ += static_cast<int>(batch_indices.size());
    }
    if (obsv::Recorder* rec = config_.sim.recorder) {
      rec->metrics.add("service.batches");
      rec->metrics.add("service.batched_elements", b.total_elements);
      const collectives::TreeSetCost::Answers& after = lane_cost.answers();
      rec->metrics.add("service.lane_runs.simulated",
                       after.simulated - before.simulated);
      rec->metrics.add("service.lane_runs.memo", after.memo - before.memo);
      rec->metrics.add("service.lane_runs.shifted",
                       after.shifted - before.shifted);
    }
    // Remove the batch from the queue, highest index first.
    std::vector<std::size_t> doomed = batch_indices;
    std::sort(doomed.begin(), doomed.end());
    for (auto it = doomed.rbegin(); it != doomed.rend(); ++it) {
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(*it));
    }
    lane_state_[l].busy = true;
    lane_state_[l].batch = std::move(b);
  }
  // A non-empty queue may only remain because every lane is occupied.
  PFAR_ENSURE(queue_.empty() ||
                  std::all_of(lane_state_.begin(), lane_state_.end(),
                              [](const LaneState& s) { return s.busy; }),
              queue_.size(), lane_state_.size());
}

void AllreduceService::finish_job(int job_id, long long cycle, int lane,
                                  int batch_jobs) {
  PFAR_REQUIRE(job_id >= 0 &&
                   job_id < static_cast<int>(records_.size()) &&
                   batch_jobs >= 1,
               job_id, records_.size(), batch_jobs);
  JobRecord& record = records_[static_cast<std::size_t>(job_id)];
  record.completed = true;
  record.finish_cycle = cycle;
  record.lane = lane;
  record.batch_jobs = batch_jobs;
  if (record.start_cycle < 0) record.start_cycle = cycle;
  if (obsv::Recorder* rec = config_.sim.recorder) {
    rec->metrics.add("service.jobs.completed");
    rec->metrics.observe(
        "service.sojourn_cycles",
        static_cast<double>(record.finish_cycle - record.admit_cycle));
  }
}

ServiceStats AllreduceService::stats() const {
  ServiceStats s;
  s.submitted = static_cast<int>(records_.size());
  s.batches = batches_;
  s.coalesced_jobs = coalesced_jobs_;
  s.total_flits = total_flits_;
  s.replayed_elements = replayed_elements_;
  s.values_correct = values_correct_;
  std::vector<long long> sojourns;
  for (const JobRecord& record : records_) {
    if (record.rejected) {
      ++s.rejected;
      continue;
    }
    if (record.admit_cycle >= 0) ++s.admitted;
    if (!record.completed) continue;
    ++s.completed;
    s.makespan_cycles = std::max(s.makespan_cycles, record.finish_cycle);
    sojourns.push_back(record.finish_cycle - record.admit_cycle);
  }
  if (!sojourns.empty()) {
    s.p50_cycles = obsv::nearest_rank(sojourns, 50);
    s.p99_cycles = obsv::nearest_rank(std::move(sojourns), 99);
  }
  if (s.makespan_cycles > 0) {
    s.jobs_per_kcycle = 1000.0 * static_cast<double>(s.completed) /
                        static_cast<double>(s.makespan_cycles);
    // Every directed link moves one flit per cycle.
    const double capacity =
        static_cast<double>(2 * plan_.topology().num_edges()) *
        static_cast<double>(s.makespan_cycles);
    s.utilization = static_cast<double>(s.total_flits) / capacity;
  }
  PFAR_ENSURE(s.admitted + s.rejected <= s.submitted && s.completed <= s.admitted,
              s.submitted, s.admitted, s.rejected, s.completed);
  return s;
}

}  // namespace pfar::service
