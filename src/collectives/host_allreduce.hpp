#pragma once

#include <cstdint>
#include <vector>

#include "collectives/routed.hpp"

namespace pfar::collectives {

/// Host-based Allreduce baselines (Section 4.2): the algorithms the paper
/// contrasts in-network computing against. Each algorithm is expressed
/// once over an abstract transport; a recording transport yields the
/// communication schedule (for routed alpha-beta costing) and an executing
/// transport moves real data (for exact correctness verification).
enum class HostAlgorithm {
  kRing,               // bandwidth-optimal reduce-scatter + all-gather ring
  kRecursiveDoubling,  // latency-optimal full-vector exchanges
  kHalvingDoubling,    // Rabenseifner reduce-scatter + all-gather
};

/// Transport abstraction: `transfer` moves the current contents of
/// rank src's vector range [lo, hi) to rank dst (accumulating when
/// `reduce`, overwriting otherwise); `next_round` marks a synchronization
/// boundary. Ranks are logical 0..p-1.
class Transport {
 public:
  virtual void transfer(int src_rank, int dst_rank, long long lo,
                        long long hi, bool reduce) = 0;
  virtual void next_round() = 0;

 protected:
  // Transports are passed by reference and never deleted through a
  // Transport pointer.
  ~Transport() = default;
};

/// Runs the chosen algorithm's communication pattern for p ranks and an
/// m-element vector over the given transport.
void run_host_allreduce(HostAlgorithm algo, int p, long long m,
                        Transport& transport);

/// Records the schedule, mapping logical ranks to physical nodes via
/// `placement` (rank r lives on node placement[r]).
class ScheduleRecorder : public Transport {
 public:
  explicit ScheduleRecorder(std::vector<int> placement);
  void transfer(int src_rank, int dst_rank, long long lo, long long hi,
                bool reduce) override;
  void next_round() override;
  /// Finalized schedule (trailing empty rounds dropped).
  std::vector<Round> take_schedule();

 private:
  std::vector<int> placement_;
  std::vector<Round> rounds_;
};

/// Executes the data movement on real int64 vectors and verifies that
/// every rank ends with the exact elementwise sum. Intended for small m.
class DataExecutor : public Transport {
 public:
  DataExecutor(int p, long long m);
  void transfer(int src_rank, int dst_rank, long long lo, long long hi,
                bool reduce) override;
  /// Applies all transfers staged this round (synchronous-round semantics:
  /// every transfer reads pre-round source state).
  void next_round() override;
  /// True iff all p vectors equal the expected reduction.
  bool verify() const;

 private:
  struct Pending {
    int dst = 0;
    long long lo = 0;
    bool reduce = false;
    std::vector<std::int64_t> payload;
  };

  int p_;
  long long m_;
  std::vector<std::vector<std::int64_t>> data_;
  std::vector<Pending> pending_;
};

/// Convenience: schedule + routed cost + (small-m) correctness in one call.
struct HostAllreduceResult {
  ScheduleCost cost;
  bool correct = false;
};

HostAllreduceResult run_host_baseline(HostAlgorithm algo,
                                      const RoutedNetwork& net,
                                      const std::vector<int>& placement,
                                      long long m, double alpha, double beta,
                                      long long verify_m = 64);

}  // namespace pfar::collectives
