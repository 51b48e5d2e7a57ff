#pragma once

#include <cstdint>
#include <vector>

namespace pfar::perfbench {

/// Runs the fixed reference kernel once (well under a millisecond on a
/// current x86 core) and returns a checksum so the work cannot be elided.
std::uint64_t calib_kernel();

/// One kernel run taken during a unit: when it started (thread CPU
/// seconds) and how long it took.
struct KernelSample {
  double start_s = 0.0;
  double seconds = 0.0;
};

/// Starts running calib_kernel from a SIGPROF handler every `interval_us`
/// of this process's CPU time, recording each run, so host speed is
/// sampled during a long unit and not only around it. The handler touches
/// only the kernel's own table and a fixed sample buffer.
void start_sampling(int interval_us);

/// Stops sampling and returns the samples taken since start_sampling.
std::vector<KernelSample> stop_sampling();

}  // namespace pfar::perfbench
