// Empirical micro-kernel autotuner.
//
// Searches the runtime-dispatchable micro-kernel variants x GEMM cache
// blocking by timing the tile kernel that dominates DAG execution (TSMQR
// carries weight 12 of the paper's flop budget) on this machine at the
// requested (b, ib). The winner feeds the persistent per-host cache
// (linalg/kernel_tuning.hpp) consumed automatically at startup; the
// `hqr_tune` tool is the CLI driver.
#pragma once

#include <functional>
#include <string>

#include "linalg/kernel_tuning.hpp"

namespace hqr {

struct TuneOptions {
  int b = 280;             // tile size to tune for
  int ib = 32;             // inner block of the timed kernel, in [1, b]
  double min_time = 0.02;  // seconds of measurement per candidate
  // Progress sink (candidate description + GFlop/s); null = silent.
  std::function<void(const std::string&, double)> report;
};

// Runs the search and returns the best configuration for this host (cpu id
// filled in). Restores the process-wide kernel/blocking state it mutates
// while measuring.
KernelTuning tune_kernels(const TuneOptions& opts);

}  // namespace hqr
