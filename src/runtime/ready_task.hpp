// Ready-task heap entry shared by the single-DAG engine's overflow heap
// (runtime/executor.cpp) and the multi-DAG pool (runtime/dag_pool.cpp),
// which order ready tasks the same way — max-heap by critical-path
// priority, FIFO-ish tiebreak on task index.
#pragma once

#include <cstdint>

namespace hqr {

struct ReadyTask {
  double priority;
  std::int32_t idx;

  bool operator<(const ReadyTask& o) const {
    if (priority != o.priority) return priority < o.priority;
    return idx > o.idx;
  }
};

}  // namespace hqr
