// Wire payloads of the distributed runtime: which bytes travel when a task
// completes, and how the end-of-run gather reassembles the factorization on
// rank 0.
//
// A completed task ships exactly the tile regions it wrote, plus the
// T factor it produced (factor kernels only) — never whole tiles it only
// partially owns. Region accuracy matters for correctness, not just
// volume: TSQRT writes only the upper triangle of its pivot tile, whose
// strict lower half may be concurrently read on the receiving rank by an
// already-released local task; shipping the full tile would race on bytes
// the producer never touched.
//
// Payload layout is derived on both ends from the producer's KernelOp (the
// graphs are rebuilt deterministically on every rank), so frames carry no
// region descriptors:
//
//   GEQRT (row,k)      : full A(row,k), T_geqrt(row,k)
//   UNMQR (row,k -> j) : full A(row,j)
//   TSQRT (piv,row,k)  : upper A(piv,k), full A(row,k), T_pencil(row,k)
//   TTQRT (piv,row,k)  : upper A(piv,k), upper A(row,k), T_pencil(row,k)
//   TSMQR (piv,row,j)  : full A(piv,j), full A(row,j)
//   TTMQR (piv,row,j)  : full A(piv,j), full A(row,j)
//
// full = b*b doubles (column-major), upper = b*(b+1)/2 doubles (columns of
// the triangle incl. diagonal), T = ib*b doubles (the factorization's ib x b
// T layout, kernels/ib_kernels.hpp). The T factor piggybacks on
// the A-region message because every consumer of a T has a direct RAW edge
// from its producer, so it is guaranteed to be on board the frame that
// releases the consumer.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/factorization.hpp"
#include "dag/partition.hpp"
#include "dag/task_graph.hpp"

namespace hqr::distrun {

// Monotone per-region writer versions of this rank's tile replica.
//
// Data frames from different producers share no FIFO: two ranks' streams
// can deliver same-region writers inverted, and a SentTileLog replay
// re-ships history arbitrarily late — seconds after newer writers of the
// same regions (remote frames or local kernels) already advanced the
// replica. The task graph totally orders every region's writers by task
// index, so an apply may only move a region FORWARD: a frame whose task is
// at or behind a region's gate keeps the newer bytes and skips that
// segment. Workers stamp their task's write regions at completion (before
// successors release, so anything newer is provably not yet running); the
// comm thread consults and advances gates on every Data apply.
class RegionGates {
 public:
  RegionGates(int mt, int nt)
      : mt_(mt), v_(2 * static_cast<std::size_t>(mt) * nt) {
    for (auto& g : v_) g.store(-1, std::memory_order_relaxed);
  }

  // True if `task` is newer than everything that wrote `region` so far;
  // advances the gate when it is.
  bool advance(std::int64_t region, std::int32_t task) {
    auto& g = v_[static_cast<std::size_t>(region)];
    std::int32_t cur = g.load(std::memory_order_acquire);
    while (cur < task)
      if (g.compare_exchange_weak(cur, task, std::memory_order_acq_rel))
        return true;
    return false;
  }

  // Worker-side: stamp every region `task`'s kernel writes.
  void bump_writes(const KernelOp& op, std::int32_t task);

 private:
  int mt_;
  std::vector<std::atomic<std::int32_t>> v_;
};

// Byte size of the payload `op` produces at tile size b and inner block ib
// (for frame validation).
std::size_t task_output_bytes(const KernelOp& op, int b, int ib);

// Appends the regions written by `op` (current contents of `f`) to `out`
// in the canonical order above, growing `out` once, by exactly
// task_output_bytes.
void pack_task_output(const KernelOp& op, const QRFactors& f,
                      std::vector<std::uint8_t>& out);

// Applies a received payload of `op` onto the local replica, region by
// region through `gates` (`task` is `op`'s graph index). Safe to call while
// workers run: every local task touching a region this frame still wins is
// either a graph ancestor of `op` (finished everywhere, or the frame could
// not exist) or a successor (not yet released); regions the gates reject
// are never written, so a late frame cannot race the newer local kernel
// that beat it. T factors apply unconditionally — each has exactly one
// writer ever (a row is factored once per column), so a frame that passed
// the seen-producer dedup is that writer's only delivery.
void apply_task_output(const KernelOp& op, QRFactors& f,
                       const std::vector<std::uint8_t>& payload,
                       RegionGates& gates, std::int32_t task);

// ---- End-of-run gather ---------------------------------------------------
//
// Both sides enumerate, in the same deterministic order, (a) every tile
// region whose last writer in the kernel list ran on `rank`, and (b) every
// T factor produced on `rank`. Rank r packs that set; rank 0 applies it.
// Regions never written stay at their initial value, which every rank's
// replica already holds.

// Byte size of `rank`'s gather payload.
std::size_t gather_bytes(const TaskGraph& graph, const CommPlan& plan,
                         int rank, const QRFactors& f);

// Appends everything `rank` must contribute to the final factorization to
// `out`, growing `out` once, by exactly gather_bytes.
void pack_gather(const TaskGraph& graph, const CommPlan& plan, int rank,
                 const QRFactors& f, std::vector<std::uint8_t>& out);

// Applies rank `rank`'s gather payload onto rank 0's replica.
void apply_gather(const TaskGraph& graph, const CommPlan& plan, int rank,
                  const std::vector<std::uint8_t>& payload, QRFactors& f);

}  // namespace hqr::distrun
