// Batched small problems: a SubmitBatch's independent small QRs run as one
// DAG on the shared worker pool, one task per problem and no edges.
//
// Task p tiles problem p, expands its kernel list, runs that list in order
// on the worker's TileWorkspace and keeps only R: the problem's tiles and T
// factors die with the task. The problems are independent, so splitting a
// problem of a few tiles into tile tasks would add no parallelism the
// batch's other problems do not already give, and would pay the pool's
// scheduling once per microsecond-sized kernel instead of once per problem.
// The price is that each problem runs on one worker: a problem that needs
// parallelism inside itself belongs in a SubmitQR.
//
// R is bit-identical to qr_factorize_sequential's: both run the problem's
// kernel list in list order.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/factorization.hpp"
#include "dag/task_graph.hpp"
#include "serve/protocol.hpp"

namespace hqr::serve {

class FusedBatch {
 public:
  // All problems share tile size b, inner block ib and tree choice, so one
  // per-worker workspace of size b serves every task. Throws hqr::Error on
  // an empty batch or an ib outside [0, b]; shapes are expected to be
  // pre-validated (validate_shape).
  FusedBatch(std::vector<Matrix> problems, int b, TreeChoice tree, int ib);

  std::size_t size() const { return problems_.size(); }
  int b() const { return b_; }

  // size() independent tasks: task p factors problem p.
  const std::shared_ptr<const TaskGraph>& graph() const { return graph_; }

  // Factors problem `idx` and stores its R. Thread-safe for concurrent
  // distinct indices.
  void execute(std::int32_t idx, TileWorkspace& ws);

  // R of problem p, and of every problem in order; valid once the
  // problem's task has executed.
  const Matrix& r(std::size_t p) const;
  const std::vector<Matrix>& rs() const { return rs_; }

 private:
  std::vector<Matrix> problems_;
  std::vector<Matrix> rs_;
  int b_;
  TreeChoice tree_;
  int ib_;
  std::shared_ptr<const TaskGraph> graph_;
};

}  // namespace hqr::serve
