// Cross-validation of the three communication counts the project keeps for
// the same (task graph, distribution): the static CommPlan, the cluster
// simulator's SimResult, and the real runtime's measured wire counters.
// The paper's distribution-aware message analysis (§IV-A/§V-C) is only a
// falsifiable prediction if all three agree — these tests pin that down
// over a sweep of trees, distributions and tile shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "dag/partition.hpp"
#include "distrun/dist_exec.hpp"
#include "linalg/random_matrix.hpp"
#include "net/launcher.hpp"
#include "simcluster/simulator.hpp"
#include "trees/hqr_tree.hpp"

namespace hqr {
namespace {

struct Config {
  std::string name;
  int mt, nt;
  HqrConfig cfg;
  Distribution dist;
};

std::vector<Config> sweep() {
  const HqrConfig greedy_fib{4, 2, TreeKind::Greedy, TreeKind::Fibonacci,
                             true};
  const HqrConfig flat_bin{2, 1, TreeKind::Flat, TreeKind::Binary, false};
  const HqrConfig fib_greedy{3, 3, TreeKind::Fibonacci, TreeKind::Greedy,
                             true};
  return {
      {"2d grid, greedy/fibonacci", 8, 8, greedy_fib,
       Distribution::block_cyclic_2d(2, 2)},
      {"2d wide grid, flat/binary", 10, 6, flat_bin,
       Distribution::block_cyclic_2d(2, 3)},
      {"cyclic 1d, greedy/fibonacci", 12, 4, greedy_fib,
       Distribution::cyclic_1d(3)},
      {"block 1d, fibonacci/greedy", 12, 6, fib_greedy,
       Distribution::block_1d(4, 12)},
      {"tall skinny cyclic", 24, 2, greedy_fib, Distribution::cyclic_1d(5)},
      {"single node (no traffic)", 6, 6, greedy_fib,
       Distribution::cyclic_1d(1)},
  };
}

const BroadcastKind kKinds[] = {BroadcastKind::Eager, BroadcastKind::Binomial};

const char* kind_name(BroadcastKind k) {
  return k == BroadcastKind::Eager ? "eager" : "binomial";
}

// Static plan == simulated count, message for message and rank by rank,
// over the sweep — under both broadcast kinds.
TEST(CrossValidation, PlanMatchesSimulatorMessageCounts) {
  const int b = 32;
  for (const Config& c : sweep()) {
    for (BroadcastKind kind : kKinds) {
      SCOPED_TRACE(c.name + std::string(", ") + kind_name(kind));
      KernelList kernels = expand_to_kernels(
          hqr_elimination_list(c.mt, c.nt, c.cfg), c.mt, c.nt);
      TaskGraph graph(kernels, c.mt, c.nt);
      CommPlan plan(graph, c.dist, kind);

      SimOptions sopts;
      sopts.b = b;
      sopts.broadcast = kind;
      const SimResult sim =
          simulate_qr(graph, c.dist, c.mt * b, c.nt * b, sopts);
      EXPECT_EQ(plan.messages(), sim.messages);
      EXPECT_NEAR(plan.model_volume_bytes(b), sim.volume_gbytes * 1e9,
                  1e-6 * (plan.model_volume_bytes(b) + 1.0));
      ASSERT_EQ(static_cast<int>(sim.node_messages_sent.size()),
                plan.ranks());
      for (int r = 0; r < plan.ranks(); ++r) {
        EXPECT_EQ(sim.node_messages_sent[static_cast<std::size_t>(r)],
                  plan.sent_by(r))
            << "rank " << r;
        EXPECT_EQ(sim.node_messages_recv[static_cast<std::size_t>(r)],
                  plan.received_by(r))
            << "rank " << r;
      }
    }
  }
}

// The broadcast kind redistributes sends but never changes the totals:
// same messages, same receives per rank, and each task's forwarding lists
// partition its consumer set exactly.
TEST(CrossValidation, BroadcastKindsAgreeOnTotalsAndCoverage) {
  for (const Config& c : sweep()) {
    SCOPED_TRACE(c.name);
    KernelList kernels =
        expand_to_kernels(hqr_elimination_list(c.mt, c.nt, c.cfg), c.mt, c.nt);
    TaskGraph graph(kernels, c.mt, c.nt);
    CommPlan eager(graph, c.dist, BroadcastKind::Eager);
    CommPlan tree(graph, c.dist, BroadcastKind::Binomial);
    EXPECT_EQ(eager.messages(), tree.messages());
    for (int r = 0; r < eager.ranks(); ++r)
      EXPECT_EQ(eager.received_by(r), tree.received_by(r)) << "rank " << r;

    const int log2ceil = [&] {
      int lg = 0;
      while ((1 << lg) < eager.ranks()) ++lg;
      return lg;
    }();
    std::vector<int> recv_count(static_cast<std::size_t>(tree.ranks()));
    for (int t = 0; t < graph.size(); ++t) {
      const auto dests = tree.dests(t);
      std::fill(recv_count.begin(), recv_count.end(), 0);
      long long edges = 0;
      for (int r = 0; r < tree.ranks(); ++r) {
        const std::vector<std::int32_t> kids = tree.bcast_children(t, r);
        // No rank relays more than ceil(log2(group)) frames per broadcast —
        // the whole point of the tree.
        EXPECT_LE(static_cast<int>(kids.size()), log2ceil);
        for (std::int32_t k : kids) {
          ++recv_count[static_cast<std::size_t>(k)];
          ++edges;
        }
        // Non-members relay nothing.
        if (r != tree.node_of(t) &&
            !std::count(dests.begin(), dests.end(), r)) {
          EXPECT_TRUE(kids.empty());
        }
      }
      EXPECT_EQ(edges, static_cast<long long>(dests.size()));
      // Every consumer is reached exactly once; the producer never is.
      for (std::int32_t d : dests)
        EXPECT_EQ(recv_count[static_cast<std::size_t>(d)], 1);
      EXPECT_EQ(recv_count[static_cast<std::size_t>(tree.node_of(t))], 0);
    }
  }
}

TEST(CrossValidation, SingleNodePlanHasNoMessages) {
  const HqrConfig cfg{4, 2, TreeKind::Greedy, TreeKind::Fibonacci, true};
  KernelList kernels =
      expand_to_kernels(hqr_elimination_list(6, 6, cfg), 6, 6);
  TaskGraph graph(kernels, 6, 6);
  CommPlan plan(graph, Distribution::cyclic_1d(1));
  EXPECT_EQ(plan.messages(), 0);
  for (int t = 0; t < graph.size(); ++t) EXPECT_TRUE(plan.dests(t).empty());
}

// Per-rank plan bookkeeping is self-consistent: sends sum to the total, as
// do receives, and every task is owned by exactly one rank.
TEST(CrossValidation, PlanPerRankCountsAreConsistent) {
  for (const Config& c : sweep()) {
    for (BroadcastKind kind : kKinds) {
      SCOPED_TRACE(c.name + std::string(", ") + kind_name(kind));
      KernelList kernels = expand_to_kernels(
          hqr_elimination_list(c.mt, c.nt, c.cfg), c.mt, c.nt);
      TaskGraph graph(kernels, c.mt, c.nt);
      CommPlan plan(graph, c.dist, kind);
      long long sent = 0, recv = 0, tasks = 0;
      for (int r = 0; r < plan.ranks(); ++r) {
        sent += plan.sent_by(r);
        recv += plan.received_by(r);
        tasks += plan.tasks_on(r);
      }
      EXPECT_EQ(sent, plan.messages());
      EXPECT_EQ(recv, plan.messages());
      EXPECT_EQ(tasks, graph.size());
    }
  }
}

// The real runtime, executing over actual sockets, must measure exactly the
// traffic the plan (and therefore the simulator) predicts — rank by rank,
// under the broadcast kind all three are configured with.
int run_measured_case(int m, int n, int b, const HqrConfig& cfg,
                      const Distribution& dist, BroadcastKind kind,
                      const std::string& transport = "unix") {
  const auto rank_main = [&](net::Comm& comm) -> int {
    Rng rng(9);
    Matrix a = random_gaussian(m, n, rng);
    const TiledMatrix probe = TiledMatrix::from_matrix(a, b);
    EliminationList list = hqr_elimination_list(probe.mt(), probe.nt(), cfg);

    distrun::DistOptions opts;
    opts.progress_timeout_seconds = 60.0;
    opts.broadcast = kind;
    distrun::DistStats stats;
    QRFactors f = distrun::dist_qr_factorize(comm, a, b, list, dist, opts,
                                             &stats);
    (void)f;

    // Every rank checks its own wire counters against the plan.
    KernelList kernels = expand_to_kernels(list, probe.mt(), probe.nt());
    TaskGraph graph(kernels, probe.mt(), probe.nt());
    CommPlan plan(graph, dist, kind);
    const int me = comm.rank();
    if (stats.comm.data_messages_sent != plan.sent_by(me)) return 2;
    if (stats.comm.data_messages_recv != plan.received_by(me)) return 3;
    if (stats.local_tasks != plan.tasks_on(me)) return 4;
    if (me != 0) return 0;

    // Rank 0 additionally checks everything against the simulator.
    long long measured = 0;
    for (const distrun::DistRankStats& r : stats.ranks)
      measured += r.data_messages_sent;
    SimOptions sopts;
    sopts.b = b;
    sopts.broadcast = kind;
    const SimResult sim = simulate_qr(graph, dist, m, n, sopts);
    if (measured != sim.messages) return 5;
    if (measured != plan.messages()) return 6;
    for (int r = 0; r < dist.nodes(); ++r) {
      const auto ri = static_cast<std::size_t>(r);
      if (stats.ranks[ri].data_messages_sent != sim.node_messages_sent[ri])
        return 7;
      if (stats.ranks[ri].data_messages_recv != sim.node_messages_recv[ri])
        return 8;
    }
    return 0;
  };
  net::LaunchOptions lopts;
  lopts.timeout_seconds = 120.0;
  lopts.transport.kind = transport;
  return net::run_ranks(dist.nodes(), rank_main, lopts);
}

TEST(CrossValidation, MeasuredTrafficMatchesSimulator2DGrid) {
  for (BroadcastKind kind : kKinds) {
    SCOPED_TRACE(kind_name(kind));
    EXPECT_EQ(run_measured_case(
                  192, 192, 32,
                  HqrConfig{4, 2, TreeKind::Greedy, TreeKind::Fibonacci, true},
                  Distribution::block_cyclic_2d(2, 2), kind),
              0);
  }
}

TEST(CrossValidation, MeasuredTrafficMatchesSimulatorCyclic1D) {
  for (BroadcastKind kind : kKinds) {
    SCOPED_TRACE(kind_name(kind));
    EXPECT_EQ(run_measured_case(
                  288, 96, 32,
                  HqrConfig{4, 2, TreeKind::Greedy, TreeKind::Fibonacci, true},
                  Distribution::cyclic_1d(3), kind),
              0);
  }
}

TEST(CrossValidation, MeasuredTrafficMatchesSimulatorBlock1D) {
  EXPECT_EQ(run_measured_case(
                256, 128, 32,
                HqrConfig{2, 1, TreeKind::Flat, TreeKind::Binary, false},
                Distribution::block_1d(2, 8), BroadcastKind::Binomial),
            0);
}

TEST(CrossValidation, MeasuredTrafficMatchesSimulatorOverTcp) {
  EXPECT_EQ(run_measured_case(
                192, 192, 32,
                HqrConfig{4, 2, TreeKind::Greedy, TreeKind::Fibonacci, true},
                Distribution::block_cyclic_2d(2, 2),
                BroadcastKind::Binomial, "tcp"),
            0);
}

}  // namespace
}  // namespace hqr
