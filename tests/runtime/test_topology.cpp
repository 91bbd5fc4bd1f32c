// Topology detection and locality-aware stealing tests. Synthetic
// CpuTopology instances emulate multi-socket machines so the distance
// classes, victim ordering, and the executor's locality counters are
// exercised deterministically regardless of the host the tests run on.
#include "runtime/topology.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "linalg/random_matrix.hpp"
#include "runtime/executor.hpp"
#include "trees/hqr_tree.hpp"
#include "trees/single_level.hpp"

namespace hqr {
namespace {

TEST(ParseCpulist, SinglesRangesAndMixes) {
  EXPECT_EQ(parse_cpulist("0"), (std::vector<int>{0}));
  EXPECT_EQ(parse_cpulist("0-3"), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(parse_cpulist("0-2,8,10-11"),
            (std::vector<int>{0, 1, 2, 8, 10, 11}));
  EXPECT_EQ(parse_cpulist("5,7"), (std::vector<int>{5, 7}));
  // Trailing whitespace (sysfs lines end in '\n' before getline strips it).
  EXPECT_EQ(parse_cpulist("4 "), (std::vector<int>{4}));
}

TEST(ParseCpulist, MalformedInputsAreEmpty) {
  EXPECT_TRUE(parse_cpulist("").empty());
  EXPECT_TRUE(parse_cpulist("abc").empty());
  EXPECT_TRUE(parse_cpulist("3-1").empty());     // inverted range
  EXPECT_TRUE(parse_cpulist("1,,2").empty());    // empty token
  EXPECT_TRUE(parse_cpulist("0-999999").empty());  // absurd range guard
}

// Two packages, each with two 2-cpu LLC domains: cpus 0-3 on package 0
// (llc 0 and 2), cpus 4-7 on package 1 (llc 4 and 6).
CpuTopology two_socket_four_llc() {
  CpuTopology t;
  t.package = {0, 0, 0, 0, 1, 1, 1, 1};
  t.llc = {0, 0, 2, 2, 4, 4, 6, 6};
  return t;
}

TEST(WorkerTopology, DistanceClasses) {
  const WorkerTopology wt = WorkerTopology::build(two_socket_four_llc(), 8);
  ASSERT_EQ(wt.workers, 8);
  EXPECT_TRUE(wt.multi_domain);
  EXPECT_EQ(wt.dist(0, 0), 0);  // same cpu
  EXPECT_EQ(wt.dist(0, 1), 1);  // same llc
  EXPECT_EQ(wt.dist(0, 2), 2);  // same package, different llc
  EXPECT_EQ(wt.dist(0, 4), 3);  // remote package
  // Symmetry.
  for (int a = 0; a < 8; ++a)
    for (int b = 0; b < 8; ++b) EXPECT_EQ(wt.dist(a, b), wt.dist(b, a));
  // near() = shares the LLC.
  EXPECT_TRUE(wt.near(0, 1));
  EXPECT_TRUE(wt.near(3, 2));
  EXPECT_FALSE(wt.near(0, 2));
  EXPECT_FALSE(wt.near(0, 7));
}

TEST(WorkerTopology, VictimOrderIsNearestFirstAndComplete) {
  const WorkerTopology wt = WorkerTopology::build(two_socket_four_llc(), 8);
  for (int a = 0; a < 8; ++a) {
    const std::vector<int>& order = wt.victim_order[a];
    ASSERT_EQ(order.size(), 7u) << "lane " << a;
    // Every other lane appears exactly once, self never.
    std::vector<bool> seen(8, false);
    for (int v : order) {
      ASSERT_GE(v, 0);
      ASSERT_LT(v, 8);
      EXPECT_NE(v, a);
      EXPECT_FALSE(seen[v]);
      seen[v] = true;
    }
    // Distances are non-decreasing along the sweep.
    for (std::size_t i = 1; i < order.size(); ++i)
      EXPECT_LE(wt.dist(a, order[i - 1]), wt.dist(a, order[i]))
          << "lane " << a << " position " << i;
  }
  // Lane 0's nearest victim shares its LLC.
  EXPECT_EQ(wt.victim_order[0].front(), 1);
}

TEST(WorkerTopology, MoreWorkersThanCpusWrapsRoundRobin) {
  // 12 lanes on 8 cpus: lanes 0 and 8 land on the same cpu -> distance 0.
  const WorkerTopology wt = WorkerTopology::build(two_socket_four_llc(), 12);
  EXPECT_EQ(wt.dist(0, 8), 0);
  EXPECT_EQ(wt.dist(1, 9), 0);
  EXPECT_EQ(wt.dist(0, 4), 3);
  EXPECT_EQ(wt.victim_order[0].front(), 8);  // own-cpu lane sorts first
}

TEST(WorkerTopology, SingleDomainIsNotMultiDomain) {
  CpuTopology flat;
  flat.package = {0, 0, 0, 0};
  flat.llc = {0, 0, 0, 0};
  const WorkerTopology wt = WorkerTopology::build(flat, 4);
  EXPECT_FALSE(wt.multi_domain);
  for (int a = 0; a < 4; ++a)
    for (int b = 0; b < 4; ++b) {
      if (a != b) {
        EXPECT_EQ(wt.dist(a, b), 1);
      }
    }
}

TEST(WorkerTopology, DegenerateWorkerCounts) {
  const WorkerTopology one = WorkerTopology::build(two_socket_four_llc(), 1);
  EXPECT_EQ(one.workers, 1);
  EXPECT_FALSE(one.multi_domain);
  ASSERT_EQ(one.victim_order.size(), 1u);
  EXPECT_TRUE(one.victim_order[0].empty());
  const WorkerTopology zero = WorkerTopology::build(two_socket_four_llc(), 0);
  EXPECT_EQ(zero.workers, 0);
}

TEST(CpuTopologyDetect, ProducesConsistentArrays) {
  // On any host (including containers without sysfs) detection must return
  // parallel arrays covering every cpu with sane domain ids.
  const CpuTopology topo = CpuTopology::detect();
  ASSERT_GE(topo.cpus(), 1);
  ASSERT_EQ(topo.package.size(), topo.llc.size());
  for (int c = 0; c < topo.cpus(); ++c) {
    EXPECT_GE(topo.package[c], 0);
    EXPECT_GE(topo.llc[c], 0);
  }
}

// ---- Executor integration: locality counters and injected topologies ----

RunStats run_small_factorization(const ExecutorOptions& opts) {
  Rng rng(321);
  Matrix a0 = random_gaussian(48, 24, rng);
  HqrConfig cfg{3, 2, TreeKind::Greedy, TreeKind::Fibonacci, true};
  RunStats stats;
  qr_factorize_parallel(a0, 4, hqr_elimination_list(12, 6, cfg), opts,
                        &stats);
  return stats;
}

TEST(LocalityStealing, EveryQueuePopIsClassified) {
  // With an injected topology every acquired task is either a locality hit
  // or a miss — the split partitions queue_pops exactly.
  const WorkerTopology wt = WorkerTopology::build(two_socket_four_llc(), 4);
  ExecutorOptions opts;
  opts.threads = 4;
  opts.topology = &wt;
  const RunStats stats = run_small_factorization(opts);
  EXPECT_GT(stats.total_tasks, 0);
  EXPECT_EQ(stats.locality_hits + stats.locality_misses, stats.queue_pops);
  const double rate = stats.locality_hit_rate();
  EXPECT_GE(rate, 0.0);
  EXPECT_LE(rate, 1.0);
}

TEST(LocalityStealing, DisabledMeansNoAccounting) {
  ExecutorOptions opts;
  opts.threads = 4;
  opts.locality_stealing = false;
  const RunStats stats = run_small_factorization(opts);
  EXPECT_EQ(stats.locality_hits, 0);
  EXPECT_EQ(stats.locality_misses, 0);
  EXPECT_EQ(stats.locality_hit_rate(), 0.0);
}

TEST(LocalityStealing, MismatchedTopologyIsIgnored) {
  // A topology built for a different worker count cannot be used; the run
  // must still complete (plain randomized stealing, no counters).
  const WorkerTopology wt = WorkerTopology::build(two_socket_four_llc(), 8);
  ExecutorOptions opts;
  opts.threads = 4;
  opts.topology = &wt;
  const RunStats stats = run_small_factorization(opts);
  EXPECT_GT(stats.total_tasks, 0);
  EXPECT_EQ(stats.locality_hits, 0);
  EXPECT_EQ(stats.locality_misses, 0);
}

TEST(LocalityStealing, ResultsMatchPlainStealingBitwise) {
  // Victim ordering changes the schedule, never the numbers: kernels on
  // disjoint tiles commute exactly (same invariant the scheduler
  // equivalence suite pins for steal-vs-global).
  Rng rng(654);
  Matrix a0 = random_gaussian(40, 20, rng);
  auto list = hqr_elimination_list(
      10, 5, HqrConfig{2, 2, TreeKind::Binary, TreeKind::Flat, true});
  const WorkerTopology wt = WorkerTopology::build(two_socket_four_llc(), 4);
  ExecutorOptions with;
  with.threads = 4;
  with.topology = &wt;
  ExecutorOptions without;
  without.threads = 4;
  without.locality_stealing = false;
  Matrix r_with = extract_r(qr_factorize_parallel(a0, 4, list, with));
  Matrix r_without = extract_r(qr_factorize_parallel(a0, 4, list, without));
  EXPECT_EQ(max_abs_diff(r_with.view(), r_without.view()), 0.0);
}

TEST(LocalityStealing, SingleThreadHasNoLocalityMachinery) {
  ExecutorOptions opts;
  opts.threads = 1;
  const RunStats stats = run_small_factorization(opts);
  EXPECT_GT(stats.total_tasks, 0);
  EXPECT_EQ(stats.locality_hits, 0);
  EXPECT_EQ(stats.locality_misses, 0);
}

}  // namespace
}  // namespace hqr
