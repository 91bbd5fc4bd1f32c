// End-to-end QR-as-a-service tests: a real server on a loopback socket,
// real clients, and bit-identity against the in-process paths.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/factorization.hpp"
#include "core/incremental_tsqr.hpp"
#include "linalg/norms.hpp"
#include "linalg/random_matrix.hpp"
#include "runtime/dag_pool.hpp"
#include "serve/batch.hpp"
#include "serve/client.hpp"
#include "trees/elimination.hpp"

namespace hqr::serve {
namespace {

ClientOptions client_opts(const Server& server) {
  ClientOptions c;
  c.port = server.port();
  return c;
}

Matrix sequential_r(const Matrix& a, int b, TreeChoice tree, int ib = 0) {
  const int mt = TiledMatrix::tile_count(a.rows(), b);
  const int nt = TiledMatrix::tile_count(a.cols(), b);
  return extract_r(
      qr_factorize_sequential(a, b, elimination_for(tree, mt, nt), ib));
}

// Same shape and the same doubles, bit for bit.
bool same_bits(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.storage().data(), y.storage().data(),
                     x.storage().size() * sizeof(double)) == 0;
}

TEST(Serve, EightConcurrentRequestsBitIdentical) {
  ServerOptions sopts;
  sopts.threads = 1;
  Server server(sopts);
  Client client(client_opts(server));

  // Hold the pool's one worker on a plug task of the test's own until all
  // eight requests are admitted, the way DagPool.EightConcurrentDagsOnOnePool
  // gates its roots. No request task can run before the release, so no
  // request can finish before the eighth is admitted, however fast the
  // kernels are. The plug is a DAG on the same pool, so every active-DAG
  // count below includes it: eight requests admitted together make 1 + 8.
  std::promise<void> plug_started;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  DagPool& pool = server.pool_for_testing();
  const DagId plug = pool.submit(
      std::make_shared<const TaskGraph>(
          expand_to_kernels(elimination_for(TreeChoice::FlatTs, 1, 1), 1, 1),
          1, 1),
      8, [&plug_started, released](std::int32_t, TileWorkspace&) {
        plug_started.set_value();
        released.wait();
      });
  plug_started.get_future().wait();

  // Eight pipelined requests of different shapes, tile sizes and trees on
  // one connection: all in flight concurrently on the one shared pool.
  struct Req {
    Matrix a;
    int b;
    TreeChoice tree;
    std::int32_t id;
  };
  Rng rng(31);
  const TreeChoice trees[] = {TreeChoice::FlatTs, TreeChoice::Binary,
                              TreeChoice::Greedy, TreeChoice::Fibonacci};
  std::vector<Req> reqs;
  for (int i = 0; i < 8; ++i) {
    Req r;
    r.a = random_gaussian(512 + 32 * (7 - i), 256, rng);
    r.b = (i % 2 == 0) ? 32 : 16;
    r.tree = trees[i % 4];
    r.id = client.submit_qr_async(r.a, r.b, 0, r.tree, /*priority=*/i + 1);
    reqs.push_back(std::move(r));
  }
  // Admission happens on the server's reader thread: wait for the plug plus
  // all eight requests to be active, then let the worker go.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (server.status().active_dags < 1 + 8 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const std::int64_t admitted_with_plug = server.status().active_dags;
  release.set_value();
  EXPECT_TRUE(pool.wait(plug));
  EXPECT_EQ(admitted_with_plug, 1 + 8)
      << "requests active together before the release, plus the plug";
  // Wait in reverse submission order to exercise out-of-order buffering.
  for (int i = 7; i >= 0; --i) {
    QROutcome res = client.wait_result(reqs[i].id);
    Matrix want = sequential_r(reqs[i].a, reqs[i].b, reqs[i].tree);
    EXPECT_EQ(max_abs_diff(want.view(), res.r.view()), 0.0) << "request " << i;
    EXPECT_FALSE(res.has_q);
  }
  // All eight really were admitted to the pool together: the watermark,
  // less the plug it also counts, reaches eight.
  EXPECT_GE(server.status().max_active_dags - 1, 8);
  server.stop();
}

TEST(Serve, ConcurrentClientsEachGetTheirOwnAnswer) {
  ServerOptions sopts;
  sopts.threads = 4;
  Server server(sopts);

  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::vector<std::string> failures(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        Rng rng(100 + c);
        Client client(client_opts(server));
        for (int rep = 0; rep < 3; ++rep) {
          Matrix a = random_gaussian(40 + 8 * c, 24, rng);
          QROutcome res = client.submit_qr(a, 8);
          Matrix want = sequential_r(a, 8, TreeChoice::FlatTs);
          if (max_abs_diff(want.view(), res.r.view()) != 0.0)
            failures[c] = "R mismatch";
        }
      } catch (const std::exception& e) {
        failures[c] = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) EXPECT_EQ(failures[c], "") << "client " << c;
  server.stop();
}

TEST(Serve, WantQReturnsUsableFactorization) {
  ServerOptions sopts;
  sopts.threads = 2;
  Server server(sopts);
  Client client(client_opts(server));

  Rng rng(37);
  Matrix a = random_gaussian(36, 20, rng);
  QROutcome res = client.submit_qr(a, 8, 0, TreeChoice::Binary, 0,
                                   /*want_q=*/true);
  ASSERT_TRUE(res.has_q);
  EXPECT_EQ(res.q.rows(), 36);
  EXPECT_EQ(res.q.cols(), 20);
  EXPECT_LT(orthogonality_error(res.q.view()), 1e-12);
  EXPECT_LT(factorization_residual(a.view(), res.q.view(), res.r.view()),
            1e-12);
  server.stop();
}

TEST(Serve, BatchedSmallProblemsBitIdentical) {
  ServerOptions sopts;
  sopts.threads = 4;
  Server server(sopts);
  Client client(client_opts(server));

  Rng rng(41);
  std::vector<Matrix> problems;
  for (int p = 0; p < 64; ++p)
    problems.push_back(random_gaussian(8 + p % 9, 4 + p % 5, rng));
  // Wide problems (n > m), a 1x1 and one exactly one tile in size.
  for (int p = 0; p < 8; ++p)
    problems.push_back(random_gaussian(1 + p % 4, 5 + p % 6, rng));
  problems.push_back(random_gaussian(1, 1, rng));
  problems.push_back(random_gaussian(4, 4, rng));
  // The same batch at the default inner block, at ib = 1 and at ib = b.
  const int b = 4;
  const int ibs[] = {0, 1, b};
  for (int ib : ibs) {
    std::vector<Matrix> rs = client.submit_batch(problems, b, ib);
    ASSERT_EQ(rs.size(), problems.size());
    for (std::size_t p = 0; p < problems.size(); ++p)
      EXPECT_TRUE(same_bits(rs[p],
                            sequential_r(problems[p], b, TreeChoice::FlatTs, ib)))
          << "problem " << p << " at ib " << ib;
  }
  ServerStatus st = server.status();
  EXPECT_EQ(st.batches_accepted, 3);
  EXPECT_EQ(st.batch_problems, 3 * static_cast<long long>(problems.size()));
  server.stop();
}

TEST(Serve, FusedBatchIsOneIndependentTaskPerProblem) {
  Rng rng(43);
  const int b = 4;
  const int ib = 2;
  std::vector<Matrix> problems;
  for (int p = 0; p < 40; ++p)
    problems.push_back(random_gaussian(1 + p % 13, 1 + p % 7, rng));
  std::vector<Matrix> want;
  for (const Matrix& a : problems)
    want.push_back(sequential_r(a, b, TreeChoice::Greedy, ib));

  // No task depends on another, so the reverse of the graph's order is a
  // valid schedule too.
  FusedBatch reversed(problems, b, TreeChoice::Greedy, ib);
  ASSERT_EQ(reversed.size(), problems.size());
  ASSERT_EQ(reversed.graph()->size(), static_cast<int>(problems.size()));
  EXPECT_EQ(reversed.graph()->num_edges(), 0);
  TileWorkspace ws(b);
  for (int idx = reversed.graph()->size() - 1; idx >= 0; --idx)
    reversed.execute(idx, ws);

  FusedBatch pooled(problems, b, TreeChoice::Greedy, ib);
  {
    DagPoolOptions popts;
    popts.threads = 4;
    DagPool pool(popts);
    const DagId id = pool.submit(
        pooled.graph(), pooled.b(),
        [&pooled](std::int32_t idx, TileWorkspace& w) {
          pooled.execute(idx, w);
        });
    ASSERT_TRUE(pool.wait(id));
  }

  for (std::size_t p = 0; p < problems.size(); ++p) {
    EXPECT_TRUE(same_bits(reversed.r(p), want[p])) << "reversed, problem " << p;
    EXPECT_TRUE(same_bits(pooled.r(p), want[p])) << "pooled, problem " << p;
  }
}

TEST(Serve, BatchYieldsToARequestOfTheSamePriority) {
  ServerOptions sopts;
  sopts.threads = 1;
  Server server(sopts);
  Client qr_client(client_opts(server));
  Client batch_client(client_opts(server));

  // Hold the pool's one worker on a plug (as in
  // EightConcurrentRequestsBitIdentical) until a batch and then a SubmitQR
  // of the same priority are both admitted.
  std::promise<void> plug_started;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  DagPool& pool = server.pool_for_testing();
  const DagId plug = pool.submit(
      std::make_shared<const TaskGraph>(
          expand_to_kernels(elimination_for(TreeChoice::FlatTs, 1, 1), 1, 1),
          1, 1),
      8, [&plug_started, released](std::int32_t, TileWorkspace&) {
        plug_started.set_value();
        released.wait();
      });
  plug_started.get_future().wait();
  const auto wait_active = [&](std::int64_t n) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (server.status().active_dags < n &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return server.status().active_dags;
  };

  Rng rng(47);
  const std::vector<Matrix> problems = {random_gaussian(24, 16, rng)};
  std::future<std::vector<Matrix>> batch = std::async(
      std::launch::async, [&] { return batch_client.submit_batch(problems, 8); });
  ASSERT_EQ(wait_active(2), 2);
  const Matrix a = random_gaussian(512, 256, rng);
  const std::int32_t id = qr_client.submit_qr_async(a, 32);
  ASSERT_EQ(wait_active(3), 3);
  release.set_value();
  EXPECT_TRUE(pool.wait(plug));

  // The batch was admitted first, yet every task of the request runs before
  // the batch's one task: the request has completed when the batch replies.
  ASSERT_EQ(batch.get().size(), 1u);
  EXPECT_EQ(server.status().requests_completed, 2);
  EXPECT_EQ(max_abs_diff(sequential_r(a, 32, TreeChoice::FlatTs).view(),
                         qr_client.wait_result(id).r.view()),
            0.0);
  server.stop();
}

TEST(Serve, StreamingTsqrMatchesInProcess) {
  ServerOptions sopts;
  sopts.threads = 2;
  Server server(sopts);
  Client client(client_opts(server));

  const int n = 12, b = 4;
  Rng rng(43);
  IncrementalTSQR local(n, b);
  std::int32_t stream = client.stream_open(n, b);
  for (int blk = 0; blk < 5; ++blk) {
    Matrix rows = random_gaussian(3 + blk * 2, n, rng);
    client.stream_append(stream, rows);
    local.add_rows(rows);
    // Interleaved queries: the running R matches the local reduction
    // bit for bit (same kernel sequence on both sides).
    Matrix remote_r = client.stream_query(stream);
    Matrix local_r = local.r();
    EXPECT_EQ(max_abs_diff(local_r.view(), remote_r.view()), 0.0)
        << "after block " << blk;
  }
  Matrix final_r = client.stream_close(stream);
  EXPECT_EQ(max_abs_diff(local.r().view(), final_r.view()), 0.0);
  // Closed stream: further ops answer UnknownStream.
  try {
    client.stream_query(stream);
    FAIL() << "expected UnknownStream";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::UnknownStream);
  }
  server.stop();
}

TEST(Serve, ValidationErrorsAreTypedAndNonFatal) {
  ServerOptions sopts;
  sopts.threads = 2;
  Server server(sopts);
  Client client(client_opts(server));

  auto expect_code = [&](ErrorCode want, auto&& fn) {
    try {
      fn();
      FAIL() << "expected " << error_code_name(want);
    } catch (const ServeError& e) {
      EXPECT_EQ(e.code(), want) << e.message();
    }
  };
  Rng rng(47);
  Matrix a = random_gaussian(8, 8, rng);
  expect_code(ErrorCode::BadDimensions,
              [&] { client.submit_qr(Matrix(0, 4), 4); });
  expect_code(ErrorCode::BadTileSize, [&] { client.submit_qr(a, 0); });
  expect_code(ErrorCode::BadInnerBlock, [&] { client.submit_qr(a, 4, 5); });
  expect_code(ErrorCode::BadInnerBlock, [&] { client.submit_qr(a, 4, -1); });
  expect_code(ErrorCode::BadBatch, [&] { client.submit_batch({}, 4); });
  expect_code(ErrorCode::UnknownStream,
              [&] { client.stream_append(999, a); });

  // The connection and the server survived every rejection.
  QROutcome res = client.submit_qr(a, 4);
  Matrix want = sequential_r(a, 4, TreeChoice::FlatTs);
  EXPECT_EQ(max_abs_diff(want.view(), res.r.view()), 0.0);
  // ib == b (one panel per tile) is a valid request.
  QROutcome one_panel = client.submit_qr(a, 4, 4);
  Matrix want4 = sequential_r(a, 4, TreeChoice::FlatTs, 4);
  EXPECT_EQ(max_abs_diff(want4.view(), one_panel.r.view()), 0.0);
  EXPECT_EQ(server.status().requests_rejected, 6);
  server.stop();
}

TEST(Serve, OversizedRequestsRejectedAtProtocolLayer) {
  ServerOptions sopts;
  sopts.threads = 2;
  sopts.limits.max_elements = 256;        // tiny: 16x16 doubles
  sopts.limits.max_payload_bytes = 8192;  // and a tiny frame cap
  Server server(sopts);
  Client client(client_opts(server));

  Rng rng(53);
  // Over max_elements but under the frame cap: typed TooLarge from shape
  // validation.
  try {
    client.submit_qr(random_gaussian(20, 20, rng), 4);
    FAIL() << "expected TooLarge";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::TooLarge);
  }
  // A tiny matrix with a huge tile size: the PADDED shape (b x b for a
  // 2x2 at b=1024) busts the element cap — rejected before the server
  // sizes anything by b.
  try {
    client.submit_qr(random_gaussian(2, 2, rng), 1024);
    FAIL() << "expected TooLarge";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::TooLarge);
  }
  // Same for a stream open whose padded triangle explodes.
  try {
    client.stream_open(2, 1024);
    FAIL() << "expected TooLarge";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::TooLarge);
  }
  // Over the frame cap: the server drains the payload without allocating
  // it and the connection keeps working.
  try {
    client.submit_qr(random_gaussian(64, 64, rng), 4);
    FAIL() << "expected TooLarge";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::TooLarge);
  }
  Matrix a = random_gaussian(12, 12, rng);
  QROutcome res = client.submit_qr(a, 4);
  EXPECT_EQ(max_abs_diff(sequential_r(a, 4, TreeChoice::FlatTs).view(),
                         res.r.view()),
            0.0);
  server.stop();
}

TEST(Serve, CancelResolvesEitherWay) {
  ServerOptions sopts;
  sopts.threads = 2;
  Server server(sopts);
  Client client(client_opts(server));

  Rng rng(59);
  Matrix a = random_gaussian(256, 128, rng);
  std::int32_t id = client.submit_qr_async(a, 8);
  client.cancel(id);
  // Either the cancel won (typed Cancelled) or the result beat it — both
  // are valid; the request must resolve promptly either way.
  try {
    QROutcome res = client.wait_result(id);
    EXPECT_EQ(max_abs_diff(sequential_r(a, 8, TreeChoice::FlatTs).view(),
                           res.r.view()),
              0.0);
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::Cancelled);
  }
  // Cancelling a never-issued id is a typed UnknownRequest.
  client.cancel(9999);
  try {
    client.wait_result(9999);
    FAIL() << "expected UnknownRequest";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::UnknownRequest);
  }
  server.stop();
}

TEST(Serve, DeadConnectionsAreReaped) {
  ServerOptions sopts;
  sopts.threads = 1;
  Server server(sopts);
  Client probe(client_opts(server));

  Rng rng(67);
  for (int i = 0; i < 3; ++i) {
    Client c(client_opts(server));
    Matrix a = random_gaussian(16, 8, rng);
    c.submit_qr(a, 4);
  }  // each client's destructor closes its connection

  // The accept thread reaps dead sessions between accepts (every <= 200ms);
  // within a bounded time only the probe connection remains, so a
  // long-running server cannot accumulate one fd per connection ever made.
  ServerStatus st = server.status();
  for (int tries = 0; tries < 100 && st.open_sessions > 1; ++tries) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    st = server.status();
  }
  EXPECT_EQ(st.open_sessions, 1);

  // The surviving connection still works.
  Matrix a = random_gaussian(12, 12, rng);
  QROutcome res = probe.submit_qr(a, 4);
  EXPECT_EQ(max_abs_diff(sequential_r(a, 4, TreeChoice::FlatTs).view(),
                         res.r.view()),
            0.0);
  server.stop();
}

TEST(Serve, ShutdownDrainsInFlightWork) {
  ServerOptions sopts;
  sopts.threads = 2;
  auto server = std::make_unique<Server>(sopts);
  Client client(client_opts(*server));

  Rng rng(61);
  Matrix a = random_gaussian(128, 64, rng);
  std::int32_t id = client.submit_qr_async(a, 8);
  client.shutdown_server();  // Bye acknowledged
  server->wait();            // unblocked by the Shutdown request
  server->stop();            // drains the in-flight DAG, flushes the result
  QROutcome res = client.wait_result(id);
  EXPECT_EQ(max_abs_diff(sequential_r(a, 8, TreeChoice::FlatTs).view(),
                         res.r.view()),
            0.0);
  server.reset();
}

TEST(Serve, PerTenantLimitRejectsTypedOverloaded) {
  ServerOptions sopts;
  sopts.threads = 1;
  sopts.limits.max_inflight_per_tenant = 1;
  Server server(sopts);

  ClientOptions copts = client_opts(server);
  copts.tenant = 7;
  Client client(copts);

  Rng rng(71);
  // One slow request holds tenant 7's single slot: a single worker and
  // >100ms of kernel work keep it in flight while the follow-ups (decoded
  // on the same session thread, microseconds later) hit the limit.
  Matrix big = random_gaussian(512, 512, rng);
  std::int32_t slow = client.submit_qr_async(big, 16);

  Matrix small = random_gaussian(24, 24, rng);
  std::int32_t refused = client.submit_qr_async(small, 8);
  try {
    (void)client.wait_result(refused);
    FAIL() << "second in-flight submit for the tenant must be refused";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::Overloaded);
  }

  // Another tenant is unaffected by tenant 7's limit.
  ClientOptions other = client_opts(server);
  other.tenant = 8;
  Client client2(other);
  QROutcome ores = client2.submit_qr(small, 8);
  EXPECT_EQ(max_abs_diff(sequential_r(small, 8, TreeChoice::FlatTs).view(),
                         ores.r.view()),
            0.0);

  // The refusal is backpressure, not failure: once the slot frees, the
  // same tenant's next submit succeeds.
  QROutcome sres = client.wait_result(slow);
  EXPECT_EQ(max_abs_diff(sequential_r(big, 16, TreeChoice::FlatTs).view(),
                         sres.r.view()),
            0.0);
  QROutcome retry = client.submit_qr(small, 8);
  EXPECT_EQ(max_abs_diff(sequential_r(small, 8, TreeChoice::FlatTs).view(),
                         retry.r.view()),
            0.0);

  ServerStatus st = server.status();
  EXPECT_GE(st.requests_overloaded, 1);
  EXPECT_GE(st.requests_rejected, 1);
  server.stop();
}

TEST(Serve, PoolLimitRejectsAndQChainBypasses) {
  ServerOptions sopts;
  sopts.threads = 1;
  sopts.limits.max_active_dags = 1;
  Server server(sopts);
  Client client(client_opts(server));

  Rng rng(73);
  Matrix big = random_gaussian(512, 512, rng);
  std::int32_t slow = client.submit_qr_async(big, 16);

  Matrix small = random_gaussian(24, 24, rng);
  std::int32_t refused = client.submit_qr_async(small, 8);
  try {
    (void)client.wait_result(refused);
    FAIL() << "submit past max_active_dags must be refused";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ErrorCode::Overloaded);
  }
  (void)client.wait_result(slow);

  // want_q chains a second DAG onto the factor DAG; the chain bypasses
  // the admission bound, so it completes even at max_active_dags = 1.
  Matrix a = random_gaussian(48, 32, rng);
  QROutcome res = client.submit_qr(a, 8, 0, TreeChoice::Greedy, 0,
                                   /*want_q=*/true);
  ASSERT_TRUE(res.has_q);
  EXPECT_LT(orthogonality_error(res.q.view()), 1e-12);
  EXPECT_LT(factorization_residual(a.view(), res.q.view(), res.r.view()),
            1e-12);
  server.stop();
}

}  // namespace
}  // namespace hqr::serve
