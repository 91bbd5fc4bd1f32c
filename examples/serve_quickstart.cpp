// QR-as-a-service quickstart: start a factorization server in-process,
// drive it the way external tenants would, and verify every answer
// bit-for-bit against the in-process factorization.
//
//   ./serve_quickstart [--clients=8] [--m=96] [--n=64] [--b=16]
//                      [--problems=1000] [--threads=4]
//
// Three client patterns, all over the real socket protocol:
//   1. `--clients` concurrent tenants, each submitting a QR job of its own
//      shape and tree; all share the one server worker pool, and each gets
//      back exactly the R the sequential factorization of its matrix
//      produces.
//   2. One tenant submitting `--problems` small matrices as a single batch
//      request: the server fuses them into one DAG and runs them in one
//      scheduler pass.
//   3. A streaming tall-skinny session: rows arrive block by block, the
//      running R is queried mid-stream and at close.
//
// Exits nonzero on any mismatch, so this doubles as the serve smoke test.
#include <iostream>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/factorization.hpp"
#include "core/incremental_tsqr.hpp"
#include "linalg/norms.hpp"
#include "linalg/random_matrix.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

using namespace hqr;
using namespace hqr::serve;

namespace {

Matrix sequential_r(const Matrix& a, int b, TreeChoice tree) {
  TiledMatrix t = TiledMatrix::from_matrix(a, b);
  return extract_r(
      qr_factorize_sequential(a, b, elimination_for(tree, t.mt(), t.nt())));
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv, {{"clients", "8"},
                       {"m", "96"},
                       {"n", "64"},
                       {"b", "16"},
                       {"problems", "1000"},
                       {"threads", "4"}});
  const int clients = static_cast<int>(cli.integer("clients"));
  const int m = static_cast<int>(cli.integer("m"));
  const int n = static_cast<int>(cli.integer("n"));
  const int b = static_cast<int>(cli.integer("b"));
  const int problems = static_cast<int>(cli.integer("problems"));

  ServerOptions sopts;
  sopts.threads = static_cast<int>(cli.integer("threads"));
  Server server(sopts);
  std::cout << "server listening on 127.0.0.1:" << server.port() << " with "
            << sopts.threads << " worker threads\n";

  int failures = 0;

  // -- 1. Concurrent tenants, one pool -----------------------------------
  const TreeChoice trees[] = {TreeChoice::FlatTs, TreeChoice::Binary,
                              TreeChoice::Greedy, TreeChoice::Fibonacci};
  std::vector<std::thread> tenants;
  std::vector<int> tenant_fail(clients, 0);
  for (int c = 0; c < clients; ++c) {
    tenants.emplace_back([&, c] {
      try {
        Rng rng(100 + c);
        ClientOptions copts;
        copts.port = server.port();
        copts.tenant = c;
        Client client(copts);
        Matrix a = random_gaussian(m + 8 * c, n, rng);
        const TreeChoice tree = trees[c % 4];
        QROutcome res = client.submit_qr(a, b, 0, tree);
        if (max_abs_diff(sequential_r(a, b, tree).view(), res.r.view()) !=
            0.0)
          tenant_fail[c] = 1;
      } catch (const std::exception& e) {
        std::cerr << "tenant " << c << ": " << e.what() << "\n";
        tenant_fail[c] = 1;
      }
    });
  }
  for (auto& t : tenants) t.join();
  for (int c = 0; c < clients; ++c) failures += tenant_fail[c];
  std::cout << clients << " concurrent tenants: "
            << (failures == 0 ? "all bit-identical to sequential" : "MISMATCH")
            << "\n";

  // -- 2. One batch of small problems ------------------------------------
  ClientOptions copts;
  copts.port = server.port();
  Client client(copts);
  Rng rng(7);
  std::vector<Matrix> small;
  for (int p = 0; p < problems; ++p)
    small.push_back(random_gaussian(12 + p % 5, 8 + p % 3, rng));
  std::vector<Matrix> rs = client.submit_batch(small, 4);
  int batch_bad = 0;
  for (int p = 0; p < problems; ++p)
    if (max_abs_diff(sequential_r(small[p], 4, TreeChoice::FlatTs).view(),
                     rs[p].view()) != 0.0)
      ++batch_bad;
  failures += batch_bad;
  std::cout << problems << " problems in one batch: "
            << (batch_bad == 0 ? "all bit-identical" : "MISMATCH") << "\n";

  // -- 3. Streaming tall-skinny session ----------------------------------
  const int sn = 16, sb = 4;
  IncrementalTSQR local(sn, sb);
  std::int32_t stream = client.stream_open(sn, sb);
  for (int blk = 0; blk < 4; ++blk) {
    Matrix rows = random_gaussian(5 + blk, sn, rng);
    client.stream_append(stream, rows);
    local.add_rows(rows);
  }
  Matrix final_r = client.stream_close(stream);
  const bool stream_ok =
      max_abs_diff(local.r().view(), final_r.view()) == 0.0;
  if (!stream_ok) ++failures;
  std::cout << "streaming TSQR session: "
            << (stream_ok ? "matches in-process reduction bit for bit"
                          : "MISMATCH")
            << "\n";

  // -- Server-side accounting --------------------------------------------
  ServerStatus st = client.status();
  TextTable table({"counter", "value"});
  auto counter = [&](const char* name, std::int64_t value) {
    table.row().add(name).add(static_cast<long long>(value));
  };
  counter("requests_accepted", st.requests_accepted);
  counter("requests_completed", st.requests_completed);
  counter("batches_accepted", st.batches_accepted);
  counter("batch_problems", st.batch_problems);
  counter("streams_opened", st.streams_opened);
  counter("stream_rows", st.stream_rows);
  counter("max_active_dags", st.max_active_dags);
  std::cout << "\n== server status ==\n";
  table.print(std::cout);

  server.stop();
  if (failures != 0) {
    std::cerr << failures << " mismatches\n";
    return 1;
  }
  std::cout << "\nOK\n";
  return 0;
}
