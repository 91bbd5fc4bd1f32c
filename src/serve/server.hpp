// QR-as-a-service server: a long-running TCP process that accepts
// factorization requests from many clients and executes them concurrently
// on ONE shared worker pool (runtime/dag_pool.hpp).
//
// Threading model: one accept thread (which also reaps sessions whose
// connection died, so fds and thread handles do not accumulate); per
// connection a reader thread (frame parse -> validate -> submit to the
// pool) and a writer thread (drains an outbox of encoded responses).
// Factorization DAGs never run on connection threads — every SubmitQR,
// batch and Q formation is a DAG submitted to the shared DagPool,
// whose completion callback encodes the response and enqueues it on the
// owning connection's outbox. Requests from different connections and
// tenants therefore interleave at task granularity, and a large request
// does not block a small one behind it.
//
// One deliberate exception: streaming TSQR reductions (StreamAppend) run
// inline on the connection's reader thread — stream state is
// single-threaded by construction and needs no locking. A large append
// (bounded by ServerLimits) therefore serializes with other requests
// pipelined on the SAME connection, including Cancel; clients with heavy
// streams should give them a dedicated connection.
//
// Validation happens before admission (serve/protocol.hpp): a malformed or
// out-of-contract request gets a typed ErrorReply and the connection — and
// the server — keep going.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "obs/metrics.hpp"
#include "serve/protocol.hpp"

namespace hqr {
class DagPool;
}  // namespace hqr

namespace hqr::serve {

struct ServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ask the kernel for an ephemeral port
  int threads = 4;         // shared worker pool size
  ServerLimits limits;
  obs::MetricsRegistry* metrics = nullptr;  // optional instrumentation
};

class Server {
 public:
  // Binds and starts accepting immediately; throws hqr::Error when the
  // address cannot be bound.
  explicit Server(const ServerOptions& opts);
  ~Server();  // equivalent to stop()

  // The port actually bound (useful with port = 0).
  std::uint16_t port() const;

  // Blocks until a client sends Shutdown or another thread calls stop().
  void wait();

  // Graceful stop: reject new submissions, drain in-flight DAGs, flush
  // outboxes, join all threads. Idempotent.
  void stop();

  // Server-wide counters (same data a Status request returns).
  ServerStatus status() const;

  // Test seam: the shared worker pool, so a test can hold its workers on a
  // task of its own while it admits requests. Work submitted here bypasses
  // every server limit; no production caller uses it.
  DagPool& pool_for_testing();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace hqr::serve
