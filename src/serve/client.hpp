// Synchronous client for the QR-as-a-service protocol.
//
// One Client owns one connection. Request ids are assigned monotonically
// per connection; responses arriving out of order (the server completes
// small requests before large ones) are buffered by id, so several
// submit_qr_async() calls can be in flight and waited on in any order —
// that is how one connection keeps many DAGs on the server's pool at once.
// A Client is NOT thread-safe; use one per thread (the server handles any
// number of concurrent connections).
//
// Server-side rejections surface as ServeError carrying the typed
// ErrorCode from the wire; transport failures surface as plain hqr::Error.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "serve/protocol.hpp"

namespace hqr::serve {

// A typed error response from the server.
class ServeError : public Error {
 public:
  explicit ServeError(ErrorInfo info)
      : Error(std::string(error_code_name(info.code)) + ": " + info.message),
        info_(std::move(info)) {}

  ErrorCode code() const { return info_.code; }
  const std::string& message() const { return info_.message; }

 private:
  ErrorInfo info_;
};

struct ClientOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  double timeout_seconds = 120.0;  // per blocking receive
  std::int64_t tenant = 0;         // stamped on every request
};

class Client {
 public:
  // Connects immediately; throws hqr::Error on refusal/timeout.
  explicit Client(const ClientOptions& opts);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // One QR round-trip: returns R (and Q when want_q). ib is the kernels'
  // inner block in [1, b]; 0 lets the server choose (default_ib(b)).
  QROutcome submit_qr(const Matrix& a, int b, int ib = 0,
                      TreeChoice tree = TreeChoice::FlatTs, int priority = 0,
                      bool want_q = false);

  // Pipelined submission: returns the request id without waiting.
  std::int32_t submit_qr_async(const Matrix& a, int b, int ib = 0,
                               TreeChoice tree = TreeChoice::FlatTs,
                               int priority = 0, bool want_q = false);
  // Blocks until the result for `id` arrives (in-flight responses for
  // other ids are buffered). Throws ServeError on a typed rejection,
  // including ErrorCode::Cancelled after cancel(id) won the race.
  QROutcome wait_result(std::int32_t id);

  // Many small problems in one request: the server runs each problem as
  // one pool task, so a problem never uses more than one worker (send one
  // that needs parallelism inside itself through submit_qr). The batch is
  // scheduled one priority level below `priority`, so it never holds back
  // a submit_qr of the same priority. Returns one R per problem, in
  // submission order. ib as in submit_qr.
  std::vector<Matrix> submit_batch(const std::vector<Matrix>& problems, int b,
                                   int ib = 0,
                                   TreeChoice tree = TreeChoice::FlatTs,
                                   int priority = 0);

  // Streaming TSQR session: open, push row blocks, query the running R,
  // close (returns the final R). The handle is a request id.
  std::int32_t stream_open(int n, int b);
  void stream_append(std::int32_t stream, const Matrix& rows);
  Matrix stream_query(std::int32_t stream);
  Matrix stream_close(std::int32_t stream);

  // Asks the server to abandon a pending request. Fire-and-forget: the
  // request's wait_result() resolves to either the Result (cancel lost the
  // race) or ServeError{Cancelled}.
  void cancel(std::int32_t id);

  ServerStatus status();

  // Graceful server stop; returns once the server acknowledged (Bye).
  void shutdown_server();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace hqr::serve
