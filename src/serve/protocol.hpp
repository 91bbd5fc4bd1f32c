// QR-as-a-service wire protocol: payload layouts, typed errors, and
// server-side validation (DESIGN.md §13).
//
// The serving protocol rides on the same framed, versioned, tagged wire
// format as the rank mesh (net/message.hpp): every request and response is
// one frame whose header `id` is the client-chosen request or stream id,
// echoed verbatim in the response so clients can pipeline. Payload scalars
// travel in native byte order like every other payload in the system (the
// frame header itself is explicitly little-endian and rejects a
// wrong-endian peer at the first frame).
//
// Request lifecycle:
//   SubmitQR     -> Result | ErrorReply
//   SubmitBatch  -> BatchResult | ErrorReply
//   StreamOpen   -> StreamR (empty R ack) | ErrorReply
//   StreamAppend -> StreamR (row count ack, no data) | ErrorReply
//   StreamQuery  -> StreamR (current R)  | ErrorReply
//   StreamClose  -> StreamR (final R)    | ErrorReply
//   Cancel       -> resolves the target request to ErrorReply{Cancelled};
//                   unknown ids answer ErrorReply{UnknownRequest}
//   Status       -> StatusReply
//   Shutdown     -> Bye, then the server drains and exits
//
// Validation happens here, at the protocol layer: malformed or
// out-of-contract requests (zero/negative dimensions, b = 0, ib > b,
// oversized payloads) produce a typed ErrorReply on the wire and leave the
// server process — and the offending connection — alive.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "net/message.hpp"
#include "trees/elimination.hpp"

namespace hqr::serve {

// Elimination-tree variant selectable per request (the tiled-QR taxonomy of
// Bouwmeester et al.: any valid elimination list is a correct algorithm;
// the tree shape trades panel parallelism against update pipelining).
enum class TreeChoice : std::int32_t {
  FlatTs = 0,     // diagonal kills everything below with TS kernels
  FlatTt = 1,     // per-panel flat tree, TT kernels
  Binary = 2,     // per-panel binary tree
  Greedy = 3,     // per-panel greedy tree
  Fibonacci = 4,  // per-panel Fibonacci tree
};

const char* tree_choice_name(TreeChoice t);
// Parses the names above (lowercase); throws hqr::Error on anything else.
TreeChoice tree_choice_from_name(const std::string& name);
// The elimination list a choice denotes for an mt x nt tile grid.
EliminationList elimination_for(TreeChoice t, int mt, int nt);

enum class ErrorCode : std::int32_t {
  BadDimensions = 1,   // m or n < 1
  BadTileSize = 2,     // b < 1
  BadInnerBlock = 3,   // ib < 0 or ib > b (0 = server chooses default_ib)
  TooLarge = 4,        // matrix or payload exceeds the server's limits
  BadTree = 5,         // unknown TreeChoice value
  Malformed = 6,       // payload does not parse / wrong length
  UnknownRequest = 7,  // Cancel for an id the server does not know
  UnknownStream = 8,   // Stream* for an unopened stream id
  BadBatch = 9,        // batch count out of range
  ShuttingDown = 10,   // submit after Shutdown was requested
  Cancelled = 11,      // the request was cancelled before completing
  Internal = 12,       // unexpected server-side failure
  Overloaded = 13,     // admission limit hit — back off and retry later
};

const char* error_code_name(ErrorCode c);

struct ErrorInfo {
  ErrorCode code = ErrorCode::Internal;
  std::string message;
};

// Server-side admission limits, enforced before any allocation sized by
// client-controlled numbers.
struct ServerLimits {
  std::int32_t max_dimension = 1 << 20;     // rows, cols, or tile size b
  // Doubles per matrix (128 MiB), enforced on the TILE-PADDED shape
  // (ceil(m/b)*b x ceil(n/b)*b) — what the server actually allocates.
  std::int64_t max_elements = 16ll << 20;
  std::int32_t max_batch_problems = 100000;
  std::int64_t max_payload_bytes = 1ll << 30;  // per frame
  // Concurrency admission (0 = unbounded). max_active_dags bounds the DAGs
  // the worker pool will hold simultaneously; max_inflight_per_tenant bounds
  // one tenant's unfinished SubmitQR/SubmitBatch requests. Either limit
  // trips a typed ErrorReply{Overloaded} — the client backs off and retries
  // instead of growing the server's queues without bound.
  std::int32_t max_active_dags = 0;
  std::int32_t max_inflight_per_tenant = 0;
};

// Shared shape validation: returns the typed error a request with these
// parameters must be answered with, or nullopt when acceptable.
std::optional<ErrorInfo> validate_shape(std::int32_t m, std::int32_t n,
                                        std::int32_t b, std::int32_t ib,
                                        const ServerLimits& limits);

// ---- SubmitQR ----

struct QRJob {
  std::int64_t tenant = 0;  // accounting key (per-tenant counters)
  std::int32_t b = 32;
  std::int32_t ib = 0;  // inner block in [1, b]; 0 = server chooses
  TreeChoice tree = TreeChoice::FlatTs;
  std::int32_t priority = 0;
  bool want_q = false;
  Matrix a;  // m x n, column-major on the wire
};

void encode_submit_qr(const QRJob& job, std::vector<std::uint8_t>& out);
// Parses and validates; on success fills `job` and returns nullopt. Shape
// and size violations come back as typed errors; structurally broken
// payloads throw hqr::Error (callers map that to ErrorCode::Malformed).
std::optional<ErrorInfo> decode_submit_qr(
    const std::vector<std::uint8_t>& payload, const ServerLimits& limits,
    QRJob* job);

// ---- Result ----

struct QROutcome {
  Matrix r;
  bool has_q = false;
  Matrix q;
};

void encode_result(const QROutcome& res, std::vector<std::uint8_t>& out);
QROutcome decode_result(const std::vector<std::uint8_t>& payload);

// ---- SubmitBatch ----

struct BatchJob {
  std::int64_t tenant = 0;
  std::int32_t b = 8;
  std::int32_t ib = 0;  // as in QRJob
  TreeChoice tree = TreeChoice::FlatTs;
  std::int32_t priority = 0;
  std::vector<Matrix> problems;
};

void encode_submit_batch(const BatchJob& job, std::vector<std::uint8_t>& out);
std::optional<ErrorInfo> decode_submit_batch(
    const std::vector<std::uint8_t>& payload, const ServerLimits& limits,
    BatchJob* job);

void encode_batch_result(const std::vector<Matrix>& rs,
                         std::vector<std::uint8_t>& out);
std::vector<Matrix> decode_batch_result(
    const std::vector<std::uint8_t>& payload);

// ---- Streaming TSQR ----

struct StreamOpenReq {
  std::int64_t tenant = 0;
  std::int32_t n = 0;  // columns
  std::int32_t b = 8;  // tile size
};

void encode_stream_open(const StreamOpenReq& req,
                        std::vector<std::uint8_t>& out);
std::optional<ErrorInfo> decode_stream_open(
    const std::vector<std::uint8_t>& payload, const ServerLimits& limits,
    StreamOpenReq* req);

// StreamAppend carries the row block; n comes from the open session.
void encode_stream_append(const Matrix& rows, std::vector<std::uint8_t>& out);
std::optional<ErrorInfo> decode_stream_append(
    const std::vector<std::uint8_t>& payload, std::int32_t n,
    const ServerLimits& limits, Matrix* rows);

// StreamR responses reuse the plain matrix block (possibly 0 x n for the
// open ack / append ack).
void encode_stream_r(const Matrix& r, std::vector<std::uint8_t>& out);
Matrix decode_stream_r(const std::vector<std::uint8_t>& payload);

// ---- Status / errors ----

struct ServerStatus {
  std::int64_t requests_accepted = 0;   // SubmitQR admitted to the pool
  std::int64_t requests_completed = 0;  // Results sent
  std::int64_t requests_rejected = 0;   // typed ErrorReply sent
  std::int64_t requests_cancelled = 0;
  std::int64_t batches_accepted = 0;
  std::int64_t batch_problems = 0;  // small QRs fused across all batches
  std::int64_t streams_opened = 0;
  std::int64_t stream_rows = 0;  // rows reduced across all sessions
  std::int64_t active_dags = 0;
  std::int64_t ready_tasks = 0;
  std::int64_t max_active_dags = 0;  // concurrency high-watermark
  // Live connections: dead sessions are reaped by the accept loop, so this
  // tracks currently-connected clients, not connections ever accepted.
  std::int64_t open_sessions = 0;
  // Submits refused with ErrorCode::Overloaded (pool or per-tenant limit).
  std::int64_t requests_overloaded = 0;
};

void encode_status(const ServerStatus& s, std::vector<std::uint8_t>& out);
ServerStatus decode_status(const std::vector<std::uint8_t>& payload);

void encode_error(const ErrorInfo& e, std::vector<std::uint8_t>& out);
ErrorInfo decode_error(const std::vector<std::uint8_t>& payload);

}  // namespace hqr::serve
