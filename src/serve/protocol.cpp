#include "serve/protocol.hpp"

#include <cstring>

#include "common/check.hpp"
#include "trees/single_level.hpp"

namespace hqr::serve {

namespace {

using net::PayloadReader;
using net::PayloadWriter;

// Payload scalars travel native-order like every other payload; the frame
// header's explicit little-endian handshake already rejects a peer whose
// byte order differs.
void put_i32(PayloadWriter& w, std::int32_t v) { w.raw(&v, sizeof(v)); }

std::int32_t get_i32(PayloadReader& r) {
  std::int32_t v;
  r.raw(&v, sizeof(v));
  return v;
}

// Bytes put_matrix writes for `a`.
std::size_t matrix_bytes(const Matrix& a) {
  return 2 * sizeof(std::int32_t) + static_cast<std::size_t>(a.rows()) *
                                        static_cast<std::size_t>(a.cols()) *
                                        sizeof(double);
}

void put_matrix(PayloadWriter& w, const Matrix& a) {
  put_i32(w, a.rows());
  put_i32(w, a.cols());
  w.f64(a.storage().data(),
        static_cast<std::size_t>(a.rows()) * static_cast<std::size_t>(a.cols()));
}

// Reads a rows/cols/data block whose dimensions were already validated.
Matrix get_matrix_data(PayloadReader& r, std::int32_t rows, std::int32_t cols) {
  Matrix a(rows, cols);
  r.f64(a.view().data,
        static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols));
  return a;
}

// Response decoders trust the server; dimensions still get a sanity bound
// so a corrupt frame throws instead of allocating absurdly.
Matrix get_matrix(PayloadReader& r) {
  const std::int32_t rows = get_i32(r);
  const std::int32_t cols = get_i32(r);
  HQR_CHECK(rows >= 0 && cols >= 0, "malformed matrix block: " << rows << "x"
                                                               << cols);
  const std::size_t need = static_cast<std::size_t>(rows) *
                           static_cast<std::size_t>(cols) * sizeof(double);
  HQR_CHECK(need <= r.remaining(), "malformed matrix block: " << rows << "x"
                                                              << cols
                                                              << " overruns payload");
  return get_matrix_data(r, rows, cols);
}

std::optional<ErrorInfo> err(ErrorCode code, std::string msg) {
  return ErrorInfo{code, std::move(msg)};
}

std::optional<ErrorInfo> check_tree(std::int32_t raw) {
  if (raw < 0 || raw > static_cast<std::int32_t>(TreeChoice::Fibonacci))
    return err(ErrorCode::BadTree,
               "unknown tree choice " + std::to_string(raw));
  return std::nullopt;
}

// The declared element count of an m x n block must match what is actually
// left in the payload (after `trailing` more bytes of fixed fields).
std::optional<ErrorInfo> check_data_bytes(std::int64_t elements,
                                          std::size_t remaining) {
  const std::uint64_t need =
      static_cast<std::uint64_t>(elements) * sizeof(double);
  if (need > remaining)
    return err(ErrorCode::Malformed, "payload truncated: matrix data needs " +
                                         std::to_string(need) + " bytes, " +
                                         std::to_string(remaining) + " left");
  return std::nullopt;
}

}  // namespace

const char* tree_choice_name(TreeChoice t) {
  switch (t) {
    case TreeChoice::FlatTs: return "flatts";
    case TreeChoice::FlatTt: return "flattt";
    case TreeChoice::Binary: return "binary";
    case TreeChoice::Greedy: return "greedy";
    case TreeChoice::Fibonacci: return "fibonacci";
  }
  return "unknown";
}

TreeChoice tree_choice_from_name(const std::string& name) {
  for (std::int32_t v = 0; v <= static_cast<std::int32_t>(TreeChoice::Fibonacci);
       ++v) {
    const auto t = static_cast<TreeChoice>(v);
    if (name == tree_choice_name(t)) return t;
  }
  HQR_CHECK(false, "unknown tree choice '"
                       << name
                       << "' (flatts|flattt|binary|greedy|fibonacci)");
}

EliminationList elimination_for(TreeChoice t, int mt, int nt) {
  switch (t) {
    case TreeChoice::FlatTs: return flat_ts_list(mt, nt);
    case TreeChoice::FlatTt: return per_panel_tree_list(TreeKind::Flat, mt, nt);
    case TreeChoice::Binary:
      return per_panel_tree_list(TreeKind::Binary, mt, nt);
    case TreeChoice::Greedy:
      return per_panel_tree_list(TreeKind::Greedy, mt, nt);
    case TreeChoice::Fibonacci:
      return per_panel_tree_list(TreeKind::Fibonacci, mt, nt);
  }
  HQR_CHECK(false, "unknown tree choice " << static_cast<int>(t));
}

const char* error_code_name(ErrorCode c) {
  switch (c) {
    case ErrorCode::BadDimensions: return "BadDimensions";
    case ErrorCode::BadTileSize: return "BadTileSize";
    case ErrorCode::BadInnerBlock: return "BadInnerBlock";
    case ErrorCode::TooLarge: return "TooLarge";
    case ErrorCode::BadTree: return "BadTree";
    case ErrorCode::Malformed: return "Malformed";
    case ErrorCode::UnknownRequest: return "UnknownRequest";
    case ErrorCode::UnknownStream: return "UnknownStream";
    case ErrorCode::BadBatch: return "BadBatch";
    case ErrorCode::ShuttingDown: return "ShuttingDown";
    case ErrorCode::Cancelled: return "Cancelled";
    case ErrorCode::Internal: return "Internal";
    case ErrorCode::Overloaded: return "Overloaded";
  }
  return "Unknown";
}

std::optional<ErrorInfo> validate_shape(std::int32_t m, std::int32_t n,
                                        std::int32_t b, std::int32_t ib,
                                        const ServerLimits& limits) {
  if (m < 1 || n < 1)
    return err(ErrorCode::BadDimensions, "matrix must be at least 1x1, got " +
                                             std::to_string(m) + "x" +
                                             std::to_string(n));
  if (b < 1)
    return err(ErrorCode::BadTileSize,
               "tile size must be >= 1, got " + std::to_string(b));
  if (ib < 0 || ib > b)
    return err(ErrorCode::BadInnerBlock,
               "inner block must be 0 (server chooses) or in [1, b], got ib=" +
                   std::to_string(ib) + " with b=" + std::to_string(b));
  if (m > limits.max_dimension || n > limits.max_dimension)
    return err(ErrorCode::TooLarge,
               "dimension exceeds server limit of " +
                   std::to_string(limits.max_dimension));
  if (b > limits.max_dimension)
    return err(ErrorCode::TooLarge,
               "tile size " + std::to_string(b) +
                   " exceeds server limit of " +
                   std::to_string(limits.max_dimension));
  if (static_cast<std::int64_t>(m) * n > limits.max_elements)
    return err(ErrorCode::TooLarge,
               "matrix of " + std::to_string(static_cast<std::int64_t>(m) * n) +
                   " elements exceeds server limit of " +
                   std::to_string(limits.max_elements));
  // The server pads every matrix to whole b x b tiles, so the element cap
  // must hold for the PADDED shape too — otherwise a tiny matrix with a
  // huge b (1x1 at b = 2^30) passes the raw check and then forces an
  // O(b^2) allocation. pn >= 1, and pm <= 2 * max_dimension, so the
  // division form below cannot overflow where the product could.
  const std::int64_t pm =
      (static_cast<std::int64_t>(m) + b - 1) / b * static_cast<std::int64_t>(b);
  const std::int64_t pn =
      (static_cast<std::int64_t>(n) + b - 1) / b * static_cast<std::int64_t>(b);
  if (pm > limits.max_elements / pn)
    return err(ErrorCode::TooLarge,
               "matrix padded to " + std::to_string(pm) + "x" +
                   std::to_string(pn) + " tiles of b=" + std::to_string(b) +
                   " exceeds server limit of " +
                   std::to_string(limits.max_elements) + " elements");
  return std::nullopt;
}

void encode_submit_qr(const QRJob& job, std::vector<std::uint8_t>& out) {
  PayloadWriter w(out);
  w.i64(job.tenant);
  put_i32(w, job.a.rows());
  put_i32(w, job.a.cols());
  put_i32(w, job.b);
  put_i32(w, job.ib);
  put_i32(w, static_cast<std::int32_t>(job.tree));
  put_i32(w, job.priority);
  put_i32(w, job.want_q ? 1 : 0);
  w.f64(job.a.storage().data(), job.a.storage().size());
}

std::optional<ErrorInfo> decode_submit_qr(
    const std::vector<std::uint8_t>& payload, const ServerLimits& limits,
    QRJob* job) {
  PayloadReader r(payload);
  job->tenant = r.i64();
  const std::int32_t m = get_i32(r);
  const std::int32_t n = get_i32(r);
  job->b = get_i32(r);
  job->ib = get_i32(r);
  const std::int32_t tree_raw = get_i32(r);
  job->priority = get_i32(r);
  job->want_q = get_i32(r) != 0;
  // Validate before sizing any allocation by client-controlled numbers.
  if (auto e = validate_shape(m, n, job->b, job->ib, limits)) return e;
  if (auto e = check_tree(tree_raw)) return e;
  job->tree = static_cast<TreeChoice>(tree_raw);
  if (auto e = check_data_bytes(static_cast<std::int64_t>(m) * n,
                                r.remaining()))
    return e;
  job->a = get_matrix_data(r, m, n);
  if (r.remaining() != 0)
    return err(ErrorCode::Malformed,
               std::to_string(r.remaining()) + " trailing bytes after matrix");
  return std::nullopt;
}

void encode_result(const QROutcome& res, std::vector<std::uint8_t>& out) {
  PayloadWriter w(out);
  put_matrix(w, res.r);
  put_i32(w, res.has_q ? 1 : 0);
  if (res.has_q) put_matrix(w, res.q);
}

QROutcome decode_result(const std::vector<std::uint8_t>& payload) {
  PayloadReader r(payload);
  QROutcome res;
  res.r = get_matrix(r);
  res.has_q = get_i32(r) != 0;
  if (res.has_q) res.q = get_matrix(r);
  return res;
}

void encode_submit_batch(const BatchJob& job, std::vector<std::uint8_t>& out) {
  // A batch payload runs to megabytes: reserve it whole rather than let
  // the vector grow (and copy) its way there.
  std::size_t bytes = sizeof(std::int64_t) + 5 * sizeof(std::int32_t);
  for (const Matrix& a : job.problems) bytes += matrix_bytes(a);
  out.reserve(out.size() + bytes);
  PayloadWriter w(out);
  w.i64(job.tenant);
  put_i32(w, job.b);
  put_i32(w, job.ib);
  put_i32(w, static_cast<std::int32_t>(job.tree));
  put_i32(w, job.priority);
  put_i32(w, static_cast<std::int32_t>(job.problems.size()));
  for (const Matrix& a : job.problems) put_matrix(w, a);
}

std::optional<ErrorInfo> decode_submit_batch(
    const std::vector<std::uint8_t>& payload, const ServerLimits& limits,
    BatchJob* job) {
  PayloadReader r(payload);
  job->tenant = r.i64();
  job->b = get_i32(r);
  job->ib = get_i32(r);
  const std::int32_t tree_raw = get_i32(r);
  job->priority = get_i32(r);
  const std::int32_t count = get_i32(r);
  if (auto e = check_tree(tree_raw)) return e;
  job->tree = static_cast<TreeChoice>(tree_raw);
  if (count < 1 || count > limits.max_batch_problems)
    return err(ErrorCode::BadBatch,
               "batch count must be in [1, " +
                   std::to_string(limits.max_batch_problems) + "], got " +
                   std::to_string(count));
  job->problems.clear();
  job->problems.reserve(static_cast<std::size_t>(count));
  for (std::int32_t p = 0; p < count; ++p) {
    const std::int32_t m = get_i32(r);
    const std::int32_t n = get_i32(r);
    if (auto e = validate_shape(m, n, job->b, job->ib, limits)) {
      e->message = "problem " + std::to_string(p) + ": " + e->message;
      return e;
    }
    if (auto e = check_data_bytes(static_cast<std::int64_t>(m) * n,
                                  r.remaining()))
      return e;
    job->problems.push_back(get_matrix_data(r, m, n));
  }
  if (r.remaining() != 0)
    return err(ErrorCode::Malformed, std::to_string(r.remaining()) +
                                         " trailing bytes after last problem");
  return std::nullopt;
}

void encode_batch_result(const std::vector<Matrix>& rs,
                         std::vector<std::uint8_t>& out) {
  std::size_t bytes = sizeof(std::int32_t);
  for (const Matrix& r : rs) bytes += matrix_bytes(r);
  out.reserve(out.size() + bytes);
  PayloadWriter w(out);
  put_i32(w, static_cast<std::int32_t>(rs.size()));
  for (const Matrix& r : rs) put_matrix(w, r);
}

std::vector<Matrix> decode_batch_result(
    const std::vector<std::uint8_t>& payload) {
  PayloadReader r(payload);
  const std::int32_t count = get_i32(r);
  HQR_CHECK(count >= 0, "malformed batch result count " << count);
  std::vector<Matrix> rs;
  rs.reserve(static_cast<std::size_t>(count));
  for (std::int32_t p = 0; p < count; ++p) rs.push_back(get_matrix(r));
  return rs;
}

void encode_stream_open(const StreamOpenReq& req,
                        std::vector<std::uint8_t>& out) {
  PayloadWriter w(out);
  w.i64(req.tenant);
  put_i32(w, req.n);
  put_i32(w, req.b);
}

std::optional<ErrorInfo> decode_stream_open(
    const std::vector<std::uint8_t>& payload, const ServerLimits& limits,
    StreamOpenReq* req) {
  PayloadReader r(payload);
  req->tenant = r.i64();
  req->n = get_i32(r);
  req->b = get_i32(r);
  if (req->n < 1)
    return err(ErrorCode::BadDimensions, "stream needs n >= 1 columns, got " +
                                             std::to_string(req->n));
  if (req->b < 1)
    return err(ErrorCode::BadTileSize,
               "tile size must be >= 1, got " + std::to_string(req->b));
  if (req->n > limits.max_dimension)
    return err(ErrorCode::TooLarge,
               "stream width exceeds server limit of " +
                   std::to_string(limits.max_dimension));
  if (req->b > limits.max_dimension)
    return err(ErrorCode::TooLarge,
               "stream tile size " + std::to_string(req->b) +
                   " exceeds server limit of " +
                   std::to_string(limits.max_dimension));
  // The running triangle is nt x nt tiles = pn x pn elements (pn = n
  // padded to whole tiles); bound that allocation like any other matrix.
  const std::int64_t pn = (static_cast<std::int64_t>(req->n) + req->b - 1) /
                          req->b * static_cast<std::int64_t>(req->b);
  if (pn > limits.max_elements / pn)
    return err(ErrorCode::TooLarge,
               "stream triangle of " + std::to_string(pn) + "x" +
                   std::to_string(pn) + " padded elements (b=" +
                   std::to_string(req->b) + ") exceeds server limit of " +
                   std::to_string(limits.max_elements));
  return std::nullopt;
}

void encode_stream_append(const Matrix& rows, std::vector<std::uint8_t>& out) {
  PayloadWriter w(out);
  put_i32(w, rows.rows());
  w.f64(rows.storage().data(), rows.storage().size());
}

std::optional<ErrorInfo> decode_stream_append(
    const std::vector<std::uint8_t>& payload, std::int32_t n,
    const ServerLimits& limits, Matrix* rows) {
  PayloadReader r(payload);
  const std::int32_t nr = get_i32(r);
  if (nr < 1)
    return err(ErrorCode::BadDimensions,
               "append needs at least 1 row, got " + std::to_string(nr));
  if (nr > limits.max_dimension ||
      static_cast<std::int64_t>(nr) * n > limits.max_elements)
    return err(ErrorCode::TooLarge,
               "append of " + std::to_string(nr) + "x" + std::to_string(n) +
                   " exceeds server limits");
  if (auto e = check_data_bytes(static_cast<std::int64_t>(nr) * n,
                                r.remaining()))
    return e;
  *rows = get_matrix_data(r, nr, n);
  if (r.remaining() != 0)
    return err(ErrorCode::Malformed,
               std::to_string(r.remaining()) + " trailing bytes after rows");
  return std::nullopt;
}

void encode_stream_r(const Matrix& r, std::vector<std::uint8_t>& out) {
  PayloadWriter w(out);
  put_matrix(w, r);
}

Matrix decode_stream_r(const std::vector<std::uint8_t>& payload) {
  PayloadReader r(payload);
  return get_matrix(r);
}

void encode_status(const ServerStatus& s, std::vector<std::uint8_t>& out) {
  PayloadWriter w(out);
  w.i64(s.requests_accepted);
  w.i64(s.requests_completed);
  w.i64(s.requests_rejected);
  w.i64(s.requests_cancelled);
  w.i64(s.batches_accepted);
  w.i64(s.batch_problems);
  w.i64(s.streams_opened);
  w.i64(s.stream_rows);
  w.i64(s.active_dags);
  w.i64(s.ready_tasks);
  w.i64(s.max_active_dags);
  w.i64(s.open_sessions);
  w.i64(s.requests_overloaded);
}

ServerStatus decode_status(const std::vector<std::uint8_t>& payload) {
  PayloadReader r(payload);
  ServerStatus s;
  s.requests_accepted = r.i64();
  s.requests_completed = r.i64();
  s.requests_rejected = r.i64();
  s.requests_cancelled = r.i64();
  s.batches_accepted = r.i64();
  s.batch_problems = r.i64();
  s.streams_opened = r.i64();
  s.stream_rows = r.i64();
  s.active_dags = r.i64();
  s.ready_tasks = r.i64();
  s.max_active_dags = r.i64();
  s.open_sessions = r.i64();
  s.requests_overloaded = r.i64();
  return s;
}

void encode_error(const ErrorInfo& e, std::vector<std::uint8_t>& out) {
  PayloadWriter w(out);
  put_i32(w, static_cast<std::int32_t>(e.code));
  put_i32(w, static_cast<std::int32_t>(e.message.size()));
  w.raw(e.message.data(), e.message.size());
}

ErrorInfo decode_error(const std::vector<std::uint8_t>& payload) {
  PayloadReader r(payload);
  ErrorInfo e;
  e.code = static_cast<ErrorCode>(get_i32(r));
  const std::int32_t len = get_i32(r);
  HQR_CHECK(len >= 0 && static_cast<std::size_t>(len) <= r.remaining(),
            "malformed error message length " << len);
  e.message.resize(static_cast<std::size_t>(len));
  if (len > 0) r.raw(e.message.data(), static_cast<std::size_t>(len));
  return e;
}

}  // namespace hqr::serve
