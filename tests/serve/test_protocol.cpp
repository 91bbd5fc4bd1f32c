#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "common/rng.hpp"
#include "linalg/random_matrix.hpp"

namespace hqr::serve {
namespace {

ServerLimits small_limits() {
  ServerLimits l;
  l.max_dimension = 64;
  l.max_elements = 1024;
  l.max_batch_problems = 4;
  return l;
}

TEST(Protocol, SubmitQrRoundTrips) {
  Rng rng(1);
  QRJob job;
  job.tenant = 42;
  job.b = 8;
  job.ib = 4;
  job.tree = TreeChoice::Greedy;
  job.priority = 3;
  job.want_q = true;
  job.a = random_gaussian(20, 12, rng);

  std::vector<std::uint8_t> wire;
  encode_submit_qr(job, wire);
  QRJob back;
  ASSERT_FALSE(decode_submit_qr(wire, ServerLimits{}, &back).has_value());
  EXPECT_EQ(back.tenant, 42);
  EXPECT_EQ(back.b, 8);
  EXPECT_EQ(back.ib, 4);
  EXPECT_EQ(back.tree, TreeChoice::Greedy);
  EXPECT_EQ(back.priority, 3);
  EXPECT_TRUE(back.want_q);
  EXPECT_EQ(back.a.storage(), job.a.storage());  // bit-exact payload
}

TEST(Protocol, ValidationRejectsBadShapes) {
  // (m, n, b, ib) -> expected typed error. Validation must precede any
  // allocation, so none of these can abort the decoder.
  struct Case {
    int m, n, b, ib;
    ErrorCode want;
  };
  const Case cases[] = {
      {0, 4, 4, 0, ErrorCode::BadDimensions},
      {-3, 4, 4, 0, ErrorCode::BadDimensions},
      {4, 0, 4, 0, ErrorCode::BadDimensions},
      {4, -1, 4, 0, ErrorCode::BadDimensions},
      {4, 4, 0, 0, ErrorCode::BadTileSize},
      {4, 4, -2, 0, ErrorCode::BadTileSize},
      {4, 4, 4, -1, ErrorCode::BadInnerBlock},
      {4, 4, 4, 5, ErrorCode::BadInnerBlock},  // ib = b + 1
      {128, 4, 4, 0, ErrorCode::TooLarge},     // > max_dimension
      {40, 40, 4, 0, ErrorCode::TooLarge},     // > max_elements
      {4, 4, 128, 0, ErrorCode::TooLarge},     // b > max_dimension
      {1, 1, 64, 0, ErrorCode::TooLarge},      // padded 64x64 > max_elements
  };
  for (const Case& c : cases) {
    auto e = validate_shape(c.m, c.n, c.b, c.ib, small_limits());
    ASSERT_TRUE(e.has_value()) << c.m << "x" << c.n << " b=" << c.b
                               << " ib=" << c.ib;
    EXPECT_EQ(e->code, c.want) << e->message;
  }
  EXPECT_FALSE(validate_shape(8, 8, 4, 0, small_limits()).has_value());
  // ib = 0 lets the server choose; ib == b is one panel per tile.
  EXPECT_FALSE(validate_shape(4, 4, 4, 4, small_limits()).has_value());
  EXPECT_FALSE(validate_shape(8, 8, 4, 2, small_limits()).has_value());
}

TEST(Protocol, StreamOpenBoundsTileSizeAndPaddedTriangle) {
  // The running R triangle is pn x pn (n padded to whole b-tiles): a tiny
  // stream with a gigantic b must be rejected before anything is sized.
  auto open_err = [&](std::int32_t n, std::int32_t b) {
    StreamOpenReq req;
    req.n = n;
    req.b = b;
    std::vector<std::uint8_t> wire;
    encode_stream_open(req, wire);
    StreamOpenReq back;
    return decode_stream_open(wire, small_limits(), &back);
  };
  auto e = open_err(8, 1 << 20);  // b > max_dimension
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->code, ErrorCode::TooLarge);
  e = open_err(8, 64);  // padded triangle 64x64 = 4096 > max_elements
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->code, ErrorCode::TooLarge);
  EXPECT_FALSE(open_err(8, 4).has_value());
}

TEST(Protocol, DecodeRejectsWithoutAllocating) {
  // A doctored header claiming a huge matrix: decode must return the typed
  // error from the declared dimensions alone.
  QRJob job;
  job.a = Matrix(2, 2);
  job.b = 2;
  std::vector<std::uint8_t> wire;
  encode_submit_qr(job, wire);
  // Patch m (offset 8, after the i64 tenant) to an absurd value.
  const std::int32_t huge = 1 << 30;
  std::memcpy(wire.data() + 8, &huge, sizeof(huge));
  QRJob back;
  auto e = decode_submit_qr(wire, small_limits(), &back);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->code, ErrorCode::TooLarge);
}

TEST(Protocol, DecodeFlagsTruncationAndTrailingBytes) {
  Rng rng(2);
  QRJob job;
  job.a = random_gaussian(8, 8, rng);
  job.b = 4;
  std::vector<std::uint8_t> wire;
  encode_submit_qr(job, wire);

  std::vector<std::uint8_t> truncated(wire.begin(), wire.end() - 8);
  QRJob back;
  auto e = decode_submit_qr(truncated, ServerLimits{}, &back);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->code, ErrorCode::Malformed);

  std::vector<std::uint8_t> padded = wire;
  padded.push_back(0);
  e = decode_submit_qr(padded, ServerLimits{}, &back);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->code, ErrorCode::Malformed);
}

TEST(Protocol, BatchRoundTripsAndValidates) {
  Rng rng(3);
  BatchJob job;
  job.tenant = 7;
  job.b = 4;
  job.tree = TreeChoice::FlatTs;
  for (int p = 0; p < 3; ++p)
    job.problems.push_back(random_gaussian(6 + p, 4, rng));

  std::vector<std::uint8_t> wire;
  encode_submit_batch(job, wire);
  BatchJob back;
  ASSERT_FALSE(decode_submit_batch(wire, small_limits(), &back).has_value());
  ASSERT_EQ(back.problems.size(), 3u);
  for (int p = 0; p < 3; ++p)
    EXPECT_EQ(back.problems[p].storage(), job.problems[p].storage());

  // One bad problem poisons the batch with a typed error naming it.
  job.problems[1] = Matrix(0, 0);
  wire.clear();
  encode_submit_batch(job, wire);
  auto e = decode_submit_batch(wire, small_limits(), &back);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->code, ErrorCode::BadDimensions);
  EXPECT_NE(e->message.find("problem 1"), std::string::npos);

  // Count limit.
  BatchJob big;
  big.b = 4;
  for (int p = 0; p < 5; ++p) big.problems.push_back(Matrix(4, 4));
  wire.clear();
  encode_submit_batch(big, wire);
  e = decode_submit_batch(wire, small_limits(), &back);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->code, ErrorCode::BadBatch);
}

TEST(Protocol, BatchEncodersAppendAfterAPrefix) {
  // Both batch encoders reserve their exact size on top of what `out`
  // already holds. The prefix must survive, the appended bytes must equal a
  // fresh encoding, and the one reservation must have been exactly enough:
  // reserve(n) on a vector allocates exactly n, so a miscount shows as a
  // capacity above the final size (too much) or a regrowth (too little).
  Rng rng(5);
  BatchJob job;
  job.tenant = 9;
  job.b = 4;
  for (int p = 0; p < 4; ++p)
    job.problems.push_back(random_gaussian(2 + p, 3 + p % 2, rng));
  const std::vector<std::uint8_t> prefix = {1, 2, 3, 4, 5};
  const auto append = [&](const auto& encode) {
    std::vector<std::uint8_t> fresh;
    encode(fresh);
    std::vector<std::uint8_t> out = prefix;
    encode(out);
    EXPECT_EQ(out.capacity(), out.size());
    EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), out.begin()));
    std::vector<std::uint8_t> body(out.begin() + prefix.size(), out.end());
    EXPECT_EQ(body, fresh);
    return body;
  };

  const std::vector<std::uint8_t> request = append(
      [&](std::vector<std::uint8_t>& out) { encode_submit_batch(job, out); });
  BatchJob back;
  ASSERT_FALSE(decode_submit_batch(request, ServerLimits{}, &back).has_value());
  EXPECT_EQ(back.tenant, 9);
  ASSERT_EQ(back.problems.size(), job.problems.size());
  for (std::size_t p = 0; p < job.problems.size(); ++p)
    EXPECT_EQ(back.problems[p].storage(), job.problems[p].storage());

  const std::vector<std::uint8_t> reply =
      append([&](std::vector<std::uint8_t>& out) {
        encode_batch_result(job.problems, out);
      });
  const std::vector<Matrix> rs = decode_batch_result(reply);
  ASSERT_EQ(rs.size(), job.problems.size());
  for (std::size_t p = 0; p < rs.size(); ++p) {
    EXPECT_EQ(rs[p].rows(), job.problems[p].rows());
    EXPECT_EQ(rs[p].storage(), job.problems[p].storage());
  }
}

TEST(Protocol, ResultStatusErrorRoundTrip) {
  Rng rng(4);
  QROutcome res;
  res.r = random_gaussian(4, 6, rng);
  res.has_q = true;
  res.q = random_gaussian(6, 4, rng);
  std::vector<std::uint8_t> wire;
  encode_result(res, wire);
  QROutcome back = decode_result(wire);
  EXPECT_EQ(back.r.storage(), res.r.storage());
  ASSERT_TRUE(back.has_q);
  EXPECT_EQ(back.q.storage(), res.q.storage());

  ServerStatus st;
  st.requests_accepted = 10;
  st.requests_completed = 9;
  st.requests_rejected = 2;
  st.requests_cancelled = 1;
  st.batches_accepted = 3;
  st.batch_problems = 3000;
  st.streams_opened = 4;
  st.stream_rows = 12345;
  st.active_dags = 5;
  st.ready_tasks = 77;
  st.max_active_dags = 8;
  st.open_sessions = 6;
  wire.clear();
  encode_status(st, wire);
  ServerStatus sb = decode_status(wire);
  EXPECT_EQ(sb.requests_accepted, 10);
  EXPECT_EQ(sb.batch_problems, 3000);
  EXPECT_EQ(sb.stream_rows, 12345);
  EXPECT_EQ(sb.max_active_dags, 8);
  EXPECT_EQ(sb.open_sessions, 6);

  ErrorInfo err{ErrorCode::BadInnerBlock, "ib out of range"};
  wire.clear();
  encode_error(err, wire);
  ErrorInfo eb = decode_error(wire);
  EXPECT_EQ(eb.code, ErrorCode::BadInnerBlock);
  EXPECT_EQ(eb.message, "ib out of range");
}

TEST(Protocol, StreamPayloadsRoundTripAndValidate) {
  StreamOpenReq req;
  req.tenant = 9;
  req.n = 12;
  req.b = 4;
  std::vector<std::uint8_t> wire;
  encode_stream_open(req, wire);
  StreamOpenReq back;
  ASSERT_FALSE(decode_stream_open(wire, small_limits(), &back).has_value());
  EXPECT_EQ(back.n, 12);
  EXPECT_EQ(back.b, 4);

  req.n = 0;
  wire.clear();
  encode_stream_open(req, wire);
  auto e = decode_stream_open(wire, small_limits(), &back);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->code, ErrorCode::BadDimensions);

  Rng rng(5);
  Matrix rows = random_gaussian(7, 12, rng);
  wire.clear();
  encode_stream_append(rows, wire);
  Matrix rows_back;
  ASSERT_FALSE(
      decode_stream_append(wire, 12, small_limits(), &rows_back).has_value());
  EXPECT_EQ(rows_back.storage(), rows.storage());

  // Same payload against a session with a different width: malformed.
  e = decode_stream_append(wire, 10, small_limits(), &rows_back);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->code, ErrorCode::Malformed);
}

TEST(Protocol, TreeChoiceNamesRoundTrip) {
  for (int v = 0; v <= static_cast<int>(TreeChoice::Fibonacci); ++v) {
    const auto t = static_cast<TreeChoice>(v);
    EXPECT_EQ(tree_choice_from_name(tree_choice_name(t)), t);
  }
  EXPECT_THROW(tree_choice_from_name("spanning"), Error);
  // Every choice yields a non-empty elimination list on a real grid.
  for (int v = 0; v <= static_cast<int>(TreeChoice::Fibonacci); ++v)
    EXPECT_FALSE(elimination_for(static_cast<TreeChoice>(v), 4, 2).empty());
}

}  // namespace
}  // namespace hqr::serve
