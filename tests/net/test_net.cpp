#include <gtest/gtest.h>

#include <pthread.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "net/clock_sync.hpp"
#include "net/comm.hpp"
#include "net/launcher.hpp"
#include "net/message.hpp"
#include "net/socket.hpp"

namespace hqr::net {
namespace {

// A connected 2-rank communicator pair in this process (Comm holds a mutex,
// so it lives on the heap).
struct CommPair {
  std::unique_ptr<Comm> c0, c1;
};

CommPair comm_pair() {
  auto [a, b] = stream_pair();
  std::vector<Fd> peers0(2), peers1(2);
  peers0[1] = std::move(a);
  peers1[0] = std::move(b);
  return {std::make_unique<Comm>(0, std::move(peers0)),
          std::make_unique<Comm>(1, std::move(peers1))};
}

// Pumps `c` until `n` messages arrive (bounded, so a regression fails the
// test instead of hanging it).
std::vector<Message> pump_until(Comm& c, int n) {
  std::vector<Message> got;
  for (int spin = 0; spin < 20000 && static_cast<int>(got.size()) < n; ++spin)
    c.pump(1, [&](Message&& m) { got.push_back(std::move(m)); });
  return got;
}

// A Comm wired to a raw socket end, so tests can feed it arbitrary bytes.
struct RawPeer {
  std::unique_ptr<Comm> c;  // rank 0; its peer "rank 1" is the raw fd
  Fd raw;
};

RawPeer raw_peer() {
  auto [a, b] = stream_pair();
  std::vector<Fd> peers(2);
  peers[1] = std::move(a);
  return {std::make_unique<Comm>(0, std::move(peers)), std::move(b)};
}

void write_exact(int fd, const void* p, std::size_t n) {
  const auto* bytes = static_cast<const std::uint8_t*>(p);
  std::size_t done = 0;
  while (done < n) {
    const ssize_t w = ::write(fd, bytes + done, n - done);
    ASSERT_GT(w, 0);
    done += static_cast<std::size_t>(w);
  }
}

// Pump until the malformed frame surfaces as an error; returns its text.
std::string pump_for_error(Comm& c) {
  for (int spin = 0; spin < 1000; ++spin) {
    try {
      c.pump(1, [](Message&&) {});
    } catch (const Error& e) {
      return e.what();
    }
  }
  return "";
}

TEST(Wire, HeaderEncodesLittleEndianAtFixedOffsets) {
  FrameHeader h;
  h.tag = static_cast<std::uint32_t>(Tag::Gather);
  h.src = 3;
  h.id = 0x01020304;
  h.bytes = 0x0102030405060708ull;
  std::uint8_t buf[kFrameHeaderBytes];
  encode_header(h, buf);
  // Low byte first, regardless of the host's native order.
  EXPECT_EQ(buf[0], 0x4d);  // kMagic = 0x4851524d ("HQRM" read back-to-front)
  EXPECT_EQ(buf[3], 0x48);
  EXPECT_EQ(buf[4], kWireVersion);
  EXPECT_EQ(buf[6], kFrameHeaderBytes);
  EXPECT_EQ(buf[16], 0x04);  // id low byte
  EXPECT_EQ(buf[24], 0x08);  // bytes low byte
  EXPECT_EQ(buf[31], 0x01);  // bytes high byte
  const FrameHeader back = decode_header(buf);
  EXPECT_EQ(back.magic, kMagic);
  EXPECT_EQ(back.version, kWireVersion);
  EXPECT_EQ(back.header_bytes, kFrameHeaderBytes);
  EXPECT_EQ(back.tag, h.tag);
  EXPECT_EQ(back.src, 3);
  EXPECT_EQ(back.id, 0x01020304);
  EXPECT_EQ(back.bytes, h.bytes);
}

TEST(Wire, PayloadReaderRejectsOverrun) {
  std::vector<std::uint8_t> buf(12);
  PayloadReader r(buf);
  std::int64_t v = 0;
  r.raw(&v, 8);
  EXPECT_EQ(r.remaining(), 4u);
  double d = 0.0;
  EXPECT_THROW(r.f64(&d, 1), Error);  // 8 > 4 remaining
  // A huge count must not wrap the bounds arithmetic either.
  PayloadReader r2(buf);
  EXPECT_THROW(r2.raw(&v, static_cast<std::size_t>(-1)), Error);
}

TEST(Comm, RejectsFrameWithBadMagic) {
  RawPeer p = raw_peer();
  FrameHeader h;
  h.magic = 0xdeadbeef;
  h.tag = static_cast<std::uint32_t>(Tag::Data);
  std::uint8_t buf[kFrameHeaderBytes];
  encode_header(h, buf);
  write_exact(p.raw.get(), buf, sizeof(buf));
  EXPECT_NE(pump_for_error(*p.c).find("bad frame magic"), std::string::npos);
}

TEST(Comm, ReportsByteSwappedPeerAsEndiannessMismatch) {
  RawPeer p = raw_peer();
  FrameHeader h;
  h.magic = kMagicSwapped;  // what kMagic looks like from the other order
  std::uint8_t buf[kFrameHeaderBytes];
  encode_header(h, buf);
  write_exact(p.raw.get(), buf, sizeof(buf));
  EXPECT_NE(pump_for_error(*p.c).find("byte-swapped"), std::string::npos);
}

TEST(Comm, RejectsFrameFromOtherWireVersion) {
  RawPeer p = raw_peer();
  FrameHeader h;
  h.version = kWireVersion + 1;
  h.tag = static_cast<std::uint32_t>(Tag::Data);
  std::uint8_t buf[kFrameHeaderBytes];
  encode_header(h, buf);
  write_exact(p.raw.get(), buf, sizeof(buf));
  EXPECT_NE(pump_for_error(*p.c).find("wire version mismatch"),
            std::string::npos);
}

TEST(Comm, RejectsFrameWithUnknownTag) {
  RawPeer p = raw_peer();
  FrameHeader h;
  h.tag = 250;
  std::uint8_t buf[kFrameHeaderBytes];
  encode_header(h, buf);
  write_exact(p.raw.get(), buf, sizeof(buf));
  EXPECT_NE(pump_for_error(*p.c).find("unknown tag"), std::string::npos);
}

TEST(Comm, PeerDeathMidFrameSurfacesEvenWhenEofExpected) {
  // A valid header promising 64 payload bytes, then only 8, then death:
  // even with eof_ok set this must surface as an error (the stream died on
  // no frame boundary), never hang.
  RawPeer p = raw_peer();
  p.c->set_eof_ok(true);
  FrameHeader h;
  h.tag = static_cast<std::uint32_t>(Tag::Data);
  h.src = 1;
  h.bytes = 64;
  std::uint8_t buf[kFrameHeaderBytes];
  encode_header(h, buf);
  write_exact(p.raw.get(), buf, sizeof(buf));
  const double partial = 1.0;
  write_exact(p.raw.get(), &partial, sizeof(partial));
  p.raw.reset();  // the peer dies mid-frame
  EXPECT_NE(pump_for_error(*p.c).find("mid-frame"), std::string::npos);

  // Death inside the *header* is mid-stream, equally fatal.
  RawPeer q = raw_peer();
  q.c->set_eof_ok(true);
  write_exact(q.raw.get(), buf, 10);  // partial header
  q.raw.reset();
  EXPECT_NE(pump_for_error(*q.c).find("mid-stream"), std::string::npos);
}

TEST(Comm, RoundTripPreservesTagIdAndPayload) {
  CommPair p = comm_pair();
  const std::string text = "hello, rank one";
  p.c0->post(1, Tag::Data, 42, text.data(), text.size());
  p.c0->post(1, Tag::Stats, 7, nullptr, 0);
  while (!p.c0->flushed()) p.c0->pump(1, [](Message&&) {});

  const std::vector<Message> got = pump_until(*p.c1, 2);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].tag, Tag::Data);
  EXPECT_EQ(got[0].src, 0);
  EXPECT_EQ(got[0].id, 42);
  EXPECT_EQ(std::string(got[0].payload.begin(), got[0].payload.end()), text);
  EXPECT_EQ(got[1].tag, Tag::Stats);
  EXPECT_EQ(got[1].id, 7);
  EXPECT_TRUE(got[1].payload.empty());
}

TEST(Comm, LargePayloadCrossesKernelBufferBoundaries) {
  CommPair p = comm_pair();
  // Much larger than a socket buffer: forces many partial writes/reads.
  std::vector<std::uint8_t> big(4 * 1024 * 1024);
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<std::uint8_t>(i * 31 + 7);
  p.c0->post(1, Tag::Gather, 0, big.data(), big.size());

  // Sender and receiver must interleave: the send cannot complete until
  // the receiver drains the stream.
  std::vector<Message> got;
  for (int spin = 0; spin < 20000 && got.empty(); ++spin) {
    p.c0->pump(0, [](Message&&) {});
    p.c1->pump(1, [&](Message&& m) { got.push_back(std::move(m)); });
  }
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].payload, big);
  EXPECT_TRUE(p.c0->flushed());
}

TEST(Comm, CountersSplitDataFromControl) {
  CommPair p = comm_pair();
  const char payload[16] = {0};
  p.c0->post(1, Tag::Data, 0, payload, sizeof(payload));
  p.c0->post(1, Tag::Data, 1, payload, sizeof(payload));
  p.c0->post(1, Tag::Bye, 0, nullptr, 0);
  while (!p.c0->flushed()) p.c0->pump(1, [](Message&&) {});
  (void)pump_until(*p.c1, 3);

  EXPECT_EQ(p.c0->counters().data_messages_sent, 2);
  EXPECT_EQ(p.c0->counters().data_bytes_sent, 32);
  EXPECT_EQ(p.c0->counters().control_messages_sent, 1);
  EXPECT_EQ(p.c1->counters().data_messages_recv, 2);
  EXPECT_EQ(p.c1->counters().data_bytes_recv, 32);
  EXPECT_EQ(p.c1->counters().control_messages_recv, 1);
}

TEST(Comm, PeerEofThrowsUnlessExpected) {
  CommPair p = comm_pair();
  p.c0.reset();  // closes rank 0's sockets
  EXPECT_THROW(
      {
        for (int spin = 0; spin < 100; ++spin)
          p.c1->pump(1, [](Message&&) {});
      },
      Error);

  // With eof_ok set, the same situation is a clean no-op.
  CommPair q = comm_pair();
  q.c0.reset();
  q.c1->set_eof_ok(true);
  for (int spin = 0; spin < 100; ++spin) q.c1->pump(1, [](Message&&) {});
}

TEST(Launcher, AllRanksSucceed) {
  const int rc = run_ranks(4, [](Comm& comm) -> int {
    EXPECT_EQ(comm.size(), 4);
    EXPECT_GE(comm.rank(), 0);
    EXPECT_LT(comm.rank(), 4);
    return 0;
  });
  EXPECT_EQ(rc, 0);
}

TEST(Launcher, RanksExchangeMessagesThroughTheMesh) {
  // Every rank sends its rank number to every other rank and checks what
  // it receives; assertion failures surface through the exit code.
  const int rc = run_ranks(3, [](Comm& comm) -> int {
    for (int q = 0; q < comm.size(); ++q) {
      if (q == comm.rank()) continue;
      const std::int32_t me = comm.rank();
      comm.post(q, Tag::Data, me, &me, sizeof(me));
    }
    // A peer that got everything exits (closing its sockets) while we may
    // still be pumping; every frame is flushed before exit, so EOFs land on
    // frame boundaries and are expected.
    comm.set_eof_ok(true);
    int got = 0;
    bool ok = true;
    for (int spin = 0;
         spin < 100000 && (got < comm.size() - 1 || !comm.flushed()); ++spin) {
      comm.pump(1, [&](Message&& m) {
        std::int32_t body = -1;
        std::memcpy(&body, m.payload.data(), sizeof(body));
        ok = ok && body == m.src && m.id == m.src;
        ++got;
      });
    }
    return (ok && got == comm.size() - 1 && comm.flushed()) ? 0 : 1;
  });
  EXPECT_EQ(rc, 0);
}

TEST(Launcher, PropagatesFirstNonzeroExit) {
  const int rc = run_ranks(
      3, [](Comm& comm) -> int { return comm.rank() == 1 ? 7 : 0; });
  EXPECT_EQ(rc, 7);
}

TEST(Comm, PerTagCountersAndQueueDepth) {
  CommPair p = comm_pair();
  EXPECT_EQ(p.c0->send_queue_frames(), 0);
  EXPECT_EQ(p.c0->send_queue_bytes(), 0);
  const double x = 1.0;
  p.c0->post(1, Tag::Data, 1, &x, sizeof(x));
  p.c0->post(1, Tag::Telemetry, 0, &x, sizeof(x));
  p.c0->post(1, Tag::Bye, 0, nullptr, 0);
  EXPECT_EQ(p.c0->send_queue_frames(), 3);
  // Three frame headers plus two double payloads still queued.
  EXPECT_EQ(p.c0->send_queue_bytes(),
            3 * static_cast<long long>(kFrameHeaderBytes) +
                2 * static_cast<long long>(sizeof(double)));
  while (!p.c0->flushed()) p.c0->pump(1, [](Message&&) {});
  EXPECT_EQ(p.c0->send_queue_frames(), 0);
  EXPECT_EQ(p.c0->send_queue_bytes(), 0);

  const std::vector<Message> got = pump_until(*p.c1, 3);
  ASSERT_EQ(got.size(), 3u);
  const CommCounters& s = p.c0->counters();
  EXPECT_EQ(s.messages_sent_by_tag[tag_index(Tag::Data)], 1);
  EXPECT_EQ(s.messages_sent_by_tag[tag_index(Tag::Telemetry)], 1);
  EXPECT_EQ(s.messages_sent_by_tag[tag_index(Tag::Bye)], 1);
  EXPECT_EQ(s.messages_sent_by_tag[tag_index(Tag::Gather)], 0);
  EXPECT_EQ(s.bytes_sent_by_tag[tag_index(Tag::Data)],
            static_cast<long long>(sizeof(double)));
  const CommCounters& r = p.c1->counters();
  EXPECT_EQ(r.messages_recv_by_tag[tag_index(Tag::Data)], 1);
  EXPECT_EQ(r.messages_recv_by_tag[tag_index(Tag::Telemetry)], 1);
  EXPECT_EQ(r.messages_recv_by_tag[tag_index(Tag::Bye)], 1);
  EXPECT_EQ(r.bytes_recv_by_tag[tag_index(Tag::Bye)], 0);
  // The locked snapshot sees the same totals once traffic quiesced.
  EXPECT_EQ(p.c0->counters_snapshot().messages_sent_by_tag[tag_index(
                Tag::Telemetry)],
            1);
}

// Regression for a counter race: drain_peer used to bump the recv-side
// counters_ fields with no lock while counters_snapshot() read them under
// send_mu_. Under TSAN this test flags any unlocked counter mutation; under
// a plain build it still checks snapshots are monotonic, never torn.
TEST(Comm, CountersSnapshotIsConsistentWhileReceiving) {
  CommPair p = comm_pair();
  constexpr int kFrames = 400;
  std::atomic<bool> done{false};
  std::thread sender([&] {
    const double x = 2.5;
    for (int i = 0; i < kFrames; ++i) {
      p.c0->post(1, Tag::Data, i, &x, sizeof(x));
      p.c0->pump(0, [](Message&&) {});
    }
    while (!p.c0->flushed()) p.c0->pump(1, [](Message&&) {});
  });
  std::thread receiver([&] {
    int got = 0;
    for (int spin = 0; spin < 200000 && got < kFrames; ++spin)
      p.c1->pump(1, [&](Message&&) { ++got; });
    done.store(true, std::memory_order_release);
  });
  long long last_msgs = 0;
  while (!done.load(std::memory_order_acquire)) {
    const CommCounters s = p.c1->counters_snapshot();
    // Monotone message count, and bytes always consistent with it.
    EXPECT_GE(s.data_messages_recv, last_msgs);
    EXPECT_EQ(s.data_bytes_recv,
              s.data_messages_recv * static_cast<long long>(sizeof(double)));
    last_msgs = s.data_messages_recv;
  }
  sender.join();
  receiver.join();
  EXPECT_EQ(p.c1->counters_snapshot().data_messages_recv, kFrames);
}

// Regression for the EINTR path: a frame posted while pump() sleeps in
// poll() is invisible to that poll's pollfd interest set, and a signal
// used to make pump return without flushing it, stranding the frame until
// an unrelated wakeup. The post now wakes the pump, and a signal arriving
// in the same window must not lose the frame either.
TEST(Comm, SignalDuringPumpDoesNotStrandQueuedSends) {
  struct sigaction sa {};
  struct sigaction old {};
  sa.sa_handler = [](int) {};  // no SA_RESTART: poll must see EINTR
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);

  CommPair p = comm_pair();
  std::thread pumper([&] {
    // One long sleep in poll(); nothing is queued when it starts.
    p.c0->pump(30000, [](Message&&) {});
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const double x = 7.0;
  p.c0->post(1, Tag::Data, 11, &x, sizeof(x));

  // The post's wake or a signal ends the 30 s sleep; either way the frame
  // must arrive.
  std::vector<Message> got;
  for (int spin = 0; spin < 2000 && got.empty(); ++spin) {
    ::pthread_kill(pumper.native_handle(), SIGUSR1);
    p.c1->pump(5, [&](Message&& m) { got.push_back(std::move(m)); });
  }
  pumper.join();
  ::sigaction(SIGUSR1, &old, nullptr);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, 11);
  EXPECT_TRUE(p.c0->flushed());
}

// A frame posted while another thread's pump() sleeps in poll leaves at
// once: the post wakes the pump, whose poll set predates the frame. No
// signal is sent; without the wake the frame waits out the 3 s timeout.
TEST(Comm, PostFromAnotherThreadWakesASleepingPump) {
  using Clock = std::chrono::steady_clock;
  CommPair p = comm_pair();
  std::thread pumper([&] { p.c0->pump(3000, [](Message&&) {}); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const double x = 4.0;
  const Clock::time_point t0 = Clock::now();
  p.c0->post(1, Tag::Data, 21, &x, sizeof(x));
  std::vector<Message> got;
  while (got.empty() && Clock::now() - t0 < std::chrono::milliseconds(500))
    p.c1->pump(5, [&](Message&& m) { got.push_back(std::move(m)); });
  const Clock::duration waited = Clock::now() - t0;
  pumper.join();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, 21);
  EXPECT_LT(waited, std::chrono::milliseconds(500));
  EXPECT_TRUE(p.c0->flushed());
}

// The wake respects pause_peer: a frame posted to a held link stays queued
// until the hold ends, and then leaves without the sleeping pump first
// waiting out its 3 s timeout.
TEST(Comm, WakeLeavesAPausedLinkHeldUntilItsHoldEnds) {
  using Clock = std::chrono::steady_clock;
  CommPair p = comm_pair();
  const Clock::time_point paused = Clock::now();
  p.c0->pause_peer(1, 0.3);
  std::atomic<bool> stop{false};
  std::thread pumper([&] {
    while (!stop.load(std::memory_order_acquire))
      p.c0->pump(3000, [](Message&&) {});
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const double x = 5.0;
  p.c0->post(1, Tag::Data, 22, &x, sizeof(x));
  std::vector<Message> got;
  while (got.empty() && Clock::now() - paused < std::chrono::milliseconds(2500))
    p.c1->pump(5, [&](Message&& m) { got.push_back(std::move(m)); });
  const Clock::duration arrived = Clock::now() - paused;
  stop.store(true, std::memory_order_release);
  p.c0->post(1, Tag::Bye, 0, nullptr, 0);  // wakes the pumper to see `stop`
  pumper.join();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, 22);
  EXPECT_GE(arrived, std::chrono::milliseconds(300));
  EXPECT_LT(arrived, std::chrono::milliseconds(2500));
}

TEST(ClockSync, MidpointEstimatorRecoversKnownOffset) {
  // Responder clock runs 5 s ahead; 1 s each way on the wire, symmetric:
  // ping sent at 100 arrives at responder time 106, reply leaves 106.5 and
  // lands at requester time 102.5.
  EXPECT_DOUBLE_EQ(estimate_clock_offset(100.0, 106.0, 106.5, 102.5), 5.0);
  EXPECT_DOUBLE_EQ(estimate_clock_offset(0.0, 0.0, 0.0, 0.0), 0.0);
  // Pure symmetric delay with equal clocks estimates zero.
  EXPECT_DOUBLE_EQ(estimate_clock_offset(10.0, 11.0, 11.0, 12.0), 0.0);
}

TEST(ClockSync, TwoRankHandshakeBoundsOffsetByHalfRtt) {
  CommPair p = comm_pair();
  ClockSync r1;
  std::thread t1([&] { r1 = sync_clocks(*p.c1, nullptr, 8, 20.0); });
  const ClockSync r0 = sync_clocks(*p.c0, nullptr, 8, 20.0);
  t1.join();
  // Rank 0 is the reference: zero offset by definition.
  EXPECT_EQ(r0.offset_seconds, 0.0);
  EXPECT_EQ(r1.rounds, 8);
  EXPECT_GT(r1.min_rtt_seconds, 0.0);
  // Both endpoints share one hardware clock here, so the estimate must sit
  // within the estimator's own error bound around zero.
  EXPECT_LE(std::abs(r1.offset_seconds), r1.min_rtt_seconds / 2 + 1e-12);
}

TEST(ClockSync, ParksForeignMessagesArrivingMidHandshake) {
  CommPair p = comm_pair();
  // Rank 1 fires a Data frame before syncing: socket order delivers it to
  // rank 0 ahead of the pings, mid-handshake.
  const double x = 3.5;
  p.c1->post(0, Tag::Data, 99, &x, sizeof(x));
  std::vector<Message> held0, held1;
  ClockSync r1;
  std::thread t1([&] { r1 = sync_clocks(*p.c1, &held1, 4, 20.0); });
  const ClockSync r0 = sync_clocks(*p.c0, &held0, 4, 20.0);
  t1.join();
  EXPECT_EQ(r0.rounds, 4);
  ASSERT_EQ(held0.size(), 1u);
  EXPECT_EQ(held0[0].tag, Tag::Data);
  EXPECT_EQ(held0[0].id, 99);
  ASSERT_EQ(held0[0].payload.size(), sizeof(double));
  double back = 0.0;
  std::memcpy(&back, held0[0].payload.data(), sizeof(back));
  EXPECT_EQ(back, 3.5);
  EXPECT_TRUE(held1.empty());
}

TEST(ClockSync, SingleRankIsANoOp) {
  std::vector<Fd> self(1);
  Comm solo(0, std::move(self));
  const ClockSync r = sync_clocks(solo);
  EXPECT_EQ(r.offset_seconds, 0.0);
  EXPECT_EQ(r.min_rtt_seconds, 0.0);
}

TEST(Launcher, UncaughtErrorBecomesExitOne) {
  const int rc = run_ranks(2, [](Comm& comm) -> int {
    HQR_CHECK(comm.rank() != 1, "rank 1 aborts on purpose");
    return 0;
  });
  EXPECT_EQ(rc, 1);
}

TEST(Launcher, DeadlineKillsWedgedRanks) {
  LaunchOptions opts;
  opts.timeout_seconds = 0.5;
  const int rc = run_ranks(
      2,
      [](Comm& comm) -> int {
        if (comm.rank() == 1) ::sleep(3600);  // wedged forever
        return 0;
      },
      opts);
  EXPECT_NE(rc, 0);
}

}  // namespace
}  // namespace hqr::net
