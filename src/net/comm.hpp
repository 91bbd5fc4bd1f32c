// Rank-to-rank communicator: a fully connected mesh of stream sockets with
// framed tagged messages (net/message.hpp), eager sends and nonblocking
// poll-based progress.
//
// Threading model: any thread may post() (sends are enqueued under a
// mutex); exactly one thread at a time drives pump(), which flushes queued
// frames and delivers every completely received message to a handler. A
// post() wakes a pump() blocked in poll, so a frame leaves when it is
// posted, not at the pump's next timeout. The distributed runtime runs
// pump() on a dedicated communication thread during DAG execution — the
// paper's §V-A "additional communication thread" — and on the main thread
// during the gather/shutdown phases.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

#include "net/message.hpp"
#include "net/socket.hpp"

namespace hqr::net {

// Traffic counters, split exactly the way the cross-validation against the
// cluster simulator needs them: Data frames (the tile payloads whose count
// and dedup rule the simulator models) versus everything else (gather,
// stats, shutdown — traffic the model does not charge for). The per-tag
// arrays (indexed by the raw Tag value; slot 0 unused) break the same
// traffic down per message kind for the tracing/telemetry layer.
struct CommCounters {
  long long data_messages_sent = 0;
  long long data_bytes_sent = 0;  // payload bytes of Data frames
  long long data_messages_recv = 0;
  long long data_bytes_recv = 0;
  long long control_messages_sent = 0;
  long long control_bytes_sent = 0;
  long long control_messages_recv = 0;
  long long control_bytes_recv = 0;
  // Fault tolerance (all zero unless enable_fault_tolerance was called):
  // frames posted to a peer currently marked down are dropped — never
  // counted as sent — and tallied here; the SentTileLog replay after the
  // re-wire is what actually delivers their payloads.
  long long frames_dropped_peer_down = 0;
  long long peers_down = 0;      // peer-death events observed
  long long peers_replaced = 0;  // links re-wired by the launcher
  std::array<long long, kTagCount> messages_sent_by_tag{};
  std::array<long long, kTagCount> bytes_sent_by_tag{};
  std::array<long long, kTagCount> messages_recv_by_tag{};
  std::array<long long, kTagCount> bytes_recv_by_tag{};
};

// Callbacks of the fault-tolerant mode, both invoked on the thread driving
// pump() with no Comm lock held (posting from them is safe).
struct CommFaultHooks {
  // The stream to `peer` died (EOF or hard socket error). The peer is
  // already marked down: frames posted to it drop silently and its LinkDown
  // report has been sent to the launcher's control channel.
  std::function<void(int peer)> on_peer_down;
  // The launcher re-wired the link (ReplacePeer + passed descriptor): the
  // new socket is installed and the peer accepts traffic again. The
  // distributed runtime replays its SentTileLog from here.
  std::function<void(int peer)> on_peer_replaced;
};

class Comm {
 public:
  // peers[q] owns the socket connected to rank q (peers[rank] is ignored);
  // built by the launcher, or directly by in-process tests.
  Comm(int rank, std::vector<Fd> peers);

  int rank() const { return rank_; }
  int size() const { return static_cast<int>(peers_.size()); }

  // Enqueues one framed message to `dest` and returns immediately (eager
  // send). The frame holds `payload` itself, not a copy: post the same
  // Payload to every rank that needs it. A pump() blocked in poll wakes and
  // writes the frame at once, unless the link is paused (pause_peer) or
  // down; with no pump blocked, the next pump() writes it. Thread-safe.
  void post(int dest, Tag tag, std::int32_t id, Payload payload);

  // Posts a new payload holding a copy of `bytes` bytes at `payload`
  // (small control frames: stats, telemetry, clock sync). Thread-safe.
  void post(int dest, Tag tag, std::int32_t id, const void* payload,
            std::size_t bytes);

  // One progress iteration: writes queued frames until the kernel buffers
  // fill, reads whatever arrived, and invokes `on_msg` once per completely
  // received message. Blocks in poll for at most `timeout_ms` when there is
  // nothing to do; a post() from another thread or the end of a pause_peer
  // hold ends the wait early. Returns the number of messages delivered.
  // Throws hqr::Error on a socket error, or on peer EOF unless eof_ok() was
  // set (the shutdown phase expects peers to disappear).
  int pump(int timeout_ms, const std::function<void(Message&&)>& on_msg);

  // True when every posted frame has been written to the kernel.
  bool flushed() const;

  // Tolerate peers closing their end (set before the shutdown flush).
  void set_eof_ok(bool ok) { eof_ok_ = ok; }

  // Switches peer death from fatal (HQR_CHECK throw) to survivable: a dead
  // peer is marked down, its queued frames are discarded (tallied in
  // frames_dropped_peer_down), a LinkDown report goes to `control_fd` (the
  // launcher's channel; -1 = detection only, no re-wiring), and
  // hooks.on_peer_down fires. pump() additionally polls control_fd for
  // ReplacePeer messages and installs the passed descriptor. Call before
  // the first pump(); the default (off) behavior is bit-identical to
  // pre-fault builds.
  void enable_fault_tolerance(int control_fd, CommFaultHooks hooks);

  // True while frames to q are being dropped (between peer death and the
  // launcher's re-wire). Thread-safe.
  bool peer_down(int q) const;

  // Times the link to q has been re-wired (the LinkDown dedup epoch).
  int peer_epoch(int q) const;

  // Chaos hook (fault/plan.hpp DropLink): hard-closes both directions of
  // the stream to q, so both endpoints observe EOF as if the link failed.
  // Thread-safe.
  void sever_link(int q);

  // Chaos hook (DelayLink): holds outbound frames to q for `seconds`, then
  // restores normal flushing; inbound traffic is unaffected.
  void pause_peer(int q, double seconds);

  const CommCounters& counters() const { return counters_; }

  // Locked copy of the counters, safe to take mid-run while other threads
  // post() (the telemetry heartbeat samples this; plain counters() is only
  // consistent once sends quiesce).
  CommCounters counters_snapshot() const;

  // Instantaneous send-queue depth: frames posted but not yet fully written
  // to the kernel, and the payload+header bytes they still hold. Sampled by
  // the telemetry loop as the backpressure signal. Thread-safe.
  long long send_queue_frames() const;
  long long send_queue_bytes() const;

 private:
  // A queued frame: its encoded header and the shared payload buffer. The
  // socket writes both parts in one gathering write.
  struct Frame {
    std::array<std::uint8_t, kFrameHeaderBytes> header;
    Payload payload;  // null: empty payload
    std::size_t size() const {
      return kFrameHeaderBytes + (payload ? payload->size() : 0);
    }
  };
  struct SendState {
    std::deque<Frame> frames;
    std::size_t offset = 0;  // bytes of frames.front() already written
  };
  struct RecvState {
    std::uint8_t header_raw[kFrameHeaderBytes];  // wire bytes, decoded when full
    FrameHeader header;
    std::size_t header_got = 0;
    std::vector<std::uint8_t> payload;
    std::size_t payload_got = 0;
    bool closed = false;
  };

  // Both return true when the peer died under fault mode (already marked
  // down; the caller owes the hooks an on_peer_down).
  bool flush_peer(int q);
  // Reads from peer q; appends complete messages to `out`.
  bool drain_peer(int q, std::vector<Message>& out);

  // Flushes every peer whose queue a post() filled while pump() slept.
  void flush_posted(std::vector<int>& went_down);
  void drop_queue_locked(int q);
  void mark_peer_down_locked(int q);
  void handle_control(std::vector<int>& replaced);

  int rank_;
  std::vector<Fd> peers_;
  std::vector<SendState> send_;
  std::vector<RecvState> recv_;
  // Guards send_, pending_frames_/bytes_, every counters_ mutation, and
  // peers_ against a re-wire (the pump thread replaces an Fd while a worker
  // may sever it): send-side counters bump under it in post(), recv-side
  // in drain_peer() — so counters_snapshot() taken from the telemetry
  // thread can never observe a torn counter.
  mutable std::mutex send_mu_;
  long long pending_frames_ = 0;
  long long pending_bytes_ = 0;
  bool eof_ok_ = false;
  CommCounters counters_;
  // Fault-tolerant mode (all guarded by send_mu_ where shared).
  bool fault_mode_ = false;
  int control_fd_ = -1;
  CommFaultHooks hooks_;
  std::vector<char> down_;
  std::vector<int> down_epoch_;  // epoch_[q] at the instant q went down
  std::vector<int> epoch_;
  std::vector<double> paused_until_;  // 0 = not paused
  int paused_links_ = 0;
  // An eventfd in every pump()'s poll set. A post() signals it when a pump
  // may be blocked (wake_armed_, guarded by send_mu_: set as pump() builds
  // its poll set, cleared by the post that signals).
  Fd wake_;
  bool wake_armed_ = false;
};

}  // namespace hqr::net
