#include "net/comm.hpp"

#include <climits>
#include <cmath>
#include <cstring>

#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include "common/check.hpp"
#include "common/stopwatch.hpp"
#include "net/control.hpp"

namespace hqr::net {

Comm::Comm(int rank, std::vector<Fd> peers)
    : rank_(rank), peers_(std::move(peers)) {
  HQR_CHECK(rank_ >= 0 && rank_ < static_cast<int>(peers_.size()),
            "rank " << rank_ << " outside communicator of size "
                    << peers_.size());
  for (int q = 0; q < size(); ++q) {
    if (q == rank_) continue;
    HQR_CHECK(peers_[q].valid(), "missing socket for peer rank " << q);
    set_nonblocking(peers_[q].get());
  }
  send_.resize(peers_.size());
  recv_.resize(peers_.size());
  down_.assign(peers_.size(), 0);
  down_epoch_.assign(peers_.size(), 0);
  epoch_.assign(peers_.size(), 0);
  paused_until_.assign(peers_.size(), 0.0);
  wake_ = Fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  HQR_CHECK(wake_.valid(), "eventfd: " << std::strerror(errno));
}

void Comm::enable_fault_tolerance(int control_fd, CommFaultHooks hooks) {
  fault_mode_ = true;
  control_fd_ = control_fd;
  hooks_ = std::move(hooks);
  if (control_fd_ >= 0) set_nonblocking(control_fd_);
}

bool Comm::peer_down(int q) const {
  std::lock_guard<std::mutex> lk(send_mu_);
  return down_[static_cast<std::size_t>(q)] != 0;
}

int Comm::peer_epoch(int q) const {
  std::lock_guard<std::mutex> lk(send_mu_);
  return epoch_[static_cast<std::size_t>(q)];
}

void Comm::sever_link(int q) {
  HQR_CHECK(q >= 0 && q < size() && q != rank_, "bad link peer " << q);
  // A worker calls this while the pump thread may install a re-wired
  // socket in peers_[q] (handle_control, under the same lock).
  std::lock_guard<std::mutex> lk(send_mu_);
  ::shutdown(peers_[static_cast<std::size_t>(q)].get(), SHUT_RDWR);
}

void Comm::pause_peer(int q, double seconds) {
  HQR_CHECK(q >= 0 && q < size() && q != rank_, "bad link peer " << q);
  std::lock_guard<std::mutex> lk(send_mu_);
  if (paused_until_[static_cast<std::size_t>(q)] == 0.0) ++paused_links_;
  paused_until_[static_cast<std::size_t>(q)] =
      monotonic_seconds() + (seconds > 0 ? seconds : 0.0);
}

void Comm::post(int dest, Tag tag, std::int32_t id, const void* payload,
                std::size_t bytes) {
  const auto* b = static_cast<const std::uint8_t*>(payload);
  post(dest, tag, id,
       bytes > 0 ? std::make_shared<const std::vector<std::uint8_t>>(
                       b, b + bytes)
                 : nullptr);
}

void Comm::post(int dest, Tag tag, std::int32_t id, Payload payload) {
  HQR_CHECK(dest >= 0 && dest < size() && dest != rank_,
            "bad destination rank " << dest);
  const std::size_t bytes = payload ? payload->size() : 0;
  FrameHeader h;
  h.tag = static_cast<std::uint32_t>(tag);
  h.src = rank_;
  h.id = id;
  h.bytes = bytes;
  Frame frame;
  encode_header(h, frame.header.data());
  frame.payload = std::move(payload);
  const long long frame_bytes = static_cast<long long>(frame.size());
  bool wake = false;
  {
    std::lock_guard<std::mutex> lk(send_mu_);
    if (down_[static_cast<std::size_t>(dest)]) {
      // The peer is between death and re-wire: the frame would only error
      // the socket again. The SentTileLog replay after ReplacePeer
      // re-delivers the payloads that matter; everything else (telemetry,
      // control) is droppable by design.
      ++counters_.frames_dropped_peer_down;
      return;
    }
    send_[static_cast<std::size_t>(dest)].frames.push_back(std::move(frame));
    ++pending_frames_;
    pending_bytes_ += frame_bytes;
    if (tag == Tag::Data) {
      ++counters_.data_messages_sent;
      counters_.data_bytes_sent += static_cast<long long>(bytes);
    } else {
      ++counters_.control_messages_sent;
      counters_.control_bytes_sent += static_cast<long long>(bytes);
    }
    ++counters_.messages_sent_by_tag[static_cast<std::size_t>(tag_index(tag))];
    counters_.bytes_sent_by_tag[static_cast<std::size_t>(tag_index(tag))] +=
        static_cast<long long>(bytes);
    wake = wake_armed_;
    wake_armed_ = false;
  }
  // The sleeping pump's poll set predates this frame; one signal per sleep
  // makes it re-read the queues.
  if (wake) {
    const std::uint64_t one = 1;
    const ssize_t w = ::write(wake_.get(), &one, sizeof(one));
    (void)w;  // EAGAIN only at a counter near 2^64: the fd is readable
  }
}

bool Comm::flushed() const {
  std::lock_guard<std::mutex> lk(send_mu_);
  return pending_frames_ == 0;
}

CommCounters Comm::counters_snapshot() const {
  std::lock_guard<std::mutex> lk(send_mu_);
  return counters_;
}

long long Comm::send_queue_frames() const {
  std::lock_guard<std::mutex> lk(send_mu_);
  return pending_frames_;
}

long long Comm::send_queue_bytes() const {
  std::lock_guard<std::mutex> lk(send_mu_);
  return pending_bytes_;
}

// Caller holds send_mu_. Discards q's queued frames, keeping the pending
// gauges consistent (the front frame may be partially written).
void Comm::drop_queue_locked(int q) {
  SendState& s = send_[static_cast<std::size_t>(q)];
  for (std::size_t i = 0; i < s.frames.size(); ++i) {
    --pending_frames_;
    pending_bytes_ -= static_cast<long long>(s.frames[i].size() -
                                             (i == 0 ? s.offset : 0));
    ++counters_.frames_dropped_peer_down;
  }
  s.frames.clear();
  s.offset = 0;
}

// Caller holds send_mu_. Discards the peer's send queue (those frames can
// never be written; the replay path re-delivers what matters) and closes
// the receive side so pump() stops polling the dead descriptor.
void Comm::mark_peer_down_locked(int q) {
  if (down_[static_cast<std::size_t>(q)]) return;
  down_[static_cast<std::size_t>(q)] = 1;
  // Stamp the epoch at detection time: a LinkDown report must carry the
  // incarnation of the link that actually died, not whatever a later
  // ReplacePeer may have installed by the time the pump ships the report
  // (the launcher would mistake it for a fresh failure and re-wire twice).
  down_epoch_[static_cast<std::size_t>(q)] = epoch_[static_cast<std::size_t>(q)];
  ++counters_.peers_down;
  drop_queue_locked(q);
  RecvState& r = recv_[static_cast<std::size_t>(q)];
  r.closed = true;
  r.header_got = 0;
  r.payload.clear();
  r.payload_got = 0;
}

bool Comm::flush_peer(int q) {
  // Frames per gathering write: each is a header and a payload buffer.
  constexpr int kMaxFrames = 32;
  std::lock_guard<std::mutex> lk(send_mu_);
  SendState& s = send_[static_cast<std::size_t>(q)];
  while (!s.frames.empty()) {
    iovec iov[2 * kMaxFrames];
    int n = 0;
    std::size_t want = 0;
    std::size_t skip = s.offset;  // already written of the front frame
    for (const Frame& f : s.frames) {
      if (n + 2 > 2 * kMaxFrames) break;
      if (skip < kFrameHeaderBytes)
        iov[n++] = {const_cast<std::uint8_t*>(f.header.data()) + skip,
                    kFrameHeaderBytes - skip};
      const std::size_t pskip = skip > kFrameHeaderBytes
                                    ? skip - kFrameHeaderBytes
                                    : 0;
      if (f.payload && pskip < f.payload->size())
        iov[n++] = {const_cast<std::uint8_t*>(f.payload->data()) + pskip,
                    f.payload->size() - pskip};
      want += f.size() - skip;
      skip = 0;
    }
    std::ptrdiff_t wrote = 0;
    if (fault_mode_) {
      try {
        wrote = write_some(peers_[static_cast<std::size_t>(q)].get(), iov, n);
      } catch (const std::exception&) {
        // EPIPE/ECONNRESET: the peer died under us mid-write.
        mark_peer_down_locked(q);
        return true;
      }
    } else {
      wrote = write_some(peers_[static_cast<std::size_t>(q)].get(), iov, n);
    }
    pending_bytes_ -= static_cast<long long>(wrote);
    auto left = static_cast<std::size_t>(wrote);
    while (left > 0) {
      const std::size_t rest = s.frames.front().size() - s.offset;
      if (left < rest) {
        s.offset += left;
        break;
      }
      left -= rest;
      s.frames.pop_front();
      s.offset = 0;
      --pending_frames_;
    }
    if (static_cast<std::size_t>(wrote) < want) return false;  // buffer full
  }
  return false;
}

void Comm::flush_posted(std::vector<int>& went_down) {
  std::vector<int> ready;
  {
    std::lock_guard<std::mutex> lk(send_mu_);
    for (int q = 0; q < size(); ++q) {
      const auto i = static_cast<std::size_t>(q);
      if (q != rank_ && !recv_[i].closed && !down_[i] &&
          !send_[i].frames.empty() && paused_until_[i] == 0.0)
        ready.push_back(q);
    }
  }
  for (const int q : ready)
    if (flush_peer(q)) went_down.push_back(q);
}

bool Comm::drain_peer(int q, std::vector<Message>& out) {
  RecvState& r = recv_[static_cast<std::size_t>(q)];
  const int fd = peers_[static_cast<std::size_t>(q)].get();
  const auto peer_died = [&]() {
    std::lock_guard<std::mutex> lk(send_mu_);
    mark_peer_down_locked(q);
    return true;
  };
  for (;;) {
    if (r.header_got < kFrameHeaderBytes) {
      std::ptrdiff_t got = 0;
      if (fault_mode_) {
        try {
          got = read_some(fd, r.header_raw + r.header_got,
                          kFrameHeaderBytes - r.header_got);
        } catch (const std::exception&) {
          return peer_died();
        }
        if (got < 0) return peer_died();
      } else {
        got = read_some(fd, r.header_raw + r.header_got,
                        kFrameHeaderBytes - r.header_got);
        if (got < 0) {
          HQR_CHECK(eof_ok_ && r.header_got == 0,
                    "rank " << q << " closed the connection mid-stream");
          r.closed = true;
          return false;
        }
      }
      if (got == 0) return false;
      r.header_got += static_cast<std::size_t>(got);
      if (r.header_got < kFrameHeaderBytes) return false;
      r.header = decode_header(r.header_raw);
      HQR_CHECK(r.header.magic != kMagicSwapped,
                "frame magic from rank "
                    << q << " is byte-swapped: peer serialized with the "
                    << "opposite byte order (pre-v2 wire format?)");
      HQR_CHECK(r.header.magic == kMagic, "bad frame magic from rank " << q);
      HQR_CHECK(r.header.version == kWireVersion,
                "wire version mismatch: rank " << q << " speaks v"
                                               << r.header.version
                                               << ", this build speaks v"
                                               << kWireVersion);
      HQR_CHECK(r.header.header_bytes == kFrameHeaderBytes,
                "frame header size mismatch from rank "
                    << q << " (" << r.header.header_bytes << " != "
                    << kFrameHeaderBytes << ")");
      HQR_CHECK(valid_tag(r.header.tag),
                "unknown tag " << r.header.tag << " from rank " << q);
      HQR_CHECK(r.header.bytes < (1ull << 34),
                "implausible frame size from rank " << q);
      r.payload.resize(static_cast<std::size_t>(r.header.bytes));
      r.payload_got = 0;
    }
    if (r.payload_got < r.payload.size()) {
      std::ptrdiff_t got = 0;
      if (fault_mode_) {
        try {
          got = read_some(fd, r.payload.data() + r.payload_got,
                          r.payload.size() - r.payload_got);
        } catch (const std::exception&) {
          return peer_died();
        }
        if (got < 0) return peer_died();
      } else {
        got = read_some(fd, r.payload.data() + r.payload_got,
                        r.payload.size() - r.payload_got);
        HQR_CHECK(got >= 0,
                  "rank " << q << " closed the connection mid-frame");
      }
      if (got == 0) return false;
      r.payload_got += static_cast<std::size_t>(got);
      if (r.payload_got < r.payload.size()) return false;
    }
    Message m;
    m.tag = static_cast<Tag>(r.header.tag);
    m.src = r.header.src;
    m.id = r.header.id;
    m.payload = std::move(r.payload);
    r.payload.clear();
    r.header_got = 0;
    r.payload_got = 0;
    {
      // Same lock post() bumps the send counters under: the telemetry
      // heartbeat snapshots counters mid-run from another thread, and an
      // unlocked recv-side update here could be observed torn.
      std::lock_guard<std::mutex> lk(send_mu_);
      if (m.tag == Tag::Data) {
        ++counters_.data_messages_recv;
        counters_.data_bytes_recv += static_cast<long long>(m.payload.size());
      } else {
        ++counters_.control_messages_recv;
        counters_.control_bytes_recv +=
            static_cast<long long>(m.payload.size());
      }
      const auto ti = static_cast<std::size_t>(tag_index(m.tag));
      ++counters_.messages_recv_by_tag[ti];
      counters_.bytes_recv_by_tag[ti] +=
          static_cast<long long>(m.payload.size());
    }
    out.push_back(std::move(m));
  }
}

// Drains every ReplacePeer waiting on the control channel and installs the
// passed descriptors; collects the re-wired peers for the caller's hook
// invocations. Runs on the pump thread.
void Comm::handle_control(std::vector<int>& replaced) {
  for (;;) {
    pollfd p{};
    p.fd = control_fd_;
    p.events = POLLIN;
    const int rc = ::poll(&p, 1, 0);
    if (rc <= 0 || !(p.revents & (POLLIN | POLLHUP))) return;
    ControlMsg m;
    Fd passed;
    bool got = false;
    try {
      got = recv_control(control_fd_, &m, &passed, monotonic_seconds() + 5.0);
    } catch (const std::exception&) {
      // ECONNRESET: the launcher's end closed with unread data (it tore
      // down after a failure elsewhere). Same meaning as the clean EOF.
    }
    if (!got) {
      control_fd_ = -1;  // launcher gone; PDEATHSIG will reap us anyway
      return;
    }
    if (static_cast<ControlOp>(m.op) != ControlOp::ReplacePeer) continue;
    const int q = m.peer;
    HQR_CHECK(q >= 0 && q < size() && q != rank_ && passed.valid(),
              "malformed ReplacePeer control message (peer " << q << ")");
    set_nonblocking(passed.get());
    {
      std::lock_guard<std::mutex> lk(send_mu_);
      peers_[static_cast<std::size_t>(q)] = std::move(passed);
      // The other endpoint may have reported the death first: frames can
      // still be queued here even though we never observed the failure.
      // They predate the re-wire, so they drop like any down-window frame.
      drop_queue_locked(q);
      RecvState& r = recv_[static_cast<std::size_t>(q)];
      r.closed = false;
      r.header_got = 0;
      r.payload.clear();
      r.payload_got = 0;
      down_[static_cast<std::size_t>(q)] = 0;
      ++epoch_[static_cast<std::size_t>(q)];
      ++counters_.peers_replaced;
    }
    replaced.push_back(q);
  }
}

int Comm::pump(int timeout_ms, const std::function<void(Message&&)>& on_msg) {
  std::vector<pollfd> fds;
  std::vector<int> who;
  fds.reserve(peers_.size() + 2);
  who.reserve(peers_.size() + 2);
  constexpr int kWake = -1;     // sentinel: the post() wake eventfd
  constexpr int kControl = -2;  // sentinel: the launcher control channel
  {
    std::lock_guard<std::mutex> lk(send_mu_);
    if (paused_links_ > 0) {
      const double now = monotonic_seconds();
      double next_resume = 0.0;
      for (int q = 0; q < size(); ++q) {
        double& until = paused_until_[static_cast<std::size_t>(q)];
        if (until > 0.0 && now >= until) {
          until = 0.0;
          --paused_links_;
        } else if (until > 0.0 && (next_resume == 0.0 || until < next_resume)) {
          next_resume = until;
        }
      }
      // Sleep no longer than the first hold: its frames leave when it ends.
      if (next_resume > 0.0) {
        const double ms = std::ceil((next_resume - now) * 1e3);
        if (timeout_ms < 0 || ms < timeout_ms)
          timeout_ms = ms < INT_MAX ? static_cast<int>(ms) : INT_MAX;
      }
    }
    for (int q = 0; q < size(); ++q) {
      if (q == rank_ || recv_[static_cast<std::size_t>(q)].closed) continue;
      pollfd p{};
      p.fd = peers_[static_cast<std::size_t>(q)].get();
      p.events = POLLIN;
      if (!send_[static_cast<std::size_t>(q)].frames.empty() &&
          paused_until_[static_cast<std::size_t>(q)] == 0.0)
        p.events |= POLLOUT;
      fds.push_back(p);
      who.push_back(q);
    }
    // From here a post() cannot be seen by this poll set: have it signal.
    wake_armed_ = true;
  }
  if (fault_mode_ && control_fd_ >= 0) {
    fds.push_back(pollfd{control_fd_, POLLIN, 0});
    who.push_back(kControl);
  }
  if (fds.empty()) return 0;
  fds.push_back(pollfd{wake_.get(), POLLIN, 0});
  who.push_back(kWake);
  const int rc = ::poll(fds.data(), fds.size(), timeout_ms);
  if (rc < 0) {
    // A signal cut the wait short. Nothing is stranded: a frame posted
    // during the wait signalled the wake fd, which the next poll sees.
    HQR_CHECK(errno == EINTR, "poll: " << std::strerror(errno));
    return 0;
  }
  if (rc == 0) return 0;

  std::vector<Message> delivered;
  std::vector<int> went_down;
  std::vector<int> replaced;
  for (std::size_t i = 0; i < fds.size(); ++i) {
    if (who[i] == kWake) {
      if (fds[i].revents & POLLIN) {
        std::uint64_t count = 0;
        const ssize_t r = ::read(wake_.get(), &count, sizeof(count));
        (void)r;  // resets the counter; the queues are what matter
        // Last in the poll set: a peer this pump already found dead is
        // skipped here, so no death is reported twice.
        flush_posted(went_down);
      }
      continue;
    }
    if (who[i] == kControl) {
      if (fds[i].revents & (POLLIN | POLLHUP)) handle_control(replaced);
      continue;
    }
    bool dead = false;
    if (fds[i].revents & POLLOUT) dead = flush_peer(who[i]);
    if (!dead && (fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
      dead = drain_peer(who[i], delivered);
    if (dead) went_down.push_back(who[i]);
  }
  for (Message& m : delivered) on_msg(std::move(m));
  for (const int q : replaced)
    if (hooks_.on_peer_replaced) hooks_.on_peer_replaced(q);
  for (const int q : went_down) {
    if (control_fd_ >= 0) {
      try {
        send_control(control_fd_, ControlOp::LinkDown, q,
                     down_epoch_[static_cast<std::size_t>(q)]);
      } catch (const std::exception&) {
        control_fd_ = -1;  // launcher gone
      }
    }
    if (hooks_.on_peer_down) hooks_.on_peer_down(q);
  }
  return static_cast<int>(delivered.size());
}

}  // namespace hqr::net
