// Thin RAII + error-checked wrappers over the POSIX stream sockets the
// message-passing layer runs on. Two families of primitives live here:
//
//  * AF_UNIX socketpairs (created by the launcher before fork) — reliable,
//    ordered byte streams with kernel buffering, no address setup, and
//    automatic teardown when a peer dies; the `unix` transport's mesh.
//  * TCP sockets (listen/accept/connect with deadlines, TCP_NODELAY) — the
//    `tcp` transport's rendezvous and mesh links, usable over loopback or
//    real interfaces.
//
// Everything returns the same nonblocking-friendly Fd, so Comm never knows
// which transport produced its peers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

struct iovec;

namespace hqr::net {

// Owning file descriptor. Move-only.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  Fd(Fd&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Fd& operator=(Fd&& o) noexcept {
    if (this != &o) {
      reset();
      fd_ = o.fd_;
      o.fd_ = -1;
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  ~Fd() { reset(); }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() {
    const int f = fd_;
    fd_ = -1;
    return f;
  }
  void reset();

 private:
  int fd_ = -1;
};

// A connected AF_UNIX stream socketpair; throws hqr::Error on failure.
std::pair<Fd, Fd> stream_pair();

// Marks the descriptor nonblocking (the progress loop multiplexes with
// poll); throws hqr::Error on failure.
void set_nonblocking(int fd);

// Nonblocking write/read of up to n bytes. Returns the byte count moved
// (possibly 0 when the kernel buffer is full/empty), or -1 on EOF (read
// only). Throws hqr::Error on a hard socket error.
std::ptrdiff_t write_some(int fd, const void* p, std::size_t n);
std::ptrdiff_t read_some(int fd, void* p, std::size_t n);

// Gathering form of write_some: writes the `count` buffers of `iov` as one
// stream, in order, in a single call. Same return and error contract.
std::ptrdiff_t write_some(int fd, const iovec* iov, int count);

// --- TCP primitives (net/transport.hpp builds the rank mesh on these) ---

// Binds a listening TCP socket on `host` (numeric IPv4, e.g. "127.0.0.1");
// `*port` selects the port (0 asks the kernel for an ephemeral one) and
// receives the port actually bound. Throws hqr::Error on failure.
Fd tcp_listen(const std::string& host, std::uint16_t* port);

// Accepts one connection, waiting at most until `deadline` (a
// monotonic_seconds() instant). Throws hqr::Error on timeout or error.
Fd tcp_accept(int listener, double deadline);

// Connects to host:port, waiting at most until `deadline`. The returned
// socket is nonblocking. Throws hqr::Error on timeout, refusal, or error.
Fd tcp_connect(const std::string& host, std::uint16_t port, double deadline);

// Disables Nagle batching. Control frames (Bye/Abort/Telemetry, tree
// forwards of small tiles) are latency-sensitive and the Comm layer writes
// whole frames at once, so there is nothing for Nagle to usefully coalesce.
// Throws hqr::Error on failure; no-op on non-TCP sockets.
void set_tcp_nodelay(int fd);

// Blocking-style exact-count transfer with a deadline, usable on sockets in
// any blocking mode (poll-driven). Setup handshakes only — the Comm pump
// keeps using the nonblocking some-variants. Throws hqr::Error on timeout,
// EOF, or error.
void write_all(int fd, const void* p, std::size_t n, double deadline);
void read_all(int fd, void* p, std::size_t n, double deadline);

// --- Descriptor passing (the fault-tolerant launcher's re-wiring path) ---

// Sends `n` bytes plus, when fd_to_pass >= 0, one file descriptor as
// SCM_RIGHTS ancillary data over an AF_UNIX socket. The message is sent
// atomically (small control payloads only). Throws hqr::Error on failure,
// including a closed peer.
void send_with_fd(int sock, const void* p, std::size_t n, int fd_to_pass);

// Receives exactly `n` bytes and any descriptor that rode along (stored in
// *received, which is left invalid when none arrived). Returns false on
// orderly EOF before any byte, true on a full message; throws on a short or
// failed read. `sock` may be nonblocking — the call polls until the message
// arrives or `deadline` passes.
bool recv_with_fd(int sock, void* p, std::size_t n, Fd* received,
                  double deadline);

}  // namespace hqr::net
