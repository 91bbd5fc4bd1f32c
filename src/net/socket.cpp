#include "net/socket.hpp"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include "common/check.hpp"
#include "common/stopwatch.hpp"

namespace hqr::net {

void Fd::reset() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

std::pair<Fd, Fd> stream_pair() {
  int fds[2];
  HQR_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0,
            "socketpair: " << std::strerror(errno));
  return {Fd(fds[0]), Fd(fds[1])};
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  HQR_CHECK(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
            "fcntl(O_NONBLOCK): " << std::strerror(errno));
}

std::ptrdiff_t write_some(int fd, const void* p, std::size_t n) {
  for (;;) {
    const ssize_t r = ::send(fd, p, n, MSG_NOSIGNAL);
    if (r >= 0) return r;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    HQR_CHECK(false, "socket write: " << std::strerror(errno));
  }
}

std::ptrdiff_t write_some(int fd, const iovec* iov, int count) {
  msghdr msg{};
  msg.msg_iov = const_cast<iovec*>(iov);
  msg.msg_iovlen = static_cast<std::size_t>(count);
  for (;;) {
    const ssize_t r = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (r >= 0) return r;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    HQR_CHECK(false, "socket write: " << std::strerror(errno));
  }
}

std::ptrdiff_t read_some(int fd, void* p, std::size_t n) {
  for (;;) {
    const ssize_t r = ::recv(fd, p, n, 0);
    if (r > 0) return r;
    if (r == 0) return -1;  // orderly EOF: the peer closed
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    HQR_CHECK(false, "socket read: " << std::strerror(errno));
  }
}

namespace {

sockaddr_in ipv4_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  HQR_CHECK(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
            "'" << host << "' is not a numeric IPv4 address");
  return addr;
}

// Remaining poll budget in whole milliseconds, at least 1 while the
// deadline has not passed (so a sub-millisecond budget still polls once).
int budget_ms(double deadline) {
  const double left = deadline - monotonic_seconds();
  if (left <= 0.0) return 0;
  const double ms = left * 1e3;
  return ms < 1.0 ? 1 : (ms > 60000.0 ? 60000 : static_cast<int>(ms));
}

void poll_for(int fd, short events, double deadline, const char* what) {
  for (;;) {
    const int ms = budget_ms(deadline);
    HQR_CHECK(ms > 0, "" << what << " timed out");
    pollfd p{};
    p.fd = fd;
    p.events = events;
    const int rc = ::poll(&p, 1, ms);
    if (rc < 0) {
      HQR_CHECK(errno == EINTR,
                "" << what << ": poll: " << std::strerror(errno));
      continue;
    }
    if (rc > 0) return;
  }
}

}  // namespace

Fd tcp_listen(const std::string& host, std::uint16_t* port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  HQR_CHECK(fd.valid(), "socket(AF_INET): " << std::strerror(errno));
  const int one = 1;
  HQR_CHECK(::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one,
                         sizeof(one)) == 0,
            "setsockopt(SO_REUSEADDR): " << std::strerror(errno));
  sockaddr_in addr = ipv4_addr(host, *port);
  HQR_CHECK(::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)) == 0,
            "bind " << host << ":" << *port << ": " << std::strerror(errno));
  HQR_CHECK(::listen(fd.get(), SOMAXCONN) == 0,
            "listen: " << std::strerror(errno));
  // Nonblocking, so tcp_accept can never wedge past its deadline when a
  // pending connection aborts between poll and accept.
  set_nonblocking(fd.get());
  socklen_t len = sizeof(addr);
  HQR_CHECK(::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                          &len) == 0,
            "getsockname: " << std::strerror(errno));
  *port = ntohs(addr.sin_port);
  return fd;
}

Fd tcp_accept(int listener, double deadline) {
  for (;;) {
    poll_for(listener, POLLIN, deadline, "tcp accept");
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd >= 0) return Fd(fd);
    // The connection can vanish between poll and accept; keep waiting.
    HQR_CHECK(errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
                  errno == ECONNABORTED,
              "accept: " << std::strerror(errno));
  }
}

Fd tcp_connect(const std::string& host, std::uint16_t port, double deadline) {
  const sockaddr_in addr = ipv4_addr(host, port);
  for (;;) {
    Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
    HQR_CHECK(fd.valid(), "socket(AF_INET): " << std::strerror(errno));
    set_nonblocking(fd.get());
    const int rc = ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                             sizeof(addr));
    if (rc != 0 && errno != EINPROGRESS) {
      HQR_CHECK(errno == EINTR || errno == ECONNREFUSED,
                "connect " << host << ":" << port << ": "
                           << std::strerror(errno));
      // Refused usually means the listener is not up *yet* (the mesh wires
      // itself while ranks are still starting); retry until the deadline.
      HQR_CHECK(budget_ms(deadline) > 0,
                "connect " << host << ":" << port << " timed out");
      ::poll(nullptr, 0, 20);  // back off instead of hammering the port
      continue;
    }
    if (rc != 0) poll_for(fd.get(), POLLOUT, deadline, "tcp connect");
    int err = 0;
    socklen_t len = sizeof(err);
    HQR_CHECK(::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len) == 0,
              "getsockopt(SO_ERROR): " << std::strerror(errno));
    if (err == 0) return fd;
    HQR_CHECK(err == ECONNREFUSED || err == ETIMEDOUT,
              "connect " << host << ":" << port << ": " << std::strerror(err));
    HQR_CHECK(budget_ms(deadline) > 0,
              "connect " << host << ":" << port << " timed out");
    ::poll(nullptr, 0, 20);
  }
}

void set_tcp_nodelay(int fd) {
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) == 0)
    return;
  // AF_UNIX peers reach here through the shared Comm setup; Nagle does not
  // exist there, so "not a TCP socket" is fine and anything else is not.
  HQR_CHECK(errno == EOPNOTSUPP || errno == ENOPROTOOPT || errno == EINVAL,
            "setsockopt(TCP_NODELAY): " << std::strerror(errno));
}

void write_all(int fd, const void* p, std::size_t n, double deadline) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  std::size_t done = 0;
  while (done < n) {
    const std::ptrdiff_t w = write_some(fd, b + done, n - done);
    done += static_cast<std::size_t>(w);
    if (done < n && w == 0)
      poll_for(fd, POLLOUT, deadline, "handshake write");
  }
}

void read_all(int fd, void* p, std::size_t n, double deadline) {
  auto* b = static_cast<std::uint8_t*>(p);
  std::size_t done = 0;
  while (done < n) {
    const std::ptrdiff_t r = read_some(fd, b + done, n - done);
    HQR_CHECK(r >= 0, "handshake read: peer closed after " << done << " of "
                                                           << n << " bytes");
    done += static_cast<std::size_t>(r);
    if (done < n && r == 0) poll_for(fd, POLLIN, deadline, "handshake read");
  }
}

void send_with_fd(int sock, const void* p, std::size_t n, int fd_to_pass) {
  iovec iov{};
  iov.iov_base = const_cast<void*>(p);
  iov.iov_len = n;
  msghdr msg{};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  alignas(cmsghdr) char cbuf[CMSG_SPACE(sizeof(int))];
  if (fd_to_pass >= 0) {
    std::memset(cbuf, 0, sizeof(cbuf));
    msg.msg_control = cbuf;
    msg.msg_controllen = sizeof(cbuf);
    cmsghdr* cm = CMSG_FIRSTHDR(&msg);
    cm->cmsg_level = SOL_SOCKET;
    cm->cmsg_type = SCM_RIGHTS;
    cm->cmsg_len = CMSG_LEN(sizeof(int));
    std::memcpy(CMSG_DATA(cm), &fd_to_pass, sizeof(int));
  }
  for (;;) {
    const ssize_t r = ::sendmsg(sock, &msg, MSG_NOSIGNAL);
    if (r == static_cast<ssize_t>(n)) return;
    HQR_CHECK(r < 0, "sendmsg: short control message (" << r << " of " << n
                                                        << " bytes)");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      poll_for(sock, POLLOUT, monotonic_seconds() + 10.0, "control send");
      continue;
    }
    HQR_CHECK(false, "sendmsg: " << std::strerror(errno));
  }
}

bool recv_with_fd(int sock, void* p, std::size_t n, Fd* received,
                  double deadline) {
  iovec iov{};
  iov.iov_base = p;
  iov.iov_len = n;
  for (;;) {
    msghdr msg{};
    msg.msg_iov = &iov;
    msg.msg_iovlen = 1;
    alignas(cmsghdr) char cbuf[CMSG_SPACE(sizeof(int))];
    msg.msg_control = cbuf;
    msg.msg_controllen = sizeof(cbuf);
    const ssize_t r = ::recvmsg(sock, &msg, MSG_CMSG_CLOEXEC);
    if (r == 0) return false;  // orderly EOF
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        poll_for(sock, POLLIN, deadline, "control recv");
        continue;
      }
      HQR_CHECK(false, "recvmsg: " << std::strerror(errno));
    }
    // Control messages are tiny and sent in one atomic sendmsg on an
    // AF_UNIX stream, so a partial read means a desynchronized channel.
    HQR_CHECK(r == static_cast<ssize_t>(n),
              "recvmsg: short control message (" << r << " of " << n
                                                 << " bytes)");
    for (cmsghdr* cm = CMSG_FIRSTHDR(&msg); cm != nullptr;
         cm = CMSG_NXTHDR(&msg, cm)) {
      if (cm->cmsg_level == SOL_SOCKET && cm->cmsg_type == SCM_RIGHTS) {
        int fd = -1;
        std::memcpy(&fd, CMSG_DATA(cm), sizeof(int));
        if (received != nullptr)
          *received = Fd(fd);
        else if (fd >= 0)
          ::close(fd);
      }
    }
    return true;
  }
}

}  // namespace hqr::net
