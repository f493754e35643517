#include "src/wire/transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <sys/epoll.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "src/analysis/contracts.h"
#include "src/wire/clock.h"

namespace dumbnet {
namespace wire {

namespace {

Error Sys(const std::string& what) {
  return Error(ErrorCode::kUnavailable, what + ": " + std::strerror(errno));
}

Result<int> MakeSocket(TransportKind kind) {
  const int domain = kind == TransportKind::kUds ? AF_UNIX : AF_INET;
  const int fd = ::socket(domain, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Sys("socket");
  }
  if (kind == TransportKind::kTcp) {
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return fd;
}

// Fills a sockaddr for `addr`; returns its length, or 0 on bad input.
socklen_t FillSockaddr(const WireAddr& addr, sockaddr_storage* out) {
  std::memset(out, 0, sizeof(*out));
  if (addr.kind == TransportKind::kUds) {
    auto* sun = reinterpret_cast<sockaddr_un*>(out);
    sun->sun_family = AF_UNIX;
    if (addr.uds_path.size() + 1 > sizeof(sun->sun_path)) {
      return 0;
    }
    std::memcpy(sun->sun_path, addr.uds_path.c_str(), addr.uds_path.size() + 1);
    return static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) +
                                  addr.uds_path.size() + 1);
  }
  auto* sin = reinterpret_cast<sockaddr_in*>(out);
  sin->sin_family = AF_INET;
  sin->sin_port = htons(addr.tcp_port);
  sin->sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return sizeof(sockaddr_in);
}

}  // namespace

std::string WireAddr::ToString() const {
  if (kind == TransportKind::kUds) {
    return "uds:" + uds_path;
  }
  return "tcp:127.0.0.1:" + std::to_string(tcp_port);
}

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Sys("fcntl");
  }
  return Status();
}

Result<int> ListenOn(const WireAddr& addr) {
  auto fd = MakeSocket(addr.kind);
  if (!fd.ok()) {
    return fd;
  }
  if (addr.kind == TransportKind::kUds) {
    ::unlink(addr.uds_path.c_str());
  } else {
    const int one = 1;
    setsockopt(fd.value(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  sockaddr_storage ss;
  const socklen_t len = FillSockaddr(addr, &ss);
  if (len == 0) {
    ::close(fd.value());
    return Error(ErrorCode::kInvalidArgument, "address too long: " + addr.ToString());
  }
  if (::bind(fd.value(), reinterpret_cast<sockaddr*>(&ss), len) != 0 ||
      ::listen(fd.value(), 64) != 0) {
    ::close(fd.value());
    return Sys("bind/listen " + addr.ToString());
  }
  return fd;
}

Result<int> ConnectTo(const WireAddr& addr) {
  auto fd = MakeSocket(addr.kind);
  if (!fd.ok()) {
    return fd;
  }
  sockaddr_storage ss;
  const socklen_t len = FillSockaddr(addr, &ss);
  if (len == 0) {
    ::close(fd.value());
    return Error(ErrorCode::kInvalidArgument, "address too long: " + addr.ToString());
  }
  if (contracts::GuardedConnect(fd.value(), &ss, len) != 0 && errno != EINPROGRESS) {
    ::close(fd.value());
    return Sys("connect " + addr.ToString());
  }
  return fd;
}

// ---------------------------------------------------------------------------------
// Connection

Connection::Connection(Reactor* reactor, int fd)
    : reactor_(reactor), fd_(fd), alive_(std::make_shared<bool>(true)),
      last_rx_ns_(MonotonicNowNs()) {}

Connection::~Connection() {
  *alive_ = false;
  if (fd_ >= 0) {
    reactor_->Del(fd_);
    ::close(fd_);
    fd_ = -1;
  }
}

bool Connection::RegisterAccepted() {
  connected_ = true;
  return reactor_->Add(fd_, EPOLLIN,
                       [this](uint32_t events) { OnEvents(events); });
}

bool Connection::RegisterConnecting() {
  // EPOLLOUT reports connect completion; EPOLLIN is armed from the start so a
  // fast peer's hello is not missed.
  want_write_ = true;
  return reactor_->Add(fd_, EPOLLIN | EPOLLOUT,
                       [this](uint32_t events) { OnEvents(events); });
}

void Connection::SendFrame(std::string frame) {
  if (closed_) {
    return;
  }
  queued_bytes_ += static_cast<int64_t>(frame.size());
  outq_.push_back(std::move(frame));
  if (connected_) {
    if (!FlushWrites()) {
      return;  // Fail() ran; *this may be gone
    }
    UpdateWriteInterest();
  }
}

void Connection::OnEvents(uint32_t events) {
  // Everything below runs on the reactor thread: one blocked call here stalls
  // every socket and timer the node owns, so only guarded nonblocking I/O.
  DN_REACTOR_CONTEXT;
  std::shared_ptr<bool> alive = alive_;
  if ((events & (EPOLLERR | EPOLLHUP)) != 0 && !connected_) {
    Fail("connect failed");
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    if (!connected_) {
      int err = 0;
      socklen_t errlen = sizeof(err);
      getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &errlen);
      if (err != 0) {
        Fail(std::string("connect failed: ") + std::strerror(err));
        return;
      }
      connected_ = true;
      if (on_connected_) {
        on_connected_();
        if (!*alive) {
          return;
        }
      }
    }
    if (!FlushWrites()) {
      return;
    }
    UpdateWriteInterest();
  }
  if ((events & EPOLLIN) != 0) {
    ReadReady();
    if (!*alive) {
      return;
    }
  }
  if ((events & (EPOLLERR | EPOLLHUP)) != 0 && (events & EPOLLIN) == 0) {
    Fail("peer hung up");
  }
}

void Connection::ReadReady() {
  DN_REACTOR_CONTEXT;
  std::shared_ptr<bool> alive = alive_;
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = contracts::GuardedRecv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      last_rx_ns_ = MonotonicNowNs();
      decoder_.Feed(buf, static_cast<size_t>(n));
      for (;;) {
        const FrameDecoder::Status st = decoder_.Next(&rx_frame_);
        if (st == FrameDecoder::Status::kNeedMore) {
          break;
        }
        if (st == FrameDecoder::Status::kError) {
          Fail("frame decode: " + decoder_.error());
          return;
        }
        if (on_frame_) {
          on_frame_(rx_frame_.type, rx_frame_.body);
          if (!*alive || closed_) {
            return;  // the frame handler tore this connection down
          }
        }
      }
      if (static_cast<size_t>(n) < sizeof(buf)) {
        // A short read emptied the socket buffer. The fd is level-triggered,
        // so epoll reports any later bytes; another recv now would only
        // return EAGAIN.
        return;
      }
      continue;
    }
    if (n == 0) {
      Fail("peer closed");
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return;
    }
    if (errno == EINTR) {
      continue;
    }
    Fail(std::string("recv: ") + std::strerror(errno));
    return;
  }
}

bool Connection::FlushWrites() {
  DN_REACTOR_CONTEXT;
  while (!outq_.empty()) {
    const std::string& front = outq_.front();
    const size_t want = front.size() - out_pos_;
    const ssize_t n =
        contracts::GuardedSend(fd_, front.data() + out_pos_, want, MSG_NOSIGNAL);
    if (n > 0) {
      out_pos_ += static_cast<size_t>(n);
      queued_bytes_ -= n;
      if (out_pos_ == front.size()) {
        outq_.pop_front();
        out_pos_ = 0;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    Fail(std::string("send: ") + std::strerror(errno));
    return false;
  }
  return true;
}

void Connection::UpdateWriteInterest() {
  const bool want = !outq_.empty() || !connected_;
  if (want == want_write_) {
    return;
  }
  want_write_ = want;
  reactor_->Mod(fd_, want ? (EPOLLIN | EPOLLOUT) : EPOLLIN);
}

void Connection::Fail(const std::string& reason) {
  if (closed_) {
    return;
  }
  closed_ = true;
  reactor_->Del(fd_);
  if (on_close_) {
    // Typically destroys *this; nothing after this call touches members.
    on_close_(reason);
  }
}

}  // namespace wire
}  // namespace dumbnet
