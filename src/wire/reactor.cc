#include "src/wire/reactor.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <array>
#include <utility>

#include "src/analysis/contracts.h"
#include "src/util/logging.h"

namespace dumbnet {
namespace wire {

Reactor::Reactor() {
  epfd_ = epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (epfd_ < 0 || wake_fd_ < 0) {
    DN_ERROR << "reactor: epoll/eventfd creation failed";
    return;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  epoll_ctl(epfd_, EPOLL_CTL_ADD, wake_fd_, &ev);
}

Reactor::~Reactor() {
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
  }
  if (epfd_ >= 0) {
    ::close(epfd_);
  }
}

bool Reactor::Add(int fd, uint32_t events, FdHandler handler) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  const int op = handlers_.count(fd) > 0 ? EPOLL_CTL_MOD : EPOLL_CTL_ADD;
  if (epoll_ctl(epfd_, op, fd, &ev) != 0) {
    return false;
  }
  handlers_[fd] = std::move(handler);
  return true;
}

bool Reactor::Mod(int fd, uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  return epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev) == 0;
}

void Reactor::Del(int fd) {
  if (handlers_.erase(fd) > 0) {
    epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
  }
}

int Reactor::PollOnce(int timeout_ms) {
  std::array<epoll_event, 64> events{};
  const int n = epoll_wait(epfd_, events.data(), static_cast<int>(events.size()),
                           timeout_ms);
  if (n < 0) {
    return -1;  // EINTR and friends: the caller just loops
  }
  int dispatched = 0;
  for (int i = 0; i < n; ++i) {
    const int fd = events[static_cast<size_t>(i)].data.fd;
    if (fd == wake_fd_) {
      // One read resets the eventfd counter (no EFD_SEMAPHORE): a second
      // would only return EAGAIN.
      uint64_t drained = 0;
      ssize_t ignored = ::read(wake_fd_, &drained, sizeof(drained));
      (void)ignored;
      continue;
    }
    // A handler earlier in this batch may have Del()ed this fd (e.g. a peer
    // reset observed while servicing another connection); look it up fresh.
    auto it = handlers_.find(fd);
    if (it == handlers_.end()) {
      continue;
    }
    // Copy: the handler may Del(fd) and invalidate the map slot.
    FdHandler handler = it->second;
    {
      // Handler bodies run on the epoll thread — reactor contract applies.
      DN_REACTOR_CONTEXT;
      handler(events[static_cast<size_t>(i)].events);
    }
    ++dispatched;
  }
  DrainPosted();
  return dispatched;
}

void Reactor::Post(std::function<void()> fn) {
  {
    contracts::LockGuard guard(post_mu_);
    posted_.push_back(std::move(fn));
  }
  Wake();
}

void Reactor::Wake() {
  const uint64_t one = 1;
  ssize_t ignored = ::write(wake_fd_, &one, sizeof(one));
  (void)ignored;  // full eventfd counter already guarantees a wakeup
}

void Reactor::DrainPosted() {
  // Closures posted while draining run in the same pass (the swap loop), so a
  // Stop() posted from another thread during teardown cannot strand.
  for (;;) {
    std::vector<std::function<void()>> batch;
    {
      contracts::LockGuard guard(post_mu_);
      if (posted_.empty()) {
        return;
      }
      batch.swap(posted_);
    }
    {
      // Posted closures run on the owner's loop thread alongside fd handlers.
      DN_REACTOR_CONTEXT;
      for (std::function<void()>& fn : batch) {
        fn();
      }
    }
  }
}

}  // namespace wire
}  // namespace dumbnet
