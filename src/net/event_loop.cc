#include "net/event_loop.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <ctime>
#include <utility>

#include "common/fault_injection.h"

namespace smeter::net {
namespace {

constexpr size_t kReadChunk = 64 * 1024;

}  // namespace

// --- EventLoop --------------------------------------------------------------

Result<std::unique_ptr<EventLoop>> EventLoop::Create() {
  int epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd < 0) return ErrnoError("epoll_create1");
  int timer_fd = ::timerfd_create(CLOCK_MONOTONIC,
                                  TFD_NONBLOCK | TFD_CLOEXEC);
  if (timer_fd < 0) {
    Status status = ErrnoError("timerfd_create");
    ::close(epoll_fd);
    return status;
  }
  int wakeup_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wakeup_fd < 0) {
    Status status = ErrnoError("eventfd");
    ::close(timer_fd);
    ::close(epoll_fd);
    return status;
  }
  std::unique_ptr<EventLoop> loop(
      new EventLoop(epoll_fd, timer_fd, wakeup_fd));
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.fd = timer_fd;
  if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, timer_fd, &event) != 0) {
    return ErrnoError("epoll_ctl(timerfd)");
  }
  event.data.fd = wakeup_fd;
  if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, wakeup_fd, &event) != 0) {
    return ErrnoError("epoll_ctl(eventfd)");
  }
  return loop;
}

EventLoop::EventLoop(int epoll_fd, int timer_fd, int wakeup_fd)
    : epoll_fd_(epoll_fd), timer_fd_(timer_fd), wakeup_fd_(wakeup_fd) {}

EventLoop::~EventLoop() {
  ::close(wakeup_fd_);
  ::close(timer_fd_);
  ::close(epoll_fd_);
}

Status EventLoop::Add(int fd, uint32_t events, FdHandler handler) {
  epoll_event event{};
  event.events = events;
  event.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) != 0) {
    return ErrnoError("epoll_ctl(add fd " + std::to_string(fd) + ")");
  }
  handlers_[fd] = std::make_shared<FdHandler>(std::move(handler));
  return Status::Ok();
}

Status EventLoop::Modify(int fd, uint32_t events) {
  epoll_event event{};
  event.events = events;
  event.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &event) != 0) {
    return ErrnoError("epoll_ctl(mod fd " + std::to_string(fd) + ")");
  }
  return Status::Ok();
}

Status EventLoop::Remove(int fd) {
  handlers_.erase(fd);
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr) != 0) {
    return ErrnoError("epoll_ctl(del fd " + std::to_string(fd) + ")");
  }
  return Status::Ok();
}

int64_t EventLoop::NowMs() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000 + ts.tv_nsec / 1000000;
}

uint64_t EventLoop::RunAfter(int64_t delay_ms, std::function<void()> callback) {
  Timer timer;
  timer.deadline_ms = NowMs() + std::max<int64_t>(delay_ms, 0);
  const uint64_t id = timer.id = next_timer_id_++;
  timer.callback = std::move(callback);
  timers_.push_back(std::move(timer));
  std::sort(timers_.begin(), timers_.end(),
            [](const Timer& a, const Timer& b) {
              return a.deadline_ms != b.deadline_ms
                         ? a.deadline_ms < b.deadline_ms
                         : a.id < b.id;
            });
  ArmTimer();
  return id;
}

void EventLoop::CancelTimer(uint64_t id) {
  timers_.erase(std::remove_if(timers_.begin(), timers_.end(),
                               [id](const Timer& t) { return t.id == id; }),
                timers_.end());
  ArmTimer();
}

void EventLoop::ArmTimer() {
  itimerspec spec{};
  if (!timers_.empty()) {
    const int64_t deadline = timers_.front().deadline_ms;
    spec.it_value.tv_sec = deadline / 1000;
    spec.it_value.tv_nsec = (deadline % 1000) * 1000000;
    // An already-due deadline must still fire: it_value == {0,0} would
    // *disarm* timerfd, so clamp to one nanosecond in the past's stead.
    if (spec.it_value.tv_sec == 0 && spec.it_value.tv_nsec == 0) {
      spec.it_value.tv_nsec = 1;
    }
  }
  ::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr);
}

void EventLoop::RunDueTimers() {
  uint64_t expirations = 0;
  while (::read(timer_fd_, &expirations, sizeof(expirations)) ==
         static_cast<ssize_t>(sizeof(expirations))) {
  }
  const int64_t now = NowMs();
  // Collect first, then run: callbacks may add or cancel timers.
  std::vector<Timer> due;
  auto split = std::find_if(timers_.begin(), timers_.end(),
                            [now](const Timer& t) {
                              return t.deadline_ms > now;
                            });
  due.assign(std::make_move_iterator(timers_.begin()),
             std::make_move_iterator(split));
  timers_.erase(timers_.begin(), split);
  ArmTimer();
  for (Timer& timer : due) timer.callback();
}

void EventLoop::DrainWakeup() {
  uint64_t value = 0;
  while (::read(wakeup_fd_, &value, sizeof(value)) ==
         static_cast<ssize_t>(sizeof(value))) {
  }
  if (wakeup_handler_) wakeup_handler_();
}

void EventLoop::SetWakeupHandler(std::function<void()> handler) {
  wakeup_handler_ = std::move(handler);
}

void EventLoop::Wakeup() {
  // Async-signal-safe: a single write(2); the counter semantics of
  // eventfd coalesce concurrent wakeups.
  const uint64_t one = 1;
  ssize_t ignored = ::write(wakeup_fd_, &one, sizeof(one));
  (void)ignored;
}

Status EventLoop::RunOnce(int timeout_ms) {
  epoll_event events[64];
  int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
  if (n < 0) {
    if (errno == EINTR) return Status::Ok();
    return ErrnoError("epoll_wait");
  }
  for (int i = 0; i < n; ++i) {
    const int fd = events[i].data.fd;
    if (fd == timer_fd_) {
      RunDueTimers();
      continue;
    }
    if (fd == wakeup_fd_) {
      DrainWakeup();
      continue;
    }
    // Look the handler up per event: an earlier handler in this batch may
    // have removed (or replaced) this fd. Copy the shared_ptr so a handler
    // that removes itself mid-call stays alive until it returns.
    auto it = handlers_.find(fd);
    if (it == handlers_.end()) continue;
    std::shared_ptr<FdHandler> handler = it->second;
    (*handler)(events[i].events);
  }
  return Status::Ok();
}

Status EventLoop::Run() {
  // The calling thread is the loop thread until Run() returns.
  ScopedThreadRole loop_thread(role_);
  running_ = true;
  while (running_) {
    SMETER_RETURN_IF_ERROR(RunOnce(-1));
  }
  return Status::Ok();
}

void EventLoop::Stop() { running_ = false; }

// --- BufferedFd -------------------------------------------------------------

BufferedFd::BufferedFd(EventLoop* loop, int fd, Callbacks callbacks,
                       size_t high_watermark)
    : loop_(loop),
      fd_(fd),
      callbacks_(std::move(callbacks)),
      high_watermark_(high_watermark == 0 ? 1 : high_watermark) {
  int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
}

BufferedFd::~BufferedFd() {
  // Destruction happens on the loop thread (class contract), so claiming
  // the loop role for the deregistration is sound.
  ScopedThreadRole loop_thread(loop_->role());
  if (registered_) (void)loop_->Remove(fd_);
  ::close(fd_);
}

Status BufferedFd::Register() {
  ScopedThreadRole loop_thread(loop_->role());
  SMETER_RETURN_IF_ERROR(loop_->Add(fd_, EPOLLIN | EPOLLET,
                                    [this](uint32_t events) {
                                      // Dispatched on the loop thread, the
                                      // one owner of this connection.
                                      ScopedThreadRole owner(role_);
                                      OnEvents(events);
                                    }));
  registered_ = true;
  return Status::Ok();
}

void BufferedFd::UpdateInterest() {
  if (closed_ || !registered_) return;
  uint32_t events = EPOLLET;
  if (!paused_) events |= EPOLLIN;
  if (want_write_) events |= EPOLLOUT;
  ScopedThreadRole loop_thread(loop_->role());
  (void)loop_->Modify(fd_, events);
}

void BufferedFd::OnEvents(uint32_t events) {
  if (closed_) return;
  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    // Flush what we can (the peer may have shut down only its read side),
    // then fall through to the read path, which reports EOF or the error.
    (void)FlushSome();
  }
  if ((events & EPOLLOUT) != 0) HandleWritable();
  if (closed_) return;
  if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) HandleReadable();
}

void BufferedFd::HandleReadable() {
  if (paused_) return;
  char chunk[kReadChunk];
  bool eof = false;
  for (;;) {
    if (Status fault = fault::Check("net.read"); !fault.ok()) {
      Close(std::move(fault));
      return;
    }
    ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n > 0) {
      bytes_in_ += static_cast<uint64_t>(n);
      std::string_view received(chunk, static_cast<size_t>(n));
      // Wire-damage seam: tests flip bits in received chunks; the frame
      // CRC above this layer must catch every one of them.
      std::string corrupted;
      if (fault::MaybeCorrupt("net.frame", received, &corrupted)) {
        in_ += corrupted;
      } else {
        in_ += received;
      }
      continue;
    }
    if (n == 0) {
      // Clean EOF. Bytes read in this same event are still delivered to
      // on_data below before the close fires.
      eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    Close(ErrnoError("read"));
    return;
  }
  DeliverInput();
  if (closed_) return;
  if (eof) Close(Status::Ok());
}

void BufferedFd::DeliverInput() {
  if (!in_.empty() && callbacks_.on_data) {
    const size_t consumed = callbacks_.on_data(in_);
    if (closed_) return;
    if (consumed >= in_.size()) {
      in_.clear();
    } else if (consumed > 0) {
      in_.erase(0, consumed);
    }
  }
}

void BufferedFd::InjectInput(std::string_view data) {
  if (closed_) return;
  in_ += data;
}

void BufferedFd::Pump() {
  if (closed_) return;
  DeliverInput();
}

BufferedFd::Released BufferedFd::ReleaseFd() {
  Released released;
  if (closed_) return released;
  if (registered_) {
    ScopedThreadRole loop_thread(loop_->role());
    (void)loop_->Remove(fd_);
    registered_ = false;
  }
  closed_ = true;
  released.fd = fd_;
  fd_ = -1;  // the destructor's ::close(-1) is harmless
  released.pending_in = std::move(in_);
  in_.clear();
  return released;
}

Status BufferedFd::FlushSome() {
  while (!out_.empty()) {
    SMETER_RETURN_IF_ERROR(fault::Check("net.write"));
    ssize_t n = ::write(fd_, out_.data(), out_.size());
    if (n > 0) {
      bytes_out_ += static_cast<uint64_t>(n);
      out_.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return ErrnoError("write");
  }
  const bool need_write = !out_.empty();
  if (need_write != want_write_) {
    want_write_ = need_write;
    UpdateInterest();
  }
  // Backpressure: pause reading while the peer is slower than our output.
  // stalled_since_ms_ marks when the stall began (write-stall deadline
  // accounting); only this peer-not-draining path sets it, never
  // CloseAfterFlush's read pause.
  if (!paused_ && out_.size() > high_watermark_) {
    paused_ = true;
    ++stalls_;
    stalled_since_ms_ = EventLoop::NowMs();
    UpdateInterest();
  } else if (paused_ && out_.size() <= high_watermark_ / 2) {
    paused_ = false;
    stalled_since_ms_ = 0;
    UpdateInterest();
  }
  return Status::Ok();
}

void BufferedFd::HandleWritable() {
  if (Status status = FlushSome(); !status.ok()) {
    Close(std::move(status));
    return;
  }
  if (close_after_flush_ && out_.empty()) Close(close_reason_);
}

Status BufferedFd::Send(std::string_view data) {
  if (closed_) return FailedPreconditionError("send on closed connection");
  out_ += data;
  Status status = FlushSome();
  if (!status.ok()) {
    Close(status);
    return status;
  }
  if (close_after_flush_ && out_.empty()) Close(close_reason_);
  return Status::Ok();
}

Status BufferedFd::SendVec(const std::string_view* parts, size_t count) {
  if (closed_) return FailedPreconditionError("send on closed connection");
  if (count == 0) return Status::Ok();
  size_t index = 0;  // first part not yet fully written
  size_t skip = 0;   // bytes of parts[index] already written
  if (out_.empty()) {
    // Hot path: everything leaves in one writev(2), no buffer copy.
    constexpr size_t kMaxIov = 64;
    iovec iov[kMaxIov];
    const size_t segments = std::min(count, kMaxIov);
    for (size_t i = 0; i < segments; ++i) {
      iov[i].iov_base = const_cast<char*>(parts[i].data());
      iov[i].iov_len = parts[i].size();
    }
    if (Status fault = fault::Check("net.write"); !fault.ok()) {
      Close(fault);
      return fault;
    }
    ssize_t n = 0;
    do {
      n = ::writev(fd_, iov, static_cast<int>(segments));
    } while (n < 0 && errno == EINTR);
    if (n >= 0) {
      ++writev_calls_;
      writev_segments_ += segments;
      bytes_out_ += static_cast<uint64_t>(n);
      size_t written = static_cast<size_t>(n);
      while (index < count && written >= parts[index].size()) {
        written -= parts[index].size();
        ++index;
      }
      skip = written;
    } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
      Status status = ErrnoError("writev");
      Close(status);
      return status;
    }
  }
  for (; index < count; ++index) {
    out_ += parts[index].substr(skip);
    skip = 0;
  }
  Status status = FlushSome();
  if (!status.ok()) {
    Close(status);
    return status;
  }
  if (close_after_flush_ && out_.empty()) Close(close_reason_);
  return Status::Ok();
}

void BufferedFd::CloseAfterFlush(Status reason) {
  if (closed_) return;
  close_after_flush_ = true;
  close_reason_ = std::move(reason);
  paused_ = true;  // stop reading; we only drain the output now
  UpdateInterest();
  if (out_.empty()) Close(close_reason_);
}

void BufferedFd::Close(Status reason) {
  if (closed_) return;
  closed_ = true;
  if (registered_) {
    ScopedThreadRole loop_thread(loop_->role());
    (void)loop_->Remove(fd_);
    registered_ = false;
  }
  ::shutdown(fd_, SHUT_RDWR);
  if (callbacks_.on_close) callbacks_.on_close(reason);
}

}  // namespace smeter::net
