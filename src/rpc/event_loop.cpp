#include "rpc/event_loop.hpp"

#include <sched.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "obs/metrics_registry.hpp"

namespace idem::rpc {

namespace {

/// Longest blocking wait: run() re-reads stopped_ at least this often.
constexpr Duration kMaxSleep = 100 * kMillisecond;

std::uint64_t hash_name(std::string_view name) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

std::int64_t realtime_anchor_ns(std::chrono::steady_clock::time_point epoch) {
  auto realtime_now = std::chrono::system_clock::now().time_since_epoch();
  auto since_epoch = std::chrono::steady_clock::now() - epoch;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(realtime_now).count() -
         std::chrono::duration_cast<std::chrono::nanoseconds>(since_epoch).count();
}

EventLoop::EventLoop(std::uint64_t seed, Epoch epoch) : seed_(seed), start_(epoch) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    throw std::runtime_error(std::string("epoll_create1: ") + std::strerror(errno));
  }
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    throw std::runtime_error(std::string("eventfd: ") + std::strerror(errno));
  }
  // Registered directly (not via watch()) so watchers_ stays loop-private:
  // the wakeup is the one fd a foreign thread may poke.
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
}

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

Time EventLoop::now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

sim::EventId EventLoop::schedule_after(Duration delay, sim::EventQueue::Callback fn) {
  if (delay < 0) delay = 0;
  return timers_.push(now() + delay, std::move(fn));
}

sim::EventId EventLoop::schedule_at(Time at, sim::EventQueue::Callback fn) {
  Time current = now();
  if (at < current) at = current;
  return timers_.push(at, std::move(fn));
}

bool EventLoop::cancel(sim::EventId id) { return timers_.cancel(id); }

void EventLoop::after_flush(sim::EventQueue::Callback fn) {
  after_flush_.push_back(std::move(fn));
}

Rng& EventLoop::rng(std::string_view name) {
  std::uint64_t key = hash_name(name);
  auto it = rngs_.find(key);
  if (it == rngs_.end()) {
    it = rngs_.emplace(key, std::make_unique<Rng>(seed_, key)).first;
  }
  return *it->second;
}

void EventLoop::watch(int fd, std::uint32_t events, IoCallback callback) {
  auto shared = std::make_shared<IoCallback>(std::move(callback));
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  int op = watchers_.contains(fd) ? EPOLL_CTL_MOD : EPOLL_CTL_ADD;
  if (::epoll_ctl(epoll_fd_, op, fd, &ev) < 0) {
    throw std::runtime_error(std::string("epoll_ctl: ") + std::strerror(errno));
  }
  watchers_[fd] = std::move(shared);
}

void EventLoop::modify(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
}

void EventLoop::unwatch(int fd) {
  if (watchers_.erase(fd) > 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  }
}

void EventLoop::post(Task task) {
  {
    std::lock_guard<std::mutex> lock(posted_mutex_);
    posted_.push_back(std::move(task));
  }
  std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::stop() {
  stopped_.store(true, std::memory_order_release);
  std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::drain_posted() {
  std::uint64_t count = 0;
  while (::read(wake_fd_, &count, sizeof(count)) > 0) {
  }
  std::vector<Task> tasks;
  {
    std::lock_guard<std::mutex> lock(posted_mutex_);
    tasks.swap(posted_);
  }
  for (Task& task : tasks) task();
}

void EventLoop::defer(Task task) { deferred_.push_back(std::move(task)); }

bool EventLoop::run_deferred() {
  // Tasks deferred by a deferred task run in the next iteration; the swap
  // keeps iteration safe under such re-entrant defer() calls and hands its
  // capacity back to deferred_, so steady state never allocates.
  if (deferred_.empty()) return false;
  deferred_swap_.clear();
  deferred_swap_.swap(deferred_);
  for (Task& task : deferred_swap_) task();
  return true;
}

bool EventLoop::run_after_flush() {
  // Same swap as run_deferred: a task queued by one of these runs in the
  // next iteration.
  if (after_flush_.empty()) return false;
  after_flush_swap_.swap(after_flush_);
  for (sim::EventQueue::Callback& fn : after_flush_swap_) fn();
  after_flush_swap_.clear();
  return true;
}

bool EventLoop::fire_due_timers() {
  // Re-read the clock as we drain: handlers routinely schedule follow-up
  // work "at now" (an EDF node's drain, zero-delay protocol timers), and
  // deferring it to the next epoll round trip would add a poll to every
  // such step. The burst budget keeps a busy node from starving I/O
  // forever; due timers left over make the next epoll_wait time out
  // immediately.
  constexpr int kTimerBurst = 1024;
  int burst = 0;
  for (; burst < kTimerBurst; ++burst) {
    if (timers_.empty() || timers_.next_time() > now()) break;
    auto event = timers_.pop();
    event.fn();
  }
  return burst > 0;
}

bool EventLoop::poll_once(Time deadline) {
  const Time start = now();
  // The last wait's return to now: work if that iteration found any, the
  // spin's own bookkeeping if it was an empty spin poll, and part of the
  // sleep if it was an empty blocking wait.
  const auto since_wake = static_cast<std::uint64_t>(start - woke_);
  if (last_wait_ == WaitOutcome::Worked) {
    stats_.busy_ns += since_wake;
  } else if (last_wait_ == WaitOutcome::EmptySpin) {
    stats_.spin_ns += since_wake;
  }
  if (start >= deadline) return false;
  ++stats_.iterations;

  // Poll without blocking while deferred or after-flush tasks or due
  // timers wait, and inside the spin window; otherwise sleep until the
  // next timer (ms-rounded, which is why the spin also covers a timer due
  // within it).
  Time due = std::min(deadline, start + kMaxSleep);
  if (!timers_.empty()) due = std::min(due, timers_.next_time());
  const bool must_poll = !deferred_.empty() || !after_flush_.empty() || due <= start;
  const bool spinning = !must_poll && start < spin_until_;
  int timeout_ms = 0;
  if (!must_poll && !spinning) {
    timeout_ms = static_cast<int>((due - start + kMillisecond - 1) / kMillisecond);
    ++stats_.sleeps;
  }

  epoll_event events[64];
  const int ready = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
  // An empty spin poll hands the CPU to any thread waiting for it: a loop
  // that spun without yielding starved the loops sharing its CPU.
  if (spinning && ready <= 0) ::sched_yield();
  woke_ = now();
  if (spinning) stats_.spin_ns += static_cast<std::uint64_t>(woke_ - start);
  if (ready > 0) spin_until_ = woke_ + kSpinWindow;

  for (int i = 0; i < ready; ++i) {
    if (events[i].data.fd == wake_fd_) {
      drain_posted();
      continue;
    }
    auto it = watchers_.find(events[i].data.fd);
    if (it == watchers_.end()) continue;
    // Hold a reference: the callback may unwatch (and erase) itself.
    auto callback = it->second;
    (*callback)(events[i].events);
  }
  // No short-circuit: each of the three must run.
  const bool timers = fire_due_timers();
  const bool deferred = run_deferred();
  const bool after_flush = run_after_flush();
  if (ready > 0 || timers || deferred || after_flush) {
    last_wait_ = WaitOutcome::Worked;
  } else {
    last_wait_ = spinning ? WaitOutcome::EmptySpin : WaitOutcome::EmptySleep;
  }
  return true;
}

void EventLoop::run() {
  stopped_.store(false, std::memory_order_release);
  woke_ = now();
  last_wait_ = WaitOutcome::EmptySleep;
  while (!stopped_.load(std::memory_order_acquire)) poll_once(kTimeNever);
}

void EventLoop::run_for(Duration span) {
  stopped_.store(false, std::memory_order_release);
  woke_ = now();
  last_wait_ = WaitOutcome::EmptySleep;
  const Time deadline = woke_ + span;
  while (!stopped_.load(std::memory_order_acquire) && poll_once(deadline)) {
  }
}

void EventLoop::register_metrics(obs::MetricsRegistry& registry) const {
  registry.add_counter("loop.iterations", stats_.iterations);
  registry.add_counter("loop.sleeps", stats_.sleeps);
  registry.add_counter("loop.spin_ns", stats_.spin_ns);
  registry.add_counter("loop.busy_ns", stats_.busy_ns);
}

}  // namespace idem::rpc
