// Real-time event loop: epoll-driven I/O plus a timer wheel, implementing
// sim::Runtime against the steady clock. The same protocol code that runs
// in the deterministic simulator runs here over real sockets.
//
// Single-threaded by design: protocol nodes are not thread-safe, and the
// paper's replicas are single event loops too. All I/O callbacks and
// timers fire on the thread that calls run()/run_for().
//
// Multi-loop deployments (src/real) run one EventLoop per thread. The only
// thread-safe entry points are post() — which enqueues a task for the loop
// thread and wakes it through an eventfd — and stop(). Everything else
// (watch, schedule_*, transports, protocol nodes) must either happen on
// the loop thread or before the loop thread starts running.
//
// Wait policy: poll before sleeping. A loop that handled I/O or a posted
// task within the last kSpinWindow keeps polling epoll without blocking,
// calling sched_yield() after each empty poll so it never holds a CPU
// another runnable thread wants. The spin ends at the earliest of the
// window's end, the next timer's due time and run_for()'s deadline; a
// timer that falls due inside it fires without the millisecond-rounded
// blocking wait. Only then does the loop block in epoll_wait. The reason
// is the wake-up: on a host whose idle vCPUs halt, a blocked receiver
// pays a vCPU wake-up per message (a loopback ping-pong between pinned
// threads takes 30–33 µs per round trip blocked and 15–16 µs polling),
// and a request crosses five loops. An idle loop sleeps and costs
// nothing; post() and stop() still wake it through the eventfd. stats()
// splits the loop's time into handler work (busy_ns), spinning (spin_ns)
// and the rest, asleep.
#pragma once

#include <chrono>
#include <cstdint>
#include <atomic>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "sim/event_queue.hpp"
#include "sim/runtime.hpp"

namespace idem::obs {
class MetricsRegistry;
}

namespace idem::rpc {

/// CLOCK_REALTIME (ns since the Unix epoch) at the moment a loop epoch's
/// trace time 0 occurred: realtime-now minus how far the steady clock has
/// advanced past `epoch`. Each process stamps this into its trace export
/// so tools/trace_merge can stitch independently started processes onto
/// one wall-clock timeline (accurate to the clocks' mutual drift, which
/// on one host is negligible over a run).
std::int64_t realtime_anchor_ns(std::chrono::steady_clock::time_point epoch);

/// Where a loop's time goes. Loop-thread only: read it on the loop (say,
/// through RealRuntime::call) or while the loop is not running.
struct LoopStats {
  std::uint64_t iterations = 0;  ///< epoll_wait calls
  std::uint64_t sleeps = 0;      ///< blocking waits (a nonzero timeout)
  /// Non-blocking polls of the spin window, yields included, and the
  /// bookkeeping after a spin poll that found nothing to do.
  std::uint64_t spin_ns = 0;
  /// From the return of a wait that found work (a ready fd, a due timer,
  /// a deferred or after-flush task) to the next wait: handlers and the
  /// loop's own bookkeeping. busy_ns over wall time is the loop's busy
  /// fraction.
  std::uint64_t busy_ns = 0;
};

class EventLoop final : public sim::Runtime {
 public:
  using IoCallback = std::function<void(std::uint32_t epoll_events)>;
  using Task = std::function<void()>;
  using Epoch = std::chrono::steady_clock::time_point;

  /// How long a loop keeps polling after it last handled I/O or a posted
  /// task. Reply p50 on perfbench's real-overload (seed 2) fell from
  /// 0.179 ms without a spin to 0.171 ms at 20 µs, 0.143 ms at 100 µs and
  /// only 0.131 ms at 1 ms; a wider window holds a lightly loaded loop's
  /// CPU for longer after every burst.
  static constexpr Duration kSpinWindow = 100 * kMicrosecond;

  /// `epoch` anchors now() == 0. Loops that share an epoch (real clusters
  /// hosting several loops in one process) produce mutually comparable
  /// timestamps, so per-thread trace rings merge into one coherent timeline.
  explicit EventLoop(std::uint64_t seed = 1, Epoch epoch = std::chrono::steady_clock::now());
  ~EventLoop() override;

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // --- sim::Runtime ---
  Time now() const override;
  sim::EventId schedule_after(Duration delay, sim::EventQueue::Callback fn) override;
  sim::EventId schedule_at(Time at, sim::EventQueue::Callback fn) override;
  bool cancel(sim::EventId id) override;
  /// Runs `fn` at the end of the current iteration, after its deferred
  /// tasks, so the transport has flushed every send the iteration's
  /// handlers and timers made. Loop-thread only; called while the loop is
  /// idle, or from such a task, `fn` runs in the next iteration.
  void after_flush(sim::EventQueue::Callback fn) override;
  Rng& rng(std::string_view name) override;
  std::uint64_t seed() const override { return seed_; }
  bool wall_clock() const override { return true; }

  // --- I/O ---
  /// Registers interest in `events` (EPOLLIN/EPOLLOUT/...) on `fd`.
  /// Replaces any previous registration for the fd.
  void watch(int fd, std::uint32_t events, IoCallback callback);
  /// Updates the event mask of an already-watched fd.
  void modify(int fd, std::uint32_t events);
  void unwatch(int fd);

  // --- cross-thread ---
  /// Enqueues `task` to run on the loop thread and wakes the loop if it is
  /// blocked in epoll_wait. Safe to call from any thread; tasks run in
  /// post order. May also be called before run() — queued tasks execute as
  /// soon as the loop starts polling.
  void post(Task task);

  // --- same-thread deferral ---
  /// Runs `task` at the end of the current poll iteration, after I/O
  /// handlers and due timers but before the next epoll_wait. Loop-thread
  /// only (no locking); tasks deferred while the loop is idle run on the
  /// next iteration. This is the transport's write-coalescing hook: every
  /// send during one iteration queues frames, one deferred flush per
  /// connection writes them with a single syscall.
  void defer(Task task);

  // --- driving ---
  /// Processes I/O and timers until stop() is called.
  void run();
  /// Processes I/O and timers for `span` of wall-clock time; returns once
  /// the iteration that crosses the deadline is done.
  void run_for(Duration span);
  /// Requests the loop to return from run()/run_for(). Safe from any
  /// thread; cross-thread stops wake a sleeping loop promptly.
  void stop();

  const LoopStats& stats() const { return stats_; }
  /// Names the loop's counters ("loop.") on `registry`; read them on the
  /// loop thread.
  void register_metrics(obs::MetricsRegistry& registry) const;

 private:
  /// One epoll_wait and the work it found. Returns false, without polling,
  /// once `deadline` has passed.
  bool poll_once(Time deadline);
  /// Each returns whether it ran anything.
  bool fire_due_timers();
  void drain_posted();
  bool run_deferred();
  bool run_after_flush();

  /// What the last wait led to; poll_once books the time since it returned
  /// accordingly.
  enum class WaitOutcome : std::uint8_t { Worked, EmptySpin, EmptySleep };

  std::uint64_t seed_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd: written by post()/stop(), drained by the loop
  std::atomic<bool> stopped_{false};
  Epoch start_;
  sim::EventQueue timers_;
  std::unordered_map<int, std::shared_ptr<IoCallback>> watchers_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Rng>> rngs_;
  std::mutex posted_mutex_;
  std::vector<Task> posted_;
  std::vector<Task> deferred_;       ///< loop-thread-only end-of-iteration tasks
  std::vector<Task> deferred_swap_;  ///< reused scratch so run_deferred never allocates
  /// Loop-thread-only tasks that run after the deferred ones, and their
  /// reused scratch; warm, after_flush() never allocates.
  std::vector<sim::EventQueue::Callback> after_flush_;
  std::vector<sim::EventQueue::Callback> after_flush_swap_;
  Time woke_ = 0;                    ///< when the last wait returned
  WaitOutcome last_wait_ = WaitOutcome::EmptySleep;
  Time spin_until_ = std::numeric_limits<Time>::min();  ///< last activity + kSpinWindow
  LoopStats stats_;
};

}  // namespace idem::rpc
