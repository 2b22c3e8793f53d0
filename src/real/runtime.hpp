// One replica-hosting thread of a real deployment.
//
// RealRuntime pairs an rpc::EventLoop with an rpc::TcpTransport and a
// dedicated std::thread. The unmodified protocol nodes (IdemReplica,
// IdemClient, ...) are constructed against loop() and transport(). The
// intended lifecycle is:
//
//   1. construct the runtime (loop + transport exist, no thread yet);
//   2. construct protocol nodes against them and wire set_remote() — all on
//      the controller thread, which is safe because the loop thread does
//      not exist yet;
//   3. start(): the thread runs loop().run() and from then on owns every
//      node, timer and socket;
//   4. cross-thread access only through post() / call();
//   5. stop(): posts a loop-thread stop and joins. Destroying the runtime
//      afterwards closes all sockets — to TCP peers that is
//      indistinguishable from a crash, which is exactly the fault model
//      the protocols assume.
#pragma once

#include <functional>
#include <future>
#include <thread>
#include <type_traits>
#include <utility>

#include "rpc/event_loop.hpp"
#include "rpc/tcp_transport.hpp"

namespace idem::real {

struct RealRuntimeConfig {
  std::uint64_t seed = 1;
  /// Shared across every runtime of one deployment so now() values (and
  /// therefore per-thread trace rings) merge into one coherent timeline.
  rpc::EventLoop::Epoch epoch = std::chrono::steady_clock::now();
  rpc::TcpTransportConfig transport;
};

class RealRuntime final {
 public:
  explicit RealRuntime(RealRuntimeConfig config = {});
  ~RealRuntime();

  RealRuntime(const RealRuntime&) = delete;
  RealRuntime& operator=(const RealRuntime&) = delete;

  rpc::EventLoop& loop() { return loop_; }
  rpc::TcpTransport& transport() { return transport_; }

  // --- thread lifecycle ---
  /// Spawns the loop thread. No-op when already running.
  void start();
  /// Stops the loop and joins the thread. Safe to call repeatedly and from
  /// the destructor; must not be called from the loop thread itself.
  void stop();
  bool running() const { return thread_.joinable(); }

  /// Enqueues `task` on the loop thread (fire-and-forget).
  void post(std::function<void()> task) { loop_.post(std::move(task)); }

  /// Runs `fn` on the loop thread and returns its result, blocking the
  /// caller until it ran. When the loop thread is not running (before
  /// start() or after stop()) the callable runs inline instead — nothing
  /// else can touch loop state then, so this is safe and keeps setup and
  /// post-shutdown inspection free of special cases.
  template <typename Fn>
  auto call(Fn&& fn) -> std::invoke_result_t<Fn> {
    using Result = std::invoke_result_t<Fn>;
    if (!running()) return std::forward<Fn>(fn)();
    std::promise<Result> promise;
    std::future<Result> future = promise.get_future();
    loop_.post([&promise, &fn] {
      if constexpr (std::is_void_v<Result>) {
        fn();
        promise.set_value();
      } else {
        promise.set_value(fn());
      }
    });
    return future.get();
  }

 private:
  rpc::EventLoop loop_;
  rpc::TcpTransport transport_;
  std::thread thread_;
};

}  // namespace idem::real
