// Actor base class for protocol processes (replicas and clients).
//
// How a node dispatches the messages delivered to it follows from its
// runtime's clock, never from a per-caller switch:
//
//   - Simulator (virtual clock): a node models one CPU. Every delivery
//     waits in the node's service queue, FIFO or EDF, and occupies the CPU
//     for the per-message cost the subclass declares; handlers charge extra
//     work (request execution, building a state snapshot) on top. This
//     queueing is what turns offered load beyond capacity into the latency
//     explosion the paper measures (DESIGN.md Section 1).
//   - rpc::EventLoop (wall clock): handling a message takes however long it
//     takes, so a node models no cost and handles a delivery inside
//     deliver(). Under EDF, a message that carries a latency budget waits
//     instead; the waiting messages drain earliest-due first from a
//     zero-delay event, after the loop iteration's I/O has read the whole
//     recv burst. A message without a budget is never held behind them.
//
// A node can also ask for work to wait until its sends have left
// (after_flush), and the runtime decides when that is: on the simulator
// at once, since a simulated send leaves when it is made and work charged
// after it never delays it; on an event loop after the iteration's
// flushes, once per iteration.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/inline_function.hpp"
#include "common/time.hpp"
#include "sim/payload.hpp"
#include "sim/runtime.hpp"
#include "sim/transport.hpp"

namespace idem::sim {

/// Order of a node's service queue: arrival (FIFO) or earliest due first
/// (EDF), where a message is due at arrival plus its latency budget.
enum class DisciplineKind : std::uint8_t { Fifo, Edf };

/// Handle for a pending timer; cancel with Node::cancel_timer.
struct TimerId {
  EventId event;
  bool valid() const { return event.valid(); }
};

/// Timer callback storage. 64 inline bytes fit every protocol timer in the
/// tree (request timeouts capture an id plus a couple of pointers); the
/// node's liveness wrapper around it then fills EventQueue::Callback's 96
/// bytes exactly, so arming a timer never allocates.
using TimerCallback = InlineFunction<void(), 64>;

class Node : public Endpoint {
 public:
  /// Registers the node with the network. The node must outlive the
  /// simulation run (events capture a liveness token, so destruction is
  /// safe, but a destroyed node simply vanishes from the network).
  Node(Runtime& runtime, Transport& net, NodeId id, NodeKind kind);
  ~Node() override;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  bool crashed() const { return crashed_; }

  /// Simulates a process crash: all queued and in-flight work is lost and
  /// no further messages or timers are processed.
  void crash();

  /// Restarts a crashed node. Durable protocol state (log, promises,
  /// store) is preserved — this models a crash-recovery process whose
  /// persistent state survived — but everything queued or in flight at
  /// crash time is gone and timers that fired while down were lost, so
  /// subclasses re-arm their periodic timers in on_restart(). No-op on a
  /// live node.
  void restart();

  /// Endpoint: called by the network when a message arrives.
  void deliver(NodeId from, PayloadPtr message) final;

  /// Messages waiting to be handled, exposed for tests and load metrics.
  std::size_t queue_length() const { return ring_count_ + heap_.size(); }

  /// Sets the service-queue order (FIFO by default). Call before traffic
  /// arrives. EDF nodes consult message_deadline() at delivery.
  void set_discipline(DisciplineKind kind);

 protected:
  /// Handles one message. In the simulator it runs when the message's
  /// service time has elapsed, so sends made here already account for
  /// processing delay.
  virtual void on_message(NodeId from, const Payload& message) = 0;

  /// Invoked by restart() after the node is live again; subclasses re-arm
  /// periodic timers here (timers pending across the crash window fired as
  /// no-ops). Default: nothing.
  virtual void on_restart() {}

  /// Simulated CPU cost of receiving/handling `message`. Subclasses model
  /// their protocol's per-message work here. Never asked on the wall
  /// clock. Default: free.
  virtual Duration message_cost(const Payload& message) const;

  /// Latency budget the sender attached to `message` (0 = none). Consulted
  /// only under EDF, at delivery: the message is due at arrival + budget.
  /// Default: no budget.
  virtual Duration message_deadline(const Payload& message) const;

  /// Simulated CPU cost of transmitting `message` (serialization +
  /// syscall). Charged on every simulated send; this is what makes naive
  /// leader fan-out of full requests a bottleneck (cf. S-Paxos and paper
  /// Section 4.2). Never asked on the wall clock.
  virtual Duration send_cost(const Payload& message) const;

  void send(NodeId to, PayloadPtr message) {
    if (!wall_clock_) charge(send_cost(*message));
    net_.send(id_, to, std::move(message));
  }

  /// Asks for one on_flushed() call once the sends made so far have left
  /// (Runtime::after_flush): inline on the simulator; on an event loop
  /// after the loop iteration's flushes, one call however often the
  /// iteration asked, and none for a node that is crashed or destroyed by
  /// then (like a timer).
  void after_flush();

  /// The work after_flush() asked for. Default: nothing.
  virtual void on_flushed() {}

  /// True while an on_flushed() call is pending (never on the simulator,
  /// which makes the call at once).
  bool flush_pending() const { return flush_armed_; }

  /// Charges extra simulated CPU time to this node (e.g. executing a
  /// request while handling a commit); it delays all subsequently queued
  /// messages. Does nothing on the wall clock.
  void charge(Duration extra);

  /// True when the runtime's clock is the wall clock (an rpc::EventLoop):
  /// nothing is charged there, so a cost need not be computed at all.
  bool wall_clock() const { return wall_clock_; }

  /// Schedules `fn` after `delay`. Timer callbacks fire even while the CPU
  /// is busy (they model interrupt-driven timeouts) but never after a crash.
  TimerId set_timer(Duration delay, TimerCallback fn);

  /// Cancels a pending timer; invalidates the id. No-op when already fired.
  void cancel_timer(TimerId& id);

  Runtime& sim() { return runtime_; }
  const Runtime& sim() const { return runtime_; }
  Transport& network() { return net_; }
  Time now() const { return runtime_.now(); }

 private:
  struct Waiting {
    NodeId from;
    PayloadPtr message;
  };
  /// EDF heap entry. The arrival sequence makes (due, seq) a total order,
  /// so equal due times pop in arrival order and simulated trajectories
  /// stay deterministic.
  struct Due {
    Time due = 0;
    std::uint64_t seq = 0;
    Waiting waiting;
    bool operator<(const Due& other) const {
      // std::push_heap builds a max-heap; invert so the earliest due (then
      // the earliest arrival) surfaces at the top.
      if (due != other.due) return due > other.due;
      return seq > other.seq;
    }
  };

  void enqueue(NodeId from, PayloadPtr message, Time due);
  Waiting dequeue();
  void clear_queue();
  /// Simulator: puts the next waiting message into service.
  void maybe_start_processing();
  /// Wall clock, EDF: handles every waiting message, earliest due first.
  void drain_due();

  Runtime& runtime_;
  Transport& net_;
  NodeId id_;
  /// Fixed by the runtime's type at construction.
  const bool wall_clock_;
  bool edf_ = false;
  bool crashed_ = false;
  bool processing_ = false;  ///< simulator: a message is in service
  bool drain_armed_ = false;  ///< wall clock: a drain_due() event is pending
  bool flush_armed_ = false;  ///< an on_flushed() call is pending
  Time busy_until_ = 0;
  /// FIFO: a grow-only power-of-two ring. Once warm, enqueue and dequeue
  /// never allocate (std::deque allocates a block roughly every page of
  /// churn, which would break the zero-allocation budget).
  std::vector<Waiting> ring_;
  std::size_t ring_head_ = 0;
  std::size_t ring_count_ = 0;
  /// EDF: a binary heap on (due, arrival sequence); its vector only grows.
  std::vector<Due> heap_;
  std::uint64_t next_seq_ = 0;
  // Liveness token: scheduled lambdas hold a weak_ptr and become no-ops
  // once the node is destroyed.
  std::shared_ptr<Node*> alive_;
};

}  // namespace idem::sim
