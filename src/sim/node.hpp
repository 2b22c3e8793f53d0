// Actor base class for simulated processes (replicas and clients).
//
// A node owns a FIFO service queue driven by a simple CPU model: every
// incoming message occupies the node's (single) CPU for a per-message cost
// the subclass declares, and handlers can charge additional work (request
// execution, building a state snapshot). This queueing is what turns offered
// load beyond capacity into the latency explosion the paper measures —
// see DESIGN.md Section 1.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/inline_function.hpp"
#include "common/time.hpp"
#include "sim/discipline.hpp"
#include "sim/runtime.hpp"
#include "sim/transport.hpp"

namespace idem::sim {

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

  /// Length of the service queue (messages waiting for CPU), exposed for
  /// tests and load metrics. Counts both lanes.
  std::size_t queue_length() const { return queue_->count() + urgent_.count(); }

  /// Replaces the normal lane's service discipline (FIFO by default; the
  /// pre-refactor ring, bit-identical). Call before traffic arrives — a
  /// swap does not migrate already-queued messages. EDF nodes consult
  /// message_deadline() at delivery and serve the earliest due first;
  /// deadline-less messages count as due immediately, so agreement traffic
  /// keeps priority and FIFO order among itself.
  void set_discipline(std::unique_ptr<ServiceDiscipline> discipline);

  /// Discipline currently installed (display / tests).
  const ServiceDiscipline& discipline() const { return *queue_; }

  /// Sender-based service-queue prioritization: messages whose sender the
  /// classifier marks urgent are dispatched before anything in the normal
  /// lane. Off (nullptr) by default: in the simulator it lowered IDEM's
  /// goodput at 4x Figure 6 load. Real deployments (real::make_replica)
  /// switch it on, and there it acts only while an EDF discipline holds
  /// deadline-carrying messages: those skip inline dispatch and queue, and
  /// agreement traffic that arrives meanwhile overtakes them. Under FIFO
  /// with inline dispatch no delivery queues, so the lane stays empty.
  /// Plain function pointer: classifying happens on every delivery, and
  /// the classifiers are stateless.
  using UrgentClassifier = bool (*)(NodeId from);
  void set_urgent_classifier(UrgentClassifier classifier) { urgent_classifier_ = classifier; }

  /// Dispatch a delivery inline when the node is idle (nothing queued, not
  /// mid-message, no outstanding CPU charge) and the message itself is
  /// free. Skips the schedule-at-now hop through the runtime's event queue
  /// — per-message timer-heap traffic that exists only to model service
  /// time, which real mode does not model. Off by default: the simulator
  /// models service time, and dispatching inline would reorder its
  /// events.
  void set_inline_dispatch(bool on) { inline_dispatch_ = on; }

 protected:
  /// Handles one message. Invoked when the message's service time has
  /// elapsed, i.e. sends made here already account for processing delay.
  virtual void on_message(NodeId from, const Payload& message) = 0;

  /// Invoked by restart() after the node is live again; subclasses re-arm
  /// periodic timers here (timers pending across the crash window fired as
  /// no-ops). Default: nothing.
  virtual void on_restart() {}

  /// CPU cost of receiving/handling `message`. Subclasses model their
  /// protocol's per-message work here. Default: free.
  virtual Duration message_cost(const Payload& message) const;

  /// Latency budget the sender attached to `message` (0 = none). Consulted
  /// only by non-FIFO disciplines, at delivery: the message's due time in
  /// the service queue is arrival + deadline. Default: no deadline.
  virtual Duration message_deadline(const Payload& message) const;

  /// CPU cost of transmitting `message` (serialization + syscall). Charged
  /// on every send; this is what makes naive leader fan-out of full
  /// requests a bottleneck (cf. S-Paxos and paper Section 4.2).
  virtual Duration send_cost(const Payload& message) const;

  void send(NodeId to, PayloadPtr message) {
    charge(send_cost(*message));
    net_.send(id_, to, std::move(message));
  }

  /// Charges extra CPU time to this node (e.g. executing a request while
  /// handling a commit); it delays all subsequently queued messages.
  void charge(Duration extra);

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
  void maybe_start_processing();

  Runtime& runtime_;
  Transport& net_;
  NodeId id_;
  bool crashed_ = false;
  /// Normal lane (everything, when no classifier is set). Pluggable; the
  /// default FifoDiscipline is the pre-refactor ring buffer.
  std::unique_ptr<ServiceDiscipline> queue_;
  /// Cached queue_->fifo(): the hot path must not pay a virtual call just
  /// to learn that deadlines are irrelevant.
  bool fifo_discipline_ = true;
  FifoDiscipline urgent_;  ///< dispatched first; fed only by the classifier
  UrgentClassifier urgent_classifier_ = nullptr;
  bool inline_dispatch_ = false;
  bool processing_ = false;
  Time busy_until_ = 0;
  // Liveness token: scheduled lambdas hold a weak_ptr and become no-ops
  // once the node is destroyed.
  std::shared_ptr<Node*> alive_;
};

}  // namespace idem::sim
