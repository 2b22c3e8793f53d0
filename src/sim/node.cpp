#include "sim/node.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace idem::sim {

Node::Node(Runtime& runtime, Transport& net, NodeId id, NodeKind kind)
    : runtime_(runtime),
      net_(net),
      id_(id),
      wall_clock_(runtime.wall_clock()),
      alive_(std::make_shared<Node*>(this)) {
  net_.add_node(id_, kind, this);
}

Node::~Node() {
  *alive_ = nullptr;
  net_.remove_node(id_);
}

void Node::set_discipline(DisciplineKind kind) {
  assert(queue_length() == 0 && "set the discipline before traffic arrives");
  edf_ = kind == DisciplineKind::Edf;
}

void Node::crash() {
  if (crashed_) return;
  crashed_ = true;
  clear_queue();
  processing_ = false;
  // Stay registered with the network so traffic addressed to the crashed
  // node is still *sent* (and counted) by peers; deliveries are dropped in
  // deliver().
}

void Node::restart() {
  if (!crashed_) return;
  crashed_ = false;
  processing_ = false;
  busy_until_ = runtime_.now();
  on_restart();
}

void Node::deliver(NodeId from, PayloadPtr message) {
  if (crashed_) return;
  const Duration budget = edf_ ? message_deadline(*message) : 0;
  if (!wall_clock_) {
    enqueue(from, std::move(message), runtime_.now() + (budget > 0 ? budget : 0));
    maybe_start_processing();
    return;
  }
  if (budget <= 0) {
    on_message(from, *message);
    return;
  }
  // Wait for the rest of the recv burst: a zero-delay event fires after
  // the loop iteration's I/O, so the whole burst drains earliest-due first.
  enqueue(from, std::move(message), runtime_.now() + budget);
  if (drain_armed_) return;
  drain_armed_ = true;
  std::weak_ptr<Node*> weak = alive_;
  runtime_.schedule_after(0, [weak] {
    auto token = weak.lock();
    if (!token || *token == nullptr) return;
    (*token)->drain_armed_ = false;
    (*token)->drain_due();
  });
}

void Node::drain_due() {
  while (!crashed_ && !heap_.empty()) {
    Waiting next = dequeue();
    on_message(next.from, *next.message);
  }
}

void Node::after_flush() {
  if (flush_armed_) return;
  flush_armed_ = true;
  std::weak_ptr<Node*> weak = alive_;
  auto pass = [weak] {
    auto token = weak.lock();
    if (!token || *token == nullptr) return;
    Node* self = *token;
    self->flush_armed_ = false;
    if (!self->crashed_) self->on_flushed();
  };
  static_assert(EventQueue::Callback::stores_inline<decltype(pass)>,
                "asking for a pass must not allocate");
  runtime_.after_flush(std::move(pass));
}

Duration Node::message_cost(const Payload&) const { return 0; }

Duration Node::message_deadline(const Payload&) const { return 0; }

Duration Node::send_cost(const Payload&) const { return 0; }

void Node::charge(Duration extra) {
  if (wall_clock_ || extra <= 0) return;
  Time base = std::max(busy_until_, now());
  busy_until_ = base + extra;
}

void Node::enqueue(NodeId from, PayloadPtr message, Time due) {
  if (edf_) {
    heap_.push_back(Due{due, next_seq_++, Waiting{from, std::move(message)}});
    std::push_heap(heap_.begin(), heap_.end());
    return;
  }
  if (ring_count_ == ring_.size()) {
    // Full (or never allocated): grow to the next power of two, unrolling
    // the ring so the live elements are contiguous again from index 0.
    std::vector<Waiting> bigger;
    std::size_t cap = ring_.empty() ? 8 : ring_.size() * 2;
    bigger.reserve(cap);
    for (std::size_t i = 0; i < ring_count_; ++i) {
      bigger.push_back(std::move(ring_[(ring_head_ + i) & (ring_.size() - 1)]));
    }
    bigger.resize(cap);
    ring_ = std::move(bigger);
    ring_head_ = 0;
  }
  ring_[(ring_head_ + ring_count_) & (ring_.size() - 1)] = Waiting{from, std::move(message)};
  ++ring_count_;
}

Node::Waiting Node::dequeue() {
  if (edf_) {
    std::pop_heap(heap_.begin(), heap_.end());
    Waiting out = std::move(heap_.back().waiting);
    heap_.pop_back();
    return out;
  }
  Waiting out = std::move(ring_[ring_head_]);
  ring_[ring_head_] = Waiting{};  // drop the payload ref now, not at reuse
  ring_head_ = (ring_head_ + 1) & (ring_.size() - 1);
  --ring_count_;
  return out;
}

void Node::clear_queue() {
  heap_.clear();
  for (std::size_t i = 0; i < ring_count_; ++i) {
    ring_[(ring_head_ + i) & (ring_.size() - 1)] = Waiting{};
  }
  ring_head_ = 0;
  ring_count_ = 0;
}

void Node::maybe_start_processing() {
  if (processing_ || queue_length() == 0 || crashed_) return;
  processing_ = true;

  Waiting next = dequeue();

  Time start = std::max(now(), busy_until_);
  Duration cost = message_cost(*next.message);
  Time finish = start + (cost > 0 ? cost : 0);
  busy_until_ = finish;

  std::weak_ptr<Node*> weak = alive_;
  auto process = [weak, next = std::move(next)]() {
    auto token = weak.lock();
    if (!token || *token == nullptr) return;
    Node* self = *token;
    if (self->crashed_) return;
    self->processing_ = false;
    self->on_message(next.from, *next.message);
    self->maybe_start_processing();
  };
  static_assert(EventQueue::Callback::stores_inline<decltype(process)>,
                "per-message dispatch must not allocate");
  runtime_.schedule_at(finish, std::move(process));
}

TimerId Node::set_timer(Duration delay, TimerCallback fn) {
  std::weak_ptr<Node*> weak = alive_;
  auto fire = [weak, fn = std::move(fn)]() mutable {
    auto token = weak.lock();
    if (!token || *token == nullptr) return;
    if ((*token)->crashed_) return;
    fn();
  };
  static_assert(EventQueue::Callback::stores_inline<decltype(fire)>,
                "timer arming must not allocate");
  EventId event = runtime_.schedule_after(delay, std::move(fire));
  return TimerId{event};
}

void Node::cancel_timer(TimerId& id) {
  if (id.valid()) {
    runtime_.cancel(id.event);
    id = TimerId{};
  }
}

}  // namespace idem::sim
