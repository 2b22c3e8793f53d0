#include "idem/replica.hpp"

#include <cassert>
#include <utility>

#include "common/logging.hpp"
#include "core/lifecycle.hpp"

namespace idem::core {

namespace {
constexpr Duration kFetchRetry = 5 * kMillisecond;
constexpr std::size_t kFetchPrefetch = 64;  // committed instances fetched ahead of the head
}  // namespace

IdemReplica::IdemReplica(sim::Runtime& sim, sim::Transport& net, ReplicaId id,
                         IdemConfig config, std::unique_ptr<app::StateMachine> state_machine,
                         std::unique_ptr<AcceptanceTest> acceptance)
    : sim::Node(sim, net, consensus::replica_address(id), sim::NodeKind::Replica),
      config_(config),
      me_(id),
      sm_(std::move(state_machine)),
      views_(*this, log_, sim, id, config.n, config.trace),
      cost_rng_(sim.seed(), 0xC057'0000ull + id.value),
      intake_(*this, id, clients_, config, config.batch_max, stats_, std::move(acceptance)) {
  assert(config_.n == 2 * config_.f + 1);
  assert(config_.n <= consensus::VoteSet::kCapacity);  // voter ids fit a VoteSet
  assert(sm_ != nullptr);
}

void IdemReplica::on_restart() {
  // Timers pending at crash time fired as no-ops while the node was down;
  // drop the stale handles and re-arm the periodic machinery exactly as a
  // rebooted process (with its durable state intact) would.
  intake_.restart();
  cancel_timer(require_flush_timer_);
  cancel_timer(propose_cut_timer_);
  cancel_timer(state_retry_timer_);
  cancel_timer(progress_timer_);
  arm_progress_timer();
}

Duration IdemReplica::message_cost(const sim::Payload& message) const {
  return config_.costs.cost(message, cost_rng_);
}

Duration IdemReplica::send_cost(const sim::Payload& message) const {
  return config_.costs.send_cost(message, cost_rng_);
}

Duration IdemReplica::message_deadline(const sim::Payload& message) const {
  const auto* base = dynamic_cast<const msg::Message*>(&message);
  if (base == nullptr || base->type() != msg::Type::Request) return 0;
  return static_cast<const msg::Request&>(*base).deadline;
}

void IdemReplica::multicast(sim::PayloadPtr message) {
  for (std::uint32_t i = 0; i < config_.n; ++i) {
    if (i == me_.value) continue;
    send(consensus::replica_address(ReplicaId{i}), message);
  }
}

void IdemReplica::send_to_leader(sim::PayloadPtr message) {
  ReplicaId leader = consensus::leader_of(views_.leader_view(), config_.n);
  if (leader == me_) return;  // callers short-circuit local handling
  send(consensus::replica_address(leader), std::move(message));
}

void IdemReplica::reply_to_client(ClientId cid, sim::PayloadPtr message) {
  send(consensus::client_address(cid), std::move(message));
}

void IdemReplica::on_message(sim::NodeId from, const sim::Payload& message) {
  const auto* base = dynamic_cast<const msg::Message*>(&message);
  if (base == nullptr) return;
  switch (base->type()) {
    case msg::Type::Request:
      handle_request(static_cast<const msg::Request&>(*base));
      break;
    case msg::Type::Require: {
      const auto& require = static_cast<const msg::Require&>(*base);
      for (RequestId id : require.ids) {
        intake_.adopt(id);
        note_require(require.from, id);
      }
      break;
    }
    case msg::Type::Propose:
      handle_propose(static_cast<const msg::Propose&>(*base));
      break;
    case msg::Type::Commit:
      handle_commit(static_cast<const msg::Commit&>(*base));
      break;
    case msg::Type::Forward:
      intake_.handle_forward(static_cast<const msg::Forward&>(*base));
      break;
    case msg::Type::Fetch:
      handle_fetch(consensus::replica_of_address(from), static_cast<const msg::Fetch&>(*base));
      break;
    case msg::Type::ViewChange:
      views_.handle(static_cast<const msg::ViewChange&>(*base));
      break;
    case msg::Type::StateRequest:
      handle_state_request(static_cast<const msg::StateRequest&>(*base));
      break;
    case msg::Type::StateResponse:
      handle_state_response(static_cast<const msg::StateResponse&>(*base));
      break;
    default:
      // Messages of other protocols are ignored (shared message namespace).
      break;
  }
}

// ---------------------------------------------------------------------------
// Request intake
// ---------------------------------------------------------------------------

void IdemReplica::handle_request(const msg::Request& request) {
  ++stats_.requests_received;
  const RequestId id = request.id;

  if (clients_.executed(id)) {
    // Already executed (client retransmission): re-send the cached reply if
    // it is for exactly this operation.
    if (auto reply = clients_.cached_reply(id)) reply_to_client(id.cid, std::move(reply));
    return;
  }
  intake_.admit(request, views_.in_viewchange());
}

void IdemReplica::register_metrics(obs::MetricsRegistry& registry,
                                   const std::string& prefix) const {
  intake_.register_metrics(registry, prefix);
  registry.add_counter(prefix + "executed", stats_.executed);
  registry.add_counter(prefix + "view_changes", stats_.view_changes);
  registry.add_counter(prefix + "state_snapshots_sent", stats_.state_snapshots_sent);
  registry.add_counter(prefix + "state_transfers", stats_.state_transfers);
  registry.add_counter(prefix + "requests_received", stats_.requests_received);
  registry.add_gauge(prefix + "view", [this] { return static_cast<double>(view().value); });
  registry.add_gauge(prefix + "leader", [this] { return is_leader() ? 1.0 : 0.0; });
}

void IdemReplica::require(RequestId id) {
  if (is_leader()) {
    note_require(me_, id);
  } else {
    pending_requires_.push_back(id);
    if (pending_requires_.size() >= config_.require_batch_max) {
      flush_requires();
    } else if (!require_flush_timer_.valid()) {
      // On an event loop a zero-delay timer fires after the iteration's I/O,
      // so every id accepted from one recv burst leaves in one REQUIRE.
      const Duration delay = wall_clock() ? 0 : config_.require_flush_interval;
      require_flush_timer_ = set_timer(delay, [this] {
        require_flush_timer_ = sim::TimerId{};
        flush_requires();
      });
    }
  }
  arm_progress_timer();
}

void IdemReplica::flush_requires() {
  cancel_timer(require_flush_timer_);
  if (pending_requires_.empty()) return;
  auto require = std::make_shared<msg::Require>();
  require->from = me_;
  require->ids = std::move(pending_requires_);
  pending_requires_.clear();
  if (is_leader()) {
    for (RequestId id : require->ids) note_require(me_, id);
  } else {
    send_to_leader(std::move(require));
  }
}

// ---------------------------------------------------------------------------
// Agreement
// ---------------------------------------------------------------------------

void IdemReplica::note_require(ReplicaId voter, RequestId id) {
  const Intake::Vote vote = intake_.note_require(voter, id);
  if (vote == Intake::Vote::Ignored) return;
  if (vote == Intake::Vote::Quorum) arm_progress_timer();
  // Collect every quorum completed in this scheduling step into one
  // PROPOSE: the zero-delay timer fires after the step's input batch is
  // drained but before the loop sleeps, so batching costs no latency.
  if (!propose_cut_timer_.valid()) {
    propose_cut_timer_ = set_timer(0, [this] {
      propose_cut_timer_ = sim::TimerId{};
      try_propose();
    });
  }
}

void IdemReplica::try_propose() {
  if (!is_leader()) return;
  if (next_sqn_ < log_.low()) next_sqn_ = log_.low();
  const std::uint64_t window_end = log_.low() + config_.window();
  while (intake_.has_eligible() && next_sqn_ < window_end) {
    // Skip sequence numbers that already carry a binding (re-proposed slots
    // taken over from an earlier view).
    next_sqn_ = log_.skip_bound(next_sqn_);
    if (next_sqn_ >= window_end) break;

    std::vector<RequestId> batch;
    intake_.cut([&](RequestId id) {
      batch.push_back(id);
      return true;
    });
    if (batch.empty()) break;

    Instance& inst = log_.at(next_sqn_);
    inst.view = views_.view();
    inst.items = batch;
    inst.has_binding = true;
    inst.own_vote_sent = true;  // the leader's proposal counts as a commit
    inst.votes.insert(me_.value);
    for (RequestId id : batch) {
      lifecycle::proposed(config_.trace, sim(), me_.value, id, next_sqn_);
    }
    lifecycle::propose_received(config_.trace, sim(), me_.value, next_sqn_);
    note_commit_quorum(next_sqn_, inst);

    auto propose = std::make_shared<msg::Propose>();
    propose->view = views_.view();
    propose->sqn = SeqNum{next_sqn_};
    propose->ids = std::move(batch);
    multicast(std::move(propose));
    ++stats_.proposals_sent;
    ++next_sqn_;
  }
  try_execute();
}

void IdemReplica::note_commit_quorum(std::uint64_t sqn, Instance& inst) {
  lifecycle::decision_quorum(config_.trace, sim(), me_.value, sqn, inst,
                             inst.votes.size(), config_.quorum());
}

void IdemReplica::send_own_commit(std::uint64_t sqn, Instance& inst) {
  auto commit = std::make_shared<msg::Commit>();
  commit->from = me_;
  commit->view = inst.view;
  commit->sqn = SeqNum{sqn};
  commit->ids = inst.items;
  // With f = 1 a follower's commit quorum is complete once the PROPOSE
  // arrives (the leader's implicit commit plus its own vote), so its
  // COMMIT only has to reach the leader: the Multi-Paxos ack-to-leader
  // pattern, two messages fewer per instance. With f > 1 followers need
  // each other's commits to execute. Bindings still reach every replica
  // through the view change and FETCH paths.
  if (config_.f == 1 && !is_leader()) {
    send_to_leader(std::move(commit));
  } else {
    multicast(std::move(commit));
  }
  inst.own_vote_sent = true;
  inst.votes.insert(me_.value);
}

void IdemReplica::handle_propose(const msg::Propose& propose) {
  if (!views_.observe(propose.view)) return;
  const std::uint64_t sqn = propose.sqn.value;
  if (sqn < log_.low()) return;

  views_.adopt(sqn, propose.view, propose.ids);
  Instance& inst = log_.at(sqn);
  if (inst.view != propose.view) return;  // a newer binding superseded this

  // The leader's proposal counts as its commit.
  inst.votes.insert(consensus::leader_of(propose.view, config_.n).value);
  if (!inst.own_vote_sent) send_own_commit(sqn, inst);
  note_commit_quorum(sqn, inst);
  observe_sequence(sqn, consensus::leader_of(propose.view, config_.n));
  execute_committed();
}

void IdemReplica::handle_commit(const msg::Commit& commit) {
  if (!views_.observe(commit.view)) return;
  const std::uint64_t sqn = commit.sqn.value;
  if (sqn < log_.low()) return;

  // Commits echo the proposal, so a replica that missed the PROPOSE still
  // learns the binding here.
  views_.adopt(sqn, commit.view, commit.ids);
  Instance& inst = log_.at(sqn);
  if (inst.view != commit.view) return;

  inst.votes.insert(commit.from.value);
  inst.votes.insert(consensus::leader_of(commit.view, config_.n).value);
  if (!inst.own_vote_sent) send_own_commit(sqn, inst);
  note_commit_quorum(sqn, inst);
  observe_sequence(sqn, commit.from);
  execute_committed();
}

bool IdemReplica::fetch_missing(Instance& inst) {
  std::vector<RequestId> missing;
  for (RequestId id : inst.items) {
    if (clients_.executed(id)) continue;
    if (intake_.find(id) == nullptr) missing.push_back(id);
  }
  if (missing.empty()) return false;
  if (!inst.fetch_gate.allow(now(), kFetchRetry)) return true;
  // Ask a replica that committed this instance (it executed or will
  // execute it, so it owns the bodies or can get them).
  ReplicaId target = consensus::leader_of(inst.view, config_.n);
  for (std::uint32_t voter : inst.votes) {
    if (voter != me_.value) {
      target = ReplicaId{voter};
      break;
    }
  }
  for (RequestId id : missing) {
    auto fetch = std::make_shared<msg::Fetch>();
    fetch->from = me_;
    fetch->id = id;
    send(consensus::replica_address(target), std::move(fetch));
    ++stats_.fetches_sent;
  }
  return true;
}

void IdemReplica::execute_committed() {
  if (is_leader()) {
    try_execute();
  } else {
    after_flush();
  }
}

void IdemReplica::try_execute() {
  for (;;) {
    auto it = log_.slots().find(log_.next_exec());
    if (it == log_.slots().end()) return;
    Instance& inst = it->second;
    if (!inst.has_binding || inst.executed) return;
    if (inst.votes.size() < config_.quorum()) return;

    if (fetch_missing(inst)) {
      // The head is blocked on missing bodies. Prefetch for the committed
      // instances behind it too: fetching one instance per round trip
      // would otherwise serialize catch-up at network latency.
      std::size_t prefetched = 0;
      for (auto ahead = std::next(it);
           ahead != log_.slots().end() && prefetched < kFetchPrefetch; ++ahead, ++prefetched) {
        Instance& future = ahead->second;
        if (!future.has_binding || future.executed) continue;
        if (future.votes.size() < config_.quorum()) continue;
        fetch_missing(future);
      }
      // Retry via timer in case fetch responses are lost.
      set_timer(kFetchRetry, [this] { try_execute(); });
      return;
    }

    execute_instance(log_.next_exec(), inst);
    log_.advance_head();
    note_progress();
  }
}

void IdemReplica::execute_instance(std::uint64_t sqn, Instance& inst) {
  for (RequestId id : inst.items) {
    if (clients_.executed(id)) {
      ++stats_.duplicates_skipped;
      continue;
    }
    const std::vector<std::byte>* command = intake_.find(id);
    assert(command != nullptr);
    if (!wall_clock()) {
      charge(config_.costs.apply_jitter(sm_->execution_cost(*command), cost_rng_));
    }
    std::vector<std::byte> result = sm_->execute(*command);
    ++stats_.executed;
    lifecycle::executed(config_.trace, sim(), me_.value, id, sqn);
    auto reply = std::make_shared<const msg::Reply>(id, std::move(result));
    clients_.record(id, reply);
    intake_.release(id, is_leader());
    if (is_leader()) {
      reply_to_client(id.cid, reply);
      lifecycle::reply_sent(config_.trace, sim(), me_.value, id);
    }
    if (on_execute) on_execute(SeqNum{sqn}, id);
  }
  inst.executed = true;
}

// ---------------------------------------------------------------------------
// Availability: forwarding, rejected cache, fetch (Section 5.2)
// ---------------------------------------------------------------------------

void IdemReplica::handle_fetch(ReplicaId from, const msg::Fetch& fetch) {
  const std::vector<std::byte>* command = intake_.find(fetch.id);
  if (command == nullptr) return;
  auto forward = std::make_shared<msg::Forward>();
  forward->from = me_;
  forward->requests.emplace_back(fetch.id, *command);
  send(consensus::replica_address(from), std::move(forward));
}

// ---------------------------------------------------------------------------
// Implicit garbage collection and state transfer (Section 4.4)
// ---------------------------------------------------------------------------

void IdemReplica::request_state_transfer(ReplicaId source) {
  if (state_transfer_pending_) return;
  state_transfer_pending_ = true;
  state_transfer_source_ = source;
  auto request = std::make_shared<msg::StateRequest>();
  request->from = me_;
  request->have = SeqNum{log_.next_exec() == 0 ? 0 : log_.next_exec() - 1};
  send(consensus::replica_address(source), std::move(request));
  // The peer stays silent when it is not ahead of us (or the response is
  // lost): release the latch after a while and re-evaluate, or this replica
  // could never ask again.
  cancel_timer(state_retry_timer_);
  state_retry_timer_ = set_timer(250 * kMillisecond, [this] {
    state_retry_timer_ = sim::TimerId{};
    state_transfer_pending_ = false;
    maybe_request_state();
  });
}

void IdemReplica::maybe_request_state() {
  // A bound instance ahead of an unbound execution head means the missing
  // slots may have been garbage-collected cluster-wide: only a state
  // transfer can bridge the gap.
  const Instance* head = log_.find(log_.next_exec());
  if (head != nullptr && head->has_binding) return;
  auto ahead = log_.slots().upper_bound(log_.next_exec());
  while (ahead != log_.slots().end() && !ahead->second.has_binding) ++ahead;
  if (ahead == log_.slots().end()) return;

  ReplicaId target = consensus::leader_of(ahead->second.view, config_.n);
  for (std::uint32_t voter : ahead->second.votes) {
    if (voter != me_.value) {
      target = ReplicaId{voter};
      break;
    }
  }
  if (target == me_) {
    target = ReplicaId{static_cast<std::uint32_t>((me_.value + 1) % config_.n)};
  }
  request_state_transfer(target);
}

void IdemReplica::observe_sequence(std::uint64_t sqn, ReplicaId source) {
  const std::uint64_t r_max = config_.r_max();
  if (sqn < log_.low() + r_max) return;
  std::uint64_t new_low = sqn - r_max + 1;

  // Instances committed earlier in this loop iteration may still wait for
  // the execution pass after the flush: run it before judging the lag.
  if (new_low > log_.next_exec() && flush_pending()) try_execute();
  if (new_low > log_.next_exec()) {
    // We are lagging: f+1 replicas have executed past our window, so the
    // old instances may be gone system-wide. Catch up by state transfer.
    request_state_transfer(source);
    new_low = log_.next_exec();
  }
  if (new_low > log_.low()) advance_window(new_low);
}

void IdemReplica::advance_window(std::uint64_t new_low) {
  log_.advance_low(new_low, [this](Instance& inst) {
    // Bodies stay until garbage collection: peers may FETCH them.
    for (RequestId id : inst.items) intake_.forget(id);
  });
}

void IdemReplica::handle_state_request(const msg::StateRequest& request) {
  // State is built from the live replica only when a peer asks: its upto
  // is the last executed instance.
  if (log_.next_exec() == 0 || log_.next_exec() - 1 <= request.have.value) return;
  auto response = std::make_shared<msg::StateResponse>();
  response->from = me_;
  response->upto = SeqNum{log_.next_exec() - 1};
  response->snapshot = sm_->snapshot();
  charge(consensus::CostModel::snapshot_cost(response->snapshot.size()));
  response->last_executed.reserve(clients_.sessions().size());
  for (const auto& [cid, onr] : clients_.sessions()) {
    response->last_executed.emplace_back(ClientId{cid}, OpNum{onr});
  }
  ++stats_.state_snapshots_sent;
  send(consensus::replica_address(request.from), std::move(response));
}

void IdemReplica::handle_state_response(const msg::StateResponse& response) {
  // Only accept the response we asked for, from the replica we asked:
  // unsolicited or duplicate responses must not be able to replace
  // state (a replica never needs state it did not request).
  if (!state_transfer_pending_ || response.from != state_transfer_source_) return;
  state_transfer_pending_ = false;
  if (response.upto.value < log_.next_exec()) return;  // stale; we caught up meanwhile
  try {
    sm_->restore(response.snapshot);
  } catch (const CodecError&) {
    // Malformed snapshot (buggy or hostile sender): restore() is strongly
    // exception-safe by contract, so our state is untouched — drop it.
    return;
  }
  charge(consensus::CostModel::snapshot_cost(response.snapshot.size()));
  for (const auto& [cid, onr] : response.last_executed) {
    clients_.merge_executed(cid, onr);
  }
  // Cached replies are stale after a restore; clients retransmit if needed.
  clients_.clear_replies();
  log_.set_next_exec(response.upto.value + 1);
  if (log_.next_exec() > log_.low()) advance_window(log_.next_exec());
  // Drop active entries that the transferred state proves executed.
  intake_.drop_executed();
  ++stats_.state_transfers;
  if (on_restore) on_restore(response.upto);
  cancel_timer(state_retry_timer_);
  try_execute();
  // The peer's head may still be below the cluster's GC line (it lagged
  // too): if a gap remains, ask again.
  maybe_request_state();
}

// ---------------------------------------------------------------------------
// View change (Section 4.5)
// ---------------------------------------------------------------------------

bool IdemReplica::has_outstanding_work() const {
  if (intake_.active_requests() > 0 || intake_.has_eligible()) return true;
  auto it = log_.slots().lower_bound(log_.next_exec());
  return it != log_.slots().end() && it->second.has_binding && !it->second.executed;
}

void IdemReplica::arm_progress_timer() {
  if (progress_timer_.valid()) return;
  if (!has_outstanding_work()) return;
  progress_timer_ = set_timer(config_.viewchange_timeout, [this] {
    progress_timer_ = sim::TimerId{};
    if (!has_outstanding_work()) return;
    views_.demand(views_.next_target());
  });
}

void IdemReplica::note_progress() {
  cancel_timer(progress_timer_);
  arm_progress_timer();
}

void IdemReplica::demanded(sim::PayloadPtr viewchange) {
  ++stats_.view_changes;
  multicast(std::move(viewchange));
  // Make sure the prospective leader learns about our accepted requests;
  // REQUIREs sent to the crashed leader are lost with it.
  resend_requires();
  // Safeguard: if this view change does not complete, try the next view.
  cancel_timer(progress_timer_);
  arm_progress_timer();
}

void IdemReplica::entered(bool) {
  resend_requires();
  note_progress();
}

void IdemReplica::repropose(std::uint64_t sqn, const Instance& inst) {
  for (RequestId id : inst.items) {
    intake_.mark_proposed(id);
    lifecycle::proposed(config_.trace, sim(), me_.value, id, sqn);
  }
  auto propose = std::make_shared<msg::Propose>();
  propose->view = views_.view();
  propose->sqn = SeqNum{sqn};
  propose->ids = inst.items;
  multicast(std::move(propose));
  ++stats_.proposals_sent;
}

void IdemReplica::lead(std::uint64_t next_free) {
  if (next_sqn_ < next_free) next_sqn_ = next_free;
  try_propose();
  try_execute();
}

bool IdemReplica::catch_up(std::uint64_t, ReplicaId reporter) {
  request_state_transfer(reporter);
  return true;
}

void IdemReplica::resend_requires() {
  // Tell the (new) leader about every request we own that is still
  // unexecuted; its REQUIRE bookkeeping may have died with the old leader.
  std::vector<RequestId> outstanding = intake_.outstanding();
  if (outstanding.empty()) return;

  if (consensus::leader_of(views_.leader_view(), config_.n) == me_) {
    for (RequestId id : outstanding) note_require(me_, id);
  } else {
    auto require = std::make_shared<msg::Require>();
    require->from = me_;
    require->ids = std::move(outstanding);
    send_to_leader(std::move(require));
  }
}

}  // namespace idem::core
