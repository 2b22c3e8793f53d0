// Per-layer measurements taken from outside the program: the lifecycle
// trace folded into stages, and replays of the run's own data through the
// codec, framing, execution and acceptance layers.
#include <algorithm>
#include <chrono>
#include <memory>
#include <unordered_map>

#include "bench.hpp"
#include "common/reject_reason.hpp"
#include "consensus/addresses.hpp"
#include "consensus/messages.hpp"
#include "idem/acceptance.hpp"
#include "rpc/framing.hpp"

namespace perfbench {

using idem::kMillisecond;
using idem::obs::TraceEvent;
using idem::obs::TraceEventKind;

// ---------------------------------------------------------------------------
// Trace folding
// ---------------------------------------------------------------------------

namespace {

struct Stamp {
  std::uint32_t node = 0;
  Time at = 0;
};

struct Lifecycle {
  Time issued = -1;
  Time outcome_at = -1;
  std::uint64_t outcome_kind = 0;
  std::uint32_t retries = 0;
  Stamp proposed{0, -1};
  std::uint64_t sqn = 0;
  std::vector<Stamp> accepts;     ///< accepting verdicts (node, time)
  std::vector<Stamp> noted;       ///< REQUIRE votes noted: (noting node, time)
  std::vector<std::uint32_t> voters;  ///< voter of each entry in `noted`
  std::vector<Stamp> executed;
  std::vector<Stamp> replies_sent;
  std::vector<Stamp> rejects_seen;  ///< (rejecting replica, time) at the client
};

Time at_node(const std::vector<Stamp>& stamps, std::uint32_t node) {
  Time best = -1;
  for (const Stamp& s : stamps) {
    if (s.node == node && (best < 0 || s.at < best)) best = s.at;
  }
  return best;
}

/// Time at which the k-th distinct party appears in (time, party) stamps, or -1.
Time kth_distinct(std::vector<std::pair<Time, std::uint32_t>> stamps, std::size_t k) {
  std::sort(stamps.begin(), stamps.end());
  std::vector<std::uint32_t> seen;
  for (const auto& [at, who] : stamps) {
    if (std::find(seen.begin(), seen.end(), who) != seen.end()) continue;
    seen.push_back(who);
    if (seen.size() == k) return at;
  }
  return -1;
}

constexpr const char* kStages[] = {"intake", "require", "order", "agree",
                                   "execute", "reply",   "return"};
constexpr std::size_t kStageCount = 7;

}  // namespace

void fold_trace(const std::vector<TraceEvent>& events, const Ledger& ledger, std::size_t n,
                std::size_t f, Report& report) {
  std::unordered_map<std::uint64_t, Lifecycle> requests;
  std::unordered_map<std::uint64_t, std::vector<Time>> commit_quorums;  // (node, sqn)
  auto slot_key = [](std::uint32_t node, std::uint64_t sqn) {
    return (static_cast<std::uint64_t>(node) << 48) | sqn;
  };
  for (const TraceEvent& ev : events) {
    if (ev.kind == TraceEventKind::CommitQuorum) {
      commit_quorums[slot_key(ev.node, ev.arg)].push_back(ev.at);
      continue;
    }
    if (ev.onr == 0) continue;  // node-scoped
    Lifecycle& r = requests[request_key(ev.cid, ev.onr)];
    switch (ev.kind) {
      case TraceEventKind::RequestIssued:
        if (r.issued < 0 || ev.at < r.issued) r.issued = ev.at;
        break;
      case TraceEventKind::RequestRetry:
        ++r.retries;
        break;
      case TraceEventKind::RejectSeen:
        r.rejects_seen.push_back(Stamp{idem::reject_seen_replica(ev.arg), ev.at});
        break;
      case TraceEventKind::RequestOutcome:
        r.outcome_at = ev.at;
        r.outcome_kind = ev.arg;
        break;
      case TraceEventKind::AcceptVerdict:
        if (idem::accept_verdict_accepted(ev.arg)) r.accepts.push_back(Stamp{ev.node, ev.at});
        break;
      case TraceEventKind::RequireNoted:
        r.noted.push_back(Stamp{ev.node, ev.at});
        r.voters.push_back(static_cast<std::uint32_t>(ev.arg));
        break;
      case TraceEventKind::Proposed:
        if (ev.at >= r.proposed.at) {
          r.proposed = Stamp{ev.node, ev.at};
          r.sqn = ev.arg;
        }
        break;
      case TraceEventKind::Executed:
        r.executed.push_back(Stamp{ev.node, ev.at});
        break;
      case TraceEventKind::ReplySent:
        r.replies_sent.push_back(Stamp{ev.node, ev.at});
        break;
      default:
        break;
    }
  }

  std::vector<double> stage_ms[kStageCount];
  std::vector<double> notify_ms;
  double reply_sum = 0, folded_sum = 0;  // issue-to-outcome time of the REPLYs
  std::uint64_t issued = 0, retries = 0, replies = 0;
  for (auto& [key, r] : requests) {
    if (r.issued < 0) continue;
    ++issued;
    retries += r.retries;
    if (r.outcome_at < 0) continue;
    if (r.outcome_kind == static_cast<std::uint64_t>(idem::consensus::Outcome::Kind::Rejected)) {
      std::vector<std::pair<Time, std::uint32_t>> seen;
      for (const Stamp& s : r.rejects_seen) seen.emplace_back(s.at, s.node);
      const Time notified = kth_distinct(seen, n - f);
      if (notified >= r.issued) {
        notify_ms.push_back(static_cast<double>(notified - r.issued) / kMillisecond);
      }
      continue;
    }
    if (r.outcome_kind != static_cast<std::uint64_t>(idem::consensus::Outcome::Kind::Reply)) {
      continue;
    }
    if (!ledger.by_request.contains(key)) continue;  // the set-up read and the read-back
    ++replies;
    const double span = static_cast<double>(r.outcome_at - r.issued);
    reply_sum += span;
    if (r.proposed.at < 0) continue;
    const std::uint32_t leader = r.proposed.node;
    std::vector<std::pair<Time, std::uint32_t>> votes;
    for (std::size_t i = 0; i < r.noted.size(); ++i) {
      if (r.noted[i].node == leader) votes.emplace_back(r.noted[i].at, r.voters[i]);
    }
    Time quorum_cut = -1;
    auto cq = commit_quorums.find(slot_key(leader, r.sqn));
    if (cq != commit_quorums.end()) {
      for (Time t : cq->second) {
        if (t >= r.proposed.at && (quorum_cut < 0 || t < quorum_cut)) quorum_cut = t;
      }
    }
    const Time t[kStageCount + 1] = {r.issued,
                                     at_node(r.accepts, leader),
                                     kth_distinct(votes, f + 1),
                                     r.proposed.at,
                                     quorum_cut,
                                     at_node(r.executed, leader),
                                     at_node(r.replies_sent, leader),
                                     r.outcome_at};
    bool complete = true;
    for (std::size_t i = 0; i < kStageCount; ++i) {
      if (t[i] < 0 || t[i + 1] < t[i]) complete = false;
    }
    if (!complete) continue;
    for (std::size_t i = 0; i < kStageCount; ++i) {
      stage_ms[i].push_back(static_cast<double>(t[i + 1] - t[i]) / kMillisecond);
    }
    folded_sum += span;
  }

  const std::uint64_t folded = stage_ms[0].size();
  for (std::size_t i = 0; i < kStageCount; ++i) {
    double sum = 0;
    for (double v : stage_ms[i]) sum += v;
    const std::string prefix = std::string("stage.") + kStages[i];
    report.set(prefix + "_mean_ms", folded > 0 ? sum / static_cast<double>(folded) : 0.0, "ms",
               folded);
    report.set(prefix + "_p50_ms", quantile(stage_ms[i], 0.5), "ms", folded);
  }
  // Share of the REPLYs' issue-to-outcome time that no stage covers:
  // requests whose lifecycle stamps are missing or out of order.
  report.set("stage.unaccounted_pct", reply_sum > 0 ? 100.0 * (1.0 - folded_sum / reply_sum) : 0.0,
             "%", replies);
  report.set("stage.folded_pct",
             replies > 0 ? 100.0 * static_cast<double>(folded) / static_cast<double>(replies)
                         : 0.0,
             "%", replies);
  if (!notify_ms.empty()) {
    report.set("client.reject_notify_ms", quantile(notify_ms, 0.5), "ms", notify_ms.size());
  }
  report.set("client.retries_per_kop",
             issued > 0 ? 1000.0 * static_cast<double>(retries) / static_cast<double>(issued) : 0.0,
             "count", issued);
}

// ---------------------------------------------------------------------------
// Layer replays
// ---------------------------------------------------------------------------

namespace {

/// Median nanoseconds per item of `pass` (which handles `items` items),
/// over passes repeated for at least 40 ms and 5 passes.
template <typename Pass>
double ns_per_item(std::size_t items, Pass&& pass) {
  if (items == 0) return 0;
  std::vector<double> per_item;
  const auto begin = std::chrono::steady_clock::now();
  while (per_item.size() < 5 ||
         std::chrono::steady_clock::now() - begin < std::chrono::milliseconds(40)) {
    const auto t0 = std::chrono::steady_clock::now();
    pass();
    const auto t1 = std::chrono::steady_clock::now();
    per_item.push_back(
        static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()) /
        static_cast<double>(items));
  }
  return median(per_item);
}

volatile std::size_t g_sink = 0;  // keeps replayed results observable

}  // namespace

void replay_layers(const ReplayInput& input, Report& report) {
  namespace msg = idem::msg;
  const std::vector<Sample>& samples = *input.samples;
  const std::size_t ops = samples.size();

  // Codec: per op its REQUEST, its REPLY or REJECT, one REQUIRE vote, and
  // its share of the PROPOSE and COMMIT of a batch the run's mean size.
  std::vector<std::shared_ptr<const msg::Message>> messages;
  const std::size_t batch =
      std::max<std::size_t>(1, static_cast<std::size_t>(input.ops_per_propose + 0.5));
  std::vector<idem::RequestId> ids;
  for (std::size_t i = 0; i < ops; ++i) {
    const Sample& s = samples[i];
    messages.push_back(std::make_shared<msg::Request>(s.id, s.command.encode()));
    if (s.outcome == Outcome::Reply) {
      messages.push_back(std::make_shared<msg::Reply>(s.id, s.result));
    } else {
      messages.push_back(std::make_shared<msg::Reject>(s.id, idem::RejectReason::RtQueueFull));
    }
    auto require = std::make_shared<msg::Require>();
    require->from = idem::ReplicaId{1};
    require->ids = {s.id};
    messages.push_back(require);
    ids.push_back(s.id);
    if (ids.size() == batch || i + 1 == ops) {
      auto propose = std::make_shared<msg::Propose>();
      propose->sqn = idem::SeqNum{i};
      propose->ids = ids;
      auto commit = std::make_shared<msg::Commit>();
      commit->from = idem::ReplicaId{1};
      commit->sqn = propose->sqn;
      commit->ids = ids;
      messages.push_back(propose);
      messages.push_back(commit);
      ids.clear();
    }
  }
  std::vector<std::vector<std::byte>> encoded;
  for (const auto& m : messages) encoded.push_back(m->encode());
  report.set("codec.encode_ns", ns_per_item(ops, [&] {
               for (const auto& m : messages) g_sink = g_sink + m->encode().size();
             }),
             "ns", ops);
  report.set("codec.decode_ns", ns_per_item(ops, [&] {
               for (const auto& bytes : encoded) {
                 g_sink = g_sink + static_cast<std::size_t>(msg::decode(bytes)->type());
               }
             }),
             "ns", ops);

  // Framing: each REQUEST framed and parsed back out of one stream.
  std::vector<std::vector<std::byte>> requests;
  for (const Sample& s : samples) requests.push_back(msg::Request(s.id, s.command.encode()).encode());
  idem::rpc::FrameReader reader;
  report.set("rpc.frame_ns", ns_per_item(requests.size(), [&] {
               for (const auto& payload : requests) {
                 std::vector<std::byte> frame =
                     idem::rpc::encode_frame(idem::consensus::kClientAddressBase, 0, payload);
                 reader.feed(frame, [](std::uint32_t, std::uint32_t,
                                       std::span<const std::byte> body) {
                   g_sink = g_sink + body.size();
                 });
               }
             }),
             "ns", requests.size());

  // Execution: the run's reads and updates against the run's initial store.
  app::KvStore store;
  for (const auto& [key, value] : input.initial_store) store.put(key, value);
  std::vector<std::vector<std::byte>> reads, updates;
  for (const Sample& s : samples) {
    (s.command.op == app::KvOp::Put ? updates : reads).push_back(s.command.encode());
  }
  auto execute_all = [&store](const std::vector<std::vector<std::byte>>& commands) {
    for (const auto& command : commands) g_sink = g_sink + store.execute(command).size();
  };
  report.set("app.read_ns", ns_per_item(reads.size(), [&] { execute_all(reads); }), "ns",
             reads.size());
  report.set("app.update_ns", ns_per_item(updates.size(), [&] { execute_all(updates); }), "ns",
             updates.size());

  // Acceptance: the default test on the run's requests at r_now = 0..r.
  idem::core::IdemConfig config;
  config.reject_threshold = input.reject_threshold;
  auto test = idem::core::make_default_acceptance(config, input.expected_clients);
  std::vector<std::vector<std::byte>> commands;
  for (const Sample& s : samples) commands.push_back(s.command.encode());
  report.set("core.accept_eval_ns", ns_per_item(ops, [&] {
               idem::core::AcceptanceContext ctx;
               ctx.reject_threshold = input.reject_threshold;
               for (std::size_t i = 0; i < ops; ++i) {
                 ctx.active_requests = i % (input.reject_threshold + 1);
                 ctx.now = static_cast<Time>(i) * idem::kMicrosecond;
                 g_sink = g_sink + test->evaluate(samples[i].id, commands[i], ctx).accepted;
               }
             }),
             "ns", ops);
}

}  // namespace perfbench
