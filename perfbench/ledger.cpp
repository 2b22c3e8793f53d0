// Generators, the op ledger and the end-to-end outcome metrics.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>

#include "bench.hpp"

namespace perfbench {

using idem::kMillisecond;
using idem::kSecond;

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  std::size_t index = rank == 0 ? 0 : std::min(rank - 1, values.size() - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

Report summarize_rounds(const std::vector<Report>& reports) {
  std::map<std::string, std::vector<double>> values;
  std::map<std::string, Metric> merged;
  for (const Report& report : reports) {
    for (const auto& [name, metric] : report.metrics()) {
      values[name].push_back(metric.value);
      Metric& m = merged[name];
      m.unit = metric.unit;
      m.samples += metric.samples;
    }
  }
  Report out;
  for (auto& [name, list] : values) {
    out.set(name, median(list), merged[name].unit, merged[name].samples);
  }
  return out;
}

// ---------------------------------------------------------------------------
// LoadGenerator
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint64_t kCommandStream = 0xC0DE;
constexpr std::uint64_t kArrivalStream = 0xA771;
constexpr std::uint64_t kBackoffStream = 0xBAC0;

/// A write acknowledges with Ok and no values; a read returns one value
/// that some client wrote to (or the preload put in) that key.
bool result_ok(bool update, std::uint64_t key, const std::vector<std::byte>& bytes,
               const ValueOracle& oracle) {
  try {
    app::KvResult result = app::KvResult::decode(bytes);
    if (result.status != app::KvResult::Status::Ok) return false;
    if (update) return result.values.empty();
    return result.values.size() == 1 && oracle.may_hold(key, result.values[0]);
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

LoadGenerator::LoadGenerator(idem::sim::Runtime& runtime, std::vector<Session> sessions, std::uint64_t seed,
               const app::YcsbConfig& workload, Ledger& ledger)
    : runtime_(runtime),
      sessions_(std::move(sessions)),
      ledger_(ledger),
      command_rng_(seed, kCommandStream),
      workload_(workload, command_rng_) {}

void LoadGenerator::generate() {
  const app::KvCommand command = workload_.next_operation();
  const std::vector<std::byte> bytes = command.encode();
  const bool update = command.op == app::KvOp::Put;
  if (update) ledger_.oracle.allow(command.key, command.value);
  commands_.push_back(Command{arena_.size(), bytes.size(), ValueOracle::hash(command.key), update});
  arena_.insert(arena_.end(), bytes.begin(), bytes.end());
}

void LoadGenerator::pregenerate(std::size_t count) {
  commands_.reserve(commands_.size() + count);
  for (std::size_t i = 0; i < count; ++i) generate();
}

std::size_t LoadGenerator::add_op(Time due, bool measured) {
  OpRecord op;
  op.due = due;
  op.measured = measured;
  ledger_.ops.push_back(op);
  return ledger_.ops.size() - 1;
}

void LoadGenerator::issue(std::size_t session, std::size_t op) {
  if (next_command_ == commands_.size()) generate();
  const Command& command = commands_[next_command_++];
  const auto first = arena_.begin() + static_cast<std::ptrdiff_t>(command.offset);
  std::vector<std::byte> bytes(first, first + static_cast<std::ptrdiff_t>(command.size));
  Session& s = sessions_[session];
  OpRecord& record = ledger_.ops[op];
  record.update = command.update;
  record.key = command.key;
  record.issued = runtime_.now();
  record.request = request_key(s.client->client_id().value, ++s.onr);
  if (ledger_.index_requests) ledger_.by_request[record.request] = op;
  if (record.measured && ledger_.samples.size() + sampling_ < ledger_.sample_limit) {
    s.sampled = bytes;
    ++sampling_;
  }
  s.op = op;
  ++in_flight_;
  if (record.measured) ++attempted_;
  s.client->invoke(std::move(bytes), [this, session](const idem::consensus::Outcome& outcome) {
    complete(session, outcome);
  });
}

void LoadGenerator::complete(std::size_t session, const idem::consensus::Outcome& outcome) {
  Session& s = sessions_[session];
  OpRecord& record = ledger_.ops[s.op];
  record.completed = outcome.completed;
  switch (outcome.kind) {
    case idem::consensus::Outcome::Kind::Reply:
      record.outcome = Outcome::Reply;
      record.malformed = !result_ok(record.update, record.key, outcome.result, ledger_.oracle);
      break;
    case idem::consensus::Outcome::Kind::Rejected:
      record.outcome = Outcome::Rejected;
      break;
    case idem::consensus::Outcome::Kind::Timeout:
      record.outcome = Outcome::Timeout;
      break;
  }
  if (!s.sampled.empty()) {
    ledger_.samples.push_back(Sample{idem::RequestId{s.client->client_id(), idem::OpNum{s.onr}},
                                     app::KvCommand::decode(s.sampled), outcome.result,
                                     record.outcome});
    s.sampled.clear();
    --sampling_;
  }
  const Outcome result = record.outcome;
  s.op = Session::kIdle;
  --in_flight_;
  on_free(session, result);
}

// ---------------------------------------------------------------------------
// OpenLoop
// ---------------------------------------------------------------------------

OpenLoop::OpenLoop(idem::sim::Runtime& runtime, std::vector<Session> sessions,
                   std::uint64_t seed, const app::YcsbConfig& workload, Ledger& ledger,
                   double rate, Duration warmup, Duration measure)
    : LoadGenerator(runtime, std::move(sessions), seed, workload, ledger),
      window_{0, warmup, measure} {
  idem::Rng gaps(seed, kArrivalStream);
  const double mean_gap_ns = static_cast<double>(kSecond) / rate;
  for (Duration at = static_cast<Duration>(gaps.exponential(mean_gap_ns));
       at < warmup + measure; at += static_cast<Duration>(gaps.exponential(mean_gap_ns))) {
    schedule_.push_back(at);
  }
  pregenerate(schedule_.size());
  ledger_.ops.reserve(ledger_.ops.size() + schedule_.size());
  for (std::size_t i = 0; i < sessions_.size(); ++i) idle_.push_back(i);
}

void OpenLoop::pump() {
  const Time now = runtime_.now();
  while (!stopped_ && next_due() <= now) {
    const Time due = window_.start + schedule_[next_arrival_++];
    const bool measured = due >= window_.measure_begin();
    fifo_.push_back(add_op(due, measured));
    if (measured) ++scheduled_;
  }
  backlog_max_ = std::max(backlog_max_, fifo_.size());
  dispatch();
}

void OpenLoop::dispatch() {
  while (!idle_.empty() && !fifo_.empty()) {
    const std::size_t session = idle_.front();
    idle_.pop_front();
    const std::size_t op = fifo_.front();
    fifo_.pop_front();
    issue(session, op);
  }
}

void OpenLoop::on_free(std::size_t session, Outcome) {
  idle_.push_back(session);
  dispatch();
}

// ---------------------------------------------------------------------------
// ClosedLoop
// ---------------------------------------------------------------------------

ClosedLoop::ClosedLoop(idem::sim::Runtime& runtime, std::vector<Session> sessions,
                       std::uint64_t seed, const app::YcsbConfig& workload, Ledger& ledger,
                       Window window, Backoff backoff)
    : LoadGenerator(runtime, std::move(sessions), seed, workload, ledger),
      window_(window),
      backoff_(backoff),
      backoff_rng_(seed, kBackoffStream) {}

void ClosedLoop::start() {
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    const Time at = window_.start + backoff_rng_.uniform_int(0, kMillisecond);
    runtime_.schedule_at(at, [this, i] { issue_next(i); });
  }
}

void ClosedLoop::issue_next(std::size_t session) {
  const Time now = runtime_.now();
  if (stopped_ || now >= window_.end()) return;
  issue(session, add_op(now, now >= window_.measure_begin()));
}

void ClosedLoop::on_free(std::size_t session, Outcome outcome) {
  if (outcome == Outcome::Reply) {
    runtime_.schedule_after(0, [this, session] { issue_next(session); });
    return;
  }
  const Duration backoff =
      backoff_.min + backoff_rng_.uniform_int(0, backoff_.max - backoff_.min);
  runtime_.schedule_after(backoff, [this, session] { issue_next(session); });
}

// ---------------------------------------------------------------------------
// Outcome metrics and validity
// ---------------------------------------------------------------------------

void report_outcomes(const Ledger& ledger, Duration span, Duration slo, Report& report) {
  std::uint64_t attempted = 0, replies = 0, rejects = 0, failed = 0, within = 0;
  std::vector<double> reply_ms, reject_ms, reply_service_ms, reject_service_ms;
  double reply_total_ms = 0, reply_queued_ms = 0;  // from due; of that, waiting for a session
  for (const OpRecord& op : ledger.ops) {
    if (!op.measured) continue;
    ++attempted;
    const double latency_ms = static_cast<double>(op.completed - op.due) / kMillisecond;
    const double service_ms = static_cast<double>(op.completed - op.issued) / kMillisecond;
    switch (op.outcome) {
      case Outcome::Reply:
        if (op.malformed) {
          ++failed;
          break;
        }
        ++replies;
        reply_ms.push_back(latency_ms);
        reply_service_ms.push_back(service_ms);
        reply_total_ms += latency_ms;
        reply_queued_ms += latency_ms - service_ms;
        if (op.completed - op.due <= slo) ++within;
        break;
      case Outcome::Rejected:
        ++rejects;
        reject_ms.push_back(latency_ms);
        reject_service_ms.push_back(service_ms);
        break;
      case Outcome::Timeout:
      case Outcome::Pending:
        ++failed;
        break;
    }
  }
  const double share = attempted > 0 ? 100.0 / static_cast<double>(attempted) : 0.0;
  report.set("attempted", static_cast<double>(attempted), "count");
  report.set("goodput_kops",
             static_cast<double>(replies) / idem::to_sec(span) / 1000.0, "kreq/s", replies);
  report.set("slo_pct", static_cast<double>(within) * share, "%", attempted);
  report.set("reject_pct", static_cast<double>(rejects) * share, "%", attempted);
  report.set("fail_pct", static_cast<double>(failed) * share, "%", attempted);
  const std::uint64_t nr = reply_ms.size(), nj = reject_ms.size();
  report.set("reply_p50_ms", quantile(reply_ms, 0.50), "ms", nr);
  report.set("reply_p99_ms", quantile(reply_ms, 0.99), "ms", nr);
  report.set("reply_p999_ms", quantile(reply_ms, 0.999), "ms", nr);
  // From issue rather than due: the system's share, without generator queueing.
  report.set("diag.reply_service_p50_ms", quantile(reply_service_ms, 0.50), "ms", nr);
  report.set("gen.queue_pct", reply_total_ms > 0 ? 100.0 * reply_queued_ms / reply_total_ms : 0.0,
             "%", nr);
  if (nj > 0) {
    report.set("reject_p50_ms", quantile(reject_ms, 0.50), "ms", nj);
    report.set("reject_p99_ms", quantile(reject_ms, 0.99), "ms", nj);
    report.set("diag.reject_service_p50_ms", quantile(reject_service_ms, 0.50), "ms", nj);
  }
}

Validity check_ledger(const Ledger& ledger) {
  Validity validity;
  std::uint64_t unresolved = 0, malformed = 0, timeouts = 0;
  for (const OpRecord& op : ledger.ops) {
    if (op.issued >= 0 && op.outcome == Outcome::Pending) ++unresolved;
    if (op.malformed) ++malformed;
    if (op.outcome == Outcome::Timeout) ++timeouts;
    if (!op.measured) continue;
    ++validity.attempted;
    if (op.outcome == Outcome::Pending || op.outcome == Outcome::Timeout || op.malformed) {
      ++validity.failed;
    }
  }
  auto complain = [&validity](std::uint64_t count, const char* what) {
    if (count > 0) validity.problems.push_back(std::to_string(count) + " " + what);
  };
  complain(unresolved, "ops unresolved after the drain");
  complain(malformed, "malformed or impossible results");
  complain(timeouts, "ops timed out");
  return validity;
}

void check_open_loop(const OpenLoop& generator, Validity& validity) {
  if (generator.backlog() > 0) {
    validity.problems.push_back("backlog not drained: " + std::to_string(generator.backlog()) +
                                " arrivals still queued");
  }
  if (generator.attempted() != generator.scheduled()) {
    validity.problems.push_back("attempted " + std::to_string(generator.attempted()) + " of " +
                                std::to_string(generator.scheduled()) + " scheduled arrivals");
  }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

void Spans::add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
                std::string parent) {
  spans_.push_back(Span{std::move(name), std::move(parent), start_ns, end_ns});
}

void Spans::write(const std::string& path) const {
  if (path.empty()) return;
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  std::fprintf(out, "[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out, "  {\"name\": \"%s\", \"parent\": \"%s\", \"start_ns\": %lld, \"dur_ns\": %lld}%s\n",
                 s.name.c_str(), s.parent.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns - s.start_ns), i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  std::fclose(out);
}

}  // namespace perfbench
