#include "harness/load.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <string>
#include <utility>

#include "harness/cluster.hpp"

namespace idem::harness {

namespace {

constexpr Time kNever = std::numeric_limits<Time>::max();

check::Op::Result history_result(consensus::Outcome::Kind kind) {
  switch (kind) {
    case consensus::Outcome::Kind::Reply:
      return check::Op::Result::Ok;
    case consensus::Outcome::Kind::Rejected:
      return check::Op::Result::Rejected;
    case consensus::Outcome::Kind::Timeout:
      return check::Op::Result::Timeout;
  }
  return check::Op::Result::Open;
}

}  // namespace

LoadDriver::LoadDriver(sim::Runtime& runtime, std::vector<consensus::ServiceClient*> clients,
                       LoadConfig config)
    : runtime_(runtime), config_(std::move(config)) {
  clients_.reserve(clients.size());
  for (consensus::ServiceClient* client : clients) clients_.push_back(make_client(client));
}

LoadDriver::~LoadDriver() { stop(); }

std::shared_ptr<LoadDriver::Client> LoadDriver::make_client(consensus::ServiceClient* client) {
  auto c = std::make_shared<Client>();
  c->driver = this;
  c->client = client;
  const std::string id = std::to_string(client->client_id().value);
  c->workload =
      std::make_unique<app::YcsbWorkload>(config_.workload, runtime_.rng("ycsb.client." + id));
  c->backoff = &runtime_.rng("backoff.client." + id);
  if (config_.request_deadline > 0) c->deadlines = &runtime_.rng("deadline.client." + id);
  if (open_loop()) c->arrivals = &runtime_.rng("arrival.client." + id);
  return c;
}

void LoadDriver::start() {
  running_ = true;
  const Time now = runtime_.now();
  if (config_.stop_after_replies > 0) {
    window_start_ = now;
    window_end_ = kNever;
  } else {
    window_start_ = now + config_.warmup;
    window_end_ = config_.measure > 0 ? window_start_ + config_.measure : kNever;
  }
  for (const auto& c : clients_) start_client(*c);
}

void LoadDriver::start_client(Client& c) {
  if (open_loop()) {
    c.next_due = runtime_.now();
    arm_arrival(c);
  } else {
    Rng& rng = runtime_.rng("start.client." + std::to_string(c.client->client_id().value));
    schedule_issue(c, rng.uniform_int(0, kMillisecond));
  }
}

void LoadDriver::stop() {
  if (!running_) return;
  running_ = false;
  window_end_ = std::min(window_end_, runtime_.now());
  if (window_end_ > window_start_) metrics_.measured += window_end_ - window_start_;
  for (const auto& c : clients_) stop_client(*c);
}

void LoadDriver::stop_client(Client& c) {
  for (sim::EventId* timer : {&c.issue_timer, &c.arrival_timer}) {
    if (timer->valid()) runtime_.cancel(*timer);
    *timer = {};
  }
  c.due.clear();
}

void LoadDriver::add(consensus::ServiceClient* client) {
  clients_.push_back(make_client(client));
  if (running_) start_client(*clients_.back());
}

void LoadDriver::remove(consensus::ServiceClient* client) {
  // Populations shrink newest first, so search from the back.
  auto it = std::find_if(clients_.rbegin(), clients_.rend(),
                         [client](const auto& c) { return c->client == client; });
  if (it == clients_.rend()) return;
  Client& c = **it;
  stop_client(c);
  if (c.in_flight) --in_flight_;
  clients_.erase(std::next(it).base());
}

bool LoadDriver::done() const {
  return config_.stop_after_replies > 0 && total_replies_ >= config_.stop_after_replies;
}

void LoadDriver::schedule_issue(Client& c, Duration delay) {
  // A restart can find the start stagger still pending when an operation
  // from before the stop concludes; keep one timer so stop() finds it.
  if (c.issue_timer.valid()) runtime_.cancel(c.issue_timer);
  // Through the runtime even at zero delay, so the stack unwinds between
  // operations.
  c.issue_timer = runtime_.schedule_after(delay, [this, &c] {
    c.issue_timer = {};
    issue(c);
  });
}

void LoadDriver::arm_arrival(Client& c) {
  // Due times follow the Poisson process itself, not the moment a late
  // timer happened to fire.
  c.next_due += static_cast<Duration>(c.arrivals->exponential(1.0 / config_.open_loop_rate) *
                                      static_cast<double>(kSecond));
  c.arrival_timer = runtime_.schedule_at(c.next_due, [this, &c] {
    c.arrival_timer = {};
    on_arrival(c);
  });
}

void LoadDriver::on_arrival(Client& c) {
  c.due.push_back(c.next_due);
  if (c.in_flight || c.due.size() > 1) {
    if (measuring(runtime_.now())) ++metrics_.deferred;
  } else {
    issue(c);
  }
  arm_arrival(c);
}

void LoadDriver::issue(Client& c) {
  if (!running_ || c.client->busy()) return;
  const Time now = runtime_.now();
  Time due = now;
  if (open_loop()) {
    if (c.due.empty()) return;
    due = c.due.front();
    c.due.pop_front();
  }

  app::KvCommand op = config_.command ? config_.command(*c.workload) : c.workload->next_operation();
  if (config_.request_deadline > 0) {
    Duration deadline = config_.request_deadline;
    if (config_.deadline_jitter > 0) {
      deadline += static_cast<Duration>(c.deadlines->uniform_int(0, 2 * config_.deadline_jitter)) -
                  config_.deadline_jitter;
    }
    deadline -= now - due;
    c.client->set_request_deadline(std::max<Duration>(deadline, 1));
  }

  std::vector<std::byte> bytes = op.encode();
  if (config_.record_history) {
    c.op_history =
        metrics_.history.begin(c.client->client_id().value, ++c.seq, bytes, now);
  }
  if (measuring(now)) ++metrics_.issued;
  c.in_flight = true;
  c.op_due = due;
  ++in_flight_;
  // The callback may outlive the client's membership or the driver
  // itself; the weak_ptr expires with both.
  c.client->invoke(std::move(bytes),
                   [weak = c.weak_from_this()](const consensus::Outcome& outcome) {
                     if (const auto live = weak.lock()) live->driver->on_outcome(*live, outcome);
                   });
}

void LoadDriver::on_outcome(Client& c, const consensus::Outcome& outcome) {
  c.in_flight = false;
  --in_flight_;
  if (config_.record_history) {
    metrics_.history.complete(c.op_history, history_result(outcome.kind), runtime_.now(),
                              outcome.result, outcome.definitive_failure);
  }
  if (!running_) return;

  const Time t = outcome.completed;
  const Duration latency = t - (open_loop() ? c.op_due : outcome.issued);
  switch (outcome.kind) {
    case consensus::Outcome::Kind::Reply:
      ++total_replies_;
      metrics_.reply_series.add(t, to_ms(latency));
      if (measuring(t)) {
        ++metrics_.replies;
        metrics_.reply_latency.record(latency);
        if (outcome.deadline > 0) {
          ++metrics_.deadline_ops;
          if (outcome.deadline_missed()) ++metrics_.deadline_misses;
        }
        // A KvResult's first byte is its status.
        if (!outcome.result.empty() &&
            outcome.result.front() ==
                static_cast<std::byte>(app::KvResult::Status::BadRequest)) {
          ++metrics_.malformed;
        }
      }
      break;
    case consensus::Outcome::Kind::Rejected:
      metrics_.reject_series.add(t, to_ms(latency));
      if (measuring(t)) {
        ++metrics_.rejects;
        metrics_.reject_latency.record(latency);
      }
      break;
    case consensus::Outcome::Kind::Timeout:
      if (measuring(t)) ++metrics_.timeouts;
      break;
  }

  if (open_loop()) {
    if (!c.due.empty()) schedule_issue(c, 0);
    return;
  }
  Duration delay = 0;
  if (outcome.kind != consensus::Outcome::Kind::Reply && config_.backoff_max > 0) {
    delay = config_.backoff_min + static_cast<Duration>(c.backoff->uniform_int(
                                      0, config_.backoff_max - config_.backoff_min));
  }
  schedule_issue(c, delay);
}

RunMetrics drive(Cluster& cluster, LoadConfig config) {
  config.workload = cluster.config().workload;
  std::vector<consensus::ServiceClient*> clients;
  for (std::size_t i = 0; i < cluster.num_clients(); ++i) clients.push_back(&cluster.client(i));
  sim::Simulator& sim = cluster.simulator();
  sim::SimNetwork& net = cluster.network();

  LoadDriver driver(sim, std::move(clients), config);
  const Time measure_start = sim.now() + config.warmup;
  driver.start();
  if (config.stop_after_replies > 0) {
    net.reset_traffic();
    sim.run_while([&driver] { return !driver.done(); });
  } else {
    sim.run_until(measure_start);
    net.reset_traffic();
    sim.run_until(measure_start + config.measure);
  }
  driver.stop();

  RunMetrics metrics = std::move(driver.metrics());
  metrics.client_traffic = net.client_traffic();
  metrics.replica_traffic = net.replica_traffic();
  return metrics;
}

}  // namespace idem::harness
