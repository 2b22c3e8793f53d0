#include "real/load.hpp"

#include <memory>
#include <string>

#include "app/kv_store.hpp"
#include "consensus/addresses.hpp"

namespace idem::real {

namespace {

/// Per-client driver state; lives on the run_load stack.
struct ClientDriver {
  std::unique_ptr<core::IdemClient> client;
  std::unique_ptr<app::YcsbWorkload> workload;
  Rng* arrivals = nullptr;   ///< open-loop inter-arrival stream
  Rng* backoff = nullptr;    ///< rejection-backoff draw stream
  Rng* deadlines = nullptr;  ///< per-op budget jitter (deadlines armed only)
  bool arrival_pending = false;  ///< open loop: an arrival found us busy
};

struct RunState {
  LoadStats stats;
  bool measuring = false;
  bool issuing = true;
  Duration backoff_min = 0;
  Duration backoff_max = 0;
  Duration request_deadline = 0;
  Duration deadline_jitter = 0;
};

void issue(rpc::EventLoop& loop, ClientDriver& driver, RunState& state, double rate);

void on_outcome(rpc::EventLoop& loop, ClientDriver& driver, RunState& state, double rate,
                const consensus::Outcome& outcome) {
  if (state.measuring) {
    switch (outcome.kind) {
      case consensus::Outcome::Kind::Reply: {
        ++state.stats.replies;
        state.stats.reply_latency.record(outcome.latency());
        if (outcome.deadline > 0) {
          ++state.stats.deadline_ops;
          if (outcome.deadline_missed()) ++state.stats.deadline_misses;
        }
        const app::KvResult result = app::KvResult::decode(outcome.result);
        if (result.status == app::KvResult::Status::BadRequest) ++state.stats.malformed;
        break;
      }
      case consensus::Outcome::Kind::Rejected:
        ++state.stats.rejects;
        state.stats.reject_latency.record(outcome.latency());
        break;
      case consensus::Outcome::Kind::Timeout:
        ++state.stats.timeouts;
        break;
    }
  }
  if (!state.issuing) return;
  if (rate > 0) {
    // Open loop: only re-issue when an arrival queued up behind us.
    if (driver.arrival_pending) {
      driver.arrival_pending = false;
      issue(loop, driver, state, rate);
    }
  } else {
    // Closed loop: think time zero, but a non-REPLY outcome means the
    // system is overloaded — back off 50-100 ms (paper Section 7.1)
    // before the next operation. Issue through the loop either way so the
    // stack unwinds between operations.
    Duration delay = 0;
    if (outcome.kind != consensus::Outcome::Kind::Reply && state.backoff_max > 0) {
      delay = state.backoff_min +
              static_cast<Duration>(
                  driver.backoff->uniform_int(0, state.backoff_max - state.backoff_min));
    }
    loop.schedule_after(delay, [&loop, &driver, &state, rate] {
      if (state.issuing) issue(loop, driver, state, rate);
    });
  }
}

void issue(rpc::EventLoop& loop, ClientDriver& driver, RunState& state, double rate) {
  if (state.measuring) ++state.stats.issued;
  if (state.request_deadline > 0) {
    Duration deadline = state.request_deadline;
    if (state.deadline_jitter > 0) {
      deadline += static_cast<Duration>(
                      driver.deadlines->uniform_int(0, 2 * state.deadline_jitter)) -
                  state.deadline_jitter;
      if (deadline < 1) deadline = 1;
    }
    driver.client->set_request_deadline(deadline);
  }
  const app::KvCommand command = driver.workload->next_operation();
  driver.client->invoke(command.encode(),
                        [&loop, &driver, &state, rate](const consensus::Outcome& outcome) {
                          on_outcome(loop, driver, state, rate, outcome);
                        });
}

/// Open loop: one independent Poisson arrival process per client.
void arm_arrival(rpc::EventLoop& loop, ClientDriver& driver, RunState& state, double rate) {
  const double gap_sec = driver.arrivals->exponential(1.0 / rate);
  loop.schedule_after(static_cast<Duration>(gap_sec * kSecond),
                      [&loop, &driver, &state, rate] {
                        if (!state.issuing) return;
                        if (driver.client->busy()) {
                          if (state.measuring) ++state.stats.deferred;
                          driver.arrival_pending = true;
                        } else {
                          issue(loop, driver, state, rate);
                        }
                        arm_arrival(loop, driver, state, rate);
                      });
}

}  // namespace

LoadStats run_load(const LoadOptions& options) {
  rpc::EventLoop loop(options.seed, options.epoch);
  rpc::TcpTransport transport(loop);
  for (std::size_t i = 0; i < options.replicas.size(); ++i) {
    transport.set_remote(consensus::replica_address(ReplicaId{static_cast<std::uint32_t>(i)}),
                         options.replicas[i]);
  }

  obs::TraceRecorder recorder(options.trace ? options.trace_capacity : 1);

  core::IdemClientConfig client_config = options.client;
  if (!options.replicas.empty()) {
    client_config.n = options.replicas.size();
    if (client_config.f == core::IdemClientConfig{}.f && client_config.n >= 3) {
      client_config.f = (client_config.n - 1) / 2;
    }
  }
  client_config.trace = options.trace ? &recorder : nullptr;

  RunState state;
  state.backoff_min = options.backoff_min;
  state.backoff_max = options.backoff_max;
  state.request_deadline = options.request_deadline;
  state.deadline_jitter = options.deadline_jitter;
  const double rate = options.open_loop_rate;
  std::vector<ClientDriver> drivers(options.clients);
  for (std::size_t c = 0; c < options.clients; ++c) {
    ClientDriver& driver = drivers[c];
    const ClientId cid{options.client_id_base + c};
    driver.client =
        std::make_unique<core::IdemClient>(loop, transport, cid, client_config);
    // Real transport, zero modelled service time: skip the event-queue hop
    // per delivered REPLY/REJECT.
    driver.client->set_inline_dispatch(true);
    driver.backoff = &loop.rng("load.backoff.c" + std::to_string(cid.value));
    driver.workload = std::make_unique<app::YcsbWorkload>(
        options.workload, loop.rng("load.c" + std::to_string(cid.value)));
    if (rate > 0) {
      driver.arrivals = &loop.rng("load.arrival" + std::to_string(cid.value));
    }
    if (options.request_deadline > 0) {
      driver.deadlines = &loop.rng("load.deadline.c" + std::to_string(cid.value));
    }
  }

  state.measuring = options.warmup <= 0;
  if (options.warmup > 0) {
    loop.schedule_after(options.warmup, [&state] { state.measuring = true; });
  }
  for (ClientDriver& driver : drivers) {
    if (rate > 0) {
      arm_arrival(loop, driver, state, rate);
    } else {
      issue(loop, driver, state, rate);
    }
  }

  loop.run_for(options.warmup + options.duration);
  // Outstanding operations are abandoned; their callbacks must not record
  // into the (about-to-die) state when the loop drains during teardown.
  state.issuing = false;
  state.measuring = false;

  state.stats.measured = options.duration;
  if (options.trace) state.stats.trace = recorder.snapshot();
  return state.stats;
}

}  // namespace idem::real
