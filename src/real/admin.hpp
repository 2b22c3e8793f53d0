// The admin endpoint of every real deployment (idem_server, RealCluster,
// ShardedRealCluster): /metrics, /stats and /trace over a list of members.
//
// A member — a replica with its transport, or a shard gate — reads its
// MetricsRegistry on its own thread (RealRuntime::call in process, a
// direct call where the admin shares the replica's loop). Each scrape
// reads every member once, merges the reads by series name (labelled
// group="<g>" in sharded deployments) and windows the merge against the
// previous scrape (obs::LiveMetrics). Thread contract (rpc::HttpAdmin's):
// construct and destroy on the serving loop's thread, or while it is idle.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "obs/chrome_trace.hpp"
#include "obs/live_metrics.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "rpc/event_loop.hpp"
#include "rpc/http_admin.hpp"

namespace idem::real {

class Admin {
 public:
  struct Member {
    std::string name;                    ///< "r0", "gate"
    std::optional<std::uint32_t> group;  ///< replication group (sharded deployments)
    std::function<obs::MetricsReading()> read;
    /// Snapshot of the member's trace ring; null when it records none.
    std::function<std::vector<obs::TraceEvent>()> trace;
  };

  /// Binds `port` on 127.0.0.1 (0 = ephemeral) and serves on `loop`.
  Admin(rpc::EventLoop& loop, std::uint16_t port, std::vector<Member> members,
        obs::ChromeTraceMeta trace_meta = {});

  Admin(const Admin&) = delete;
  Admin& operator=(const Admin&) = delete;

  std::uint16_t port() const { return http_.port(); }

 private:
  std::string metrics();
  std::string stats();
  std::string trace();

  std::vector<Member> members_;
  obs::ChromeTraceMeta trace_meta_;
  obs::LiveMetrics window_;
  rpc::HttpAdmin http_;
};

}  // namespace idem::real
