// In-process real cluster: n IDEM replicas, each on its own EventLoop
// thread, talking over kernel TCP on loopback.
//
// The replicas are the byte-identical core::IdemReplica the simulator
// benchmarks, built with no real-mode setting at all: only the Runtime
// (wall clock) and Transport (TCP) differ, and the runtime decides the
// rest — no CPU cost is modelled or computed, and REQUIREs flush at the
// end of each loop iteration.
// Observability: one TraceRecorder per replica thread (strict thread
// confinement, so TSAN-clean), stamped from a shared clock epoch so the
// per-thread rings merge into one coherent timeline after shutdown, and
// one MetricsRegistry per replica over its stats and transport, which the
// admin endpoint (real::Admin) reads on the replica's own loop thread.
//
// Thread protocol: the constructor builds everything on the controller
// thread (no loop threads exist yet); start() hands each replica to its
// loop thread; after that the controller touches replica state only via
// RealRuntime::call(). crash_replica() tears the member's loop down and
// destroys it — peers observe TCP resets, exactly a process crash.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "app/ycsb.hpp"
#include "idem/client.hpp"
#include "idem/config.hpp"
#include "idem/replica.hpp"
#include "obs/trace.hpp"
#include "real/admin.hpp"
#include "real/runtime.hpp"

namespace idem::real {

struct RealClusterConfig {
  std::size_t n = 3;
  std::size_t f = 1;
  std::size_t reject_threshold = 50;
  std::uint64_t seed = 1;

  /// Base protocol configuration; n/f/reject_threshold and the trace sink
  /// are overridden per replica.
  core::IdemConfig idem;

  /// Client population the acceptance test should assume (sizes the AQM
  /// prioritization groups, exactly like the sim harness does).
  std::size_t expected_clients = 16;

  /// Per-replica transport knobs: accept-path hardening (connection cap,
  /// idle/half-open eviction, accept burst, receive-buffer sizing) for
  /// storm scenarios. fixed_port/listen_host are managed by the cluster.
  rpc::TcpTransportConfig transport;

  /// Per-replica request-lifecycle tracing (wall-clock timestamps).
  bool trace = false;
  std::size_t trace_capacity = 1u << 16;

  /// Serve /metrics, /stats and /trace (real::Admin) from a loop thread of
  /// its own, which a replica crash cannot take down; off, the cluster
  /// starts one thread per replica. 0 binds an ephemeral port (admin_port()).
  bool admin = false;
  std::uint16_t admin_port = 0;

  /// Preload every replica's store with the workload's YCSB records so
  /// reads hit existing keys (same content on every replica).
  bool preload = false;
  app::YcsbConfig workload;
};

class RealCluster {
 public:
  explicit RealCluster(RealClusterConfig config);
  ~RealCluster();

  RealCluster(const RealCluster&) = delete;
  RealCluster& operator=(const RealCluster&) = delete;

  const RealClusterConfig& config() const { return config_; }
  /// Clock epoch shared by every loop; load generators join it so client
  /// and replica timestamps are mutually comparable.
  rpc::EventLoop::Epoch epoch() const { return epoch_; }

  std::size_t n() const { return members_.size(); }

  /// Starts every replica's loop thread. Idempotent.
  void start();
  /// Stops every live loop thread and joins it. State (stats, traces,
  /// metrics) stays inspectable afterwards. Idempotent; also runs from the
  /// destructor.
  void shutdown();

  /// Tears replica `index` down: stops its loop, then destroys the node
  /// and its sockets — to the surviving peers this is a process crash.
  void crash_replica(std::size_t index);
  bool crashed(std::size_t index) const { return members_[index].crashed; }

  /// Loopback listening port of replica `index` (0 after a crash).
  std::uint16_t port_of(std::size_t index) const { return members_[index].port; }
  /// host:port of every replica, indexed by replica id — the shape load
  /// generators and remote clients consume.
  std::vector<rpc::PeerAddress> replica_addresses() const;

  /// Client configuration matching this cluster (n/f prefilled).
  core::IdemClientConfig client_config() const;

  /// Protocol counters of replica `index`; live replicas are sampled on
  /// their own loop thread, crashed ones return the values captured at
  /// crash time.
  core::ReplicaStats replica_stats(std::size_t index);
  rpc::TransportStats transport_stats(std::size_t index);
  /// Where replica `index`'s loop thread spends its time (busy_ns over a
  /// window is the replica's work), read on that thread; after a crash,
  /// the values captured at crash time.
  rpc::LoopStats loop_stats(std::size_t index);
  /// Connection counts + buffer bytes of replica `index`'s transport
  /// (zeroes after a crash — the sockets are gone).
  rpc::TransportMemory transport_memory(std::size_t index);
  /// Index of the first live replica that believes itself leader, or n().
  std::size_t leader_index();

  /// The admin members of this cluster's replicas ("r0", ...), labelled
  /// with `group` in sharded deployments. Reads run on the replica's loop
  /// thread; a crashed replica answers with the counters and histograms
  /// read at its crash plus the gauge crashed = 1.
  std::vector<Admin::Member> admin_members(std::optional<std::uint32_t> group = std::nullopt);

  /// Quiescence probe for drain coordination (split handshake): sampled on
  /// the owning loop thread. `settled` additionally requires the member to
  /// believe a leader exists (agreement can make progress).
  struct Quiescence {
    std::uint64_t active = 0;        ///< active (accepted, unexecuted) requests
    std::uint64_t queue = 0;         ///< service-queue backlog
    std::uint64_t next_execute = 0;  ///< execution frontier (instance id)
  };
  Quiescence quiescence(std::size_t index);

  /// Store surgery for elastic reconfiguration, run on the owning loop
  /// thread. dump_store() copies replica `index`'s KvStore entries out;
  /// put_entries() writes records directly into replica `index`'s store,
  /// bypassing agreement — only sound while no client can reach those keys
  /// through this group (the shard-map flip has not happened yet).
  std::vector<std::pair<std::string, std::string>> dump_store(std::size_t index);
  void put_entries(std::size_t index,
                   const std::vector<std::pair<std::string, std::string>>& entries);
  /// Bound admin port (0 when the admin endpoint is off).
  std::uint16_t admin_port() const { return admin_ ? admin_->port() : 0; }

  /// Per-replica trace snapshots (each oldest-first), taken on the owning
  /// loop thread when live. Merge with client-side rings via
  /// obs::merge_trace_snapshots.
  std::vector<std::vector<obs::TraceEvent>> trace_snapshots();

 private:
  struct Member {
    // Declaration order doubles as teardown order (reversed): the replica
    // must unregister from the transport before the runtime dies.
    std::unique_ptr<RealRuntime> runtime;
    std::unique_ptr<obs::TraceRecorder> trace;
    std::unique_ptr<core::IdemReplica> replica;
    std::unique_ptr<obs::MetricsRegistry> metrics;  ///< the replica's and transport's series
    std::uint16_t port = 0;
    bool crashed = false;
    core::ReplicaStats final_stats;        ///< captured when crashed
    rpc::TransportStats final_transport;   ///< captured when crashed
    rpc::LoopStats final_loop;             ///< captured when crashed
    obs::MetricsReading final_metrics;     ///< totals captured when crashed
  };

  /// Member `member`'s trace ring, read on its loop thread while it lives.
  static std::vector<obs::TraceEvent> trace_of(Member& member);

  RealClusterConfig config_;
  rpc::EventLoop::Epoch epoch_;
  std::vector<Member> members_;
  /// Held by admin reads and across crash_replica's teardown, so a scrape
  /// never calls into a member that is being destroyed.
  std::mutex crash_mu_;
  /// Declared after members_ so they tear down first (admin reads call
  /// into the members).
  std::unique_ptr<RealRuntime> admin_runtime_;
  std::unique_ptr<Admin> admin_;
  bool started_ = false;
};

}  // namespace idem::real
