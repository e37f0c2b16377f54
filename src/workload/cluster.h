// Deployment harness: simulated replica nodes in one or more replication
// groups over ONE Network and ONE virtual clock, with the observability
// wiring, the per-group convergence test, the engine-level correctness
// checkers of paper §5.2 and the deployment-wide gauge sampler.
//
// EngineCluster is the single-group deployment the paper measures.
// ShardedCluster (sharded_cluster.h) is the same machinery with one group
// per shard and a router in front: it reaches the generic parts through the
// protected members below, so every group-level job — obs wiring, window
// roll, convergence, invariants, gauges — has exactly one implementation
// here.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/replica_node.h"
#include "obs/metrics.h"
#include "obs/safety_checker.h"
#include "obs/trace.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace tordb::workload {

/// Deployment-wide observability switches. Everything defaults to off: no
/// bus is allocated and every Tracer handle stays disconnected, so the hot
/// paths pay one null test per would-be event. `TORDB_OBS_CHECK=1` (or
/// obs::force_check_for_tests()) force-enables the checker regardless.
struct ObsOptions {
  bool trace = false;             ///< allocate a TraceBus and wire every node
  bool check = false;             ///< subscribe the online SafetyChecker
  bool checker_fail_fast = true;  ///< abort the process on first violation
  std::size_t ring_capacity = 1 << 16;
  /// >0: allocate a MetricsRegistry and roll a window every interval.
  SimDuration metrics_window = 0;
};

struct ClusterOptions {
  int replicas = 5;  ///< replicas per group
  std::uint64_t seed = 1;
  NetworkParams net;
  core::ReplicaOptions node;
  ObsOptions obs;
};

class EngineCluster {
 public:
  explicit EngineCluster(ClusterOptions options);
  virtual ~EngineCluster() = default;
  EngineCluster(const EngineCluster&) = delete;  // scheduled callbacks hold `this`
  EngineCluster& operator=(const EngineCluster&) = delete;

  Simulator& sim() { return sim_; }
  const Simulator& sim() const { return sim_; }
  Network& net() { return net_; }
  core::ReplicaNode& node(NodeId id) { return *nodes_.at(static_cast<std::size_t>(id)); }
  const core::ReplicaNode& node(NodeId id) const {
    return *nodes_.at(static_cast<std::size_t>(id));
  }
  core::ReplicationEngine& engine(NodeId id) { return node(id).engine(); }
  int replicas() const { return static_cast<int>(nodes_.size()); }
  std::vector<NodeId> all_ids() const;

  void run_for(SimDuration d) { sim_.run_for(d); }

  /// Register an additional dormant node (a future §5.2 joiner) in the
  /// single group.
  core::ReplicaNode& add_dormant(NodeId id);

  void partition(const std::vector<std::vector<NodeId>>& components) {
    net_.set_components(components);
  }
  void heal() { net_.heal(); }
  void crash(NodeId id) { node(id).crash(); }
  void recover(NodeId id) { node(id).recover(); }

  /// True when every listed node runs an engine in RegPrim with identical
  /// green count and database digest.
  bool converged_primary(const std::vector<NodeId>& ids) const {
    return group_converged(ids, /*skip_crashed=*/false);
  }

  // --- invariant checkers (paper §5.2), each per replication group ----------
  // Return a violation description, or nullopt if the invariant holds.

  /// Global Total Order: any two servers' green sequences agree on every
  /// position both have (Theorem 1), and equal green counts imply equal
  /// database digests.
  std::optional<std::string> check_green_prefix_consistency() const;

  /// Global FIFO Order: within every green sequence, each creator's actions
  /// appear in creation-index order with no gaps (Theorem 2).
  std::optional<std::string> check_green_fifo() const;

  /// At most one primary component: two engines of one group in
  /// RegPrim/TransPrim with the same prim_index agree on its membership.
  std::optional<std::string> check_single_primary() const;

  /// The online checker's verdict plus the three invariants above.
  virtual std::optional<std::string> check_all() const;

  // --- observability --------------------------------------------------------
  /// Null unless ObsOptions enabled them (or the checker was forced).
  const std::shared_ptr<obs::TraceBus>& trace_bus() const { return trace_bus_; }
  obs::SafetyChecker* checker() const { return checker_.get(); }
  const std::shared_ptr<obs::MetricsRegistry>& metrics() const { return metrics_; }
  /// Set the level gauges: white lines, body stores, db tables, queue
  /// depths and lane health (also runs before every periodic window roll).
  /// Counters need no sampling: each subsystem increments its own.
  void sample_metrics();
  /// Sample, then close the current metrics window. The periodic roll does
  /// this every window; benches call it once more for the partial tail.
  void roll_metrics();

 protected:
  /// `groups` groups of `options.replicas` nodes with contiguous global ids:
  /// group g owns [g * replicas, (g+1) * replicas). `lane_threads` > 0 runs
  /// the simulator in event lanes (DESIGN.md §15), one per group plus a
  /// control lane; each group is built inside its own lane. The caller
  /// starts the metrics roll once its own parts exist.
  EngineCluster(ClusterOptions options, int groups, int lane_threads, SimDuration lane_handoff);

  /// Schedule the periodic window roll (no-op without a registry).
  void start_metrics_roll();

  /// Every listed node (crashed ones skipped if `skip_crashed`, failing the
  /// test otherwise) runs in RegPrim with identical green count and database
  /// digest, and at least one does.
  bool group_converged(const std::vector<NodeId>& ids, bool skip_crashed) const;
  const std::vector<NodeId>& group(int g) const { return groups_.at(static_cast<std::size_t>(g)); }

 private:
  ClusterOptions options_;
  Simulator sim_;
  Network net_;
  // Declared before nodes_: the bus must outlive every Tracer handle the
  // nodes hold (destruction runs in reverse order).
  std::shared_ptr<obs::TraceBus> trace_bus_;
  std::unique_ptr<obs::SafetyChecker> checker_;
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  std::vector<std::unique_ptr<core::ReplicaNode>> nodes_;  ///< indexed by global id
  std::vector<std::vector<NodeId>> groups_;                ///< member ids per group
};

}  // namespace tordb::workload
