#include "workload/sharded_cluster.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "util/rng.h"

namespace tordb::workload {

namespace {

SimDuration lane_handoff(const ShardedClusterOptions& o) {
  return o.sim_handoff > 0 ? o.sim_handoff : o.net.base_latency;
}

/// Validate the deployment shape and resolve the lane knobs (DESIGN.md
/// §15): the worker threads of lane mode, or 0 for the classic event loop.
int lane_threads(const ShardedClusterOptions& o) {
  if (o.shards < 1 || o.replicas_per_shard < 1) {
    throw std::invalid_argument("shards and replicas_per_shard must be >= 1");
  }
  if (!o.range_splits.empty() && static_cast<int>(o.range_splits.size()) != o.shards - 1) {
    throw std::invalid_argument("range_splits must have shards - 1 entries");
  }
  int threads = o.sim_threads;
  bool lanes = o.sim_lanes;
  if (o.sim_env) {
    if (const char* v = std::getenv("TORDB_SIM_THREADS")) threads = std::max(1, std::atoi(v));
    if (const char* v = std::getenv("TORDB_SIM_LANES")) lanes = lanes || std::strcmp(v, "0") != 0;
  }
  if (threads < 1) throw std::invalid_argument("sim_threads must be >= 1");
  if (!lanes && threads == 1) return 0;
  if (lane_handoff(o) > o.net.detect_delay) {
    // Reachability notifications are posted cross-lane with detect_delay;
    // the conservative windows require every cross-lane delay >= handoff.
    throw std::invalid_argument("lane handoff latency must be <= net.detect_delay");
  }
  return threads;
}

ClusterOptions group_options(const ShardedClusterOptions& o) {
  ClusterOptions c;
  c.replicas = o.replicas_per_shard;
  c.seed = o.seed;
  c.net = o.net;
  c.node = o.node;
  c.obs = o.obs;
  return c;
}

}  // namespace

ShardedCluster::ShardedCluster(ShardedClusterOptions options)
    : EngineCluster(group_options(options), options.shards, lane_threads(options),
                    lane_handoff(options)),
      options_(std::move(options)),
      shard_components_(static_cast<std::size_t>(options_.shards)) {
  options_.session.retry_when_unavailable = true;  // cross-shard all-or-nothing

  shard::RouterOptions ropts;
  ropts.session = options_.session;
  ropts.metrics = metrics();
  if (trace_bus()) ropts.tracer = obs::Tracer(trace_bus(), kNoNode);
  // One shared Directory: the rebalancer mutates it, the router observes
  // the new epoch on its very next routing decision.
  auto dir = std::make_shared<shard::Directory>(
      options_.range_splits.empty() ? shard::Directory::hashed(options_.shards)
                                    : shard::Directory::ranged(options_.range_splits));
  if (metrics()) dir->set_metrics(*metrics());
  router_ = std::make_unique<shard::Router>(sim(), dir, member_nodes(), std::move(ropts));

  make_txn_coordinator(options_.txn_halt_at_stage);
  // The handler dereferences txn_ at call time, so it survives coordinator
  // restarts without rewiring.
  router_->set_cross_check_handler(
      [this](std::int64_t client, db::Command update, shard::RouteReplyFn reply) {
        txn_->submit(client, std::move(update), std::move(reply));
      });

  shard::RebalancerOptions bopts = options_.rebalance;
  bopts.session = options_.session;
  bopts.metrics = metrics();
  if (trace_bus()) bopts.tracer = obs::Tracer(trace_bus(), kNoNode);
  rebalancer_ = std::make_unique<shard::Rebalancer>(sim(), dir, member_nodes(), std::move(bopts));

  start_metrics_roll();
}

std::vector<std::vector<core::ReplicaNode*>> ShardedCluster::member_nodes() {
  std::vector<std::vector<core::ReplicaNode*>> groups;
  for (int s = 0; s < options_.shards; ++s) {
    std::vector<core::ReplicaNode*> g;
    for (int i = 0; i < options_.replicas_per_shard; ++i) g.push_back(&node(s, i));
    groups.push_back(std::move(g));
  }
  return groups;
}

void ShardedCluster::in_node_lane(int shard, int idx, void (*fn)(core::ReplicaNode&)) {
  core::ReplicaNode& n = node(shard, idx);
  if (!lanes_enabled()) {
    fn(n);
    return;
  }
  if (sim().running()) {
    // Mid-run (a churn schedule driven from the control lane): defer by the
    // handoff latency so the mutation lands at the start of a future
    // window on the node's own lane.
    sim().call_in_lane(n.sim_lane(), [fn, &n] { fn(n); });
    return;
  }
  // Parked: run inline, but scope any events the call schedules (engine
  // restart timers, reachability notifies) to the node's lane.
  Simulator::LaneScope scope(sim(), n.sim_lane());
  fn(n);
}

void ShardedCluster::make_txn_coordinator(int halt_at_stage) {
  txn::TxnOptions topts;
  topts.session = options_.session;
  topts.metrics = metrics();
  if (trace_bus()) topts.tracer = obs::Tracer(trace_bus(), kNoNode);
  topts.halt_at_stage = halt_at_stage;
  topts.session_epoch = txn_session_epoch_;
  txn_ = std::make_unique<txn::TxnCoordinator>(sim(), *router_, member_nodes(), std::move(topts));
}

void ShardedCluster::restart_txn_coordinator(int halt_at_stage) {
  ++txn_session_epoch_;
  make_txn_coordinator(halt_at_stage);
}

std::uint64_t ShardedCluster::shard_seed(int shard) const {
  // Two splitmix steps over (seed, shard): related base seeds and adjacent
  // shard ids both land in uncorrelated streams.
  std::uint64_t x = options_.seed;
  (void)splitmix64(x);
  x ^= static_cast<std::uint64_t>(shard) * 0x9e3779b97f4a7c15ULL;
  return splitmix64(x);
}

void ShardedCluster::partition_shard(int shard, const std::vector<std::vector<int>>& components) {
  std::vector<bool> seen(static_cast<std::size_t>(options_.replicas_per_shard), false);
  for (const auto& comp : components) {
    for (int idx : comp) {
      if (idx < 0 || idx >= options_.replicas_per_shard || seen[static_cast<std::size_t>(idx)]) {
        throw std::invalid_argument("each shard member must appear in exactly one component");
      }
      seen[static_cast<std::size_t>(idx)] = true;
    }
  }
  if (std::find(seen.begin(), seen.end(), false) != seen.end()) {
    throw std::invalid_argument("each shard member must appear in exactly one component");
  }
  shard_components_.at(static_cast<std::size_t>(shard)) = components;
  apply_components();
}

void ShardedCluster::heal_shard(int shard) {
  shard_components_.at(static_cast<std::size_t>(shard)).clear();
  apply_components();
}

void ShardedCluster::heal() {
  for (auto& c : shard_components_) c.clear();
  apply_components();
}

void ShardedCluster::apply_components() {
  // Network components are global and must cover every node exactly once:
  // emit one global component per (shard, local component). Nodes of
  // different shards always end up in different components here, which is
  // invisible to the protocol — shards exchange no network traffic and the
  // reachability service is group-scoped anyway.
  std::vector<std::vector<NodeId>> global;
  for (int s = 0; s < options_.shards; ++s) {
    const auto& comps = shard_components_[static_cast<std::size_t>(s)];
    if (comps.empty()) {
      global.push_back(group(s));
      continue;
    }
    for (const auto& comp : comps) {
      std::vector<NodeId> g;
      for (int idx : comp) g.push_back(node_id(s, idx));
      global.push_back(std::move(g));
    }
  }
  net().set_components(global);
}

std::optional<std::string> ShardedCluster::check_all() const {
  if (auto v = EngineCluster::check_all()) return v;
  if (router_->stats().cross_partial_aborts > 0) {
    std::ostringstream os;
    os << router_->stats().cross_partial_aborts
       << " cross-shard action(s) committed at some shards and aborted at others";
    return os.str();
  }
  return std::nullopt;
}

}  // namespace tordb::workload
