// Per-layer counters read through each layer's public stats accessors and
// turned into the benchmark's per-layer metrics.
#pragma once

#include <vector>

#include "core/replica_node.h"
#include "obs/metrics.h"
#include "probe.h"
#include "shard/router.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace tordb_bench {

/// Cumulative counters of the sim, net, storage, gc and core layers,
/// summed over a deployment's replicas.
struct LayerCounters {
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t handoffs = 0;
  tordb::NetworkStats net;
  tordb::StorageStats storage;
  tordb::gc::GcStats gc;
  tordb::core::EngineStats engine;

  /// Fold in one engine's (and its gc instance's) counters. A crash
  /// discards the engine object, so the harness retires its counters here
  /// first.
  void add_engine(tordb::core::ReplicationEngine& engine);
};

/// Current totals: `retired` plus every running engine, every node's
/// storage, and the network and simulator counters.
LayerCounters sample_layers(const std::vector<tordb::core::ReplicaNode*>& nodes,
                            const tordb::Network& net, const tordb::Simulator& sim,
                            const LayerCounters& retired);

/// Per-layer metrics over [before, after]: counts per committed client
/// action and totals over the load phase of `sim_seconds`.
void layer_metrics(const LayerCounters& before, const LayerCounters& after, double committed,
                   double sim_seconds, MetricMap& out);

/// db.* totals over the running replicas (whole run, set-up included).
void db_metrics(const std::vector<tordb::core::ReplicaNode*>& nodes, MetricMap& out);

/// router.* and directory.* over [before, after], barrier waits excepted
/// (their source differs by workload).
void router_metrics(const tordb::shard::RouterStats& before, const tordb::shard::Router& router,
                    MetricMap& out);

/// p50/p99 of the registry histograms the engine and txn layers record.
void registry_metrics(tordb::obs::MetricsRegistry& registry, MetricMap& out);

}  // namespace tordb_bench
