// Deployment-wide metric names: EngineCluster and ShardedCluster publish the
// same registry families, so every name below must appear in the registry
// of both shapes. The obs suite checks a single group, the router suite a
// sharded one. Also the crash check both suites share: registry counters
// must keep what a crashed engine counted.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/replication_engine.h"
#include "obs/metrics.h"

namespace tordb::testing {

inline void expect_deployment_metrics(const std::string& totals) {
  for (const char* name :
       {"storage.forces", "storage.appends", "gc.safe_deliveries", "gc.regular_configs",
        "gc.whiteline.min", "gc.whiteline.lag", "gc.bodies.bytes", "cluster.exchanges",
        "db.table.slots", "db.table.rehashes", "net.messages", "net.bytes",
        "sim.events_executed", "engine.actions_green", "shard.0.actions_green",
        "shard.0.storage_forces", "shard.0.whiteline.min"}) {
    // totals() prints one "name value" line per metric.
    EXPECT_NE(("\n" + totals).find("\n" + std::string(name) + " "), std::string::npos)
        << name << " missing from:\n"
        << totals;
  }
}

/// Counts summed over engine incarnations from each one's own stats(), and
/// over disks, which a crash keeps.
struct IncarnationCounts {
  std::uint64_t green = 0, exchanges = 0, safe_deliveries = 0, regular_configs = 0;
  std::uint64_t forces = 0;

  void add(core::ReplicationEngine& e) {
    green += e.stats().actions_green;
    exchanges += e.stats().exchanges;
    safe_deliveries += e.group_comm().stats().safe_deliveries;
    regular_configs += e.group_comm().stats().regular_configs;
  }
  void add_disk(const StableStorage& s) { forces += s.stats().forces; }
};

/// A crash loses an engine's volatile state, not what it counted (paper
/// §2.1): each registry counter equals the sum over every incarnation of
/// group 0's engines, crashed ones included.
inline void expect_counts_survive_crashes(obs::MetricsRegistry& m, const IncarnationCounts& all) {
  EXPECT_GT(all.green, 0u);
  EXPECT_EQ(m.counter("engine.actions_green").value(), all.green);
  EXPECT_EQ(m.counter("shard.0.actions_green").value(), all.green);
  EXPECT_EQ(m.counter("cluster.exchanges").value(), all.exchanges);
  EXPECT_EQ(m.counter("gc.safe_deliveries").value(), all.safe_deliveries);
  EXPECT_EQ(m.counter("gc.regular_configs").value(), all.regular_configs);
  EXPECT_EQ(m.counter("storage.forces").value(), all.forces);
  EXPECT_EQ(m.counter("shard.0.storage_forces").value(), all.forces);
}

}  // namespace tordb::testing
