// Deployment-wide metric names: EngineCluster and ShardedCluster share one
// sampler, so every name below must appear in the registry of both shapes.
// The obs suite checks a single group, the router suite a sharded one.
#pragma once

#include <gtest/gtest.h>

#include <string>

namespace tordb::testing {

inline void expect_deployment_metrics(const std::string& totals) {
  for (const char* name :
       {"storage.forces", "storage.appends", "gc.safe_deliveries", "gc.regular_configs",
        "gc.whiteline.min", "gc.whiteline.lag", "gc.bodies.bytes", "cluster.exchanges",
        "db.table.slots", "net.messages", "sim.events_executed", "engine.actions_green"}) {
    // totals() prints one "name value" line per metric.
    EXPECT_NE(("\n" + totals).find("\n" + std::string(name) + " "), std::string::npos)
        << name << " missing from:\n"
        << totals;
  }
}

}  // namespace tordb::testing
