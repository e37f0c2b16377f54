// Green-line announcement protocol (DESIGN.md §14): silent replicas'
// knowledge still propagates, so white trimming and body-store GC make
// progress on asymmetric workloads — including across partitions, crashes
// and recoveries. Every cluster runs under the online safety checker
// (invariants 6 and 10 watch each trim and announcement live).
#include <gtest/gtest.h>

#include "obs_enable.h"  // run every cluster under the online safety checker
#include "db/database.h"
#include "workload/cluster.h"

namespace tordb::core {
namespace {

using db::Command;
using workload::ClusterOptions;
using workload::EngineCluster;

ClusterOptions small(int n, std::uint64_t seed = 1) {
  ClusterOptions o;
  o.replicas = n;
  o.seed = seed;
  return o;
}

/// Drive `count` sequential strict puts through node `via`.
void drive(EngineCluster& c, NodeId via, int count) {
  for (int i = 0; i < count; ++i) {
    c.engine(via).submit({}, Command::put("k" + std::to_string(i % 8), std::to_string(i)), 1,
                         Semantics::kStrict, nullptr);
    c.run_for(millis(20));
  }
}

TEST(CoreAnnounce, SilentReplicasStillTrim) {
  // Only node 0 originates actions. Nodes 1 and 2 never multicast anything
  // on their own, so without announcements nobody ever learns their green
  // lines and every white line stays pinned at the install.
  EngineCluster c(small(3));
  c.run_for(seconds(1));
  drive(c, 0, 30);
  c.run_for(seconds(1));  // several announce intervals of quiet

  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_GE(c.engine(n).green_count(), 30) << "node " << n;
    // The white line tracks the group minimum green line; after quiescence
    // and a token from every silent replica it reaches the green count.
    EXPECT_EQ(c.engine(n).white_line(), c.engine(n).green_count()) << "node " << n;
    // Trimmed bodies are gone: only pending reds (none at quiescence) stay.
    EXPECT_EQ(c.engine(n).action_log().stored_bodies(), 0u) << "node " << n;
  }
  // The silent replicas sent the tokens; the originator's own green line
  // rode its actions, so its token stayed mooted (piggyback wins the race).
  EXPECT_GT(c.engine(1).stats().announces_sent, 0u);
  EXPECT_GT(c.engine(2).stats().announces_sent, 0u);
  EXPECT_GT(c.engine(0).stats().announces_received, 0u);
}

TEST(CoreAnnounce, DisabledIntervalPreservesOldBehavior) {
  // The pre-announcement configuration (announce_interval = 0): the same
  // asymmetric workload leaves every white line pinned — the regression
  // baseline bench_memory measures at scale.
  ClusterOptions o = small(3);
  o.node.engine.announce_interval = SimDuration{0};
  EngineCluster c(o);
  c.run_for(seconds(1));
  drive(c, 0, 30);
  c.run_for(seconds(1));

  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_GE(c.engine(n).green_count(), 30) << "node " << n;
    EXPECT_EQ(c.engine(n).white_line(), 0) << "node " << n;
    EXPECT_GT(c.engine(n).action_log().stored_bodies(), 0u) << "node " << n;
    EXPECT_EQ(c.engine(n).stats().announces_sent, 0u) << "node " << n;
  }
}

TEST(CoreAnnounce, PartitionPinsTrimUntilHeal) {
  // A partitioned member is still in the server set, so the majority side
  // must NOT trim past what it can know: announcements are lower-bound
  // claims, and none arrive across the cut. After the heal the exchange
  // refreshes everyone's lines, announcements resume, and trimming catches
  // up everywhere.
  EngineCluster c(small(3));
  c.run_for(seconds(1));
  drive(c, 0, 10);
  c.run_for(seconds(1));
  const std::int64_t pre = c.engine(0).green_count();
  ASSERT_EQ(c.engine(0).white_line(), pre);

  c.partition({{0, 1}, {2}});
  c.run_for(millis(500));
  drive(c, 0, 20);
  c.run_for(seconds(1));
  EXPECT_GE(c.engine(0).green_count(), pre + 20);
  // Node 2 missed everything after the cut; the white line may not pass it.
  EXPECT_LE(c.engine(0).white_line(), pre);

  c.heal();
  c.run_for(seconds(2));
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(c.engine(n).green_count(), c.engine(0).green_count()) << "node " << n;
    EXPECT_EQ(c.engine(n).white_line(), c.engine(n).green_count()) << "node " << n;
  }
}

TEST(CoreAnnounce, CrashedReplicaRejoinsWithStaleGreenLine) {
  // Node 2 crashes after marking greens, the survivors keep committing,
  // then node 2 recovers — possibly below its pre-crash green line (greens
  // are logged asynchronously). The exchange state-transfers it past the
  // trimmed history, announcements resume, and trimming proceeds at every
  // node. The live checker watches invariant 6 throughout: survivors may
  // trim on node 2's pre-crash claims (high-water), never beyond them.
  EngineCluster c(small(3));
  c.run_for(seconds(1));
  drive(c, 0, 10);
  c.run_for(seconds(1));

  c.crash(2);
  c.run_for(millis(500));
  drive(c, 0, 20);
  c.run_for(seconds(1));
  const std::int64_t survivors_green = c.engine(0).green_count();
  EXPECT_GE(survivors_green, 30);

  c.recover(2);
  c.run_for(seconds(3));
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_GE(c.engine(n).green_count(), survivors_green) << "node " << n;
    EXPECT_EQ(c.engine(n).white_line(), c.engine(n).green_count()) << "node " << n;
  }
  EXPECT_TRUE(c.converged_primary(c.all_ids()));
}

std::uint64_t total_sent(EngineCluster& c, int n) {
  std::uint64_t s = 0;
  for (NodeId i = 0; i < n; ++i) s += c.engine(i).stats().announces_sent;
  return s;
}

/// One strict put from each node in `via` per 5 ms round, for `rounds`.
void drive_all(EngineCluster& c, const std::vector<NodeId>& via, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    for (NodeId n : via) {
      c.engine(n).submit({}, Command::put("k" + std::to_string(n), std::to_string(i)), 1,
                         Semantics::kStrict, nullptr);
    }
    c.run_for(millis(5));
  }
}

TEST(CoreAnnounce, BusyGroupSendsNoTokens) {
  // Every replica originates: each one's actions carry its green line, so
  // a token would say nothing the traffic has not already said.
  EngineCluster c(small(5));
  c.run_for(seconds(1));
  drive_all(c, {0, 1, 2, 3, 4}, 20);
  const std::uint64_t before = total_sent(c, 5);
  drive_all(c, {0, 1, 2, 3, 4}, 400);  // 2 s: eight announce intervals
  EXPECT_EQ(total_sent(c, 5), before);
  std::uint64_t suppressed = 0;
  for (NodeId n = 0; n < 5; ++n) suppressed += c.engine(n).stats().announces_suppressed;
  EXPECT_GT(suppressed, 0u);
  // The piggybacked lines alone keep the white line moving during the run.
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_GT(c.engine(n).white_line(), c.engine(n).green_count() / 2) << "node " << n;
  }
  // Everyone stops at once. The greens that landed after each replica's
  // last action were never carried, and the tokens suppressed just before
  // the stop must re-arm to tell them: trimming then completes everywhere.
  c.run_for(seconds(1));
  EXPECT_GT(total_sent(c, 5), before);
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_EQ(c.engine(n).white_line(), c.engine(n).green_count()) << "node " << n;
  }
}

TEST(CoreAnnounce, ReplicaThatGoesQuietStillAnnounces) {
  // Node 1 originates, then stops while node 0 keeps going: the recency
  // suppression must lapse, so node 1 announces its newer line and the
  // white line moves past the last line its own actions carried.
  EngineCluster c(small(3));
  c.run_for(seconds(1));
  drive_all(c, {0, 1}, 100);
  const std::int64_t last_carried = c.engine(1).green_count();
  const std::uint64_t sent_busy = c.engine(1).stats().announces_sent;
  drive_all(c, {0}, 200);  // 1 s: node 1 is quiet for four intervals
  c.run_for(seconds(1));
  EXPECT_GT(c.engine(1).stats().announces_sent, sent_busy);
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_GT(c.engine(n).white_line(), last_carried) << "node " << n;
    EXPECT_EQ(c.engine(n).white_line(), c.engine(n).green_count()) << "node " << n;
  }
}

TEST(CoreAnnounce, LineOnceRelayedStillTrimsAfterHeal) {
  // Node 2's line reaches node 1 while they share a primary component;
  // then node 2 is cut off and node 0 rejoins node 1 (a non-primary pair:
  // node 1 alone is no majority of the last primary). With full-vector
  // announcements node 1 would relay node 2's line to node 0; own-line
  // announcements never relay, so node 0 learns it only once node 2 is
  // back. The white line may lag while node 2 is away, but the heal's
  // exchange re-seeds every line and trimming catches up everywhere, with
  // invariants 6 (no trim past a real green line) and 10 (honest,
  // monotone announcements) checked live throughout.
  EngineCluster c(small(3));
  c.run_for(seconds(1));
  drive(c, 0, 5);
  c.run_for(seconds(1));

  c.partition({{0}, {1, 2}});
  c.run_for(millis(500));
  drive(c, 1, 10);  // node 2 is silent: its line reaches node 1 by token
  c.run_for(seconds(1));
  const std::int64_t g2 = c.engine(2).green_count();
  EXPECT_GE(g2, 15);

  c.partition({{0, 1}, {2}});
  c.run_for(millis(500));
  drive(c, 1, 10);  // red: no primary without node 2
  c.run_for(seconds(1));
  EXPECT_EQ(c.engine(0).green_count(), g2);  // the exchange caught node 0 up
  EXPECT_LE(c.engine(0).white_line(), g2);

  c.heal();
  c.run_for(seconds(2));
  EXPECT_TRUE(c.converged_primary(c.all_ids()));
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(c.engine(n).green_count(), c.engine(0).green_count()) << "node " << n;
    EXPECT_EQ(c.engine(n).white_line(), c.engine(n).green_count()) << "node " << n;
    EXPECT_EQ(c.engine(n).action_log().stored_bodies(), 0u) << "node " << n;
  }
}

TEST(CoreAnnounce, QuiescentClusterSendsNoTokens) {
  // The timer is lazy: it arms only when the green count moves past the
  // last announced line. A cluster with no traffic after its announcements
  // settle must go fully quiet (run-until-idle still terminates).
  EngineCluster c(small(3));
  c.run_for(seconds(1));
  drive(c, 0, 5);
  c.run_for(seconds(2));
  const auto sent = [&] {
    std::uint64_t s = 0;
    for (NodeId n = 0; n < 3; ++n) s += c.engine(n).stats().announces_sent;
    return s;
  };
  const std::uint64_t settled = sent();
  c.run_for(seconds(30));  // long quiet stretch: no new greens anywhere
  EXPECT_EQ(sent(), settled);
}

}  // namespace
}  // namespace tordb::core
