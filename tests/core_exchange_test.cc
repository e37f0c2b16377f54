// Targeted tests of the exchange phase (paper A.4–A.6) and its edge cases:
// retransmission interleavings, the catch-up state transfer, white-line
// trimming interplay, and request buffering across state-machine states.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>

#include "obs_enable.h"  // run every cluster under the online safety checker
#include "core/exchange_plan.h"
#include "db/database.h"
#include "util/rng.h"
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

TEST(CoreExchange, DivergedComponentsMergeBothWays) {
  // Both sides accumulate reds; the exchange must interleave green and red
  // retransmissions correctly in both directions.
  EngineCluster c(small(5));
  c.run_for(seconds(1));
  c.partition({{0, 1, 2}, {3, 4}});
  c.run_for(millis(400));
  // Majority commits greens; minority queues reds from two creators.
  for (int i = 0; i < 8; ++i) {
    c.engine(i % 3).submit({}, Command::add("g", 1), 1, Semantics::kStrict, nullptr);
    c.engine(3 + (i % 2)).submit({}, Command::add("r", 1), 2, Semantics::kStrict, nullptr);
    c.run_for(millis(30));
  }
  c.run_for(millis(300));
  ASSERT_EQ(c.engine(0).database().get("g"), "8");
  ASSERT_GT(c.engine(3).red_count(), 0u);
  c.heal();
  c.run_for(seconds(2));
  ASSERT_TRUE(c.converged_primary(c.all_ids()));
  for (NodeId i = 0; i < 5; ++i) {
    EXPECT_EQ(c.engine(i).database().get("g"), "8") << i;
    EXPECT_EQ(c.engine(i).database().get("r"), "8") << i;
  }
  EXPECT_EQ(c.check_all(), std::nullopt);
}

TEST(CoreExchange, ThreeWayMergeCollectsAllReds) {
  EngineCluster c(small(6, 3));
  c.run_for(seconds(1));
  c.partition({{0, 1}, {2, 3}, {4, 5}});
  c.run_for(millis(400));
  // No quorum anywhere (2 of 6 each); every component queues reds.
  for (NodeId i = 0; i < 6; ++i) {
    c.engine(i).submit({}, Command::add("n", 1), i, Semantics::kStrict, nullptr);
  }
  c.run_for(millis(300));
  for (NodeId i = 0; i < 6; ++i) {
    EXPECT_EQ(c.engine(i).state(), EngineState::kNonPrim) << i;
  }
  c.heal();
  c.run_for(seconds(2));
  ASSERT_TRUE(c.converged_primary(c.all_ids()));
  EXPECT_EQ(c.engine(0).database().get("n"), "6");
  EXPECT_EQ(c.check_all(), std::nullopt);
}

TEST(CoreExchange, StaggeredMergesPropagateByEventualPath) {
  // Paper §3.1: information propagates by eventual path — reds learned in a
  // non-primary merge reach the primary through a later merge even though
  // their creator never talks to the primary directly.
  EngineCluster c(small(5, 7));
  c.run_for(seconds(1));
  c.partition({{0, 1, 2}, {3}, {4}});
  c.run_for(millis(400));
  bool creator_replied = false;
  c.engine(4).submit({}, Command::put("lonely", "action"), 1, Semantics::kStrict,
                     [&](const Reply&) { creator_replied = true; });
  c.run_for(millis(300));
  // {3} and {4} merge: node 3 learns node 4's red action (still no quorum).
  c.partition({{0, 1, 2}, {3, 4}});
  c.run_for(millis(500));
  EXPECT_GT(c.engine(3).red_count(), 0u);
  // Now node 4 is isolated again; node 3 joins the primary and carries the
  // action with it.
  c.partition({{0, 1, 2, 3}, {4}});
  c.run_for(seconds(1));
  for (NodeId i = 0; i < 4; ++i) {
    EXPECT_EQ(c.engine(i).database().get("lonely"), "action") << i;
  }
  // The creator itself is still cut off and unanswered...
  EXPECT_FALSE(creator_replied);
  c.heal();
  c.run_for(seconds(1));
  EXPECT_TRUE(creator_replied);  // ...until it merges and sees its green.
  EXPECT_EQ(c.check_all(), std::nullopt);
}

TEST(CoreExchange, RequestsBufferedDuringExchangeAreServed) {
  EngineCluster c(small(4, 9));
  c.run_for(seconds(1));
  // Trigger a view change, then submit while the exchange is in progress.
  c.partition({{0, 1, 2}, {3}});
  c.run_for(millis(3));  // detection fired; exchange starting
  int replies = 0;
  for (int i = 0; i < 5; ++i) {
    c.engine(0).submit({}, Command::add("buffered", 1), 1, Semantics::kStrict,
                       [&](const Reply&) { ++replies; });
  }
  c.run_for(seconds(1));
  EXPECT_EQ(replies, 5);
  EXPECT_EQ(c.engine(1).database().get("buffered"), "5");
  EXPECT_EQ(c.check_all(), std::nullopt);
}

TEST(CoreExchange, WhiteTrimmedHistoryStillExchangesViaCatchup) {
  // A replica that trimmed white bodies can still bring a straggler up via
  // the snapshot-based catch-up if its white line moved past the
  // straggler's green count. Force this: joiner inherits a snapshot (its
  // whole prefix is body-less) and must update a straggler alone.
  EngineCluster c(small(3, 11));
  c.run_for(seconds(1));
  for (int i = 0; i < 12; ++i) {
    c.engine(0).submit({}, Command::add("n", 1), 1, Semantics::kStrict, nullptr);
    c.run_for(millis(25));
  }
  // Straggler 2 detaches and misses further progress.
  c.partition({{0, 1}, {2}});
  c.run_for(millis(400));
  for (int i = 0; i < 6; ++i) {
    c.engine(0).submit({}, Command::add("n", 1), 1, Semantics::kStrict, nullptr);
    c.run_for(millis(25));
  }
  // Joiner 3 joins the majority via snapshot.
  auto& joiner = c.add_dormant(3);
  c.partition({{0, 1, 3}, {2}});
  joiner.join_via({0});
  c.run_for(seconds(2));
  ASSERT_TRUE(joiner.running());
  const auto snapshots_before = joiner.engine().stats().snapshots_sent;
  // Pair the joiner with the straggler only: the joiner is most updated but
  // holds no bodies => catch-up transfer.
  c.partition({{2, 3}, {0, 1}});
  c.run_for(seconds(2));
  EXPECT_EQ(c.engine(2).green_count(), joiner.engine().green_count());
  EXPECT_EQ(c.engine(2).db_digest(), joiner.engine().db_digest());
  EXPECT_GT(joiner.engine().stats().snapshots_sent, snapshots_before);
  c.heal();
  c.run_for(seconds(2));
  EXPECT_TRUE(c.converged_primary({0, 1, 2, 3}));
  EXPECT_EQ(c.engine(2).database().get("n"), "18");
  EXPECT_EQ(c.check_all(), std::nullopt);
}

TEST(CoreExchange, ExchangeInterruptedByAnotherPartition) {
  // A.4/A.6: a transitional configuration during the exchange sends members
  // back to NonPrim; the next regular configuration restarts the exchange.
  EngineCluster c(small(5, 13));
  c.run_for(seconds(1));
  c.engine(0).submit({}, Command::put("k", "v"), 1, Semantics::kStrict, nullptr);
  c.run_for(millis(200));
  // Cascade: split, then split differently before the first exchange can
  // complete, then heal.
  c.partition({{0, 1, 2}, {3, 4}});
  c.run_for(millis(4));
  c.partition({{0, 1}, {2, 3}, {4}});
  c.run_for(millis(4));
  c.partition({{0, 3}, {1, 2, 4}});
  c.run_for(millis(4));
  c.heal();
  c.run_for(seconds(2));
  EXPECT_TRUE(c.converged_primary(c.all_ids()));
  EXPECT_EQ(c.engine(4).database().get("k"), "v");
  EXPECT_EQ(c.check_all(), std::nullopt);
}

TEST(CoreExchange, NoQuorumComponentKeepsExchangingKnowledge) {
  // Even components that can never form a primary still synchronize their
  // red knowledge (paper: exchange happens in all components).
  EngineCluster c(small(5, 17));
  c.run_for(seconds(1));
  c.partition({{0, 1}, {2, 3}, {4}});
  c.run_for(millis(400));
  c.engine(0).submit({}, Command::put("a", "1"), 1, Semantics::kStrict, nullptr);
  c.engine(1).submit({}, Command::put("b", "2"), 1, Semantics::kStrict, nullptr);
  c.run_for(millis(300));
  // Both members of the 2-node non-primary component know both reds.
  EXPECT_EQ(c.engine(0).red_count(), 2u);
  EXPECT_EQ(c.engine(1).red_count(), 2u);
  // And their dirty views agree.
  EXPECT_EQ(c.engine(0).dirty_database().digest(), c.engine(1).dirty_database().digest());
  EXPECT_EQ(c.check_all(), std::nullopt);
}

TEST(CoreExchange, SubsetViewSkipsRetransmission) {
  // "if the new membership is a subset of the old one, there is no need for
  // action exchange, as the states are already synchronized."
  EngineCluster c(small(4, 19));
  c.run_for(seconds(1));
  for (int i = 0; i < 5; ++i) {
    c.engine(0).submit({}, Command::add("n", 1), 1, Semantics::kStrict, nullptr);
    c.run_for(millis(30));
  }
  c.run_for(millis(300));
  const auto retrans_before = c.engine(0).stats().green_retrans_sent +
                              c.engine(0).stats().red_retrans_sent;
  c.partition({{0, 1, 2}, {3}});
  c.run_for(seconds(1));
  ASSERT_TRUE(c.converged_primary({0, 1, 2}));
  const auto retrans_after = c.engine(0).stats().green_retrans_sent +
                             c.engine(0).stats().red_retrans_sent;
  EXPECT_EQ(retrans_after, retrans_before);  // identical states: nothing to send
}

TEST(CoreExchange, LargeDivergenceExchanges) {
  // Volume test: hundreds of reds and greens across a merge.
  EngineCluster c(small(4, 23));
  c.run_for(seconds(1));
  c.partition({{0, 1, 2}, {3}});
  c.run_for(millis(400));
  for (int i = 0; i < 120; ++i) {
    c.engine(i % 3).submit({}, Command::add("g", 1), 1, Semantics::kStrict, nullptr);
    c.engine(3).submit({}, Command::add("r", 1), 2, Semantics::kStrict, nullptr);
    c.run_for(millis(12));
  }
  c.run_for(millis(500));
  c.heal();
  c.run_for(seconds(4));
  ASSERT_TRUE(c.converged_primary(c.all_ids()));
  EXPECT_EQ(c.engine(3).database().get("g"), "120");
  EXPECT_EQ(c.engine(0).database().get("r"), "120");
  EXPECT_EQ(c.check_all(), std::nullopt);
}

// The retransmission plan as the engine computed it before plan_exchange:
// a std::set of creators and, per (creator, member), a map lookup and a
// linear scan of the member's cut. Kept here only as the reference.
ExchangePlan reference_plan(const std::vector<StateMessage>& in_member_order) {
  std::vector<NodeId> members;
  std::map<NodeId, StateMessage> state_msgs;
  for (const StateMessage& s : in_member_order) {
    members.push_back(s.server_id);
    state_msgs[s.server_id] = s;
  }
  ExchangePlan plan;
  std::int64_t min_green = std::numeric_limits<std::int64_t>::max(), max_green = -1;
  NodeId most_updated = kNoNode;
  for (NodeId m : members) {
    const StateMessage& s = state_msgs.at(m);
    min_green = std::min(min_green, s.green_count);
    if (s.green_count > max_green ||
        (s.green_count == max_green &&
         s.white_count < state_msgs.at(most_updated).white_count)) {
      max_green = s.green_count;
      most_updated = m;
    }
  }
  const StateMessage& holder_msg = state_msgs.at(most_updated);
  if (max_green > min_green) {
    plan.green_source = most_updated;
    plan.green_lo = min_green;
    plan.green_hi = max_green;
    plan.green_snapshot = holder_msg.white_count > min_green;
    plan.expected += plan.green_snapshot ? 1 : max_green - min_green;
  }
  std::set<NodeId> creators;
  for (const auto& [m, s] : state_msgs) {
    for (const auto& [c, v] : s.red_cut) creators.insert(c);
  }
  auto cut_of = [](const std::vector<std::pair<NodeId, std::int64_t>>& cut, NodeId c) {
    for (const auto& [n, v] : cut) {
      if (n == c) return v;
    }
    return std::int64_t{0};
  };
  for (NodeId c : creators) {
    std::int64_t cmax = 0, cmin = std::numeric_limits<std::int64_t>::max();
    NodeId holder = kNoNode;
    for (NodeId m : members) {
      const std::int64_t v = cut_of(state_msgs.at(m).red_cut, c);
      cmin = std::min(cmin, v);
      if (v > cmax || (v == cmax && holder == kNoNode)) {
        cmax = v;
        holder = m;
      }
    }
    if (holder == kNoNode) continue;
    const std::int64_t lo = std::max(cmin, cut_of(state_msgs.at(holder).green_red_cut, c));
    if (cmax <= lo) continue;
    plan.expected += cmax - lo;
    plan.red.push_back({holder, c, lo, cmax});
  }
  return plan;
}

TEST(CoreExchange, PlanMatchesNestedLoopReference) {
  // Random state sets of 1-100 members. Small value ranges make ties
  // common; creators come from a universe wider than the membership
  // (departed creators) and are missing from some members' cuts.
  int snapshot_plans = 0, holder_ties = 0, missing_creators = 0, green_floors = 0;
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    Rng rng(seed);
    const int n = 1 + static_cast<int>(rng.next_below(100));
    const std::int64_t cut_range = rng.next_below(2) ? 3 : 40;
    const std::int64_t green_range = rng.next_below(2) ? 2 : 30;
    const std::uint64_t keep_percent = 30 + rng.next_below(71);
    std::vector<NodeId> ids;
    for (NodeId id = static_cast<NodeId>(rng.next_below(3)); static_cast<int>(ids.size()) < n;
         id += rng.next_below(4) == 0 ? 2 : 1) {
      ids.push_back(id);
    }
    const NodeId universe = ids.back() + 4;
    std::vector<StateMessage> msgs;
    for (NodeId id : ids) {
      StateMessage s;
      s.server_id = id;
      s.green_count = rng.next_range(0, green_range);
      s.white_count = rng.next_range(0, s.green_count);
      for (NodeId c = 0; c < universe; ++c) {
        if (rng.next_below(100) >= keep_percent) continue;
        const std::int64_t v = rng.next_range(0, cut_range);
        s.red_cut.emplace_back(c, v);
        // ActionLog lists the same creators in both cuts; drop some anyway.
        if (rng.next_below(8) != 0) s.green_red_cut.emplace_back(c, rng.next_range(0, v));
      }
      msgs.push_back(std::move(s));
    }
    std::vector<const StateMessage*> ptrs;
    for (const StateMessage& s : msgs) ptrs.push_back(&s);
    const ExchangePlan want = reference_plan(msgs);
    const ExchangePlan got = plan_exchange(ptrs);
    ASSERT_EQ(got, want) << "seed " << seed << " members " << n;

    // Coverage of the branches the reference distinguishes.
    if (want.green_snapshot) ++snapshot_plans;
    std::map<NodeId, std::vector<std::int64_t>> cuts;  // creator -> cut per member
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      for (const auto& [c, v] : msgs[i].red_cut) {
        cuts.try_emplace(c, msgs.size(), 0).first->second[i] = v;
      }
    }
    for (const StateMessage& s : msgs) {
      missing_creators += static_cast<int>(cuts.size() - s.red_cut.size());
    }
    for (const auto& [c, per_member] : cuts) {
      const std::int64_t top = *std::max_element(per_member.begin(), per_member.end());
      if (top > 0 && std::count(per_member.begin(), per_member.end(), top) > 1) ++holder_ties;
    }
    for (const ExchangePlan::RedRange& r : want.red) {
      const std::vector<std::int64_t>& per_member = cuts.at(r.creator);
      if (r.lo > *std::min_element(per_member.begin(), per_member.end())) ++green_floors;
    }
  }
  EXPECT_GT(snapshot_plans, 0);
  EXPECT_GT(holder_ties, 0);
  EXPECT_GT(missing_creators, 0);
  EXPECT_GT(green_floors, 0);
}

TEST(CoreExchange, PlanOfIdenticalStatesIsEmpty) {
  StateMessage a;
  a.server_id = 3;
  a.green_count = 7;
  a.white_count = 2;
  a.red_cut = {{1, 4}, {3, 9}};
  a.green_red_cut = {{1, 4}, {3, 5}};
  StateMessage b = a;
  b.server_id = 5;
  const std::vector<const StateMessage*> members = {&a, &b};
  EXPECT_EQ(plan_exchange(members), ExchangePlan{});
  EXPECT_EQ(plan_exchange({}), ExchangePlan{});
}

}  // namespace
}  // namespace tordb::core
