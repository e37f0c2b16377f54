// Regression tests for specific group-communication defects found during
// development, plus coverage of the group-activity (dormant node) feature
// and channel demultiplexing.
#include <gtest/gtest.h>

#include "obs_enable.h"  // run every cluster under the online safety checker
#include "gc_harness.h"

namespace tordb::gc {
namespace {

using tordb::gc::testing::GcCluster;
using tordb::gc::testing::parse_payload;

TEST(GcRegression, AckTimerSurvivesConfigurationChange) {
  // Regression: a coalesced ack timer armed in the old configuration left
  // `ack_scheduled_` set across an install, so the first message of the new
  // configuration was never acknowledged and safe delivery stalled at the
  // sequencer while other members (who learned the sequencer's receipt)
  // delivered safe — a trichotomy violation.
  //
  // Reproduction: traffic right before a partition arms ack timers; the
  // surviving pair installs a new configuration; one more safe message must
  // be delivered safe BY EVERY member of the new configuration.
  GcCluster c(4);
  c.run_for(millis(500));
  for (std::int64_t k = 1; k <= 10; ++k) c.multicast(0, k);
  c.net().set_components({{0, 1}, {2, 3}});
  c.run_for(seconds(1));
  // k10 was resent in the {0,1} configuration; both members must have
  // delivered it (node 0 is the sequencer and needs node 1's ack).
  for (NodeId n : {0, 1}) {
    bool got = false;
    for (const auto& d : c.record(n).deliveries) {
      if (parse_payload(d.payload) == std::make_pair(NodeId{0}, std::int64_t{10})) got = true;
    }
    EXPECT_TRUE(got) << "node " << n << " missed the resent message";
  }
  c.check_all_invariants();
}

TEST(GcRegression, ResendAfterInstallDoesNotDuplicateForSender) {
  GcCluster c(3);
  c.run_for(millis(500));
  for (std::int64_t k = 1; k <= 5; ++k) c.multicast(1, k);
  c.net().set_components({{0, 1}, {2}});
  c.run_for(seconds(1));
  c.net().heal();
  c.run_for(seconds(1));
  // Node 1 never sees its own payload twice.
  std::map<std::int64_t, int> seen;
  for (const auto& d : c.record(1).deliveries) {
    auto [s, k] = parse_payload(d.payload);
    if (s == 1) ++seen[k];
  }
  for (const auto& [k, count] : seen) {
    EXPECT_EQ(count, 1) << "payload " << k << " delivered " << count << " times at its sender";
  }
}

TEST(GcRegression, GroupInactiveNodeExcludedFromMembership) {
  GcCluster c(4);
  c.net().set_group_active(3, false);
  c.run_for(seconds(1));
  EXPECT_TRUE(c.converged({0, 1, 2}));
  EXPECT_FALSE(c.gc(3).config().contains(0));
}

TEST(GcRegression, GroupActivationTriggersMembership) {
  GcCluster c(3);
  c.net().set_group_active(2, false);
  c.run_for(seconds(1));
  ASSERT_TRUE(c.converged({0, 1}));
  c.net().set_group_active(2, true);
  c.run_for(seconds(1));
  EXPECT_TRUE(c.converged({0, 1, 2}));
}

TEST(GcRegression, DirectChannelDoesNotDisturbGc) {
  // Traffic on the direct channel must not reach the GC handler.
  GcCluster c(3);
  c.run_for(millis(500));
  int direct_got = 0;
  c.net().set_packet_handler(
      1, [&](NodeId, const Bytes&) { ++direct_got; }, Channel::kDirect);
  c.net().send(0, 1, Bytes{0xff, 0xee}, Channel::kDirect);
  c.run_for(millis(50));
  EXPECT_EQ(direct_got, 1);
  // GC is still fully functional.
  c.multicast(2, 1);
  c.run_for(millis(100));
  EXPECT_EQ(c.record(0).deliveries.size(), 1u);
  c.check_all_invariants();
}

TEST(GcRegression, RapidFlipFlopConverges) {
  // Regression guard for the coordinator-contention rules: alternate the
  // topology faster than gathers complete, many times, and require
  // convergence plus invariants afterwards.
  GcCluster c(5, 33);
  c.run_for(millis(300));
  for (int i = 0; i < 12; ++i) {
    if (i % 2 == 0) {
      c.net().set_components({{0, 2, 4}, {1, 3}});
    } else {
      c.net().set_components({{0, 1}, {2, 3, 4}});
    }
    c.multicast(0, 100 + i);
    c.run_for(millis(8));  // shorter than a full gather
  }
  c.net().heal();
  c.run_for(seconds(2));
  EXPECT_TRUE(c.converged({0, 1, 2, 3, 4}));
  c.check_all_invariants();
}

TEST(GcRegression, CoordinatorCrashMidGatherRecovers) {
  GcCluster c(4, 5);
  c.run_for(millis(500));
  // Trigger a gather, then immediately crash the coordinator (node 0).
  c.net().set_components({{0, 1, 2}, {3}});
  c.run_for(millis(2));  // gather starting
  c.crash(0);
  c.run_for(seconds(1));
  EXPECT_TRUE(c.converged({1, 2}));
  c.check_all_invariants();
}

TEST(GcRegression, StaleInstallFromOldTokenIgnored) {
  // Chain of topology changes: any INSTALL from a superseded token must not
  // corrupt the newer membership. Covered behaviourally: after the chain,
  // members are operational in one config and invariants hold.
  GcCluster c(4, 11);
  c.run_for(millis(400));
  c.net().set_components({{0, 1, 2, 3}});
  c.run_for(millis(5));
  c.net().set_components({{0, 1}, {2, 3}});
  c.run_for(millis(5));
  c.net().heal();
  c.run_for(seconds(2));
  EXPECT_TRUE(c.converged({0, 1, 2, 3}));
  c.check_all_invariants();
}

TEST(GcRegression, BufferPruningStillServesRetransmission) {
  // Stability pruning drops globally-acked messages; a straggler that later
  // needs retransmission must still be servable (messages it lacks are by
  // definition not globally acked). Long run with periodic partitions.
  GcCluster c(3, 21);
  c.run_for(millis(500));
  std::int64_t k = 0;
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 30; ++i) {
      c.multicast(0, ++k);
      c.run_for(millis(2));
    }
    c.net().set_components({{0, 1}, {2}});
    for (int i = 0; i < 10; ++i) {
      c.multicast(1, ++k);
      c.run_for(millis(2));
    }
    c.net().heal();
    c.run_for(millis(400));
  }
  c.check_all_invariants();
  // All three members end in the same configuration with the same deliveries
  // in the final config.
  EXPECT_TRUE(c.converged({0, 1, 2}));
}

TEST(GcRegression, SafeServiceBlocksLaterAgreedUntilStable) {
  // Total order must hold across service types: an agreed message ordered
  // after a safe message is not delivered before it.
  GcCluster c(3);
  c.run_for(millis(500));
  c.multicast(0, 1, Service::kSafe);
  c.multicast(0, 2, Service::kAgreed);
  c.run_for(millis(200));
  for (NodeId n = 0; n < 3; ++n) {
    const auto& ds = c.record(n).deliveries;
    ASSERT_EQ(ds.size(), 2u);
    EXPECT_EQ(parse_payload(ds[0].payload).second, 1);
    EXPECT_EQ(parse_payload(ds[1].payload).second, 2);
  }
}

TEST(GcRegression, RemoteClusterLeaderCrashStallsSafeOnlyUntilInstall) {
  // Above 16 members, a member learns another ack cluster's progress only
  // from that cluster's leader (its first member). Once the leader crashes,
  // no STABLE covers newer messages, so safe delivery stalls; the flush
  // then installs a configuration with a new leader and it resumes.
  GcCluster c(20);  // clusters: positions 0-15 and 16-19, led by 0 and 16
  std::vector<NodeId> all, survivors;
  for (NodeId n = 0; n < 20; ++n) {
    all.push_back(n);
    if (n != 16) survivors.push_back(n);
  }
  c.run_for(millis(500));
  ASSERT_TRUE(c.converged(all));
  const ConfigId old_config = c.gc(0).config().id;

  // Node n's latest delivery is node 1's k-th message, safe in its current
  // regular configuration.
  auto expect_last_safe = [&](NodeId n, std::int64_t k) {
    const auto& ds = c.record(n).deliveries;
    ASSERT_FALSE(ds.empty()) << "node " << n;
    EXPECT_EQ(parse_payload(ds.back().payload), std::make_pair(NodeId{1}, k)) << "node " << n;
    EXPECT_EQ(ds.back().kind, DeliveryKind::kSafeInRegular) << "node " << n;
    EXPECT_EQ(ds.back().config, c.gc(n).config().id) << "node " << n;
  };
  // Before the crash, node 1's safe message is stable across both clusters.
  c.multicast(1, 1);
  c.run_for(millis(50));
  for (NodeId n : all) expect_last_safe(n, 1);

  // Ordered in the old configuration, but never covered by the second
  // cluster's minimum: every survivor holds it until the flush, which
  // delivers it in the transitional configuration.
  c.crash(16);
  c.multicast(1, 2);
  c.run_for(millis(100));
  ASSERT_TRUE(c.converged(survivors));
  for (NodeId n : survivors) {
    bool found = false;
    for (const auto& d : c.record(n).deliveries) {
      if (parse_payload(d.payload) != std::make_pair(NodeId{1}, std::int64_t{2})) continue;
      found = true;
      EXPECT_EQ(d.config, old_config) << "node " << n;
      EXPECT_EQ(d.kind, DeliveryKind::kTransitional) << "node " << n;
    }
    EXPECT_TRUE(found) << "node " << n << " never delivered the stalled message";
  }

  // The new configuration's second cluster (17-19) has leader 17: safe
  // delivery resumes.
  c.multicast(1, 3);
  c.run_for(millis(50));
  for (NodeId n : survivors) expect_last_safe(n, 3);
  c.check_all_invariants();
}

TEST(GcRegression, HundredMemberGroupReceivesClusteredStability) {
  // Stability traffic per member does not grow with the group. In a
  // 100-member group the sequencer (node 0) is in no ack cluster; the
  // others form clusters of 16 consecutive positions (1-16, ..., 97-99).
  // Per ack interval each member hears ACKs from at most 15 cluster peers
  // and STABLEs from at most 6 other leaders, rather than 99 ACKs; the
  // sequencer sends and hears no ACK and hears the 7 leaders' STABLEs.
  constexpr NodeId kNodes = 100;
  GcCluster c(kNodes);
  std::vector<NodeId> all;
  for (NodeId n = 0; n < kNodes; ++n) all.push_back(n);
  c.run_for(millis(500));
  ASSERT_TRUE(c.converged(all));

  std::int64_t k = 0;
  auto traffic = [&](SimDuration d) {  // one safe multicast per ms, round robin
    for (SimDuration t = 0; t < d; t += millis(1)) {
      c.multicast(static_cast<NodeId>(k % kNodes), k + 1);
      ++k;
      c.run_for(millis(1));
    }
  };
  traffic(millis(50));  // reach steady state
  std::vector<GcStats> before;
  for (NodeId n : all) before.push_back(c.gc(n).stats());
  const SimDuration window = millis(300);
  traffic(window);

  // Each sender is rate limited to one ACK (or STABLE) per interval; one
  // extra interval absorbs the window's edges.
  const std::uint64_t intervals = static_cast<std::uint64_t>(window / GcParams{}.ack_min_interval) + 1;
  for (NodeId n : all) {
    const GcStats& now = c.gc(n).stats();
    const GcStats& was = before[static_cast<std::size_t>(n)];
    const std::uint64_t acks = now.acks_received - was.acks_received;
    const std::uint64_t stables = now.stables_received - was.stables_received;
    if (n == 0) {
      EXPECT_EQ(acks, 0u) << "the sequencer received an ACK";
      EXPECT_EQ(now.acks_sent - was.acks_sent, 0u) << "the sequencer sent an ACK";
      EXPECT_LE(stables, 7 * intervals) << "node " << n;
    } else {
      EXPECT_LE(acks, 15 * intervals) << "node " << n;
      EXPECT_LE(stables, 6 * intervals) << "node " << n;
    }
    EXPECT_GE(now.safe_deliveries - was.safe_deliveries, 250u) << "node " << n;
  }
  c.check_all_invariants();
}

TEST(GcRegression, SequencerKeepsAFrameOrderedAsAGatherStarts) {
  // Members of a group above 16 leave the sequencer out of their safe line
  // and report it at their own prefix in JOIN_INFO, because it holds every
  // frame it orders before any member can. That must hold even when a
  // gather starts between order() and the zero-delay event that stores the
  // frame: the store keeps it, and the flush delivers it in the old
  // configuration instead of re-sending it in the next one.
  NetworkParams params;
  params.detect_delay = 0;  // the partition's notifications land at one instant
  GcCluster c(3, 7, params);
  c.run_for(millis(500));
  ASSERT_TRUE(c.converged({0, 1, 2}));
  const ConfigId old_config = c.gc(0).config().id;
  const std::int64_t held = c.gc(0).received_upto();
  const std::uint64_t ordered = c.gc(0).stats().messages_ordered;
  for (NodeId n : {1, 2}) ASSERT_EQ(c.gc(n).received_upto(), held) << "node " << n;

  // At one instant: the multicast schedules its ordering event, the second
  // event then partitions (the notifications queue behind the ordering
  // event), order() runs and queues the store, the notifications start the
  // gather, and the store runs last.
  const SimTime at = c.sim().now() + millis(1);
  c.sim().at(at, [&c] { c.multicast(0, 1); });
  c.sim().at(at, [&c] { c.net().set_components({{0, 1}, {2}}); });
  c.sim().run_until(at);
  EXPECT_FALSE(c.gc(0).operational());
  EXPECT_EQ(c.gc(0).stats().messages_ordered, ordered + 1);
  EXPECT_EQ(c.gc(0).received_upto(), held + 1) << "the sequencer dropped a frame it ordered";
  for (NodeId n : {1, 2}) {
    EXPECT_GE(c.gc(0).received_upto(), c.gc(n).received_upto()) << "node " << n;
  }

  c.run_for(seconds(1));
  ASSERT_TRUE(c.converged({0, 1}));
  for (NodeId n : {0, 1}) {
    std::vector<ConfigId> configs;
    for (const auto& d : c.record(n).deliveries) {
      if (parse_payload(d.payload) == std::make_pair(NodeId{0}, std::int64_t{1})) {
        configs.push_back(d.config);
      }
    }
    EXPECT_EQ(configs, std::vector<ConfigId>{old_config}) << "node " << n;
  }
  c.check_all_invariants();
}

TEST(GcRegression, HundredMemberGroupSurvivesSequencerAndLeaderCrashes) {
  // The sequencer crashes under traffic, then the leaders of the first two
  // ack clusters (nodes 1 and 17) crash while the flush runs; all three
  // recover. The group reconverges, safe delivery resumes at all 100
  // members, and the EVS properties hold throughout.
  constexpr NodeId kNodes = 100;
  GcCluster c(kNodes);
  std::vector<NodeId> all, survivors;
  for (NodeId n = 0; n < kNodes; ++n) {
    all.push_back(n);
    if (n != 0 && n != 1 && n != 17) survivors.push_back(n);
  }
  c.run_for(millis(500));
  ASSERT_TRUE(c.converged(all));

  std::int64_t k = 0;
  auto traffic = [&](SimDuration d) {  // one safe multicast per ms from a live node
    for (SimDuration t = 0; t < d; t += millis(1)) {
      const auto n = static_cast<NodeId>(k % kNodes);
      ++k;
      if (c.has_gc(n)) c.multicast(n, k);
      c.run_for(millis(1));
    }
  };
  traffic(millis(30));
  c.crash(0);
  traffic(millis(3));
  c.crash(1);
  c.crash(17);
  traffic(millis(30));
  c.run_for(seconds(1));
  ASSERT_TRUE(c.converged(survivors));

  for (NodeId n : {0, 1, 17}) c.recover(n);
  c.run_for(seconds(1));
  ASSERT_TRUE(c.converged(all));

  const auto fresh = std::make_pair(NodeId{50}, ++k);
  c.multicast(fresh.first, fresh.second);
  c.run_for(millis(100));
  for (NodeId n : all) {
    const auto& ds = c.record(n).deliveries;
    ASSERT_FALSE(ds.empty()) << "node " << n;
    EXPECT_EQ(parse_payload(ds.back().payload), fresh) << "node " << n;
    EXPECT_EQ(ds.back().kind, DeliveryKind::kSafeInRegular) << "node " << n;
    EXPECT_EQ(ds.back().config, c.gc(n).config().id) << "node " << n;
  }
  c.check_all_invariants();
}

TEST(GcRegression, SequencerOrdersItsOwnTrafficInPlace) {
  // The sequencer (node 0) neither sends itself DATA nor receives its own
  // ORDERED back: per action, each other member receives exactly one
  // ORDERED, the sequencer one DATA per action it did not originate, and
  // the network delivers nothing else besides the stability traffic.
  constexpr NodeId kNodes = 4;
  GcCluster c(kNodes);
  std::vector<NodeId> all;
  for (NodeId n = 0; n < kNodes; ++n) all.push_back(n);
  c.run_for(millis(500));
  ASSERT_TRUE(c.converged(all));
  std::vector<GcStats> before;
  for (NodeId n : all) before.push_back(c.gc(n).stats());
  const std::uint64_t delivered_before = c.net().stats().messages_delivered;

  constexpr std::int64_t kRounds = 5;
  for (std::int64_t k = 1; k <= kRounds; ++k) {
    for (NodeId n : all) c.multicast(n, k);
    c.run_for(millis(20));
  }
  const std::uint64_t actions = kRounds * kNodes;
  std::uint64_t receipts = 0;
  for (NodeId n : all) {
    const GcStats& now = c.gc(n).stats();
    const GcStats& was = before[static_cast<std::size_t>(n)];
    EXPECT_EQ(now.safe_deliveries - was.safe_deliveries, actions) << "node " << n;
    EXPECT_EQ(now.ordered_received - was.ordered_received, n == 0 ? 0 : actions) << "node " << n;
    EXPECT_EQ(now.data_received - was.data_received, n == 0 ? actions - kRounds : 0)
        << "node " << n;
    receipts += (now.ordered_received - was.ordered_received) +
                (now.data_received - was.data_received) +
                (now.acks_received - was.acks_received) +
                (now.stables_received - was.stables_received);
  }
  EXPECT_EQ(c.gc(0).stats().messages_ordered - before[0].messages_ordered, actions);
  EXPECT_EQ(c.net().stats().messages_delivered - delivered_before, receipts);
  c.check_all_invariants();
}

TEST(GcRegression, SequencerMulticastPendingAtGatherIsResentInOrder) {
  // The sequencer orders its own multicast on the next event at the same
  // instant. When a gather starts in between, that event finds the
  // configuration gone; the entry stays in the outbox and is re-sent, in
  // FIFO order behind the ones before it, in the next configuration.
  GcCluster c(3);
  c.run_for(millis(500));
  ASSERT_TRUE(c.converged({0, 1, 2}));
  const ConfigId old_config = c.gc(0).config().id;
  // The multicasts are scheduled first, so they run before the membership
  // notification the partition schedules for the same instant, and their
  // ordering events run after it.
  const SimTime at = c.sim().now() + c.net().params().detect_delay;
  c.sim().at(at, [&c] {
    for (std::int64_t k = 1; k <= 3; ++k) c.multicast(0, k);
  });
  c.net().set_components({{0, 1}, {2}});
  c.run_for(seconds(1));
  ASSERT_TRUE(c.converged({0, 1}));
  EXPECT_GE(c.gc(0).stats().resent_after_install, 3u);
  for (NodeId n : {0, 1}) {
    std::vector<std::int64_t> got;
    for (const auto& d : c.record(n).deliveries) {
      const auto [sender, k] = parse_payload(d.payload);
      if (sender != 0) continue;
      EXPECT_FALSE(d.config == old_config) << "node " << n << " k" << k;
      got.push_back(k);
    }
    EXPECT_EQ(got, (std::vector<std::int64_t>{1, 2, 3})) << "node " << n;
  }
  c.check_all_invariants();
}

TEST(GcRegression, LeaverFlushesItsAckBeforeTeardown) {
  // A member torn down right after it delivered a message safe may still
  // owe its ACK for it (coalesced, or here deferred behind a busy CPU).
  // flush_ack sends it, so the remaining members deliver the message safe
  // in the regular configuration rather than in the transitional one.
  GcCluster c(3);
  c.run_for(millis(500));
  ASSERT_TRUE(c.converged({0, 1, 2}));
  c.multicast(1, 1);
  // Node 2 handles the ORDERED and both peers' ACKs in one burst after
  // 2 ms, so its own ACK is still coalescing when it delivers.
  c.net().charge(2, millis(2));
  auto delivered = [&c] {
    for (const auto& d : c.record(2).deliveries) {
      if (parse_payload(d.payload) == std::make_pair(NodeId{1}, std::int64_t{1})) return true;
    }
    return false;
  };
  for (int step = 0; step < 10'000 && !delivered(); ++step) c.run_for(micros(1));
  ASSERT_TRUE(delivered());
  EXPECT_EQ(c.record(2).deliveries.back().kind, DeliveryKind::kSafeInRegular);
  c.gc(2).flush_ack();
  c.leave(2);
  c.run_for(seconds(1));
  ASSERT_TRUE(c.converged({0, 1}));
  for (NodeId n : {0, 1}) {
    bool safe = false;
    for (const auto& d : c.record(n).deliveries) {
      if (parse_payload(d.payload) == std::make_pair(NodeId{1}, std::int64_t{1})) {
        safe = d.kind == DeliveryKind::kSafeInRegular;
      }
    }
    EXPECT_TRUE(safe) << "node " << n << " did not deliver the message safe in regular";
  }
  c.check_all_invariants();
}

/// Every `period`, every member multicasts one safe message, for `d`.
void every_member_sends(GcCluster& c, NodeId nodes, std::int64_t& k, SimDuration period,
                        SimDuration d) {
  for (SimDuration t = 0; t < d; t += period) {
    ++k;
    for (NodeId n = 0; n < nodes; ++n) c.multicast(n, k);
    c.run_for(period);
  }
}

TEST(GcRegression, SaturatedLargeGroupPacksOrderedFrames) {
  // Above one ack cluster the sequencer holds a message while another
  // receipt waits on its CPU, and sends up to two frames in one ORDERED
  // packet, so a member pays the per-message receive cost once per packet.
  // Every member of a 100-member group multicasting every 10 ms backs the
  // sequencer's queue up: members receive fewer packets than they deliver
  // messages, and no packet holds more than two frames. A 14-member group
  // under the same per-member load is one cluster and receives exactly one
  // packet per message.
  for (const NodeId nodes : {NodeId{100}, NodeId{14}}) {
    GcCluster c(nodes);
    std::vector<NodeId> all;
    for (NodeId n = 0; n < nodes; ++n) all.push_back(n);
    c.run_for(millis(500));
    ASSERT_TRUE(c.converged(all));
    std::vector<GcStats> before;
    for (NodeId n : all) before.push_back(c.gc(n).stats());
    std::int64_t k = 0;
    every_member_sends(c, nodes, k, millis(10), millis(100));
    c.run_for(seconds(1));  // drain the backlog
    const auto sent = static_cast<std::uint64_t>(k * nodes);
    for (NodeId n : all) {
      const GcStats& now = c.gc(n).stats();
      const GcStats& was = before[static_cast<std::size_t>(n)];
      const std::uint64_t delivered = now.safe_deliveries - was.safe_deliveries;
      ASSERT_EQ(delivered, sent) << nodes << " members, node " << n;
      if (n == 0) continue;  // the sequencer receives no ORDERED
      const std::uint64_t packets = now.ordered_received - was.ordered_received;
      if (nodes > 16) {
        EXPECT_LT(packets, delivered) << "node " << n << " received no packed frames";
        EXPECT_EQ(now.max_frames_per_packet, 2u) << "node " << n;
      } else {
        EXPECT_EQ(packets, delivered) << "node " << n;
        EXPECT_EQ(now.max_frames_per_packet, 1u) << "node " << n;
      }
    }
    EXPECT_EQ(c.gc(0).stats().messages_ordered - before[0].messages_ordered, sent);
    c.check_all_invariants();
  }
}

TEST(GcRegression, HeldDataAtGatherIsOrderedOnceInTheNextConfiguration) {
  // Node 5 sends two DATA back to back; the sequencer of the 20-member
  // group holds the first while the second waits on its CPU. A partition
  // starts the gather at that instant: the held DATA has no sequence number
  // and is dropped, and the second arrives in the gather and is dropped
  // too. Neither is ordered in the old configuration; node 5 re-sends both,
  // and every member of the next configuration delivers each exactly once,
  // in FIFO order, there.
  constexpr NodeId kNodes = 20;
  NetworkParams params;
  params.detect_delay = 0;  // the gather starts at the partition's instant
  GcCluster c(kNodes, 7, params);
  std::vector<NodeId> all, majority;
  for (NodeId n = 0; n < kNodes; ++n) {
    all.push_back(n);
    if (n != kNodes - 1) majority.push_back(n);
  }
  c.run_for(millis(500));
  ASSERT_TRUE(c.converged(all));
  const ConfigId old_config = c.gc(0).config().id;
  const GcStats was = c.gc(0).stats();

  c.multicast(5, 1);
  c.multicast(5, 2);
  auto held = [&c, &was] {
    const GcStats& now = c.gc(0).stats();
    return now.data_received - was.data_received == 1 &&
           now.messages_ordered == was.messages_ordered;
  };
  for (int step = 0; step < 10'000 && !held(); ++step) c.sim().run(1);
  ASSERT_TRUE(held()) << "the sequencer never held the first DATA";
  c.net().set_components({majority, {kNodes - 1}});
  c.run_for(seconds(1));
  ASSERT_TRUE(c.converged(majority));
  // Two DATA in the old configuration (one held, one met the gather), two re-sent.
  EXPECT_EQ(c.gc(0).stats().data_received - was.data_received, 4u);

  for (NodeId n : majority) {
    std::vector<std::int64_t> got;
    for (const auto& d : c.record(n).deliveries) {
      const auto [sender, k] = parse_payload(d.payload);
      if (sender != 5) continue;
      EXPECT_FALSE(d.config == old_config) << "node " << n << " k" << k;
      EXPECT_TRUE(d.config == c.gc(n).config().id) << "node " << n << " k" << k;
      got.push_back(k);
    }
    EXPECT_EQ(got, (std::vector<std::int64_t>{1, 2})) << "node " << n;
  }
  c.check_all_invariants();
}

TEST(GcRegression, HeldDataGoesOutWhenTheNextReceiptIsNotGc) {
  // The receipt a held DATA waits for may belong to another channel. The
  // sequencer then sends it once its CPU is idle, rather than at the next
  // gc receipt, which in a quiet group never comes.
  constexpr NodeId kNodes = 20;
  NetworkParams params;
  params.jitter = 0;  // the DATA arrives first, the larger direct packet right after
  GcCluster c(kNodes, 7, params);
  std::vector<NodeId> all;
  for (NodeId n = 0; n < kNodes; ++n) all.push_back(n);
  c.run_for(millis(500));
  ASSERT_TRUE(c.converged(all));
  const std::uint64_t ordered = c.gc(0).stats().messages_ordered;
  c.multicast(5, 1);
  c.net().send(6, 0, Bytes(200), Channel::kDirect);
  c.run_for(millis(50));
  EXPECT_EQ(c.gc(0).stats().messages_ordered, ordered + 1);
  for (NodeId n : all) {
    const auto& ds = c.record(n).deliveries;
    ASSERT_FALSE(ds.empty()) << "node " << n;
    EXPECT_EQ(parse_payload(ds.back().payload), std::make_pair(NodeId{5}, std::int64_t{1}))
        << "node " << n;
  }
  c.check_all_invariants();
}

}  // namespace
}  // namespace tordb::gc
