#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "sim/network.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace tordb {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(millis(3), [&] { order.push_back(3); });
  sim.at(millis(1), [&] { order.push_back(1); });
  sim.at(millis(2), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), millis(3));
}

TEST(Simulator, SimultaneousEventsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) sim.at(millis(1), [&order, i] { order.push_back(i); });
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.after(millis(1), [&] {
    times.push_back(sim.now());
    sim.after(millis(1), [&] { times.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0], millis(1));
  EXPECT_EQ(times[1], millis(2));
}

TEST(Simulator, PastEventClampsToNow) {
  Simulator sim;
  sim.at(millis(5), [] {});
  sim.run();
  bool ran = false;
  sim.at(millis(1), [&] { ran = true; });  // in the past
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), millis(5));
}

TEST(Simulator, RunUntilAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.at(millis(2), [&] { ++fired; });
  sim.at(millis(10), [&] { ++fired; });
  sim.run_until(millis(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), millis(5));
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CancelableDoesNotFire) {
  Simulator sim;
  bool fired = false;
  Cancelable c = sim.after_cancelable(millis(1), [&] { fired = true; });
  c.cancel();
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, RunWithLimit) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.at(millis(i), [] {});
  EXPECT_EQ(sim.run(3), 3u);
  EXPECT_EQ(sim.run(), 2u);
}

TEST(Simulator, CancelledPopsDoNotCountAsExecuted) {
  Simulator sim;
  int fired = 0;
  std::vector<Cancelable> tokens;
  for (int i = 0; i < 10; ++i) {
    tokens.push_back(sim.after_cancelable(millis(i + 1), [&] { ++fired; }));
  }
  for (int i = 0; i < 10; i += 2) tokens[i].cancel();
  sim.at(millis(20), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 6);
  EXPECT_EQ(sim.executed_events(), 6u);
  // Every cancelled event was either skipped at the top or purged en masse;
  // none executed and none inflated the executed count.
  EXPECT_EQ(sim.cancelled_pops() + sim.purged_events(), 5u);
}

TEST(Simulator, RunLimitCountsOnlyLiveEvents) {
  Simulator sim;
  int fired = 0;
  auto dead1 = sim.after_cancelable(millis(1), [&] { ++fired; });
  sim.at(millis(2), [&] { ++fired; });
  auto dead2 = sim.after_cancelable(millis(3), [&] { ++fired; });
  sim.at(millis(4), [&] { ++fired; });
  sim.at(millis(5), [&] { ++fired; });
  dead1.cancel();
  dead2.cancel();
  // The limit is a budget of *live* events: skipped cancellations are free.
  EXPECT_EQ(sim.run(3), 3u);
  EXPECT_EQ(fired, 3);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, CancelledBacklogIsPurgedBeforeGrowth) {
  Simulator sim;
  std::vector<Cancelable> tokens;
  for (int i = 0; i < 200; ++i) {
    tokens.push_back(sim.after_cancelable(seconds(1) + millis(i), [] {}));
  }
  for (auto& t : tokens) t.cancel();
  EXPECT_EQ(sim.queue_depth(), 200u);  // lazily cancelled: still queued
  // The next schedule sees a queue dominated by dead entries and compacts
  // it in one pass instead of growing past it.
  sim.at(millis(1), [] {});
  EXPECT_EQ(sim.queue_depth(), 1u);
  EXPECT_EQ(sim.purged_events(), 200u);
  sim.run();
  EXPECT_EQ(sim.executed_events(), 1u);
  // Purged events never ran, so the clock stopped at the live event.
  EXPECT_EQ(sim.now(), millis(1));
}

TEST(Simulator, PurgePreservesFifoOrderOfSurvivors) {
  Simulator sim;
  std::vector<int> order;
  std::vector<Cancelable> tokens;
  for (int i = 0; i < 100; ++i) {
    tokens.push_back(sim.after_cancelable(millis(5), [] {}));
  }
  for (int i = 0; i < 10; ++i) sim.at(millis(5), [&order, i] { order.push_back(i); });
  for (auto& t : tokens) t.cancel();
  sim.at(millis(5), [&order] { order.push_back(10); });  // triggers the purge
  EXPECT_EQ(sim.peak_queue_depth(), 110u);
  sim.run();
  ASSERT_EQ(order.size(), 11u);
  // Same-time events keep exact schedule-order FIFO across the re-heapify.
  for (int i = 0; i <= 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

// ---------------------------------------------------------------------------

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : sim_(42), net_(sim_, quiet_params()) {
    for (NodeId n : {0, 1, 2, 3}) {
      net_.add_node(n);
      net_.set_packet_handler(n, [this, n](NodeId from, const Bytes& p) {
        received_.push_back({n, from, p});
      });
    }
  }

  static NetworkParams quiet_params() {
    NetworkParams p;
    p.jitter = 0;  // deterministic latencies for exact assertions
    return p;
  }

  struct Recv {
    NodeId at;
    NodeId from;
    Bytes payload;
  };

  Bytes payload(std::initializer_list<std::uint8_t> b) { return Bytes(b); }

  Simulator sim_;
  Network net_;
  std::vector<Recv> received_;
};

TEST_F(NetworkTest, DeliversBetweenConnectedNodes) {
  net_.send(0, 1, payload({1, 2, 3}));
  sim_.run();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].at, 1);
  EXPECT_EQ(received_[0].from, 0);
  EXPECT_EQ(received_[0].payload, payload({1, 2, 3}));
}

TEST_F(NetworkTest, SelfSendDelivered) {
  net_.send(2, 2, payload({9}));
  sim_.run();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].at, 2);
  EXPECT_EQ(received_[0].from, 2);
}

TEST_F(NetworkTest, LinkIsFifo) {
  for (std::uint8_t i = 0; i < 50; ++i) net_.send(0, 1, payload({i}));
  sim_.run();
  ASSERT_EQ(received_.size(), 50u);
  for (std::uint8_t i = 0; i < 50; ++i) EXPECT_EQ(received_[i].payload[0], i);
}

TEST_F(NetworkTest, PartitionBlocksTraffic) {
  net_.set_components({{0, 1}, {2, 3}});
  sim_.run();
  received_.clear();
  net_.send(0, 2, payload({1}));
  net_.send(0, 1, payload({2}));
  sim_.run();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].payload[0], 2);
}

TEST_F(NetworkTest, InFlightMessageLostOnPartition) {
  net_.send(0, 2, payload({7}));  // in flight...
  net_.set_components({{0, 1}, {2, 3}});  // ...when the network splits
  sim_.run();
  EXPECT_TRUE(received_.empty());
}

TEST_F(NetworkTest, MergeRestoresTraffic) {
  net_.set_components({{0, 1}, {2, 3}});
  sim_.run();
  net_.heal();
  net_.send(0, 3, payload({4}));
  sim_.run();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].at, 3);
}

TEST_F(NetworkTest, CrashedNodeReceivesNothing) {
  net_.crash(1);
  net_.send(0, 1, payload({1}));
  sim_.run();
  EXPECT_TRUE(received_.empty());
  EXPECT_FALSE(net_.alive(1));
}

TEST_F(NetworkTest, CrashedNodeSendsNothing) {
  net_.crash(0);
  net_.send(0, 1, payload({1}));
  sim_.run();
  EXPECT_TRUE(received_.empty());
}

TEST_F(NetworkTest, InFlightToCrashedNodeDropped) {
  net_.send(0, 1, payload({1}));
  net_.crash(1);  // crash while in flight
  sim_.run();
  EXPECT_TRUE(received_.empty());
}

TEST_F(NetworkTest, RecoveryAllowsTrafficAgain) {
  net_.crash(1);
  sim_.run();
  net_.recover(1);
  net_.send(0, 1, payload({1}));
  sim_.run();
  ASSERT_EQ(received_.size(), 1u);
}

TEST_F(NetworkTest, ReachableSetReflectsTopology) {
  net_.set_components({{0, 1, 2}, {3}});
  net_.crash(2);
  EXPECT_EQ(net_.reachable_set(0), (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(net_.reachable_set(3), (std::vector<NodeId>{3}));
  EXPECT_TRUE(net_.reachable_set(2).empty());
}

TEST_F(NetworkTest, ReachabilityNotificationOnChange) {
  std::vector<std::vector<NodeId>> seen;
  net_.set_reachability_handler(0, [&](const std::vector<NodeId>& r) { seen.push_back(r); });
  sim_.run();
  ASSERT_EQ(seen.size(), 1u);  // initial notification
  EXPECT_EQ(seen[0], (std::vector<NodeId>{0, 1, 2, 3}));
  net_.set_components({{0, 1}, {2, 3}});
  sim_.run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1], (std::vector<NodeId>{0, 1}));
}

TEST_F(NetworkTest, NotificationsCoalesce) {
  std::vector<std::vector<NodeId>> seen;
  net_.set_reachability_handler(0, [&](const std::vector<NodeId>& r) { seen.push_back(r); });
  sim_.run();
  seen.clear();
  // Two rapid changes within the detection delay produce one notification
  // with the final state.
  net_.set_components({{0, 1}, {2, 3}});
  net_.set_components({{0}, {1, 2, 3}});
  sim_.run();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], (std::vector<NodeId>{0}));
}

TEST_F(NetworkTest, ProcessingSerializesOnReceiver) {
  // Flood node 1; its busy horizon must extend beyond a single message cost.
  for (int i = 0; i < 100; ++i) net_.send(0, 1, Bytes(100));
  sim_.run();
  EXPECT_EQ(received_.size(), 100u);
  // 100 messages * (proc_per_message + 100 * proc_per_byte) of CPU.
  const SimDuration per = net_.params().proc_per_message + 100 * net_.params().proc_per_byte;
  EXPECT_GE(net_.busy_until(1), 100 * per);
}

TEST_F(NetworkTest, ReceiptQueuedSeesTheNextDatagram) {
  // An idle node has nothing queued. Two packets that arrive back to back
  // queue on node 1's CPU: while the first one's handler runs the second
  // waits, and while the second's runs nothing does, even after the
  // handler charges node 1 for a send.
  EXPECT_FALSE(net_.receipt_queued(1));
  std::vector<bool> queued;
  net_.set_packet_handler(1, [&](NodeId, const Bytes&) {
    queued.push_back(net_.receipt_queued(1));
    net_.send(1, 3, payload({7}));
  });
  net_.send(0, 1, payload({1, 2}));
  net_.send(2, 1, payload({3, 4}));
  sim_.run();
  EXPECT_EQ(queued, (std::vector<bool>{true, false}));
  EXPECT_FALSE(net_.receipt_queued(1));
  // Busy time counts both receipts and both sends, on the sim clock.
  const NetworkParams& p = net_.params();
  EXPECT_EQ(net_.cpu_busy(1), 2 * (p.proc_per_message + 2 * p.proc_per_byte) +
                                  2 * p.send_per_message);
  EXPECT_EQ(net_.cpu_busy(0), p.send_per_message);
}

TEST_F(NetworkTest, LatencyScalesWithSize) {
  SimTime t_small = 0, t_big = 0;
  net_.set_packet_handler(1, [&](NodeId, const Bytes& p) {
    if (p.size() < 100) {
      t_small = sim_.now();
    } else {
      t_big = sim_.now();
    }
  });
  const SimTime start_small = sim_.now();
  net_.send(0, 1, Bytes(10));
  sim_.run();
  const SimTime start_big = sim_.now();
  net_.send(0, 1, Bytes(10000));
  sim_.run();
  const SimDuration lat_small = t_small - start_small;
  const SimDuration lat_big = t_big - start_big;
  EXPECT_GT(lat_big - lat_small, net_.params().per_byte_latency * 9000);
}

TEST_F(NetworkTest, StatsCount) {
  net_.send(0, 1, payload({1}));
  net_.set_components({{0}, {1, 2, 3}});
  net_.send(0, 1, payload({2}));  // dropped
  sim_.run();
  EXPECT_EQ(net_.stats().messages_sent, 2u);
  EXPECT_GE(net_.stats().messages_dropped, 1u);
}

TEST_F(NetworkTest, LinkHorizonsSurviveStrideRegrowth) {
  // Packets in flight on every link among the first four nodes; 0 -> 1
  // carries a large one, so a later small packet on that link would
  // overtake it if its horizon were lost.
  net_.send(0, 1, Bytes(10000, 7));
  for (NodeId f : {0, 1, 2, 3}) {
    for (NodeId t : {0, 1, 2, 3}) {
      if (f != 0 || t != 1) net_.send(f, t, payload({1}));
    }
  }
  SimTime before[4][4];
  for (NodeId f = 0; f < 4; ++f) {
    for (NodeId t = 0; t < 4; ++t) {
      before[f][t] = net_.link_horizon(f, t);
      ASSERT_GT(before[f][t], 0) << f << "->" << t;
    }
  }
  // Grow until the row stride has been regrown at least twice; sparse ids
  // exercise the id -> index table too.
  const std::size_t stride0 = net_.link_stride();
  std::vector<NodeId> added;
  int regrowths = 0;
  for (NodeId id = 10; regrowths < 2; id += 3) {
    const std::size_t s = net_.link_stride();
    net_.add_node(id);
    net_.set_packet_handler(id, [this, id](NodeId from, const Bytes& p) {
      received_.push_back({id, from, p});
    });
    added.push_back(id);
    if (net_.link_stride() != s) ++regrowths;
  }
  EXPECT_GE(net_.link_stride(), 4 * stride0);
  for (NodeId f = 0; f < 4; ++f) {
    for (NodeId t = 0; t < 4; ++t) EXPECT_EQ(net_.link_horizon(f, t), before[f][t]) << f << "->" << t;
  }
  for (NodeId id : added) {
    EXPECT_EQ(net_.link_horizon(0, id), 0);
    EXPECT_EQ(net_.link_horizon(id, 1), 0);
  }
  // The same link again, by unicast and by multicast: both queue behind
  // the large packet.
  net_.send(0, 1, payload({2}));
  net_.multicast(0, {1, added.back()}, payload({3}));
  sim_.run();
  std::vector<std::uint8_t> on_link;
  for (const Recv& r : received_) {
    if (r.at == 1 && r.from == 0) on_link.push_back(r.payload.size() == 10000 ? 0 : r.payload[0]);
  }
  EXPECT_EQ(on_link, (std::vector<std::uint8_t>{0, 2, 3}));
  const auto at_new = std::count_if(received_.begin(), received_.end(),
                                    [&](const Recv& r) { return r.at == added.back(); });
  EXPECT_EQ(at_new, 1);
}

TEST(NetworkStandalone, LinkStrideGrowsGeometrically) {
  // Regrowing the link-horizon array per added node copies O(n^2) cells
  // each time, O(n^3) to build a deployment; a geometric stride keeps the
  // regrowths logarithmic in n.
  Simulator sim(1);
  Network net(sim);
  int regrowths = 0;
  for (NodeId n = 0; n < 1000; ++n) {
    const std::size_t s = net.link_stride();
    net.add_node(n);
    if (net.link_stride() != s) ++regrowths;
  }
  EXPECT_GE(net.link_stride(), 1000u);
  EXPECT_LE(net.link_stride(), 2000u);
  EXPECT_LE(regrowths, 11);  // ceil(log2(1000)) + 1
}

TEST(NetworkStandalone, MulticastReachesAllListed) {
  Simulator sim(1);
  Network net(sim);
  std::vector<NodeId> got;
  for (NodeId n : {0, 1, 2}) {
    net.add_node(n);
    net.set_packet_handler(n, [&got, n](NodeId, const Bytes&) { got.push_back(n); });
  }
  net.multicast(0, {0, 1, 2}, Bytes{1});
  sim.run();
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<NodeId>{0, 1, 2}));
}

// ---------------------------------------------------------------------------
// Lane scheduler (DESIGN.md §15): conservative windows, handoffs, LaneScope.
// ---------------------------------------------------------------------------

TEST(SimulatorLanes, EnableLanesRejectsBadConfigs) {
  Simulator scheduled(1);
  scheduled.after(millis(1), [] {});
  EXPECT_THROW(scheduled.enable_lanes(2, 1, millis(1)), std::logic_error);

  Simulator sim(1);
  EXPECT_THROW(sim.enable_lanes(1, 1, millis(1)), std::invalid_argument);  // < 2 lanes
  EXPECT_THROW(sim.enable_lanes(2, 0, millis(1)), std::invalid_argument);  // < 1 thread
  EXPECT_THROW(sim.enable_lanes(2, 1, 0), std::invalid_argument);          // no lookahead
  sim.enable_lanes(2, 1, millis(1));
  EXPECT_THROW(sim.enable_lanes(2, 1, millis(1)), std::logic_error);  // twice
}

TEST(SimulatorLanes, PostExecutesInTargetLaneAtWindowBoundary) {
  Simulator sim(1);
  sim.enable_lanes(3, 1, millis(1));  // lanes 0,1 workers; lane 2 control
  int ran_in = -1;
  SimTime ran_at = -1;
  {
    Simulator::LaneScope scope(sim, 0);
    sim.after(micros(100), [&sim, &ran_in, &ran_at] {
      // Cross-lane effect from a running worker lane: must go via post()
      // with at least the handoff latency.
      sim.post(1, millis(1), [&sim, &ran_in, &ran_at] {
        ran_in = sim.current_lane();
        ran_at = sim.now();
      });
    });
  }
  sim.run();
  EXPECT_EQ(ran_in, 1);
  EXPECT_EQ(ran_at, micros(100) + millis(1));
}

TEST(SimulatorLanes, CrossLanePostBelowLookaheadThrows) {
  Simulator sim(1);
  sim.enable_lanes(3, 1, millis(1));
  bool threw = false;
  {
    Simulator::LaneScope scope(sim, 0);
    sim.after(micros(100), [&sim, &threw] {
      try {
        sim.post(1, micros(10), [] {});  // 10us < the 1ms lookahead
      } catch (const std::logic_error&) {
        threw = true;
      }
    });
  }
  sim.run();
  EXPECT_TRUE(threw);
}

TEST(SimulatorLanes, SameLanePostMayBeImmediate) {
  Simulator sim(1);
  sim.enable_lanes(3, 1, millis(1));
  bool ran = false;
  {
    Simulator::LaneScope scope(sim, 0);
    sim.after(micros(100), [&sim, &ran] {
      sim.post(0, 0, [&ran] { ran = true; });  // same lane: no lookahead needed
    });
  }
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(SimulatorLanes, CallInLaneDefersFromControlToWorker) {
  Simulator sim(1);
  sim.enable_lanes(3, 1, millis(1));
  std::vector<int> order;
  {
    Simulator::LaneScope scope(sim, 2);  // control lane
    sim.after(micros(100), [&sim, &order] {
      sim.call_in_lane(0, [&sim, &order] { order.push_back(sim.current_lane()); });
      order.push_back(100 + sim.current_lane());
    });
  }
  sim.run();
  // The hop runs after the control event finishes, on the worker lane.
  EXPECT_EQ(order, (std::vector<int>{102, 0}));
}

TEST(SimulatorLanes, DigestsIdenticalAcrossThreadCounts) {
  // A mesh of lanes pinging each other with seed-dependent payload work:
  // per-lane digests, executed counts and final clocks must not depend on
  // the worker thread count.
  auto run = [](int threads) {
    Simulator sim(7);
    sim.enable_lanes(5, threads, millis(1));  // 4 workers + control
    // tick outlives sim.run(): scheduled events capture it by reference.
    std::function<void(int, int)> tick = [&sim, &tick](int lane, int n) {
      if (n >= 25) return;
      sim.after(micros(10) * (lane + 1), [&sim, &tick, lane, n] {
        sim.post((lane + 1) % 4, millis(1) + micros(n), [] {});
        tick(lane, n + 1);
      });
    };
    for (int lane = 0; lane < 4; ++lane) {
      Simulator::LaneScope scope(sim, lane);
      tick(lane, 0);
    }
    sim.run();
    std::vector<std::uint64_t> out;
    for (int lane = 0; lane < 5; ++lane) {
      out.push_back(sim.lane_digest(lane));
      out.push_back(sim.lane_executed(lane));
      out.push_back(static_cast<std::uint64_t>(sim.lane_now(lane)));
    }
    out.push_back(sim.windows_run());
    out.push_back(sim.handoffs_posted());
    return out;
  };
  const auto serial = run(1);
  EXPECT_EQ(run(2), serial);
  EXPECT_EQ(run(8), serial);
}

// FIFO streams (DESIGN.md §10) must be a pure data-structure change: the
// same schedule, built from at() or from streams, executes in the same
// order with the same (time, seq) keys, queue depths and lane digests.

TEST(SimulatorStreams, QueuedStreamEventsCountAndRunInOrder) {
  Simulator sim;
  Simulator::Stream rx;
  std::vector<int> order;
  sim.at(rx, millis(1), [&order] { order.push_back(1); });
  sim.at(rx, millis(3), [&order] { order.push_back(3); });
  sim.at(rx, millis(3), [&order] { order.push_back(4); });  // tie: FIFO
  sim.at(millis(2), [&order] { order.push_back(2); });
  // An earlier time than the stream's tail (a crash-reset CPU horizon) is
  // still scheduled exactly, as a plain heap event.
  sim.at(rx, millis(0), [&order] { order.push_back(0); });
  EXPECT_EQ(sim.queue_depth(), 5u);
  EXPECT_EQ(sim.peak_queue_depth(), 5u);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(sim.queue_depth(), 0u);
  EXPECT_EQ(sim.executed_events(), 5u);
  EXPECT_TRUE(sim.idle());
}

/// A seeded, self-extending event mix on the current lane: plain events at
/// random times, and per-"node" events at nondecreasing times (the shape of
/// CPU receipts) with an occasional horizon reset, scheduled on streams or,
/// as the reference, with plain at().
class StreamMix {
 public:
  StreamMix(Simulator& sim, bool use_streams, std::uint64_t seed)
      : sim_(sim), use_streams_(use_streams), rng_(seed) {}

  void start() {
    for (int i = 0; i < 8; ++i) spawn();
  }
  const std::vector<int>& log() const { return log_; }

 private:
  static constexpr int kNodes = 4;
  static constexpr int kBudget = 3000;

  void spawn() {
    if (next_id_ >= kBudget) return;
    const int id = next_id_++;
    auto ev = [this, id] {
      log_.push_back(id);
      const auto fanout = rng_.next_below(4);  // grows until the budget
      for (std::uint64_t k = 0; k < fanout; ++k) spawn();
    };
    const auto kind = rng_.next_below(4);
    if (kind == 0) {
      sim_.at(sim_.now() + static_cast<SimTime>(rng_.next_below(50)), std::move(ev));
      return;
    }
    const auto node = static_cast<std::size_t>(rng_.next_below(kNodes));
    SimTime& horizon = horizon_[node];
    if (rng_.next_below(16) == 0) horizon = 0;  // crash: the horizon resets
    horizon = std::max(horizon, sim_.now()) + static_cast<SimTime>(rng_.next_below(4));
    if (use_streams_) {
      sim_.at(streams_[node], horizon, std::move(ev));
    } else {
      sim_.at(horizon, std::move(ev));
    }
  }

  Simulator& sim_;
  bool use_streams_;
  Rng rng_;
  Simulator::Stream streams_[kNodes];
  SimTime horizon_[kNodes] = {};
  std::vector<int> log_;
  int next_id_ = 0;
};

TEST(SimulatorStreams, MixedScheduleMatchesAllAt) {
  auto run = [](bool streams) {
    Simulator sim(3);
    StreamMix mix(sim, streams, 99);
    mix.start();
    const std::size_t ran = sim.run();
    return std::make_tuple(mix.log(), ran, sim.now(), sim.peak_queue_depth());
  };
  const auto reference = run(false);
  EXPECT_EQ(std::get<0>(reference).size(), 3000u);
  EXPECT_EQ(run(true), reference);
}

TEST(SimulatorStreams, MixedScheduleMatchesAllAtInLanes) {
  // Every worker lane runs its own mix; lane digests fold each executed
  // event's (time, seq), so they also pin the keys, not just the order.
  auto run = [](bool streams, int threads) {
    Simulator sim(5);
    sim.enable_lanes(5, threads, millis(1));  // 4 workers + control
    std::vector<std::unique_ptr<StreamMix>> mixes;
    for (int lane = 0; lane < 4; ++lane) {
      Simulator::LaneScope scope(sim, lane);
      mixes.push_back(std::make_unique<StreamMix>(sim, streams, 100 + lane));
      mixes.back()->start();
    }
    sim.run();
    std::vector<std::uint64_t> out;
    for (int lane = 0; lane < 4; ++lane) {
      EXPECT_EQ(mixes[static_cast<std::size_t>(lane)]->log().size(), 3000u);
      for (const int id : mixes[static_cast<std::size_t>(lane)]->log()) out.push_back(id);
      out.push_back(sim.lane_digest(lane));
      out.push_back(sim.lane_executed(lane));
      out.push_back(static_cast<std::uint64_t>(sim.lane_now(lane)));
    }
    out.push_back(sim.peak_queue_depth());
    out.push_back(sim.windows_run());
    return out;
  };
  const auto reference = run(false, 1);
  EXPECT_EQ(run(true, 1), reference);
  EXPECT_EQ(run(true, 4), reference);
  EXPECT_EQ(run(false, 4), reference);
}

TEST(SimulatorLanes, ClassicModeKeepsPostAndCallInline) {
  // Without enable_lanes, post() behaves like after() and call_in_lane()
  // runs inline — the classic path stays byte-identical.
  Simulator sim(1);
  std::vector<int> order;
  sim.call_in_lane(0, [&order] { order.push_back(1); });
  order.push_back(2);
  sim.post(0, millis(1), [&order] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(NetworkStandalone, ChargeDelaysDelivery) {
  Simulator sim(1);
  NetworkParams p;
  p.jitter = 0;
  Network net(sim, p);
  net.add_node(0);
  net.add_node(1);
  SimTime delivered = -1;
  net.set_packet_handler(1, [&](NodeId, const Bytes&) { delivered = sim.now(); });
  net.charge(1, millis(50));
  net.send(0, 1, Bytes{1});
  sim.run();
  EXPECT_GE(delivered, millis(50));
}

}  // namespace
}  // namespace tordb
