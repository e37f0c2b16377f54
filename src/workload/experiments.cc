#include "workload/experiments.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <functional>
#include <memory>

#include "baselines/corel.h"
#include "baselines/twopc.h"
#include "db/database.h"
#include "util/rng.h"
#include "workload/cluster.h"
#include "workload/sharded_cluster.h"
#include "workload/stats.h"

namespace tordb::workload {

namespace {

/// "v<n>" via to_chars: the closed-loop drivers stamp every write with a
/// fresh value; this skips the std::to_string temporary and the concat.
/// The bytes are identical to "v" + std::to_string(n).
std::string value_tag(std::int64_t n) {
  char buf[24];
  buf[0] = 'v';
  const char* end = std::to_chars(buf + 1, buf + sizeof(buf), n).ptr;
  return std::string(static_cast<const char*>(buf), end);
}

/// One closed-loop client: issues the next action the moment the previous
/// one completes; records latency for completions inside the measure
/// window.
class ClosedLoopDriver {
 public:
  /// The client calls done(true) on success, done(false) on abort/timeout;
  /// only successes count toward throughput, but the loop always continues.
  using SubmitFn = std::function<void(std::function<void(bool)> done)>;

  ClosedLoopDriver(Simulator& sim, SimTime window_start, SimTime window_end)
      : sim_(sim), window_start_(window_start), window_end_(window_end) {}

  void add_client(SubmitFn submit) {
    clients_.push_back(std::move(submit));
    issue(clients_.size() - 1);
  }

  std::uint64_t completed_in_window() const { return completed_; }
  const LatencyStats& latencies() const { return stats_; }

 private:
  void issue(std::size_t idx) {
    const SimTime t0 = sim_.now();
    if (t0 >= window_end_) return;  // stop issuing after the window
    clients_[idx]([this, idx, t0](bool ok) {
      const SimTime now = sim_.now();
      if (ok && now >= window_start_ && now < window_end_) {
        ++completed_;
        stats_.record(now - t0);
      }
      issue(idx);
    });
  }

  Simulator& sim_;
  SimTime window_start_;
  SimTime window_end_;
  std::vector<SubmitFn> clients_;
  std::uint64_t completed_ = 0;
  LatencyStats stats_;
};

db::Command next_command(int client_id, std::int64_t& counter) {
  return db::Command::put("key-" + std::to_string(client_id),
                          "value-" + std::to_string(++counter));
}

// --- per-algorithm deployments ---------------------------------------------

struct DeployTopology {
  NetworkParams net;
  int sites = 1;
};

struct EngineDeployment {
  explicit EngineDeployment(int replicas, std::uint64_t seed, bool delayed,
                            DeployTopology topo = {}, ObsOptions obs = {},
                            bool announcements = true) {
    ClusterOptions o;
    o.replicas = replicas;
    o.seed = seed;
    o.net = topo.net;
    o.obs = obs;
    if (!announcements) o.node.engine.announce_interval = 0;
    if (delayed) o.node.storage.mode = SyncMode::kDelayed;
    cluster = std::make_unique<EngineCluster>(o);
    for (NodeId i = 0; i < replicas; ++i) {
      cluster->net().set_site(i, static_cast<int>(i) % topo.sites);
    }
    cluster->run_for(seconds(2));  // form the primary component
  }

  ClosedLoopDriver::SubmitFn client(int client_id) {
    const NodeId replica = static_cast<NodeId>(client_id % cluster->replicas());
    auto counter = std::make_shared<std::int64_t>(0);
    return [this, replica, client_id, counter](std::function<void(bool)> done) {
      cluster->engine(replica).submit(
          {}, next_command(client_id, *counter), client_id, core::Semantics::kStrict,
          [done = std::move(done)](const core::Reply& r) { done(!r.aborted); });
    };
  }

  std::unique_ptr<EngineCluster> cluster;
};

template <typename Replica, typename Params>
struct BaselineDeployment {
  BaselineDeployment(int replicas, std::uint64_t seed, Params params,
                     DeployTopology topo = {})
      : sim(seed), net(sim, topo.net) {
    std::vector<NodeId> all;
    for (NodeId i = 0; i < replicas; ++i) all.push_back(i);
    for (NodeId i = 0; i < replicas; ++i) {
      net.add_node(i);
      net.set_site(i, static_cast<int>(i) % topo.sites);
    }
    for (NodeId i = 0; i < replicas; ++i) {
      nodes.push_back(std::make_unique<Replica>(net, i, all, params));
    }
    sim.run_for(seconds(2));  // views settle (no-op for 2PC)
  }

  ClosedLoopDriver::SubmitFn client(int client_id) {
    Replica* replica = nodes[static_cast<std::size_t>(client_id) % nodes.size()].get();
    auto counter = std::make_shared<std::int64_t>(0);
    return [replica, client_id, counter](std::function<void(bool)> done) {
      replica->submit(next_command(client_id, *counter),
                      [done = std::move(done)](bool ok) { done(ok); });
    };
  }

  Simulator sim;
  Network net;
  std::vector<std::unique_ptr<Replica>> nodes;
};

using CorelDeployment = BaselineDeployment<baselines::CorelReplica, baselines::CorelParams>;
using TwoPcDeployment = BaselineDeployment<baselines::TwoPcReplica, baselines::TwoPcParams>;

template <typename Deployment>
ThroughputPoint run_throughput(Deployment& dep, Simulator& sim, Algorithm algorithm,
                               int replicas, int clients, SimDuration warmup,
                               SimDuration measure) {
  ClosedLoopDriver driver(sim, sim.now() + warmup, sim.now() + warmup + measure);
  for (int cidx = 0; cidx < clients; ++cidx) driver.add_client(dep.client(cidx));
  sim.run_for(warmup + measure + millis(100));
  ThroughputPoint p;
  p.algorithm = algorithm;
  p.replicas = replicas;
  p.clients = clients;
  p.completed = driver.completed_in_window();
  p.actions_per_second = static_cast<double>(p.completed) / to_seconds(measure);
  p.mean_latency_ms = driver.latencies().mean_ms();
  return p;
}

template <typename Deployment>
LatencyResult run_latency(Deployment& dep, Simulator& sim, Algorithm algorithm, int replicas,
                          int actions) {
  LatencyStats stats;
  auto submit = dep.client(0);
  int remaining = actions;
  std::function<void()> issue = [&] {
    if (remaining-- <= 0) return;
    const SimTime t0 = sim.now();
    submit([&, t0](bool) {
      stats.record(sim.now() - t0);
      issue();
    });
  };
  issue();
  sim.run(100'000'000);  // drain
  LatencyResult r;
  r.algorithm = algorithm;
  r.replicas = replicas;
  r.count = stats.count();
  r.mean_ms = stats.mean_ms();
  r.p50_ms = stats.p50_ms();
  r.p99_ms = stats.p99_ms();
  r.p999_ms = stats.p999_ms();
  return r;
}

/// Highest green count among a cluster's running engines (the group's
/// committed watermark — any lagging member converges to it).
std::int64_t max_green(EngineCluster& c) {
  std::int64_t g = 0;
  for (int i = 0; i < c.replicas(); ++i) {
    const NodeId id = static_cast<NodeId>(i);
    if (c.node(id).running()) g = std::max(g, c.engine(id).green_count());
  }
  return g;
}

double wall_ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

std::string to_string(Algorithm a) {
  switch (a) {
    case Algorithm::kEngine: return "engine(forced)";
    case Algorithm::kEngineDelayed: return "engine(delayed)";
    case Algorithm::kCorel: return "corel";
    case Algorithm::kTwoPc: return "2pc";
  }
  return "?";
}

ThroughputPoint measure_throughput(Algorithm algorithm, int replicas, int clients,
                                   SimDuration warmup, SimDuration measure,
                                   std::uint64_t seed) {
  switch (algorithm) {
    case Algorithm::kEngine:
    case Algorithm::kEngineDelayed: {
      EngineDeployment dep(replicas, seed, algorithm == Algorithm::kEngineDelayed);
      return run_throughput(dep, dep.cluster->sim(), algorithm, replicas, clients, warmup,
                            measure);
    }
    case Algorithm::kCorel: {
      CorelDeployment dep(replicas, seed, {});
      return run_throughput(dep, dep.sim, algorithm, replicas, clients, warmup, measure);
    }
    case Algorithm::kTwoPc: {
      TwoPcDeployment dep(replicas, seed, {});
      return run_throughput(dep, dep.sim, algorithm, replicas, clients, warmup, measure);
    }
  }
  return {};
}

namespace {
/// The counter columns benches print for engine time series.
const std::vector<std::string> kWindowColumns = {
    "engine.actions_green", "engine.primaries_installed", "storage.forces",
    "gc.safe_deliveries",   "net.messages",
};
}  // namespace

ThroughputPoint measure_engine_throughput_windowed(bool delayed, int replicas, int clients,
                                                   SimDuration warmup, SimDuration measure,
                                                   SimDuration window, std::uint64_t seed,
                                                   std::string* window_table) {
  ObsOptions obs;
  obs.metrics_window = window;
  EngineDeployment dep(replicas, seed, delayed, {}, obs);
  ThroughputPoint p =
      run_throughput(dep, dep.cluster->sim(), delayed ? Algorithm::kEngineDelayed : Algorithm::kEngine,
                     replicas, clients, warmup, measure);
  if (window_table != nullptr && dep.cluster->metrics()) {
    dep.cluster->roll_metrics();  // close the partial tail window
    *window_table += dep.cluster->metrics()->window_table(kWindowColumns);
  }
  return p;
}

LatencyResult measure_latency(Algorithm algorithm, int replicas, int actions,
                              std::uint64_t seed) {
  switch (algorithm) {
    case Algorithm::kEngine:
    case Algorithm::kEngineDelayed: {
      EngineDeployment dep(replicas, seed, algorithm == Algorithm::kEngineDelayed);
      return run_latency(dep, dep.cluster->sim(), algorithm, replicas, actions);
    }
    case Algorithm::kCorel: {
      CorelDeployment dep(replicas, seed, {});
      return run_latency(dep, dep.sim, algorithm, replicas, actions);
    }
    case Algorithm::kTwoPc: {
      TwoPcDeployment dep(replicas, seed, {});
      return run_latency(dep, dep.sim, algorithm, replicas, actions);
    }
  }
  return {};
}

ThroughputPoint measure_throughput_wan(Algorithm algorithm, int replicas, int clients,
                                       int sites, SimDuration inter_site_latency,
                                       SimDuration wan_per_byte, SimDuration warmup,
                                       SimDuration measure, std::uint64_t seed) {
  DeployTopology topo;
  topo.sites = sites;
  topo.net.inter_site_latency = inter_site_latency;
  topo.net.wan_per_byte = wan_per_byte;
  switch (algorithm) {
    case Algorithm::kEngine:
    case Algorithm::kEngineDelayed: {
      EngineDeployment dep(replicas, seed, algorithm == Algorithm::kEngineDelayed, topo);
      return run_throughput(dep, dep.cluster->sim(), algorithm, replicas, clients, warmup,
                            measure);
    }
    case Algorithm::kCorel: {
      CorelDeployment dep(replicas, seed, {}, topo);
      return run_throughput(dep, dep.sim, algorithm, replicas, clients, warmup, measure);
    }
    case Algorithm::kTwoPc: {
      TwoPcDeployment dep(replicas, seed, {}, topo);
      return run_throughput(dep, dep.sim, algorithm, replicas, clients, warmup, measure);
    }
  }
  return {};
}

ViewChangePoint measure_engine_under_view_changes(int replicas, int clients,
                                                  SimDuration change_period,
                                                  SimDuration measure, std::uint64_t seed,
                                                  SimDuration metrics_window,
                                                  std::string* window_table) {
  ObsOptions obs;
  obs.metrics_window = metrics_window;
  EngineDeployment dep(replicas, seed, /*delayed=*/false, {}, obs);
  EngineCluster& c = *dep.cluster;
  Simulator& sim = c.sim();

  // Periodically detach and re-attach the highest-id replica: each cycle is
  // two membership changes, each costing one end-to-end exchange round.
  std::uint64_t changes = 0;
  std::function<void()> cycle = [&] {
    if (change_period <= 0) return;
    std::vector<NodeId> rest;
    for (NodeId i = 0; i < replicas - 1; ++i) rest.push_back(i);
    c.partition({rest, {static_cast<NodeId>(replicas - 1)}});
    ++changes;
    sim.after(change_period / 2, [&] {
      c.heal();
      ++changes;
      sim.after(change_period / 2, cycle);
    });
  };
  const auto exchanges_before = c.engine(0).stats().exchanges;
  sim.after(change_period > 0 ? change_period : measure * 2, cycle);

  ClosedLoopDriver driver(sim, sim.now() + millis(500), sim.now() + millis(500) + measure);
  // Clients attach to replicas that stay in the majority.
  for (int cidx = 0; cidx < clients; ++cidx) {
    const NodeId replica = static_cast<NodeId>(cidx % (replicas - 1));
    auto counter = std::make_shared<std::int64_t>(0);
    driver.add_client([&c, replica, cidx, counter](std::function<void(bool)> done) {
      c.engine(replica).submit({}, next_command(cidx, *counter), cidx,
                               core::Semantics::kStrict,
                               [done = std::move(done)](const core::Reply& r) { done(!r.aborted); });
    });
  }
  sim.run_for(millis(500) + measure + millis(100));

  ViewChangePoint p;
  p.change_period = change_period;
  p.actions_per_second = static_cast<double>(driver.completed_in_window()) / to_seconds(measure);
  p.membership_changes = changes;
  p.end_to_end_rounds = c.engine(0).stats().exchanges - exchanges_before;
  for (NodeId i = 0; i < replicas; ++i) {
    p.persist_batches += c.engine(i).stats().persist_batches;
    p.persist_batch_actions += c.engine(i).stats().persist_batch_actions;
  }
  if (window_table != nullptr && c.metrics()) {
    c.roll_metrics();  // close the partial tail window
    std::vector<std::string> cols = kWindowColumns;
    cols.push_back("cluster.exchanges");
    *window_table += c.metrics()->window_table(cols);
  }
  return p;
}

SemanticsResult measure_semantics(int replicas, SimDuration partition_length,
                                  std::uint64_t seed) {
  EngineDeployment dep(replicas, seed, /*delayed=*/false);
  EngineCluster& c = *dep.cluster;
  Simulator& sim = c.sim();
  c.engine(0).submit({}, db::Command::put("k", "pre-partition"), 1, core::Semantics::kStrict,
                     nullptr);
  sim.run_for(millis(200));

  // Minority component: the last two replicas.
  std::vector<NodeId> majority, minority;
  for (NodeId i = 0; i < replicas - 2; ++i) majority.push_back(i);
  minority = {static_cast<NodeId>(replicas - 2), static_cast<NodeId>(replicas - 1)};
  c.partition({majority, minority});
  sim.run_for(millis(300));

  SemanticsResult r;
  const NodeId m = minority[0];

  SimTime t0 = sim.now();
  c.engine(m).submit_query(db::Command::get("k"), core::QueryMode::kWeak,
                           [&](const core::Reply&) { r.weak_query_ms = to_millis(sim.now() - t0); });
  sim.run_for(millis(50));

  t0 = sim.now();
  c.engine(m).submit_query(db::Command::get("k"), core::QueryMode::kDirty,
                           [&](const core::Reply&) { r.dirty_query_ms = to_millis(sim.now() - t0); });
  sim.run_for(millis(50));

  t0 = sim.now();
  bool commutative_done = false;
  c.engine(m).submit({}, db::Command::add("stock", -1), 1, core::Semantics::kCommutative,
                     [&](const core::Reply&) {
                       commutative_done = true;
                       r.commutative_update_ms = to_millis(sim.now() - t0);
                     });
  sim.run_for(millis(100));

  t0 = sim.now();
  bool strict_done = false;
  double strict_ms = 0;
  c.engine(m).submit({}, db::Command::put("k", "strict"), 1, core::Semantics::kStrict,
                     [&](const core::Reply&) {
                       strict_done = true;
                       strict_ms = to_millis(sim.now() - t0);
                     });
  sim.run_for(partition_length);
  r.strict_blocked_during_partition = !strict_done;
  c.heal();
  sim.run_for(seconds(5));
  r.strict_latency_ms = strict_done ? strict_ms : -1;
  (void)commutative_done;
  return r;
}

ScalingPoint measure_engine_scaling(int replicas, std::uint32_t action_padding, int clients,
                                    SimDuration warmup, SimDuration measure,
                                    std::uint64_t seed) {
  ClusterOptions o;
  o.replicas = replicas;
  o.seed = seed;
  o.node.engine.action_padding = action_padding;
  EngineCluster c(o);
  c.run_for(seconds(2));
  ClosedLoopDriver driver(c.sim(), c.sim().now() + warmup, c.sim().now() + warmup + measure);
  for (int cidx = 0; cidx < clients; ++cidx) {
    const NodeId replica = static_cast<NodeId>(cidx % replicas);
    auto counter = std::make_shared<std::int64_t>(0);
    driver.add_client([&c, replica, cidx, counter](std::function<void(bool)> done) {
      c.engine(replica).submit({}, next_command(cidx, *counter), cidx,
                               core::Semantics::kStrict,
                               [done = std::move(done)](const core::Reply& r) { done(!r.aborted); });
    });
  }
  c.run_for(warmup + measure + millis(100));
  ScalingPoint p;
  p.replicas = replicas;
  p.action_bytes = action_padding + 90;  // header + command overhead
  p.actions_per_second =
      static_cast<double>(driver.completed_in_window()) / to_seconds(measure);
  p.mean_latency_ms = driver.latencies().mean_ms();
  return p;
}

AvailabilityPoint measure_quorum_availability(bool dynamic_linear_voting, int replicas,
                                              SimDuration measure, std::uint64_t seed) {
  ClusterOptions o;
  o.replicas = replicas;
  o.seed = seed;
  o.node.engine.quorum_mode = dynamic_linear_voting ? core::QuorumMode::kDynamicLinearVoting
                                                    : core::QuorumMode::kStaticMajority;
  EngineCluster c(o);
  Simulator& sim = c.sim();
  c.run_for(seconds(2));

  // One closed-loop client per replica keeps offering work; commits count
  // only when some primary exists to order them.
  ClosedLoopDriver driver(sim, sim.now(), sim.now() + measure);
  for (int cidx = 0; cidx < replicas; ++cidx) {
    const NodeId replica = static_cast<NodeId>(cidx % replicas);
    auto counter = std::make_shared<std::int64_t>(0);
    driver.add_client([&c, replica, cidx, counter](std::function<void(bool)> done) {
      c.engine(replica).submit({}, next_command(cidx, *counter), cidx,
                               core::Semantics::kStrict,
                               [done = std::move(done)](const core::Reply& r) { done(!r.aborted); });
    });
  }

  // Cascading schedule: the connected component repeatedly shrinks by one
  // replica, then the network heals, in a fixed rhythm.
  const SimDuration phase = measure / (2 * replicas);
  std::vector<NodeId> all;
  for (NodeId i = 0; i < replicas; ++i) all.push_back(i);
  std::uint64_t sampled = 0, primary_samples = 0;
  const SimTime end = sim.now() + measure;
  int shrink = 0;
  SimTime next_change = sim.now() + phase;
  while (sim.now() < end) {
    c.run_for(millis(10));
    ++sampled;
    for (NodeId i = 0; i < replicas; ++i) {
      if (c.node(i).running() && c.engine(i).state() == core::EngineState::kRegPrim) {
        ++primary_samples;
        break;
      }
    }
    if (sim.now() >= next_change) {
      next_change = sim.now() + phase;
      ++shrink;
      if (shrink >= replicas - 1) {
        shrink = 0;
        c.heal();
      } else {
        // Keep replicas [shrink, n) together; isolate the rest singly.
        std::vector<std::vector<NodeId>> comps;
        std::vector<NodeId> survivors;
        for (NodeId i = static_cast<NodeId>(shrink); i < replicas; ++i) survivors.push_back(i);
        comps.push_back(survivors);
        for (NodeId i = 0; i < static_cast<NodeId>(shrink); ++i) comps.push_back({i});
        c.partition(comps);
      }
    }
  }

  AvailabilityPoint p;
  p.dynamic_linear_voting = dynamic_linear_voting;
  p.primary_availability =
      sampled ? static_cast<double>(primary_samples) / static_cast<double>(sampled) : 0;
  p.actions_committed = driver.completed_in_window();
  std::uint64_t installs = 0;
  for (NodeId i = 0; i < replicas; ++i) {
    if (c.node(i).running()) {
      installs = std::max(installs, c.engine(i).stats().primaries_installed);
    }
  }
  p.primaries_installed = installs;
  return p;
}

ShardingPoint measure_sharding(int shards, int replicas_per_shard, int clients,
                               double cross_ratio, SimDuration warmup, SimDuration measure,
                               std::uint64_t seed) {
  ShardedClusterOptions o;
  o.shards = shards;
  o.replicas_per_shard = replicas_per_shard;
  o.seed = seed;
  ShardedCluster cluster(o);
  cluster.run_for(seconds(2));  // every shard forms its primary component

  // Pre-bucket keys by owning shard so the workload can hit a target shard
  // under hash sharding (and measure an exact cross-shard ratio).
  std::vector<std::vector<std::string>> pool(static_cast<std::size_t>(shards));
  const std::size_t keys_per_shard = 64;
  for (int i = 0;; ++i) {
    std::string key = "key-" + std::to_string(i);
    auto& bucket = pool[static_cast<std::size_t>(cluster.directory().shard_of(key))];
    if (bucket.size() < keys_per_shard) bucket.push_back(std::move(key));
    bool full = true;
    for (const auto& b : pool) full = full && b.size() >= keys_per_shard;
    if (full) break;
  }

  Simulator& sim = cluster.sim();
  ClosedLoopDriver driver(sim, sim.now() + warmup, sim.now() + warmup + measure);
  auto barrier_sum = std::make_shared<double>(0);
  auto cross_committed = std::make_shared<std::uint64_t>(0);
  for (int c = 0; c < clients; ++c) {
    const int home = c % shards;
    // Per-client stream derived from the home shard's seed (satellite:
    // per-group seeds keep runs reproducible and shards uncorrelated).
    auto rng = std::make_shared<Rng>(cluster.shard_seed(home) +
                                     static_cast<std::uint64_t>(c) * 0x9e3779b97f4a7c15ULL);
    auto counter = std::make_shared<std::int64_t>(0);
    driver.add_client([&cluster, &pool, rng, counter, barrier_sum, cross_committed, c, home,
                       shards, cross_ratio](std::function<void(bool)> done) {
      const std::string value = value_tag(++*counter);
      db::Command cmd;
      const bool cross = shards > 1 && rng->chance(cross_ratio);
      if (cross) {
        const int other =
            (home + 1 + static_cast<int>(rng->next_below(static_cast<std::uint64_t>(shards - 1)))) %
            shards;
        const auto& ph = pool[static_cast<std::size_t>(home)];
        const auto& po = pool[static_cast<std::size_t>(other)];
        cmd.ops.push_back(db::Op{db::OpType::kPut, ph[rng->next_below(ph.size())], value, 0});
        cmd.ops.push_back(db::Op{db::OpType::kPut, po[rng->next_below(po.size())], value, 0});
      } else {
        const auto& ph = pool[static_cast<std::size_t>(home)];
        cmd.ops.push_back(db::Op{db::OpType::kPut, ph[rng->next_below(ph.size())], value, 0});
      }
      cluster.router().submit(
          c, std::move(cmd),
          [done = std::move(done), barrier_sum, cross_committed](const shard::RouteReply& r) {
            if (r.committed && r.shards_involved > 1) {
              ++*cross_committed;
              *barrier_sum += to_seconds(r.barrier_wait) * 1e3;
            }
            done(r.committed);
          });
    });
  }

  // Aggregate green throughput: sum of per-shard green watermarks over the
  // measure window (the acceptance metric for shard scaling).
  std::int64_t green_start = 0, green_end = 0;
  sim.after(warmup, [&] {
    for (int s = 0; s < shards; ++s) green_start += cluster.green_count(s);
  });
  sim.after(warmup + measure, [&] {
    for (int s = 0; s < shards; ++s) green_end += cluster.green_count(s);
  });
  cluster.run_for(warmup + measure + millis(200));

  ShardingPoint p;
  p.shards = shards;
  p.replicas_per_shard = replicas_per_shard;
  p.clients = clients;
  p.cross_ratio = cross_ratio;
  p.completed = driver.completed_in_window();
  p.actions_per_second = static_cast<double>(p.completed) / to_seconds(measure);
  p.green_per_second = static_cast<double>(green_end - green_start) / to_seconds(measure);
  p.mean_latency_ms = driver.latencies().mean_ms();
  p.cross_committed = *cross_committed;
  p.mean_barrier_ms = *cross_committed ? *barrier_sum / static_cast<double>(*cross_committed) : 0;
  return p;
}

SimScalePoint measure_sim_scale(int shards, int replicas_per_shard, int clients,
                                SimDuration warmup, SimDuration measure, std::uint64_t seed,
                                int sim_threads, bool announcements) {
  SimScalePoint p;
  p.shards = shards;
  p.replicas_per_shard = replicas_per_shard;
  p.total_replicas = shards * replicas_per_shard;
  p.clients = clients;
  p.sim_threads = shards > 1 ? sim_threads : 0;

  const auto wall_start = std::chrono::steady_clock::now();
  std::int64_t green_start = 0, green_end = 0;
  std::uint64_t completed = 0;
  double sim_seconds = 0;

  // Everything read from the deployment is captured before it leaves
  // scope (NetworkStats in particular aggregates lazily in lane mode).
  auto capture = [&p](Simulator& sim, const NetworkStats& ns) {
    p.peak_queue_depth = sim.peak_queue_depth();
    p.events = sim.executed_events();
    p.messages = ns.messages_sent;
    p.payload_bytes_copied = ns.payload_bytes_copied;
    p.reachable_cache_hits = ns.reachable_cache_hits;
    p.reachable_cache_misses = ns.reachable_cache_misses;
    if (sim.lanes_enabled()) {
      p.lane_windows = sim.windows_run();
      p.lane_handoffs = sim.handoffs_posted();
    }
  };

  if (shards == 1) {
    // Single engine group: the pure EVS data path (one sequencer, group-wide
    // multicasts, coalesced acks) with no router in front.
    EngineDeployment dep(replicas_per_shard, seed, /*delayed=*/false, {}, {}, announcements);
    p.setup_ms = wall_ms_since(wall_start);
    Simulator* sim = &dep.cluster->sim();
    ClosedLoopDriver driver(*sim, sim->now() + warmup, sim->now() + warmup + measure);
    for (int c = 0; c < clients; ++c) driver.add_client(dep.client(c));
    Network& net = dep.cluster->net();
    std::vector<SimDuration> busy_start;
    auto busy = [&net](int i) { return net.cpu_busy(static_cast<NodeId>(i)); };
    sim->after(warmup, [&] {
      green_start = max_green(*dep.cluster);
      for (int i = 0; i < replicas_per_shard; ++i) busy_start.push_back(busy(i));
    });
    sim->after(warmup + measure, [&] {
      green_end = max_green(*dep.cluster);
      auto util = [&](int i) {
        return static_cast<double>(busy(i) - busy_start[static_cast<std::size_t>(i)]) /
               static_cast<double>(measure);
      };
      p.sequencer_cpu_util = util(0);
      for (int i = 1; i < replicas_per_shard; ++i) {
        p.member_cpu_util = std::max(p.member_cpu_util, util(i));
      }
    });
    dep.cluster->run_for(warmup + measure + millis(200));
    completed = driver.completed_in_window();
    capture(*sim, dep.cluster->net().stats());
    sim_seconds = to_seconds(sim->now());
    p.wall_ms = wall_ms_since(wall_start);
  } else {
    ShardedClusterOptions o;
    o.shards = shards;
    o.replicas_per_shard = replicas_per_shard;
    o.seed = seed;
    // 0 = classic loop; >= 1 = lane mode (sim_lanes makes 1 worker still run
    // the lane scheduler — the baseline the thread sweep compares against).
    o.sim_lanes = sim_threads >= 1;
    o.sim_threads = std::max(1, sim_threads);
    // Maximum lookahead: windows as wide as the failure-detection delay,
    // the upper bound the cluster accepts. Wider windows amortize the
    // per-window pool rendezvous over more parallel work.
    o.sim_handoff = o.net.detect_delay;
    o.sim_env = false;  // this sweep pins its own thread counts
    if (!announcements) o.node.engine.announce_interval = 0;
    ShardedCluster cluster(o);
    cluster.run_for(seconds(2));  // every shard forms its primary component
    p.setup_ms = wall_ms_since(wall_start);
    Simulator* sim = &cluster.sim();
    ClosedLoopDriver driver(*sim, sim->now() + warmup, sim->now() + warmup + measure);
    // Key pool built once per shard — the drivers copy from it instead of
    // re-concatenating "key-<home>-<n>" per request. Bytes are identical,
    // so virtual time is unchanged.
    auto pool = std::make_shared<std::vector<std::vector<std::string>>>(
        static_cast<std::size_t>(shards));
    for (int s = 0; s < shards; ++s) {
      auto& bucket = (*pool)[static_cast<std::size_t>(s)];
      bucket.reserve(64);
      for (int n = 0; n < 64; ++n) {
        bucket.push_back("key-" + std::to_string(s) + "-" + std::to_string(n));
      }
    }
    for (int c = 0; c < clients; ++c) {
      const int home = c % shards;
      auto counter = std::make_shared<std::int64_t>(0);
      auto rng = std::make_shared<Rng>(cluster.shard_seed(home) +
                                       static_cast<std::uint64_t>(c) * 0x9e3779b97f4a7c15ULL);
      driver.add_client([&cluster, pool, rng, counter, c, home](std::function<void(bool)> done) {
        const auto& keys = (*pool)[static_cast<std::size_t>(home)];
        db::Command cmd =
            db::Command::put(keys[rng->next_below(keys.size())], value_tag(++*counter));
        cluster.router().submit(c, std::move(cmd),
                                [done = std::move(done)](const shard::RouteReply& r) {
                                  done(r.committed);
                                });
      });
    }
    sim->after(warmup, [&] {
      for (int s = 0; s < shards; ++s) green_start += cluster.green_count(s);
    });
    sim->after(warmup + measure, [&] {
      for (int s = 0; s < shards; ++s) green_end += cluster.green_count(s);
    });
    cluster.run_for(warmup + measure + millis(200));
    completed = driver.completed_in_window();
    capture(*sim, cluster.net().stats());
    sim_seconds = to_seconds(sim->now());
    p.wall_ms = wall_ms_since(wall_start);
  }

  p.completed = completed;
  p.green_per_second = static_cast<double>(green_end - green_start) / to_seconds(measure);
  p.events_per_wall_second =
      p.wall_ms > 0 ? static_cast<double>(p.events) / (p.wall_ms / 1e3) : 0;
  p.wall_ms_per_sim_second = sim_seconds > 0 ? p.wall_ms / sim_seconds : 0;
  return p;
}

RebalancePoint measure_rebalance(int shards, int replicas_per_shard, int clients, int moves,
                                 SimDuration warmup, SimDuration measure,
                                 std::uint64_t seed) {
  // Two-digit key space k00..k63 split uniformly across the shards, so each
  // range holds a comparable row population when the writers are uniform.
  const int kKeys = 64;
  auto key_of = [](int i) {
    std::string k = "k";
    k += static_cast<char>('0' + i / 10);
    k += static_cast<char>('0' + i % 10);
    return k;
  };
  ShardedClusterOptions o;
  o.shards = shards;
  o.replicas_per_shard = replicas_per_shard;
  o.seed = seed;
  for (int s = 1; s < shards; ++s) o.range_splits.push_back(key_of(kKeys * s / shards));
  o.session.max_attempts_per_request = 100000;
  ShardedCluster cluster(o);
  cluster.run_for(seconds(2));  // every shard forms its primary component

  Simulator& sim = cluster.sim();
  const SimTime window_start = sim.now() + warmup;
  const SimTime window_end = window_start + measure;

  struct State {
    LatencyStats steady, during_move;
    int moves_in_flight = 0;
    int moves_started = 0;
    double move_ms_sum = 0;
  };
  auto st = std::make_shared<State>();

  // Closed-loop writers over the whole key space; each completion is binned
  // by whether a move was in flight when it landed.
  auto loop = std::make_shared<std::function<void(int)>>();
  std::vector<std::shared_ptr<Rng>> rngs;
  for (int c = 0; c < clients; ++c) {
    rngs.push_back(std::make_shared<Rng>(seed * 0x9e3779b97f4a7c15ULL +
                                         static_cast<std::uint64_t>(c) * 48271 + 17));
  }
  *loop = [&cluster, &sim, st, loopp = loop.get(), rngs, key_of, window_start,
           window_end](int c) {
    const SimTime t0 = sim.now();
    if (t0 >= window_end) return;
    const std::string key = key_of(static_cast<int>(rngs[static_cast<std::size_t>(c)]->next_below(64)));
    cluster.router().submit(c, db::Command::add(key, 1),
                            [&sim, st, loopp, c, t0, window_start, window_end](
                                const shard::RouteReply& r) {
                              const SimTime now = sim.now();
                              if (r.committed && now >= window_start && now < window_end) {
                                (st->moves_in_flight > 0 ? st->during_move : st->steady)
                                    .record(now - t0);
                              }
                              (*loopp)(c);
                            });
  };
  for (int c = 0; c < clients; ++c) (*loop)(c);

  // Moves run back to back (with a short gap) from the window start: pick
  // ranges round-robin, always targeting the next shard over.
  const SimDuration gap = millis(200);
  auto do_move = std::make_shared<std::function<void()>>();
  *do_move = [&cluster, &sim, st, dm = do_move.get(), moves, shards, gap, window_end]() {
    if (st->moves_started >= moves || sim.now() >= window_end) return;
    const shard::Directory& dir = cluster.directory();
    const int r = st->moves_started % dir.range_count();
    const auto [lo, hi] = dir.range_bounds(r);
    const int to = (dir.range_owner(r) + 1) % shards;
    ++st->moves_started;
    ++st->moves_in_flight;
    const bool accepted = cluster.move_range(
        lo, hi, to, [&sim, st, dm, gap](const shard::MoveReport& rep) {
          --st->moves_in_flight;
          if (rep.ok) st->move_ms_sum += to_seconds(rep.duration) * 1e3;
          sim.after(gap, [dm] { (*dm)(); });
        });
    if (!accepted) {
      --st->moves_in_flight;
      sim.after(gap, [dm] { (*dm)(); });
    }
  };
  sim.after(warmup, [dm = do_move.get()] { (*dm)(); });

  cluster.run_for(warmup + measure + millis(200));
  // Drain in-flight moves and bounced commands past the window edge.
  for (int rounds = 0; !(cluster.router().idle() && cluster.rebalancer().idle()) && rounds < 120;
       ++rounds) {
    cluster.run_for(seconds(1));
  }

  const shard::RebalancerStats& rs = cluster.rebalancer().stats();
  RebalancePoint p;
  p.shards = shards;
  p.replicas_per_shard = replicas_per_shard;
  p.clients = clients;
  p.moves_requested = moves;
  p.moves_completed = rs.moves_completed;
  p.rows_moved = rs.rows_moved;
  p.bytes_moved = rs.bytes_moved;
  p.mean_move_ms = rs.moves_completed ? st->move_ms_sum / static_cast<double>(rs.moves_completed) : 0;
  p.final_epoch = cluster.directory_epoch();
  p.fenced_bounces = cluster.router().stats().fenced_bounces;
  p.steady_completed = st->steady.count();
  p.steady_p50_ms = st->steady.p50_ms();
  p.steady_p99_ms = st->steady.p99_ms();
  p.move_window_completed = st->during_move.count();
  p.move_window_p50_ms = st->during_move.p50_ms();
  p.move_window_p99_ms = st->during_move.p99_ms();
  return p;
}

}  // namespace tordb::workload
