// tpcc: the TPC-C five-transaction mix over 8 range shards x 3 replicas,
// 16 warehouses, 32 terminals, Zipf theta 0.99, 10% remote orders, 1%
// invalid items, lane mode on one worker. Weak and dirty reads run beside
// checked multi-key writes, so txn, db and the cross-shard barrier do most
// of the work. The terminals live inside tpcc::TpccDriver, so this
// workload has no per-action spans of its own (see manifest.json).
#include <memory>

#include "layers.h"
#include "workload/sharded_cluster.h"
#include "workload/tpcc/driver.h"
#include "workload/tpcc/schema.h"
#include "workloads.h"

namespace tordb_bench {
namespace {

using namespace tordb;
namespace tpcc = workload::tpcc;

constexpr int kShards = 8;
constexpr int kReplicasPerShard = 3;
constexpr SimDuration kForm = seconds(1);
constexpr SimDuration kWarmup = millis(500);
// >= 1000 new-order commits in the window.
constexpr SimDuration kWindow = seconds(4);
constexpr SimDuration kDrainLimit = seconds(20);

tpcc::TpccOptions tpcc_options(std::uint64_t seed) {
  tpcc::TpccOptions t;
  t.warehouses = 16;
  t.clients = 32;
  t.zipf_theta = 0.99;
  t.remote_fraction = 0.10;
  t.invalid_item_fraction = 0.01;
  t.seed = seed;
  return t;
}

}  // namespace

Rep run_tpcc(const RunConfig& cfg) {
  Spans& spans = *cfg.spans;
  Rep rep;
  const tpcc::TpccOptions topt = tpcc_options(cfg.seed);
  workload::ShardedClusterOptions o;
  o.shards = kShards;
  o.replicas_per_shard = kReplicasPerShard;
  o.seed = cfg.seed;
  o.range_splits = tpcc::warehouse_splits(topt.warehouses, kShards);
  o.sim_env = false;  // the environment must not change the schedule
  o.sim_lanes = true;
  o.sim_threads = 1;
  if (cfg.traced()) o.obs.metrics_window = millis(500);

  std::unique_ptr<workload::ShardedCluster> cluster;
  std::unique_ptr<tpcc::TpccDriver> driver;
  rep.build_ms = timed_ms(spans, "setup.build", [&] {
    cluster = std::make_unique<workload::ShardedCluster>(o);
    driver = std::make_unique<tpcc::TpccDriver>(*cluster, topt);
  });
  rep.form_ms = timed_ms(spans, "setup.form", [&] { cluster->run_for(kForm); });
  for (int s = 0; s < kShards; ++s) {
    if (!cluster->converged(s)) {
      rep.violations.push_back("tpcc: shard " + std::to_string(s) + " did not form");
      break;
    }
  }
  rep.load_ms = timed_ms(spans, "setup.load", [&] { driver->load(); });

  Simulator& sim = cluster->sim();
  std::vector<core::ReplicaNode*> nodes;
  for (int s = 0; s < kShards; ++s) {
    for (int i = 0; i < kReplicasPerShard; ++i) nodes.push_back(&cluster->node(s, i));
  }
  const LayerCounters before = sample_layers(nodes, cluster->net(), sim, {});
  const shard::RouterStats rb = cluster->router().stats();
  const txn::TxnStats tb = cluster->txn().stats();
  auto total_green = [&] {
    std::int64_t g = 0;
    for (int s = 0; s < kShards; ++s) g += cluster->green_count(s);
    return g;
  };

  Stepper step(sim, spans);
  const SimTime load_start = sim.now();
  const SimTime ws = load_start + kWarmup;
  const SimTime we = ws + kWindow;
  driver->start(ws, we);
  step.advance_to(ws);
  const std::int64_t g0 = total_green();
  step.advance_to(we);
  const std::int64_t g1 = total_green();
  step.advance_until([&] { return driver->idle(); }, we + kDrainLimit);
  rep.run_host_ns = step.host_ns_total();
  rep.run_events = step.events_total();
  rep.run_sim = sim.now() - load_start;

  for (int t = 0; t < tpcc::kTxnTypes; ++t) {
    const tpcc::TxnStats& s = driver->total(static_cast<tpcc::TxnType>(t));
    rep.counts.attempted += s.committed + s.aborted_check + s.aborted_fenced + s.aborted_other;
    rep.counts.committed += s.committed;
    // The only expected application abort: the injected invalid item.
    rep.counts.app_aborted += s.aborted_check;
  }
  const tpcc::TxnStats& new_order = driver->stats(tpcc::TxnType::kNewOrder);
  common_sim_metrics(rep, static_cast<double>(g1 - g0) / to_seconds(kWindow), new_order.latency);
  rep.sim["tpmc"] = {static_cast<double>(new_order.committed) / (to_seconds(kWindow) / 60.0),
                     "new-orders/min"};

  layer_metrics(before, sample_layers(nodes, cluster->net(), sim, {}),
                static_cast<double>(rep.counts.committed), to_seconds(rep.run_sim), rep.layers);
  rep.layers["sim.peak_queue_depth"] = {static_cast<double>(sim.peak_queue_depth()), "count"};
  db_metrics(nodes, rep.layers);
  router_metrics(rb, cluster->router(), rep.layers);
  const txn::TxnStats& ta = cluster->txn().stats();
  const double txn_committed = static_cast<double>(ta.committed - tb.committed);
  rep.layers["txn.prepares_per_commit"] = {
      ratio(static_cast<double>(ta.prepares - tb.prepares), txn_committed), "count"};
  rep.layers["txn.cancels"] = {static_cast<double>(ta.cancels - tb.cancels), "count"};
  rep.layers["txn.restarts"] = {static_cast<double>(ta.restarts - tb.restarts), "count"};
  rep.layers["txn.abort_check_share"] = {
      ratio(static_cast<double>(ta.aborted_check - tb.aborted_check),
            static_cast<double>(ta.begun - tb.begun)),
      "ratio"};
  if (const auto& registry = cluster->metrics()) {
    registry_metrics(*registry, rep.layers);
    // The router records every cross-shard RouteReply.barrier_wait here;
    // the TPC-C terminals own their replies, so this is where it is read.
    const obs::Histogram& h = registry->histogram("shard.cross.barrier_wait_us");
    rep.layers["router.barrier_wait_p50_ms"] = {h.count() ? h.quantile(0.5) / 1e3 : 0.0, "ms"};
    rep.layers["router.barrier_wait_p99_ms"] = {h.count() ? h.quantile(0.99) / 1e3 : 0.0, "ms"};
  }

  {
    Spans::Scope s(spans, "check_all");
    if (auto v = cluster->check_all()) rep.violations.push_back("tpcc: " + *v);
  }
  for (int s = 0; s < kShards; ++s) {
    if (!cluster->converged(s)) {
      rep.violations.push_back("tpcc: shard " + std::to_string(s) +
                               " did not converge after the drain");
      break;
    }
  }
  // Ledger identities, at every running replica of the owning shard.
  auto check_ledger = [&](const std::string& key, std::int64_t expected, const char* what) {
    const int s = cluster->directory().shard_of(key);
    for (int i = 0; i < kReplicasPerShard; ++i) {
      const core::ReplicaNode& n = cluster->node(s, i);
      if (!n.running()) continue;
      const std::string v = n.engine().database().get(key);
      const std::int64_t stored = v.empty() ? 0 : std::stoll(v);
      if (stored != expected) {
        rep.violations.push_back("tpcc: " + std::string(what) + " " + key + " is " +
                                 std::to_string(stored) + " at node " + std::to_string(n.id()) +
                                 ", TPC-C driver ledger " + std::to_string(expected));
        return;
      }
    }
  };
  for (int w = 0; w < topt.warehouses; ++w) {
    for (int d = 0; d < topt.districts; ++d) {
      check_ledger(tpcc::district_ytd_key(w, d), driver->payment_sum(w, d), "district ytd");
      check_ledger(tpcc::district_order_count_key(w, d), driver->admitted_new_orders(w, d),
                   "order count");
    }
  }
  if (driver->remote_unchecked() != 0) {
    rep.violations.push_back("tpcc: " + std::to_string(driver->remote_unchecked()) +
                             " remote new-orders ran without their item checks");
  }
  return rep;
}

}  // namespace tordb_bench
