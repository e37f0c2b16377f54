#include "layers.h"

#include <algorithm>

namespace tordb_bench {

using namespace tordb;

void LayerCounters::add_engine(core::ReplicationEngine& e) {
  const core::EngineStats& s = e.stats();
  engine.actions_created += s.actions_created;
  engine.actions_red += s.actions_red;
  engine.actions_green += s.actions_green;
  engine.actions_white_trimmed += s.actions_white_trimmed;
  engine.exchanges += s.exchanges;
  engine.primaries_installed += s.primaries_installed;
  engine.cpc_sent += s.cpc_sent;
  engine.green_retrans_sent += s.green_retrans_sent;
  engine.red_retrans_sent += s.red_retrans_sent;
  engine.retrans_received += s.retrans_received;
  engine.replies += s.replies;
  engine.snapshots_sent += s.snapshots_sent;
  engine.announces_sent += s.announces_sent;
  engine.announces_received += s.announces_received;
  engine.announces_suppressed += s.announces_suppressed;
  engine.persist_batches += s.persist_batches;
  engine.persist_batch_actions += s.persist_batch_actions;
  engine.persist_batch_max = std::max(engine.persist_batch_max, s.persist_batch_max);

  const gc::GcStats& g = e.group_comm().stats();
  gc.messages_ordered += g.messages_ordered;
  gc.deliveries += g.deliveries;
  gc.safe_deliveries += g.safe_deliveries;
  gc.transitional_deliveries += g.transitional_deliveries;
  gc.regular_configs += g.regular_configs;
  gc.transitional_configs += g.transitional_configs;
  gc.gathers_started += g.gathers_started;
  gc.retransmissions += g.retransmissions;
  gc.resent_after_install += g.resent_after_install;
}

LayerCounters sample_layers(const std::vector<core::ReplicaNode*>& nodes,
                            const Network& net, const Simulator& sim,
                            const LayerCounters& retired) {
  LayerCounters c = retired;
  c.events = sim.executed_events();
  c.windows = sim.lanes_enabled() ? sim.windows_run() : 0;
  c.handoffs = sim.lanes_enabled() ? sim.handoffs_posted() : 0;
  c.net = net.stats();
  for (core::ReplicaNode* n : nodes) {
    // Storage survives crashes (it is the node's disk), so every node counts.
    const StorageStats& st = n->storage().stats();
    c.storage.appends += st.appends;
    c.storage.syncs_requested += st.syncs_requested;
    c.storage.forces += st.forces;
    c.storage.records_lost_in_crash += st.records_lost_in_crash;
    if (n->running()) c.add_engine(n->engine());
  }
  return c;
}

void layer_metrics(const LayerCounters& b, const LayerCounters& a, double committed,
                   double sim_seconds, MetricMap& out) {
  auto d = [](std::uint64_t after, std::uint64_t before) {
    return static_cast<double>(after - before);
  };
  const double events = d(a.events, b.events);
  const double windows = d(a.windows, b.windows);
  out["sim.events_per_action"] = {ratio(events, committed), "count"};
  out["sim.lanes.windows"] = {windows, "count"};
  out["sim.lanes.handoffs"] = {d(a.handoffs, b.handoffs), "count"};
  out["sim.lanes.events_per_window"] = {ratio(events, windows), "count"};

  const double hits = d(a.net.reachable_cache_hits, b.net.reachable_cache_hits);
  const double misses = d(a.net.reachable_cache_misses, b.net.reachable_cache_misses);
  out["net.messages_per_action"] = {ratio(d(a.net.messages_sent, b.net.messages_sent), committed),
                                    "count"};
  out["net.bytes_per_action"] = {ratio(d(a.net.bytes_sent, b.net.bytes_sent), committed), "bytes"};
  out["net.dropped"] = {d(a.net.messages_dropped, b.net.messages_dropped), "count"};
  out["net.payload_bytes_copied"] = {d(a.net.payload_bytes_copied, b.net.payload_bytes_copied),
                                     "bytes"};
  out["net.reachable_cache_hit_ratio"] = {ratio(hits, hits + misses), "ratio"};

  out["storage.forces_per_action"] = {ratio(d(a.storage.forces, b.storage.forces), committed),
                                      "count"};
  out["storage.appends_per_action"] = {ratio(d(a.storage.appends, b.storage.appends), committed),
                                       "count"};
  out["storage.records_lost_in_crash"] = {
      d(a.storage.records_lost_in_crash, b.storage.records_lost_in_crash), "count"};

  out["gc.ordered_per_action"] = {
      ratio(d(a.gc.messages_ordered, b.gc.messages_ordered), committed), "count"};
  out["gc.safe_deliveries_per_action"] = {
      ratio(d(a.gc.safe_deliveries, b.gc.safe_deliveries), committed), "count"};
  out["gc.retransmissions"] = {d(a.gc.retransmissions, b.gc.retransmissions), "count"};
  out["gc.regular_configs"] = {d(a.gc.regular_configs, b.gc.regular_configs), "count"};
  out["gc.transitional_configs"] = {d(a.gc.transitional_configs, b.gc.transitional_configs),
                                    "count"};
  out["gc.gathers_started"] = {d(a.gc.gathers_started, b.gc.gathers_started), "count"};

  const core::EngineStats& ea = a.engine;
  const core::EngineStats& eb = b.engine;
  const double sent = d(ea.announces_sent, eb.announces_sent);
  const double suppressed = d(ea.announces_suppressed, eb.announces_suppressed);
  out["core.announces_sent_per_s"] = {ratio(sent, sim_seconds), "1/s"};
  out["core.announces_suppressed_ratio"] = {ratio(suppressed, sent + suppressed), "ratio"};
  out["core.persist_batch_mean"] = {
      ratio(d(ea.persist_batch_actions, eb.persist_batch_actions),
            d(ea.persist_batches, eb.persist_batches)),
      "actions"};
  out["core.exchanges"] = {d(ea.exchanges, eb.exchanges), "count"};
  out["core.primaries_installed"] = {d(ea.primaries_installed, eb.primaries_installed), "count"};
  out["core.retrans_sent"] = {
      d(ea.green_retrans_sent + ea.red_retrans_sent, eb.green_retrans_sent + eb.red_retrans_sent),
      "count"};
  out["core.snapshots_sent"] = {d(ea.snapshots_sent, eb.snapshots_sent), "count"};
  out["core.white_trimmed_ratio"] = {
      ratio(d(ea.actions_white_trimmed, eb.actions_white_trimmed),
            d(ea.actions_green, eb.actions_green)),
      "ratio"};
}

void db_metrics(const std::vector<core::ReplicaNode*>& nodes, MetricMap& out) {
  double rehashes = 0, interned = 0, slots = 0;
  for (core::ReplicaNode* n : nodes) {
    if (!n->running()) continue;
    const db::DbStats s = n->engine().database().stats();
    rehashes += static_cast<double>(s.table_rehashes);
    interned += static_cast<double>(s.interned_keys);
    slots += static_cast<double>(s.table_slots);
  }
  out["db.table_rehashes"] = {rehashes, "count"};
  out["db.interned_keys"] = {interned, "count"};
  out["db.table_slots"] = {slots, "count"};
}

void router_metrics(const shard::RouterStats& b, const shard::Router& router, MetricMap& out) {
  const shard::RouterStats& a = router.stats();
  const double single = static_cast<double>(a.routed_single - b.routed_single);
  const double cross = static_cast<double>(a.routed_cross - b.routed_cross);
  out["router.cross_share"] = {ratio(cross, single + cross), "ratio"};
  out["router.failovers"] = {static_cast<double>(a.failovers - b.failovers), "count"};
  out["router.fenced_bounces"] = {static_cast<double>(a.fenced_bounces - b.fenced_bounces),
                                  "count"};
  const auto& rc = router.directory().route_cache_stats();
  out["directory.route_cache_hit_ratio"] = {
      ratio(static_cast<double>(rc.hits), static_cast<double>(rc.hits + rc.misses)), "ratio"};
}

void registry_metrics(obs::MetricsRegistry& registry, MetricMap& out) {
  auto quantiles = [&](const std::string& name, const char* unit) {
    const obs::Histogram& h = registry.histogram(name);
    out[name + "_p50"] = {h.count() ? h.quantile(0.5) : 0.0, unit};
    out[name + "_p99"] = {h.count() ? h.quantile(0.99) : 0.0, unit};
  };
  quantiles("engine.green_latency_ms", "ms");
  quantiles("engine.view_change_ms", "ms");
  quantiles("txn.prepare_decide_us", "us");
  quantiles("txn.barrier_wait_us", "us");
}

}  // namespace tordb_bench
