// shards100: 100 hash shards x 10 replicas behind shard::Router, 256
// closed-loop clients, ~95% single-shard puts and ~5% two-shard writes,
// lane mode on min(4, nproc) worker threads. Host time goes to the sim
// lane kernel and the router/session tier; each group's gc cost is small.
// The "bypass" case for announcement changes.
#include <memory>

#include "layers.h"
#include "workload/sharded_cluster.h"
#include "workloads.h"

namespace tordb_bench {
namespace {

using namespace tordb;

constexpr int kShards = 100;
constexpr int kReplicasPerShard = 10;
constexpr int kClients = 256;
constexpr int kSlots = 8;
constexpr int kCrossPercent = 5;
constexpr SimDuration kForm = seconds(2);
constexpr SimDuration kWarmup = millis(500);
constexpr SimDuration kWindow = millis(1500);
constexpr SimDuration kDrainLimit = seconds(10);
// A reply means green at one replica per shard; the others may trail.
constexpr SimDuration kConvergeLimit = seconds(5);
constexpr const char* kPrefix = "s";

class Shards100 {
 public:
  explicit Shards100(const RunConfig& cfg) : cfg_(cfg), spans_(*cfg.spans) {}

  Rep run() {
    workload::ShardedClusterOptions o;
    o.shards = kShards;
    o.replicas_per_shard = kReplicasPerShard;
    o.seed = cfg_.seed;
    o.sim_env = false;  // the environment must not change the schedule
    o.sim_lanes = true;
    o.sim_threads = cfg_.threads;
    // Windows as wide as the failure-detection delay (the widest the
    // cluster accepts), as the simulator scale sweep runs them.
    o.sim_handoff = o.net.detect_delay;
    if (cfg_.traced()) o.obs.metrics_window = millis(500);
    rep_.build_ms = timed_ms(spans_, "setup.build",
                             [&] { cluster_ = std::make_unique<workload::ShardedCluster>(o); });
    rep_.form_ms = timed_ms(spans_, "setup.form", [&] { cluster_->run_for(kForm); });
    for (int s = 0; s < kShards; ++s) {
      if (!cluster_->converged(s)) {
        rep_.violations.push_back("shards100: shard " + std::to_string(s) + " did not form");
        break;
      }
    }

    Simulator& sim = cluster_->sim();
    std::vector<core::ReplicaNode*> nodes;
    for (int s = 0; s < kShards; ++s) {
      for (int i = 0; i < kReplicasPerShard; ++i) nodes.push_back(&cluster_->node(s, i));
    }
    const LayerCounters before = sample_layers(nodes, cluster_->net(), sim, {});
    const shard::RouterStats router_before = cluster_->router().stats();

    for (int c = 0; c < kClients; ++c) {
      clients_.emplace_back(c, kSlots);
      rngs_.emplace_back(cfg_.seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(c));
      std::vector<int> shard_of;
      for (int slot = 0; slot < kSlots; ++slot) {
        shard_of.push_back(cluster_->directory().shard_of(clients_.back().key(kPrefix, slot)));
      }
      slot_shard_.push_back(std::move(shard_of));
    }

    Stepper step(sim, spans_);
    const SimTime load_start = sim.now();
    window_start_ = load_start + kWarmup;
    window_end_ = window_start_ + kWindow;
    for (int c = 0; c < kClients; ++c) issue(c);
    step.advance_to(window_start_);
    const std::int64_t g0 = total_green();
    step.advance_to(window_end_);
    const std::int64_t g1 = total_green();
    step.advance_until([&] { return outstanding_ == 0; }, window_end_ + kDrainLimit);
    rep_.run_host_ns = step.host_ns_total();
    rep_.run_events = step.events_total();
    rep_.run_sim = sim.now() - load_start;
    const LayerCounters after = sample_layers(nodes, cluster_->net(), sim, {});
    const bool converged = step.advance_until(
        [&] {
          for (int s = 0; s < kShards; ++s) {
            if (!cluster_->converged(s)) return false;
          }
          return true;
        },
        sim.now() + kConvergeLimit);

    common_sim_metrics(rep_, static_cast<double>(g1 - g0) / to_seconds(kWindow), latency_);
    layer_metrics(before, after, static_cast<double>(rep_.counts.committed),
                  to_seconds(rep_.run_sim), rep_.layers);
    rep_.layers["sim.peak_queue_depth"] = {static_cast<double>(sim.peak_queue_depth()), "count"};
    db_metrics(nodes, rep_.layers);
    router_metrics(router_before, cluster_->router(), rep_.layers);
    rep_.layers["router.barrier_wait_p50_ms"] = {barrier_.p50_ms(), "ms"};
    rep_.layers["router.barrier_wait_p99_ms"] = {barrier_.p99_ms(), "ms"};
    if (cluster_->metrics()) registry_metrics(*cluster_->metrics(), rep_.layers);

    {
      Spans::Scope s(spans_, "check_all");
      if (auto v = cluster_->check_all()) rep_.violations.push_back("shards100: " + *v);
    }
    if (!converged) rep_.violations.push_back("shards100: shards did not converge after the drain");
    check_acked_puts(
        "shards100", kPrefix, clients_,
        [&](const std::string& key) {
          const int s = cluster_->directory().shard_of(key);
          std::vector<core::ReplicaNode*> members;
          for (int i = 0; i < kReplicasPerShard; ++i) members.push_back(&cluster_->node(s, i));
          return members;
        },
        rep_.violations);
    return std::move(rep_);
  }

 private:
  std::int64_t total_green() const {
    std::int64_t g = 0;
    for (int s = 0; s < kShards; ++s) g += cluster_->green_count(s);
    return g;
  }

  void issue(int c) {
    Simulator& sim = cluster_->sim();
    if (sim.now() >= window_end_) return;
    const auto ci = static_cast<std::size_t>(c);
    PutClient& cl = clients_[ci];
    Rng& rng = rngs_[ci];
    const std::int64_t seq = ++cl.seq;
    const int first = static_cast<int>(rng.next_below(kSlots));
    int second = -1;
    if (static_cast<int>(rng.next_below(100)) < kCrossPercent) {
      // A second slot on another shard; the slot ring is scanned from a
      // seeded start so the pair is seeded too.
      const int start = static_cast<int>(rng.next_below(kSlots));
      for (int k = 0; k < kSlots && second < 0; ++k) {
        const int cand = (start + k) % kSlots;
        if (slot_shard_[ci][static_cast<std::size_t>(cand)] !=
            slot_shard_[ci][static_cast<std::size_t>(first)]) {
          second = cand;
        }
      }
    }
    db::Command cmd = db::Command::put(cl.key(kPrefix, first), cl.value(seq));
    cl.issued[static_cast<std::size_t>(first)] = seq;
    if (second >= 0) {
      cmd.ops.push_back(db::Op{db::OpType::kPut, cl.key(kPrefix, second), cl.value(seq), 0});
      cl.issued[static_cast<std::size_t>(second)] = seq;
    }
    ++rep_.counts.attempted;
    ++outstanding_;
    const SimTime t0 = sim.now();
    const std::uint64_t id = action_id(c, seq);
    Spans::Scope s(spans_, "router_submit", id);
    cluster_->router().submit(c, std::move(cmd),
                              [this, c, seq, first, second, t0, id](const shard::RouteReply& r) {
                                Spans::Scope cb(spans_, "reply", id);
                                on_reply(c, seq, first, second, t0, id, r);
                              });
  }

  void on_reply(int c, std::int64_t seq, int first, int second, SimTime t0, std::uint64_t id,
                const shard::RouteReply& r) {
    const SimTime now = cluster_->sim().now();
    spans_.sim_span("action", id, t0, now);
    if (r.shards_involved > 1) {
      spans_.sim_span("barrier_wait", id, now - r.barrier_wait, now);
      barrier_.record(r.barrier_wait);
    }
    --outstanding_;
    if (r.committed) {
      ++rep_.counts.committed;
      PutClient& cl = clients_[static_cast<std::size_t>(c)];
      cl.acked[static_cast<std::size_t>(first)] = seq;
      if (second >= 0) cl.acked[static_cast<std::size_t>(second)] = seq;
      if (now >= window_start_ && now < window_end_) latency_.record(now - t0);
    }
    issue(c);
  }

  const RunConfig& cfg_;
  Spans& spans_;
  Rep rep_;
  std::vector<PutClient> clients_;
  std::vector<Rng> rngs_;
  std::vector<std::vector<int>> slot_shard_;  ///< [client][slot] -> owning shard
  std::int64_t outstanding_ = 0;
  workload::LatencyStats latency_;
  workload::LatencyStats barrier_;
  SimTime window_start_ = 0;
  SimTime window_end_ = 0;
  std::unique_ptr<workload::ShardedCluster> cluster_;  ///< last: destroyed first
};

}  // namespace

Rep run_shards100(const RunConfig& cfg) { return Shards100(cfg).run(); }

}  // namespace tordb_bench
