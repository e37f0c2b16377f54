// group100: one engine group of 100 replicas, one closed-loop client per
// replica submitting strict ~200-byte puts straight to
// ReplicationEngine::submit, forced writes, classic scheduler. The
// large-group extreme: gc ordering/safe delivery and core announcements do
// O(n) to O(n^2) work per action, and nothing else (no router, txn, lanes).
#include <memory>

#include "layers.h"
#include "workload/cluster.h"
#include "workloads.h"

namespace tordb_bench {
namespace {

using namespace tordb;

constexpr int kReplicas = 100;
constexpr int kSlots = 8;
constexpr SimDuration kForm = seconds(2);
constexpr SimDuration kWarmup = millis(500);
// >= 1000 commits in the window at ~350 commits/s, so p99 has ten
// samples beyond it.
constexpr SimDuration kWindow = millis(3500);
constexpr SimDuration kDrainLimit = seconds(10);
// A reply means green at the client's replica; the others may trail.
constexpr SimDuration kConvergeLimit = seconds(5);
constexpr const char* kPrefix = "g";

class Group100 {
 public:
  explicit Group100(const RunConfig& cfg) : cfg_(cfg), spans_(*cfg.spans) {}

  Rep run() {
    workload::ClusterOptions o;
    o.replicas = kReplicas;
    o.seed = cfg_.seed;
    if (cfg_.traced()) o.obs.metrics_window = millis(500);
    rep_.build_ms = timed_ms(spans_, "setup.build",
                             [&] { cluster_ = std::make_unique<workload::EngineCluster>(o); });
    rep_.form_ms = timed_ms(spans_, "setup.form", [&] { cluster_->run_for(kForm); });
    if (!cluster_->converged_primary(cluster_->all_ids())) {
      rep_.violations.push_back("group100: primary component did not form");
    }

    Simulator& sim = cluster_->sim();
    std::vector<core::ReplicaNode*> nodes;
    for (NodeId id : cluster_->all_ids()) nodes.push_back(&cluster_->node(id));
    const LayerCounters before = sample_layers(nodes, cluster_->net(), sim, {});

    Stepper step(sim, spans_);
    const SimTime load_start = sim.now();
    window_start_ = load_start + kWarmup;
    window_end_ = window_start_ + kWindow;
    // Seeded inputs: each client's key slot sequence starts at a seeded
    // offset (the engine itself draws its jitter from the same seed).
    Rng rng(cfg_.seed ^ 0x67726f7570313030ULL);
    for (int c = 0; c < kReplicas; ++c) {
      clients_.emplace_back(c, kSlots);
      slot_offset_.push_back(static_cast<int>(rng.next_below(kSlots)));
    }
    for (int c = 0; c < kReplicas; ++c) issue(c);

    step.advance_to(window_start_);
    const std::int64_t g0 = max_green();
    step.advance_to(window_end_);
    const std::int64_t g1 = max_green();
    step.advance_until([&] { return outstanding_ == 0; }, window_end_ + kDrainLimit);
    rep_.run_host_ns = step.host_ns_total();
    rep_.run_events = step.events_total();
    rep_.run_sim = sim.now() - load_start;
    const LayerCounters after = sample_layers(nodes, cluster_->net(), sim, {});
    const bool converged = step.advance_until(
        [&] { return cluster_->converged_primary(cluster_->all_ids()); },
        sim.now() + kConvergeLimit);

    common_sim_metrics(rep_, static_cast<double>(g1 - g0) / to_seconds(kWindow), latency_);
    layer_metrics(before, after, static_cast<double>(rep_.counts.committed),
                  to_seconds(rep_.run_sim), rep_.layers);
    rep_.layers["sim.peak_queue_depth"] = {static_cast<double>(sim.peak_queue_depth()), "count"};
    db_metrics(nodes, rep_.layers);
    if (cluster_->metrics()) registry_metrics(*cluster_->metrics(), rep_.layers);

    {
      Spans::Scope s(spans_, "check_all");
      if (auto v = cluster_->check_all()) rep_.violations.push_back("group100: " + *v);
    }
    if (!converged) {
      rep_.violations.push_back("group100: replicas did not converge after the drain");
    }
    check_acked_puts("group100", kPrefix, clients_,
                     [&](const std::string&) { return nodes; }, rep_.violations);
    return std::move(rep_);
  }

 private:
  std::int64_t max_green() const {
    std::int64_t g = 0;
    for (NodeId id : cluster_->all_ids()) {
      g = std::max(g, cluster_->node(id).engine().green_count());
    }
    return g;
  }

  void issue(int c) {
    Simulator& sim = cluster_->sim();
    if (sim.now() >= window_end_) return;
    PutClient& cl = clients_[static_cast<std::size_t>(c)];
    const std::int64_t seq = ++cl.seq;
    const int slot = static_cast<int>((seq + slot_offset_[static_cast<std::size_t>(c)]) % kSlots);
    cl.issued[static_cast<std::size_t>(slot)] = seq;
    ++rep_.counts.attempted;
    ++outstanding_;
    const SimTime t0 = sim.now();
    const std::uint64_t id = action_id(c, seq);
    Spans::Scope s(spans_, "engine_submit", id);
    cluster_->engine(c).submit({}, db::Command::put(cl.key(kPrefix, slot), cl.value(seq)), c,
                               core::Semantics::kStrict,
                               [this, c, seq, slot, t0, id](const core::Reply& r) {
                                 Spans::Scope cb(spans_, "reply", id);
                                 on_reply(c, seq, slot, t0, id, r);
                               });
  }

  void on_reply(int c, std::int64_t seq, int slot, SimTime t0, std::uint64_t id,
                const core::Reply& r) {
    const SimTime now = cluster_->sim().now();
    spans_.sim_span("action", id, t0, now);
    --outstanding_;
    if (!r.aborted) {
      ++rep_.counts.committed;
      clients_[static_cast<std::size_t>(c)].acked[static_cast<std::size_t>(slot)] = seq;
      if (now >= window_start_ && now < window_end_) latency_.record(now - t0);
    }
    issue(c);
  }

  const RunConfig& cfg_;
  Spans& spans_;
  Rep rep_;
  std::vector<PutClient> clients_;
  std::vector<int> slot_offset_;
  std::int64_t outstanding_ = 0;
  workload::LatencyStats latency_;
  SimTime window_start_ = 0;
  SimTime window_end_ = 0;
  // Last member: destroyed first, while the state its callbacks reference
  // is still alive.
  std::unique_ptr<workload::EngineCluster> cluster_;
};

}  // namespace

Rep run_group100(const RunConfig& cfg) { return Group100(cfg).run(); }

}  // namespace tordb_bench
