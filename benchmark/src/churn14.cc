// churn14: the paper's 14-replica group under an open loop at a fixed 500
// actions/s (~43% of the 1,167/s closed-loop capacity), submitted through
// 56 core::ClientSessions while a seeded fault schedule runs twice: minority
// partitions and heals, and crash/recover of a member and of the
// sequencer. Requests are timed from their due time. The only workload
// where gc membership/flush, core exchange/retransmission, storage
// recovery and session failover do the work.
#include <algorithm>
#include <memory>

#include "core/client_session.h"
#include "layers.h"
#include "workload/cluster.h"
#include "workloads.h"

namespace tordb_bench {
namespace {

using namespace tordb;

constexpr int kReplicas = 14;
// Four sessions per replica: a fault stalls the sessions whose current
// replica it hits, and with more sessions that share varies less by seed.
constexpr int kSessions = 4 * kReplicas;
constexpr int kSlots = 8;
constexpr SimDuration kInterval = millis(2);  // 500 requests/s
constexpr SimDuration kForm = seconds(2);
constexpr SimDuration kWarmup = millis(500);
// The fault cycle below runs kCycles times back to back in the window, so
// a run averages over several seeded victim choices.
constexpr SimDuration kCycle = seconds(8);
constexpr int kCycles = 2;
constexpr SimDuration kWindow = kCycle * kCycles;
constexpr SimDuration kSlo = millis(100);
// Sessions retry for up to 20 x 800 ms; everything is healed and recovered
// by the end of the window, so this leaves room for every retry.
constexpr SimDuration kDrainLimit = seconds(20);
constexpr SimDuration kConvergeLimit = seconds(5);
constexpr const char* kPrefix = "c";

enum class FaultKind { kPartition, kHeal, kCrashMember, kCrashSequencer, kRecover };
struct Fault {
  SimDuration at;  ///< offset from the cycle start
  FaultKind kind;
  int minority = 0;  ///< partition size
};
// One cycle. Fixed shape; the seed picks the victims. Every fault lasts
// longer than the sessions' 800 ms retry timeout, so each one makes the
// sessions it hits fail over.
const Fault kCycleFaults[] = {
    {millis(500), FaultKind::kPartition, 4},     {millis(1500), FaultKind::kHeal},
    {millis(2500), FaultKind::kCrashMember},     {millis(3500), FaultKind::kRecover},
    {millis(4500), FaultKind::kCrashSequencer},  {millis(5500), FaultKind::kRecover},
    {millis(6500), FaultKind::kPartition, 6},    {millis(7500), FaultKind::kHeal},
};

class Churn14 {
 public:
  explicit Churn14(const RunConfig& cfg)
      : cfg_(cfg), spans_(*cfg.spans), rng_(cfg.seed ^ 0x636875726e3134ULL) {}

  Rep run() {
    workload::ClusterOptions o;
    o.replicas = kReplicas;
    o.seed = cfg_.seed;
    if (cfg_.traced()) o.obs.metrics_window = millis(500);
    rep_.build_ms = timed_ms(spans_, "setup.build", [&] {
      cluster_ = std::make_unique<workload::EngineCluster>(o);
      for (int s = 0; s < kSessions; ++s) {
        // Session s prefers replica s mod 14 and fails over around the ring.
        std::vector<core::ReplicaNode*> ring;
        for (int k = 0; k < kReplicas; ++k) ring.push_back(&cluster_->node((s + k) % kReplicas));
        sessions_.push_back(
            std::make_unique<core::ClientSession>(cluster_->sim(), std::move(ring), s + 1));
        clients_.emplace_back(s + 1, kSlots);
      }
    });
    rep_.form_ms = timed_ms(spans_, "setup.form", [&] { cluster_->run_for(kForm); });
    if (!cluster_->converged_primary(cluster_->all_ids())) {
      rep_.violations.push_back("churn14: primary component did not form");
    }

    Simulator& sim = cluster_->sim();
    for (NodeId id : cluster_->all_ids()) nodes_.push_back(&cluster_->node(id));
    const LayerCounters before = sample_layers(nodes_, cluster_->net(), sim, retired_);

    Stepper step(sim, spans_);
    const SimTime load_start = sim.now();
    window_start_ = load_start + kWarmup;
    window_end_ = window_start_ + kWindow;
    sim.after(0, [this] { arrive(); });
    for (int c = 0; c < kCycles; ++c) {
      for (const Fault& f : kCycleFaults) {
        step.advance_to(window_start_ + c * kCycle + f.at);
        inject(f);
      }
    }
    step.advance_to(window_end_);
    step.advance_until([&] { return outstanding_ == 0; }, window_end_ + kDrainLimit);
    rep_.run_host_ns = step.host_ns_total();
    rep_.run_events = step.events_total();
    rep_.run_sim = sim.now() - load_start;
    const LayerCounters after = sample_layers(nodes_, cluster_->net(), sim, retired_);
    const bool converged = step.advance_until(
        [&] { return cluster_->converged_primary(cluster_->all_ids()); },
        sim.now() + kConvergeLimit);

    common_sim_metrics(rep_, static_cast<double>(green_end_ - green_start_) / to_seconds(kWindow),
                       latency_);
    rep_.sim["slo_miss_share"] = {
        ratio(static_cast<double>(slo_misses_ + rep_.counts.failed()),
              static_cast<double>(rep_.counts.attempted)),
        "ratio"};
    rep_.sim["outage_max_ms"] = {to_millis(outage_max()), "ms"};

    layer_metrics(before, after, static_cast<double>(rep_.counts.committed),
                  to_seconds(rep_.run_sim), rep_.layers);
    rep_.layers["sim.peak_queue_depth"] = {static_cast<double>(sim.peak_queue_depth()), "count"};
    db_metrics(nodes_, rep_.layers);
    double retries = 0, failovers = 0, duplicates = 0;
    for (const auto& s : sessions_) {
      retries += static_cast<double>(s->stats().retries);
      failovers += static_cast<double>(s->stats().failovers);
      duplicates += static_cast<double>(s->stats().duplicates_suppressed);
    }
    rep_.layers["session.retries"] = {retries, "count"};
    rep_.layers["session.failovers"] = {failovers, "count"};
    rep_.layers["session.duplicates_suppressed"] = {duplicates, "count"};
    if (cluster_->metrics()) registry_metrics(*cluster_->metrics(), rep_.layers);

    {
      Spans::Scope s(spans_, "check_all");
      if (auto v = cluster_->check_all()) rep_.violations.push_back("churn14: " + *v);
    }
    if (!converged) rep_.violations.push_back("churn14: replicas did not converge after the drain");
    // No write acknowledged green may be lost across the crashes and
    // recoveries: every replica, the recovered ones included, holds it.
    check_acked_puts("churn14", kPrefix, clients_,
                     [&](const std::string&) { return nodes_; }, rep_.violations);
    return std::move(rep_);
  }

 private:
  std::int64_t max_green() const {
    std::int64_t g = 0;
    for (core::ReplicaNode* n : nodes_) {
      if (n->running()) g = std::max(g, n->engine().green_count());
    }
    return g;
  }

  /// The open-loop generator: one request every kInterval of simulated
  /// time, to a seeded session, whatever the system's state. It runs on
  /// the simulated clock, so it is never late.
  void arrive() {
    Simulator& sim = cluster_->sim();
    const SimTime now = sim.now();
    if (now == window_start_) green_start_ = max_green();
    if (now >= window_end_) {
      green_end_ = max_green();
      return;
    }
    Spans::Scope span(spans_, "arrival");
    const auto s = static_cast<std::size_t>(rng_.next_below(kSessions));
    PutClient& cl = clients_[s];
    const std::int64_t seq = ++cl.seq;
    const int slot = static_cast<int>(seq % kSlots);
    cl.issued[static_cast<std::size_t>(slot)] = seq;
    ++rep_.counts.attempted;
    ++outstanding_;
    const std::uint64_t id = action_id(cl.id, seq);
    {
      Spans::Scope sub(spans_, "session_submit", id);
      sessions_[s]->submit(db::Command::put(cl.key(kPrefix, slot), cl.value(seq)),
                           [this, s, seq, slot, due = now, id](const core::SessionReply& r) {
                             Spans::Scope cb(spans_, "reply", id);
                             on_reply(s, seq, slot, due, id, r);
                           });
    }
    sim.after(kInterval, [this] { arrive(); });
  }

  void on_reply(std::size_t s, std::int64_t seq, int slot, SimTime due, std::uint64_t id,
                const core::SessionReply& r) {
    const SimTime now = cluster_->sim().now();
    spans_.sim_span("action", id, due, now);
    --outstanding_;
    const bool in_window = due >= window_start_ && due < window_end_;
    if (r.committed) {
      ++rep_.counts.committed;
      clients_[s].acked[static_cast<std::size_t>(slot)] = seq;
      commits_.push_back({due, now});
      if (in_window) latency_.record(now - due);
      if (now - due > kSlo) ++slo_misses_;
    } else if (r.check_aborted) {
      ++rep_.counts.app_aborted;
    }
  }

  void inject(const Fault& f) {
    Simulator& sim = cluster_->sim();
    switch (f.kind) {
      case FaultKind::kPartition: {
        // A block of consecutive replicas (a rack) starting at a seeded
        // member is cut off. Every seed then stalls the same number of
        // sessions, whose fail-over rings run through the same block.
        const auto first = static_cast<NodeId>(rng_.next_below(kReplicas));
        std::vector<NodeId> minority, majority;
        for (NodeId k = 0; k < kReplicas; ++k) {
          const bool cut = (k - first + kReplicas) % kReplicas < f.minority;
          (cut ? minority : majority).push_back(k);
        }
        cluster_->partition({minority, majority});
        fault_times_.push_back(sim.now());
        break;
      }
      case FaultKind::kHeal:
        cluster_->heal();
        break;
      case FaultKind::kCrashMember:
      case FaultKind::kCrashSequencer: {
        std::vector<NodeId> candidates;
        for (core::ReplicaNode* n : nodes_) {
          if (!n->running() || !n->engine().in_primary()) continue;
          // The gc sequencer is the lowest member id of the configuration.
          const auto& members = n->engine().group_comm().config().members;
          const bool seq = !members.empty() && members.front() == n->id();
          if (seq == (f.kind == FaultKind::kCrashSequencer)) candidates.push_back(n->id());
        }
        if (candidates.empty()) {
          rep_.violations.push_back("churn14: no crash candidate at the scheduled fault");
          break;
        }
        crashed_ = candidates[static_cast<std::size_t>(rng_.next_below(candidates.size()))];
        // The crash discards the engine object; keep its counters.
        retired_.add_engine(cluster_->engine(crashed_));
        cluster_->crash(crashed_);
        fault_times_.push_back(sim.now());
        break;
      }
      case FaultKind::kRecover:
        cluster_->recover(crashed_);
        break;
    }
  }

  /// Longest time without service after a fault: from the injection to
  /// the first commit of a request that became due at or after it.
  SimDuration outage_max() const {
    SimDuration worst = 0;
    for (SimTime f : fault_times_) {
      SimTime first = -1;
      for (const Commit& c : commits_) {
        if (c.due >= f && (first < 0 || c.at < first)) first = c.at;
      }
      worst = std::max(worst, (first < 0 ? cluster_->sim().now() : first) - f);
    }
    return worst;
  }

  struct Commit {
    SimTime due;
    SimTime at;
  };

  const RunConfig& cfg_;
  Spans& spans_;
  Rng rng_;
  Rep rep_;
  std::vector<PutClient> clients_;
  std::vector<core::ReplicaNode*> nodes_;
  LayerCounters retired_;
  NodeId crashed_ = kNoNode;
  std::int64_t outstanding_ = 0;
  std::uint64_t slo_misses_ = 0;
  std::int64_t green_start_ = 0;
  std::int64_t green_end_ = 0;
  std::vector<SimTime> fault_times_;
  std::vector<Commit> commits_;
  workload::LatencyStats latency_;
  SimTime window_start_ = 0;
  SimTime window_end_ = 0;
  // Destroyed first (reverse declaration order): sessions before the
  // cluster whose nodes they point at, both before the state above.
  std::unique_ptr<workload::EngineCluster> cluster_;
  std::vector<std::unique_ptr<core::ClientSession>> sessions_;
};

}  // namespace

Rep run_churn14(const RunConfig& cfg) { return Churn14(cfg).run(); }

}  // namespace tordb_bench
