// Experiment runners reproducing the paper's §7 evaluation and the
// additional ablations listed in DESIGN.md. Each function builds a fresh
// simulated deployment, drives closed-loop clients, and reports simulated
// throughput/latency.
//
// Setup mirrors the paper: "clients are constantly injecting actions into
// the system, the next action from a client being introduced immediately
// after the previous action from that client is completed", each action
// ~200 bytes, clients spread one per replica, and "clients receive
// responses to their actions when the actions are globally ordered, without
// any interaction with a database" — we keep the (cheap, deterministic)
// database application since it costs nothing in simulated time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.h"

namespace tordb::workload {

enum class Algorithm {
  kEngine,         ///< the paper's replication engine, forced disk writes
  kEngineDelayed,  ///< the engine with delayed (asynchronous) disk writes
  kCorel,          ///< COReL-style: per-action end-to-end acks
  kTwoPc,          ///< replicated two-phase commit
};

std::string to_string(Algorithm a);

struct ThroughputPoint {
  Algorithm algorithm;
  int replicas = 0;
  int clients = 0;
  double actions_per_second = 0;
  double mean_latency_ms = 0;
  std::uint64_t completed = 0;
};

/// Closed-loop throughput (Figure 5(a)/(b)): `clients` clients attached
/// round-robin to `replicas` replicas; measured over `measure` after
/// `warmup` of simulated time.
ThroughputPoint measure_throughput(Algorithm algorithm, int replicas, int clients,
                                   SimDuration warmup, SimDuration measure,
                                   std::uint64_t seed = 1);

/// Engine-only variant of measure_throughput that attaches an
/// obs::MetricsRegistry rolling a window every `window`, and appends the
/// rendered time-series table to `*window_table` (when non-null).
ThroughputPoint measure_engine_throughput_windowed(bool delayed, int replicas, int clients,
                                                   SimDuration warmup, SimDuration measure,
                                                   SimDuration window, std::uint64_t seed,
                                                   std::string* window_table);

struct LatencyResult {
  Algorithm algorithm;
  int replicas = 0;
  std::uint64_t count = 0;
  double mean_ms = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double p999_ms = 0;
};

/// Sequential-latency experiment (§7): one client submits `actions` actions
/// back to back; reports the latency distribution.
LatencyResult measure_latency(Algorithm algorithm, int replicas, int actions,
                              std::uint64_t seed = 1);

struct ViewChangePoint {
  SimDuration change_period = 0;  ///< 0 = no membership changes
  double actions_per_second = 0;
  std::uint64_t membership_changes = 0;
  std::uint64_t end_to_end_rounds = 0;  ///< engine: exchanges; per-action algs: acks
  std::uint64_t persist_batches = 0;       ///< multi-action persist+multicast batches
  std::uint64_t persist_batch_actions = 0; ///< actions carried by those batches
};

/// Ablation A1: engine throughput under periodic partition/heal cycles —
/// the cost of the engine's one end-to-end exchange per membership change.
/// When `metrics_window` > 0 a registry rolls windows every interval and
/// the rendered series is appended to `*window_table` (when non-null).
ViewChangePoint measure_engine_under_view_changes(int replicas, int clients,
                                                  SimDuration change_period,
                                                  SimDuration measure,
                                                  std::uint64_t seed = 1,
                                                  SimDuration metrics_window = 0,
                                                  std::string* window_table = nullptr);

struct SemanticsResult {
  double weak_query_ms = 0;          ///< answered in the minority partition
  double dirty_query_ms = 0;         ///< answered in the minority partition
  double commutative_update_ms = 0;  ///< acknowledged in the minority
  double strict_latency_ms = 0;      ///< strict action: waits for the merge
  bool strict_blocked_during_partition = false;
};

/// Ablation A2 (§6): service latency of the relaxed semantics inside a
/// non-primary component, versus a strict action that must wait for merge.
SemanticsResult measure_semantics(int replicas, SimDuration partition_length,
                                  std::uint64_t seed = 1);

struct ScalingPoint {
  int replicas = 0;
  std::uint32_t action_bytes = 0;
  double actions_per_second = 0;
  double mean_latency_ms = 0;
};

/// Ablation A3: engine throughput/latency across replica counts and action
/// sizes.
ScalingPoint measure_engine_scaling(int replicas, std::uint32_t action_padding, int clients,
                                    SimDuration warmup, SimDuration measure,
                                    std::uint64_t seed = 1);

/// Ablation A4: wide-area deployment. Replicas are spread round-robin over
/// `sites`; traffic between sites pays `inter_site_latency` one way. The
/// paper predicts (§7) that "on wide area network, where network latency
/// becomes a more important factor, COReL will further outperform two-phase
/// commit" — and the engine, with no end-to-end round at all, outperforms
/// both.
ThroughputPoint measure_throughput_wan(Algorithm algorithm, int replicas, int clients,
                                       int sites, SimDuration inter_site_latency,
                                       SimDuration wan_per_byte, SimDuration warmup,
                                       SimDuration measure, std::uint64_t seed = 1);

struct AvailabilityPoint {
  bool dynamic_linear_voting = true;
  double primary_availability = 0;   ///< fraction of time some primary exists
  std::uint64_t actions_committed = 0;
  std::uint64_t primaries_installed = 0;
};

struct ShardingPoint {
  int shards = 0;
  int replicas_per_shard = 0;
  int clients = 0;
  double cross_ratio = 0;         ///< fraction of actions touching 2 shards
  double actions_per_second = 0;  ///< router-committed actions/s in the window
  double green_per_second = 0;    ///< aggregate engine green actions/s
  double mean_latency_ms = 0;
  double mean_barrier_ms = 0;     ///< cross-shard first-green -> last-green
  std::uint64_t completed = 0;
  std::uint64_t cross_committed = 0;
};

/// Ablation A6 (DESIGN.md §8): sharded deployment throughput. `shards`
/// independent engine groups of `replicas_per_shard` replicas each share
/// one simulated network; closed-loop clients route through shard::Router,
/// and a `cross_ratio` fraction of actions write one key in each of two
/// distinct shards (cross-shard commit barrier). At cross_ratio 0 the
/// aggregate green throughput should scale with the shard count against a
/// single group of the same total replica count.
ShardingPoint measure_sharding(int shards, int replicas_per_shard, int clients,
                               double cross_ratio, SimDuration warmup, SimDuration measure,
                               std::uint64_t seed = 1);

struct RebalancePoint {
  int shards = 0;
  int replicas_per_shard = 0;
  int clients = 0;
  int moves_requested = 0;
  std::uint64_t moves_completed = 0;
  std::int64_t rows_moved = 0;
  std::int64_t bytes_moved = 0;
  double mean_move_ms = 0;        ///< fence submit -> cutover, per move
  std::int64_t final_epoch = 0;
  std::uint64_t fenced_bounces = 0;  ///< router retries caused by fences
  // Client-visible latency, segregated by whether a move was in flight when
  // the action completed.
  std::uint64_t steady_completed = 0;
  double steady_p50_ms = 0;
  double steady_p99_ms = 0;
  std::uint64_t move_window_completed = 0;
  double move_window_p50_ms = 0;
  double move_window_p99_ms = 0;
};

/// Ablation A7 (DESIGN.md §9): client-visible cost of online rebalancing.
/// A range-sharded deployment runs `clients` closed-loop writers over a
/// fixed key space while `moves` fenced key-range moves execute back to
/// back; actions completing during a move window are measured separately
/// from steady state. Exactly-once routing means completed counts are exact
/// (a bounced command commits once at the new owner or not at all).
RebalancePoint measure_rebalance(int shards, int replicas_per_shard, int clients, int moves,
                                 SimDuration warmup, SimDuration measure,
                                 std::uint64_t seed = 1);

struct SimScalePoint {
  int shards = 0;  ///< 1 = one plain engine group (no router)
  int replicas_per_shard = 0;
  int total_replicas = 0;
  int clients = 0;
  int sim_threads = 0;  ///< lane-mode worker threads; 0 = classic event loop
  double green_per_second = 0;  ///< aggregate engine green actions/s (sim time)
  std::uint64_t completed = 0;  ///< client-visible commits in the window
  // Cost of the simulation itself, the subject of bench_sim_scale:
  std::uint64_t events = 0;    ///< simulator events executed, whole run
  std::uint64_t messages = 0;  ///< network messages sent, whole run
  double wall_ms = 0;          ///< host wall clock for the whole run
  double setup_ms = 0;         ///< host wall clock to build and form the deployment
  double events_per_wall_second = 0;
  double wall_ms_per_sim_second = 0;  ///< wall cost per simulated second
  std::size_t peak_queue_depth = 0;
  // Hot-path counters (see NetworkStats); 0 on builds that predate them.
  std::uint64_t payload_bytes_copied = 0;
  std::uint64_t reachable_cache_hits = 0;
  std::uint64_t reachable_cache_misses = 0;
  // Lane-mode health (0 in classic mode): conservative windows run and
  // cross-lane handoffs committed over the whole run.
  std::uint64_t lane_windows = 0;
  std::uint64_t lane_handoffs = 0;
  // "Why is it slow", single-group runs only (sim clock, exact; 0 when
  // sharded): the share of the measurement window the busiest member's CPU
  // other than the sequencer (node 0) spent receiving and sending, and the
  // sequencer's share. A receipt is charged when it queues, so a CPU with a
  // growing backlog reads above 1.
  double member_cpu_util = 0;
  double sequencer_cpu_util = 0;
};

/// Simulator-scale probe: drives a closed-loop put workload over either one
/// plain engine group (`shards` == 1, the single-group EVS run) or a
/// ShardedCluster of `shards` groups, and reports what the simulation run
/// itself cost the host — events/sec, wall-clock per simulated second, peak
/// event-queue depth — alongside the simulated throughput. This is the
/// harness-profiling companion to measure_sharding: identical seeds produce
/// identical virtual-time results, so wall-clock deltas between builds
/// measure only the simulator hot path.
/// `sim_threads` = 0 (default) runs the classic single-threaded event loop.
/// >= 1 runs the sharded configurations in lane mode on that many worker
/// threads (ignored for shards == 1, which stays the classic single-group
/// run). Lane mode's simulated results differ from classic by design
/// (explicit cross-lane handoff latency) but are bit-identical across
/// thread counts, so wall-clock deltas between lane rows of the same
/// configuration measure only the worker pool. `announcements` = false
/// turns green-line announcements off, the baseline their cost is
/// measured against.
SimScalePoint measure_sim_scale(int shards, int replicas_per_shard, int clients,
                                SimDuration warmup, SimDuration measure,
                                std::uint64_t seed = 1, int sim_threads = 0,
                                bool announcements = true);

/// Ablation A5: availability of the two quorum systems under a cascading
/// partition schedule (the network repeatedly shrinks the surviving
/// component, then heals). Dynamic linear voting (the paper's choice, [15])
/// follows the surviving lineage; a static majority of the full replica set
/// loses the primary as soon as fewer than ⌈(n+1)/2⌉ replicas remain
/// connected.
AvailabilityPoint measure_quorum_availability(bool dynamic_linear_voting, int replicas,
                                              SimDuration measure, std::uint64_t seed = 1);

}  // namespace tordb::workload
