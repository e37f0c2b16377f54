// Partitionable message-passing network (paper §2.1 failure model).
//
// Properties modelled:
//  - Messages between connected, live nodes arrive after a latency that is
//    base + per-byte + bounded jitter; links are FIFO.
//  - The network may partition into any number of components; messages in
//    flight across a new partition boundary are lost. Components may merge.
//  - Nodes may crash (losing volatile state and all in-flight traffic to
//    them) and later recover.
//  - No corruption, no Byzantine behaviour.
//  - Each node has a single CPU: message receipt is serialized and charged a
//    processing cost, so a node flooded with protocol traffic saturates.
//    This is the mechanism by which per-action message complexity (1
//    multicast vs n multicasts vs 2n unicasts) turns into the throughput
//    differences of the paper's Figure 5.
//  - A reachability-notification service tells a node, after a detection
//    delay, the set of nodes it can currently reach — the hook the group
//    communication layer uses to trigger its membership protocol (the role
//    Spread's token-loss/ hello mechanisms play in the real system).
//
// Hot-path layout: node state lives in a dense vector indexed by a compact
// per-node index (NodeId -> index via a flat lookup table), link FIFO
// horizons in one n*n array, and multicast recipients share a single
// refcounted payload buffer — receivers treat payloads as read-only, so a
// group-wide multicast performs zero per-target deep copies. reachable_set()
// is cached per (component, group) and invalidated on topology changes.
//
// Event lanes (DESIGN.md §15): when the owning Simulator runs in lane mode,
// every node is assigned to a lane via set_lane() and all wire traffic must
// stay within one lane (groups scope reachability, so per-shard groups
// never exchange messages — enforced here). Mutable network state is
// partitioned accordingly: stats and the reachability cache are per-lane
// (stats() folds the lanes on read), link horizons and NodeState are only
// ever touched by the owning node's lane, and reachability notifications
// are posted to the affected node's lane. Latency jitter draws from the
// simulator's per-lane RNG stream. The WAN egress model shares one
// serialization horizon per site and is not lane-partitioned: wan_per_byte
// must stay 0 in lane mode (set_lane enforces it).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "sim/simulator.h"
#include "util/serde.h"
#include "util/types.h"

namespace tordb {

struct NetworkParams {
  SimDuration base_latency = micros(120);      ///< one-way LAN latency
  SimDuration per_byte_latency = nanos(80);    ///< 100 Mbit/s ~= 80 ns/byte
  SimDuration jitter = micros(20);             ///< uniform [0, jitter)
  SimDuration proc_per_message = micros(40);   ///< CPU cost to receive one message
  SimDuration proc_per_byte = nanos(300);      ///< CPU cost per received byte
  SimDuration send_per_message = micros(25);   ///< CPU cost to send one message
  SimDuration detect_delay = millis(1);        ///< failure/partition detection delay
  /// One-way latency added between nodes assigned to different sites (see
  /// set_site); models a WAN between LAN clusters. 0 = single site.
  SimDuration inter_site_latency = 0;
  /// Serialization time per byte on a site's shared WAN egress link for
  /// cross-site traffic (0 = unconstrained). Cross-site copies queue on the
  /// sending site's egress; a multicast puts ONE copy per remote site on
  /// the wire (the Spread wide-area architecture), while unicasts pay per
  /// message — the mechanism behind the paper's "on wide area networks
  /// COReL will further outperform two-phase commit".
  SimDuration wan_per_byte = 0;
};

struct NetworkStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t bytes_sent = 0;
  /// Payload bytes deep-copied on the send path (multicast recipients share
  /// one refcounted buffer, so only lvalue sends/multicasts copy — once).
  std::uint64_t payload_bytes_copied = 0;
  /// reachable_set() cache effectiveness (invalidated on topology changes).
  std::uint64_t reachable_cache_hits = 0;
  std::uint64_t reachable_cache_misses = 0;
};

/// Logical channels multiplexed over one node-to-node transport. The group
/// communication layer owns kGc; the replication engines use kDirect for
/// point-to-point traffic (state transfer to joining replicas, 2PC rounds,
/// COReL acknowledgements).
enum class Channel : std::uint8_t { kGc = 0, kDirect = 1 };
inline constexpr int kNumChannels = 2;

class Network {
 public:
  using PacketHandler = std::function<void(NodeId from, const Bytes& payload)>;
  /// Variant that hands the receiver the refcounted wire buffer itself, so
  /// a layer that must retain the payload (the gc delivery buffer) can hold
  /// a reference instead of deep-copying it once per member.
  using SharedPacketHandler =
      std::function<void(NodeId from, const std::shared_ptr<const Bytes>& payload)>;
  using ReachabilityHandler = std::function<void(const std::vector<NodeId>& reachable)>;

  Network(Simulator& sim, NetworkParams params = {});

  /// Register a node. Nodes start alive, all in one component.
  void add_node(NodeId id);

  /// Install the handler invoked for each delivered packet on a channel.
  /// The shared form takes precedence when both are set.
  void set_packet_handler(NodeId id, PacketHandler handler,
                          Channel channel = Channel::kGc);
  void set_shared_packet_handler(NodeId id, SharedPacketHandler handler,
                                 Channel channel = Channel::kGc);
  void clear_packet_handler(NodeId id, Channel channel);

  /// Install the handler invoked (after detect_delay) whenever the set of
  /// group-active nodes reachable from `id` changes. Also invoked once right
  /// after installation so a node learns its initial surroundings.
  void set_reachability_handler(NodeId id, ReachabilityHandler handler);
  void clear_reachability_handler(NodeId id);

  /// Mark a node as participating in the group (the role of joining the
  /// daemon group in Spread). Nodes start active; a node that is up but not
  /// group-active is excluded from reachable_set() — it can still exchange
  /// kDirect traffic (e.g. a joining replica downloading a snapshot).
  void set_group_active(NodeId id, bool active);
  bool group_active(NodeId id) const;

  /// Assign `id` to a WAN site; traffic between different sites pays
  /// inter_site_latency on top of the base latency. All nodes start at
  /// site 0.
  void set_site(NodeId id, int site);
  int site(NodeId id) const;

  /// Assign `id` to a replication group. Groups scope the reachability
  /// service only: reachable_set(id) never reports nodes of a different
  /// group, so independent EVS groups (one per shard) can share one
  /// network without triggering each other's membership protocols.
  /// Point-to-point and multicast traffic is unaffected — any two
  /// connected nodes can exchange messages regardless of group. All nodes
  /// start in group 0.
  void set_group(NodeId id, int group);
  int group(NodeId id) const;

  /// Assign `id` to a simulator event lane (lane mode only; see the header
  /// comment). Normally implicit: when the simulator runs in lane mode,
  /// add_node() stamps the lane that is current at registration time (the
  /// harness wraps each shard's construction in a Simulator::LaneScope) —
  /// this is the explicit override. All of a replication group's members
  /// must share one lane; traffic between nodes of different lanes throws.
  void set_lane(NodeId id, int lane);
  int lane(NodeId id) const;

  /// Send `payload` from `from` to `to`. Silently dropped when the sender is
  /// crashed or the two nodes are (or become) disconnected. The lvalue
  /// overload deep-copies the payload once (counted in
  /// stats().payload_bytes_copied); pass an rvalue to send without copying.
  void send(NodeId from, NodeId to, Bytes&& payload, Channel channel = Channel::kGc);
  void send(NodeId from, NodeId to, const Bytes& payload, Channel channel = Channel::kGc);

  /// Unicast to every node in `to` (including `from` itself if listed);
  /// self-delivery uses loopback (no wire latency, still CPU-charged). All
  /// recipients share one refcounted payload buffer — handlers receive a
  /// read-only view, never a private copy.
  void multicast(NodeId from, const std::vector<NodeId>& to, Bytes&& payload,
                 Channel channel = Channel::kGc);
  void multicast(NodeId from, const std::vector<NodeId>& to, const Bytes& payload,
                 Channel channel = Channel::kGc);
  /// Multicast a buffer the sender also keeps (the gc sequencer buffers
  /// the ORDERED frame it sends): no copy, the wire is shared.
  void multicast(NodeId from, const std::vector<NodeId>& to, std::shared_ptr<const Bytes> payload,
                 Channel channel = Channel::kGc);

  /// Partition the network into the given components. Every registered node
  /// must appear in exactly one component.
  void set_components(const std::vector<std::vector<NodeId>>& components);

  /// Merge everything back into a single component.
  void heal();

  void crash(NodeId id);
  void recover(NodeId id);
  bool alive(NodeId id) const;

  /// True when both nodes are alive and in the same component.
  bool connected(NodeId a, NodeId b) const;

  /// Alive, group-active nodes in `id`'s component (including itself if
  /// group-active), sorted.
  std::vector<NodeId> reachable_set(NodeId id) const;

  /// Charge `d` of CPU time to node `id`; subsequent deliveries queue after.
  void charge(NodeId id, SimDuration d);

  /// Busy-time horizon (for tests).
  SimTime busy_until(NodeId id) const;

  /// Aggregated over lanes (a single lane when lanes are off, so this is
  /// exactly the classic counter set).
  const NetworkStats& stats() const;
  /// Count the `net.*` counters into `m`, beside stats().
  void set_metrics(obs::MetricsRegistry& m);
  NetworkParams& params() { return params_; }
  Simulator& sim() { return sim_; }
  std::vector<NodeId> node_ids() const;

 private:
  struct NodeState {
    NodeId id = kNoNode;
    bool up = true;
    bool group_active = true;
    int component = 0;
    int site = 0;
    int group = 0;  ///< replication group; scopes reachability only
    int lane = 0;   ///< simulator event lane (lane mode only)
    std::uint64_t epoch = 0;  ///< bumped on crash; stale deliveries dropped
    SimTime busy_until = 0;
    Simulator::Stream rx;  ///< CPU receipts: scheduled at busy_until, so FIFO
    bool notify_pending = false;
    PacketHandler on_packet[kNumChannels];
    SharedPacketHandler on_packet_shared[kNumChannels];
    ReachabilityHandler on_reachability;
  };

  /// Dense index for `id`; throws std::out_of_range for unknown ids.
  std::size_t idx(NodeId id) const;
  NodeState& state(NodeId id) { return states_[idx(id)]; }
  const NodeState& state(NodeId id) const { return states_[idx(id)]; }
  bool connected_idx(std::size_t a, std::size_t b) const {
    return states_[a].up && states_[b].up && states_[a].component == states_[b].component;
  }

  void topology_changed();
  void schedule_notify(NodeId id);
  /// First lane assignment: validate params and size the per-lane shards.
  void ensure_lane_mode();
  /// The stats shard for the calling lane (index 0 when lanes are off).
  NetworkStats& lstats() const;
  /// Throws when a send would cross lanes in lane mode.
  void check_same_lane(const NodeState& src, const NodeState& dst) const;
  void deliver(NodeId from, NodeId to, std::uint64_t to_epoch, Channel channel,
               std::shared_ptr<const Bytes> payload);
  /// Occupy `site`'s egress for one cross-site copy of `bytes`; returns the
  /// serialization delay to add to that copy's arrival time.
  SimDuration wan_serialize(int site, std::size_t bytes);

  Simulator& sim_;
  NetworkParams params_;
  std::vector<NodeState> states_;        ///< dense, insertion-indexed
  std::vector<std::int32_t> dense_;      ///< NodeId -> index into states_ (-1 unknown)
  std::vector<NodeId> ids_sorted_;       ///< all node ids, ascending
  std::vector<SimTime> link_horizon_;    ///< FIFO per link, [from_idx * n + to_idx]
  std::vector<SimTime> site_egress_busy_;  ///< WAN serialization per site
  bool lanes_ = false;  ///< set by the first set_lane(); gates lane checks
  /// reachable_set() memo per (component, group), sharded by lane so worker
  /// lanes never touch one another's maps (entries are group-scoped and
  /// groups never span lanes, so a lane's cache is never invalidated by
  /// another lane's membership changes). One shard when lanes are off.
  mutable std::vector<std::unordered_map<std::uint64_t, std::vector<NodeId>>> reach_cache_;
  /// Per-lane counters (one shard when lanes are off); mutable: const
  /// reachable_set counts cache hits.
  mutable std::vector<NetworkStats> stats_lanes_;
  mutable NetworkStats stats_agg_;  ///< scratch for stats() folding
  obs::Counter* messages_cell_ = nullptr;  ///< registry cells; null without one
  obs::Counter* bytes_cell_ = nullptr;
  obs::Counter* copied_cell_ = nullptr;
  obs::Counter* cache_hit_cell_ = nullptr;
  obs::Counter* cache_miss_cell_ = nullptr;
};

}  // namespace tordb
