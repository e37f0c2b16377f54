// Extended Virtual Synchrony group communication over the simulated
// partitionable network — the role the Spread toolkit plays in the paper.
//
// Architecture (one instance per node):
//
//   data path     : senders forward payloads to the configuration's
//                   *sequencer* (lowest member id), which assigns the global
//                   sequence and multicasts ORDERED messages to the other
//                   members. The sequencer's own data path stays in place:
//                   it orders its own multicasts without sending itself
//                   DATA and buffers the ORDERED frames it sends instead of
//                   receiving them back (DESIGN.md §1.2). Above 16 members
//                   it packs back-to-back messages into one packet: while
//                   another receipt is queued on its CPU it holds a message
//                   (no sequence number yet) until that receipt runs, a
//                   second one is held or the CPU is idle, then sends the
//                   held ones as <= 2 ORDERED frames back to back, so a
//                   member pays the per-message receive cost once per
//                   packet; a gather drops what it holds and the senders
//                   re-send it (DESIGN.md §1.2). Stability is
//                   aggregated in two levels. The sorted members split into
//                   *ack clusters* of 16 consecutive positions; members
//                   multicast coalesced ACKs of their contiguous prefix to
//                   their own cluster only. Each cluster's first member (its
//                   *leader*) multicasts a STABLE carrying the cluster's
//                   minimum to every member outside the cluster whenever
//                   that minimum advances. A member's safe line is the min
//                   of its own prefix, its cluster peers' ACKs and the other
//                   clusters' announced minimums; a message is delivered
//                   *safe* once the safe line covers it. A group of <= 16
//                   (the paper's 14-node testbed) is one cluster that sends
//                   no STABLE at all. In a larger group the sequencer joins
//                   no cluster: it holds every frame it orders before any
//                   member can, so the clusters cover positions 1..n-1, it
//                   sends and receives no ACK, its safe line is the min of
//                   its prefix and every leader's line, and members leave
//                   it out of theirs. Per ack interval the sequencer thus
//                   receives ceil((n-1)/16) STABLEs and each other member
//                   <= 15 ACKs + ceil((n-1)/16)-1 STABLEs, instead of n-1
//                   ACKs (DESIGN.md §1.1).
//   membership    : on any reachability change a flush protocol runs: the
//     (flush)       lowest reachable node INQUIREs, members reply JOIN_INFO
//                   (what they hold and what they know others received; a
//                   member of another cluster is reported at that cluster's
//                   announced minimum and a sequencer outside the clusters
//                   at the reporter's own prefix, each a lower bound on that
//                   member's prefix that is >= the reporter's safe line), the
//                   coordinator computes a PLAN (per old configuration: who
//                   continues together, the safe line, the retransmission
//                   target), holders RETRANSmit so all continuing members
//                   hold the same prefix, and after PLAN_ACKs the
//                   coordinator INSTALLs. Each member then delivers, in EVS
//                   order: remaining safe messages (safe-in-regular, up to
//                   the safe line), the transitional configuration, the
//                   left-over messages (transitional delivery), and the new
//                   regular configuration.
//
// Guarantees provided (property-tested in tests/gc_*):
//   self delivery, FIFO per sender, agreed (total) order per configuration,
//   virtual synchrony, and EVS safe-delivery trichotomy: for any safe
//   message it is impossible that one member delivered it safe-in-regular
//   while another member of the same configuration never delivers it
//   (unless that member crashes).
//
// Undelivered local multicasts are retained and automatically re-sent in
// the next configuration, so a payload handed to `multicast` is eventually
// ordered somewhere as long as its node stays up (the replication engine's
// redCut de-duplicates cross-component reorderings).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "gc/messages.h"
#include "gc/types.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace tordb::gc {

struct GcParams {
  SimDuration ack_coalesce = micros(150);      ///< delay before sending an ack
  SimDuration ack_min_interval = millis(3);    ///< ack rate limit under load
  SimDuration gather_retry = millis(12);  ///< coordinator re-INQUIRE period
  SimDuration stuck_timeout = millis(60); ///< member watchdog during flush
  /// Observability handle (disconnected by default — zero cost). Emits
  /// kSafeDeliver, kViewRegular, and kViewTransitional events.
  obs::Tracer tracer;
  /// Registry for `gc.safe_deliveries` and `gc.regular_configs` (null: none).
  std::shared_ptr<obs::MetricsRegistry> metrics;
};

struct GcStats {
  std::uint64_t messages_ordered = 0;    ///< ORDERED assigned (sequencer role)
  std::uint64_t deliveries = 0;
  std::uint64_t safe_deliveries = 0;
  std::uint64_t transitional_deliveries = 0;
  std::uint64_t regular_configs = 0;
  std::uint64_t transitional_configs = 0;
  std::uint64_t gathers_started = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t resent_after_install = 0;
  std::uint64_t data_received = 0;     ///< DATA packets (sequencer role)
  std::uint64_t ordered_received = 0;  ///< ORDERED packets from the sequencer
  std::uint64_t max_frames_per_packet = 0;  ///< most ORDERED frames one packet carried
  std::uint64_t acks_sent = 0;         ///< ACK multicasts to cluster peers
  std::uint64_t acks_received = 0;     ///< ACK packets from cluster peers
  std::uint64_t stables_received = 0;  ///< STABLE packets from other clusters' leaders
};

class GroupCommunication {
 public:
  /// `initial_config_counter` seeds configuration-id uniqueness across
  /// recoveries of the same node (the node harness persists it).
  GroupCommunication(Network& net, NodeId id, Listener listener,
                     std::int64_t initial_config_counter = 0, GcParams params = {});
  ~GroupCommunication();

  GroupCommunication(const GroupCommunication&) = delete;
  GroupCommunication& operator=(const GroupCommunication&) = delete;

  /// Multicast `payload` to the current configuration with the requested
  /// service. May be called at any time; while the membership protocol runs
  /// the message is queued and sent in the next configuration.
  void multicast(Bytes payload, Service service);

  NodeId id() const { return id_; }
  const Configuration& config() const { return config_; }
  bool operational() const { return state_ == GcState::kOperational; }
  /// Highest configuration counter this instance has seen (persist across
  /// recoveries and feed back as initial_config_counter).
  std::int64_t max_counter_seen() const { return counter_floor_; }
  const GcStats& stats() const { return stats_; }
  /// Highest contiguous ORDERED sequence held in the current configuration.
  std::int64_t received_upto() const { return recv_contig_; }

  /// Send the coalesced ACK now if one is pending. A member about to be
  /// torn down while still connected (a graceful leave) calls this, or its
  /// peers would never learn it received the messages it delivered last
  /// and would deliver them transitional instead of safe.
  void flush_ack();

 private:
  enum class GcState { kOperational, kGathering };

  /// One slot of the ORDERED delivery buffer. The payload is held as a
  /// (shared wire buffer, offset, length) slice: all members of a multicast
  /// share one refcounted wire, so buffering a message costs a refcount
  /// bump instead of a per-member deep copy of the payload.
  struct BufferedMsg {
    NodeId origin = kNoNode;
    std::int64_t origin_local_seq = 0;
    Service service = Service::kAgreed;
    std::shared_ptr<const Bytes> buf;
    std::uint32_t payload_off = 0;
    std::uint32_t payload_len = 0;

    const std::uint8_t* payload_data() const { return buf->data() + payload_off; }
    std::size_t payload_size() const { return payload_len; }
  };

  struct OutEntry {
    std::int64_t local_seq = 0;
    Service service = Service::kAgreed;
    Bytes payload;
  };

  // --- wiring ---------------------------------------------------------
  void on_packet(NodeId from, const std::shared_ptr<const Bytes>& wire);
  void on_reachability(const std::vector<NodeId>& reachable);
  /// Schedule `fn` guarded by this instance's liveness. A forwarding
  /// template so the closure lands inline in the simulator's SmallFn slot
  /// instead of bouncing through a heap-allocated std::function.
  template <typename F>
  void schedule(SimDuration delay, F&& fn) {
    sim_.after(delay, [alive = alive_, fn = std::forward<F>(fn)]() mutable {
      if (*alive) fn();
    });
  }
  void send_to(NodeId to, Bytes wire);
  void send_all(const std::vector<NodeId>& to, Bytes wire);

  /// A message the sequencer holds for one more receipt before ordering it
  /// (DESIGN.md §1.2). It has no sequence number yet. The payload is a view
  /// of the DATA wire it came in on (kept alive by `wire`) or of the
  /// sequencer's own outbox entry (`wire` null).
  struct HeldMsg {
    NodeId origin = kNoNode;
    std::int64_t local_seq = 0;
    Service service = Service::kAgreed;
    std::shared_ptr<const Bytes> wire;
    const std::uint8_t* payload = nullptr;
    std::size_t len = 0;
  };

  // --- data path ------------------------------------------------------
  void handle_data(BufReader& r, const std::shared_ptr<const Bytes>& wire);
  void handle_ordered(BufReader& r, const std::shared_ptr<const Bytes>& wire);
  /// Store the ORDERED frames of a packet of the current configuration,
  /// whatever the state. `r` stands after the first frame's type byte.
  void buffer_ordered(BufReader& r, const std::shared_ptr<const Bytes>& wire);
  void handle_ack(NodeId from, const AckMsg& msg);
  void handle_stable(NodeId from, const StableMsg& msg);
  void store_ordered(OrderedMsg&& msg);
  void store_buffered(std::int64_t seq, BufferedMsg&& m);
  /// Advance recv_contig_ over the buffered frames and react if it moved.
  void advance_contig();
  void try_deliver();
  void deliver_one(std::int64_t seq, DeliveryKind kind);
  void emit_config(const Configuration& c);
  std::int64_t safe_line() const;
  void after_contig_advance();
  void schedule_ack();
  void send_ack();  ///< multicast recv_contig_ to the cluster peers if it advanced
  /// Leader only: announce the cluster's minimum if it advanced.
  void schedule_stable();
  std::int64_t cluster_min() const;
  /// Rebuild the member index and stability knowledge for config_.
  void reset_stability();
  /// Send a local multicast: DATA to the sequencer, or, on the sequencer,
  /// order it in place.
  void send_data(const OutEntry& entry);
  /// Sequencer only: hold `m` while another receipt is queued on this CPU
  /// and the packet has room, else send what is held.
  void order_or_hold(HeldMsg&& m);
  /// Sequencer only: assign the next sequence numbers to the held messages,
  /// multicast their ORDERED frames back to back in one packet to the other
  /// members and buffer the same frames locally.
  void send_held();
  /// Send the held messages once the CPU is idle, should no receipt of the
  /// gc channel run first (hold generation `gen` only).
  void arm_hold_timer(std::uint64_t gen);
  bool is_sequencer() const { return !config_.members.empty() && config_.members.front() == id_; }

  // --- membership (flush) ----------------------------------------------
  void start_gather(const std::vector<NodeId>& reachable);
  void handle_inquire(NodeId from, const InquireMsg& msg);
  void handle_join_info(NodeId from, const JoinInfoMsg& msg);
  void handle_plan(const PlanMsg& msg);
  void handle_retrans(const RetransMsg& msg);
  void handle_plan_ack(NodeId from, const PlanAckMsg& msg);
  void handle_install(const InstallMsg& msg);
  void coordinator_maybe_plan();
  void coordinator_maybe_install();
  void member_check_plan_ack();
  void run_install();
  void touch_progress();
  void arm_stuck_timer();
  void arm_retry_timer();
  JoinInfoMsg make_join_info(const GatherToken& token) const;
  const PlanEntry* my_plan_entry() const;

  Network& net_;
  Simulator& sim_;
  NodeId id_;
  Listener listener_;
  GcParams params_;
  std::shared_ptr<bool> alive_;

  // Current regular configuration and data-path state.
  Configuration config_;
  GcState state_ = GcState::kOperational;
  std::int64_t global_seq_ = 0;    ///< sequencer: last assigned
  std::int64_t recv_contig_ = 0;   ///< highest contiguous ORDERED received
  std::int64_t delivered_upto_ = 0;
  /// Seq-indexed ring over the ORDERED stream: slot i holds sequence
  /// `buffer_base_ + i`, gaps flagged by origin == kNoNode. Sequences are
  /// assigned densely by the sequencer, so O(1) indexing replaces the
  /// per-message node allocation and rebalancing a std::map paid on every
  /// store, lookup and prune of the data path.
  std::deque<BufferedMsg> buffer_;
  std::int64_t buffer_base_ = 0;  ///< seq of buffer_[0]; meaningless when empty
  BufferedMsg* buffered(std::int64_t seq);  ///< slot for seq, or nullptr
  void buffer_put(std::int64_t seq, BufferedMsg m);
  /// Ack cluster width. Fixed, not a knob: the paper's 14-node testbed stays
  /// one cluster (so its traffic is unchanged), while in an n-node group
  /// the sequencer receives ceil((n-1)/16) stability messages per ack
  /// interval and every other member <= 15 + ceil((n-1)/16)-1.
  static constexpr std::size_t kAckCluster = 16;
  /// Most ORDERED frames the sequencer packs into one packet when it stands
  /// outside the clusters (1 otherwise, today's one frame per packet).
  /// Fixed, not a knob: 2 measured best on group100 (DESIGN.md §1.2).
  static constexpr std::size_t kPackFrames = 2;
  /// Position of the first clustered member: 0 in a group of one cluster,
  /// 1 in a larger one, whose sequencer stands outside the clusters.
  std::size_t cluster_origin_ = 0;
  /// Dense member index: member_pos_[m - member_base_] is m's position in
  /// config_.members (-1: not a member). Member ids of one group are a
  /// narrow range, so an O(1) probe serves every ACK and STABLE.
  std::vector<std::int32_t> member_pos_;
  NodeId member_base_ = 0;
  std::int32_t pos_of(NodeId m) const;  ///< position in config_.members, or -1
  std::size_t self_pos_ = 0;
  /// config_.members without this node: the sequencer's ORDERED recipients.
  std::vector<NodeId> others_;
  /// Messages held for the next packet (< kPackFrames between events) and
  /// the generation of the latest hold, which retires older hold timers.
  std::vector<HeldMsg> held_;
  std::uint64_t hold_gen_ = 0;
  /// Own cluster's contig knowledge, indexed by position - cluster_begin_;
  /// the own slot tracks recv_contig_. A sequencer outside the clusters is
  /// a cluster of itself (begin 0, one slot).
  std::vector<std::int64_t> cluster_contig_;
  std::size_t cluster_begin_ = 0;
  /// Every cluster's last announced minimum (the own cluster's is unused);
  /// cluster k starts at position cluster_origin_ + 16k.
  std::vector<std::int64_t> cluster_line_;
  std::int64_t counter_floor_ = 0;

  // Ack / stability pacing.
  bool ack_scheduled_ = false;
  SimTime last_ack_sent_ = -1'000'000'000;
  std::int64_t last_acked_value_ = -1;
  bool stable_scheduled_ = false;
  std::int64_t last_stable_sent_ = 0;

  // Local multicasts not yet self-delivered (resent on config change).
  std::deque<OutEntry> outbox_;
  std::int64_t next_local_seq_ = 0;

  // Gather (flush) state.
  std::vector<NodeId> last_reachable_;
  std::int64_t gather_seq_ = 0;
  std::optional<GatherToken> committed_;
  // coordinator side
  std::optional<GatherToken> my_token_;
  std::vector<NodeId> my_proposed_;
  std::map<NodeId, JoinInfoMsg> infos_;
  std::map<NodeId, bool> plan_acks_;
  std::optional<PlanMsg> built_plan_;
  bool install_sent_ = false;
  // member side
  std::optional<PlanMsg> plan_;
  bool plan_acked_ = false;
  SimTime last_progress_ = 0;

  GcStats stats_;
  obs::Counter* safe_cell_ = obs::counter_in(params_.metrics, "gc.safe_deliveries");
  obs::Counter* configs_cell_ = obs::counter_in(params_.metrics, "gc.regular_configs");
};

}  // namespace tordb::gc
