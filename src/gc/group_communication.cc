#include "gc/group_communication.h"

#include <algorithm>
#include <cassert>

#include "util/log.h"

namespace tordb::gc {

namespace {
bool contains(const std::vector<NodeId>& v, NodeId n) {
  return std::find(v.begin(), v.end(), n) != v.end();
}
}  // namespace

bool Configuration::contains(NodeId n) const { return tordb::gc::contains(members, n); }

std::string Configuration::to_string() const {
  std::string s = (transitional ? "trans" : "reg") + std::string("{") + tordb::to_string(id) + " [";
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i) s += ",";
    s += std::to_string(members[i]);
  }
  return s + "]}";
}

GroupCommunication::GroupCommunication(Network& net, NodeId id, Listener listener,
                                       std::int64_t initial_config_counter, GcParams params)
    : net_(net),
      sim_(net.sim()),
      id_(id),
      listener_(std::move(listener)),
      params_(params),
      alive_(std::make_shared<bool>(true)),
      counter_floor_(initial_config_counter) {
  config_.id = ConfigId{initial_config_counter, id_};
  config_.members = {id_};
  reset_stability();

  // The shared handler hands over the refcounted wire buffer, letting the
  // delivery buffer retain ORDERED payloads without a per-member deep copy.
  net_.set_shared_packet_handler(
      id_, [this](NodeId from, const std::shared_ptr<const Bytes>& wire) {
        on_packet(from, wire);
      });
  // Deliver the initial singleton configuration before anything else runs.
  schedule(0, [this] {
    obs::count(stats_.regular_configs, configs_cell_);
    emit_config(config_);
    if (listener_.on_regular_config) listener_.on_regular_config(config_);
  });
  net_.set_reachability_handler(
      id_, [this](const std::vector<NodeId>& reachable) { on_reachability(reachable); });
}

GroupCommunication::~GroupCommunication() {
  *alive_ = false;
  net_.clear_packet_handler(id_, Channel::kGc);
  net_.clear_reachability_handler(id_);
}

void GroupCommunication::send_to(NodeId to, Bytes wire) {
  net_.send(id_, to, std::move(wire));
}

void GroupCommunication::send_all(const std::vector<NodeId>& to, Bytes wire) {
  net_.multicast(id_, to, std::move(wire));
}

void GroupCommunication::multicast(Bytes payload, Service service) {
  outbox_.push_back(OutEntry{++next_local_seq_, service, std::move(payload)});
  if (state_ == GcState::kOperational) send_data(outbox_.back());
}

void GroupCommunication::send_data(const OutEntry& entry) {
  if (is_sequencer()) {
    // The sequencer orders its own multicast in place, on the next event
    // at this instant, as a daemon picks a local message off its socket:
    // no DATA to itself, and the caller (often a delivery callback) never
    // re-enters ordering. A configuration change in between drops the
    // event; run_install re-sends the entry.
    const ConfigId cfg = config_.id;
    const std::int64_t local_seq = entry.local_seq;
    schedule(0, [this, cfg, local_seq] {
      if (state_ != GcState::kOperational || !(config_.id == cfg) || outbox_.empty()) return;
      // Outbox entries hold consecutive local sequence numbers.
      const auto i = static_cast<std::size_t>(local_seq - outbox_.front().local_seq);
      if (i >= outbox_.size()) return;
      const OutEntry& e = outbox_[i];
      order_or_hold(
          HeldMsg{id_, e.local_seq, e.service, nullptr, e.payload.data(), e.payload.size()});
    });
    return;
  }
  // Frame the DATA wire directly from the outbox entry — byte-identical to
  // encode(DataMsg{...}) without staging the payload in a message struct.
  BufWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kData));
  w.config_id(config_.id);
  w.i32(id_);
  w.i64(entry.local_seq);
  w.u8(static_cast<std::uint8_t>(entry.service));
  w.bytes(entry.payload);
  send_to(config_.members.front(), w.take());
}

void GroupCommunication::on_packet(NodeId from, const std::shared_ptr<const Bytes>& wire) {
  BufReader r(*wire);
  const auto type = static_cast<MsgType>(r.u8());
  // The sequencer holds a message for one receipt only: any receipt but a
  // DATA sends what it holds before it runs.
  if (type != MsgType::kData) send_held();
  switch (type) {
    case MsgType::kData:
      ++stats_.data_received;
      handle_data(r, wire);
      break;
    case MsgType::kOrdered:
      ++stats_.ordered_received;
      handle_ordered(r, wire);
      break;
    case MsgType::kAck:
      ++stats_.acks_received;
      handle_ack(from, decode_ack(r));
      break;
    case MsgType::kStable:
      ++stats_.stables_received;
      handle_stable(from, decode_stable(r));
      break;
    case MsgType::kInquire: handle_inquire(from, decode_inquire(r)); break;
    case MsgType::kJoinInfo: handle_join_info(from, decode_join_info(r)); break;
    case MsgType::kPlan: handle_plan(decode_plan(r)); break;
    case MsgType::kRetrans: handle_retrans(decode_retrans(r)); break;
    case MsgType::kPlanAck: handle_plan_ack(from, decode_plan_ack(r)); break;
    case MsgType::kInstall: handle_install(decode_install(r)); break;
  }
}

// --------------------------------------------------------------------------
// Data path
// --------------------------------------------------------------------------

void GroupCommunication::handle_data(BufReader& r, const std::shared_ptr<const Bytes>& wire) {
  // Decode the DATA header in place; the payload bytes are re-framed
  // straight from the incoming wire into the ORDERED wire and never
  // materialized as a standalone buffer.
  const ConfigId config = r.config_id();
  const NodeId origin = r.i32();
  const std::int64_t local_seq = r.i64();
  const auto service = static_cast<Service>(r.u8());
  if (state_ != GcState::kOperational || config != config_.id || !is_sequencer()) {
    send_held();  // a receipt that orders nothing still ends the hold
    return;       // the sender resends in its next configuration
  }
  const auto [payload, payload_len] = r.bytes_view();
  order_or_hold(HeldMsg{origin, local_seq, service, wire, payload, payload_len});
}

void GroupCommunication::order_or_hold(HeldMsg&& m) {
  held_.push_back(std::move(m));
  // Above one ack cluster every member's CPU is the cap, and a member pays
  // the per-message receive cost once per packet: while another receipt
  // waits on this CPU, hold the message for it (DESIGN.md §1.2). A group of
  // one cluster sends every message at once, one frame per packet.
  const std::size_t cap = cluster_origin_ == 1 ? kPackFrames : 1;
  if (held_.size() < cap && net_.receipt_queued(id_)) {
    arm_hold_timer(++hold_gen_);
    return;
  }
  send_held();
}

void GroupCommunication::arm_hold_timer(std::uint64_t gen) {
  // The next gc receipt sends the held messages. Should the next receipt be
  // another channel's, or dropped as it runs, poll at the shortest receipt
  // cost until the CPU is idle.
  schedule(net_.params().proc_per_message, [this, gen] {
    if (gen != hold_gen_ || held_.empty()) return;
    if (net_.receipt_queued(id_)) {
      arm_hold_timer(gen);
    } else {
      send_held();
    }
  });
}

void GroupCommunication::send_held() {
  if (held_.empty()) return;
  assert(state_ == GcState::kOperational && is_sequencer());
  // Sequence numbers are assigned as the packet leaves. Each frame has the
  // layout of encode(OrderedMsg{...}); the packet lays them back to back.
  BufWriter w;
  for (const HeldMsg& m : held_) {
    w.u8(static_cast<std::uint8_t>(MsgType::kOrdered));
    w.config_id(config_.id);
    w.i64(++global_seq_);
    w.i32(m.origin);
    w.i64(m.local_seq);
    w.u8(static_cast<std::uint8_t>(m.service));
    w.bytes_view(m.payload, m.len);
  }
  stats_.messages_ordered += held_.size();
  held_.clear();
  auto wire = std::make_shared<const Bytes>(w.take());
  net_.multicast(id_, others_, wire);
  // The sequencer buffers the frames it sent instead of receiving them back
  // over loopback. Storing them on a zero-delay event keeps deliveries out
  // of the caller: run_install re-sends the outbox before it announces the
  // new configuration. The store keeps the frames even if a gather started
  // at this instant, so the sequencer holds every frame it orders before
  // any member can (DESIGN.md §1.1 rests on it); only a configuration
  // change in between, which needs a whole flush, drops them.
  schedule(0, [this, wire = std::move(wire)] {
    BufReader r(*wire);
    r.u8();  // kOrdered
    buffer_ordered(r, wire);
  });
}

void GroupCommunication::handle_ordered(BufReader& r, const std::shared_ptr<const Bytes>& wire) {
  if (state_ == GcState::kOperational) buffer_ordered(r, wire);
}

void GroupCommunication::buffer_ordered(BufReader& r, const std::shared_ptr<const Bytes>& wire) {
  // A packet is one or more ORDERED frames back to back, all of one
  // configuration. Decode each header in place (same layout as
  // decode_ordered) and buffer the payload as a slice of the shared wire —
  // every recipient of the multicast holds the same refcounted buffer, zero
  // deep copies. Deliveries wait until the whole packet is stored.
  std::uint64_t frames = 0;
  do {
    if (frames++ > 0) r.u8();  // kOrdered
    const ConfigId config = r.config_id();
    const std::int64_t seq = r.i64();
    const NodeId origin = r.i32();
    const std::int64_t origin_local_seq = r.i64();
    const auto service = static_cast<Service>(r.u8());
    if (config != config_.id) return;
    const auto [payload, payload_len] = r.bytes_view();
    const auto off = static_cast<std::uint32_t>(payload - wire->data());
    store_buffered(seq, BufferedMsg{origin, origin_local_seq, service, wire, off,
                                    static_cast<std::uint32_t>(payload_len)});
  } while (!r.done());
  stats_.max_frames_per_packet = std::max(stats_.max_frames_per_packet, frames);
  advance_contig();
}

GroupCommunication::BufferedMsg* GroupCommunication::buffered(std::int64_t seq) {
  if (buffer_.empty() || seq < buffer_base_ ||
      seq >= buffer_base_ + static_cast<std::int64_t>(buffer_.size())) {
    return nullptr;
  }
  BufferedMsg& m = buffer_[static_cast<std::size_t>(seq - buffer_base_)];
  return m.origin == kNoNode ? nullptr : &m;
}

void GroupCommunication::buffer_put(std::int64_t seq, BufferedMsg m) {
  if (buffer_.empty()) {
    buffer_base_ = seq;
    buffer_.push_back(std::move(m));
    return;
  }
  while (seq < buffer_base_) {
    buffer_.push_front(BufferedMsg{});
    --buffer_base_;
  }
  while (seq >= buffer_base_ + static_cast<std::int64_t>(buffer_.size())) {
    buffer_.emplace_back();
  }
  buffer_[static_cast<std::size_t>(seq - buffer_base_)] = std::move(m);
}

void GroupCommunication::store_ordered(OrderedMsg&& msg) {
  // Retransmission path: the payload arrives as an owned Bytes; wrap it so
  // it fits the shared-buffer slot format (offset 0, full length).
  auto buf = std::make_shared<const Bytes>(std::move(msg.payload));
  const auto len = static_cast<std::uint32_t>(buf->size());
  store_buffered(msg.seq, BufferedMsg{msg.origin, msg.origin_local_seq, msg.service,
                                      std::move(buf), 0, len});
  advance_contig();
}

void GroupCommunication::store_buffered(std::int64_t seq, BufferedMsg&& m) {
  if (seq <= delivered_upto_ || buffered(seq)) return;
  if (seq <= recv_contig_) {
    // Already pruned as stable; duplicate retransmission.
    return;
  }
  buffer_put(seq, std::move(m));
}

void GroupCommunication::advance_contig() {
  bool advanced = false;
  while (buffered(recv_contig_ + 1)) {
    ++recv_contig_;
    advanced = true;
  }
  if (advanced) after_contig_advance();
}

std::int32_t GroupCommunication::pos_of(NodeId m) const {
  const auto i = static_cast<std::size_t>(m - member_base_);  // wraps below the base
  return i < member_pos_.size() ? member_pos_[i] : -1;
}

void GroupCommunication::reset_stability() {
  const std::vector<NodeId>& ms = config_.members;
  const auto [lo, hi] = std::minmax_element(ms.begin(), ms.end());
  member_base_ = *lo;
  member_pos_.assign(static_cast<std::size_t>(*hi - *lo) + 1, -1);
  for (std::size_t i = 0; i < ms.size(); ++i) {
    member_pos_[static_cast<std::size_t>(ms[i] - member_base_)] = static_cast<std::int32_t>(i);
  }
  assert(pos_of(id_) >= 0);
  self_pos_ = static_cast<std::size_t>(pos_of(id_));
  others_.clear();
  for (NodeId m : ms) {
    if (m != id_) others_.push_back(m);
  }
  // A group of one cluster keeps the sequencer in it. In a larger group the
  // clusters cover positions 1..n-1: the sequencer holds every frame it
  // orders, so nobody waits for its ACK, and it learns its safe line from
  // the leaders' STABLEs alone. It is then a cluster of itself that sends
  // no ACK and no STABLE.
  cluster_origin_ = ms.size() > kAckCluster ? 1 : 0;
  if (self_pos_ < cluster_origin_) {
    cluster_begin_ = 0;
    cluster_contig_.assign(1, 0);
  } else {
    cluster_begin_ = self_pos_ - (self_pos_ - cluster_origin_) % kAckCluster;
    cluster_contig_.assign(std::min(kAckCluster, ms.size() - cluster_begin_), 0);
  }
  cluster_line_.assign((ms.size() - cluster_origin_ + kAckCluster - 1) / kAckCluster, 0);
  last_acked_value_ = -1;
  last_stable_sent_ = 0;
  // Pacing timers armed in the old configuration will no-op on config
  // mismatch; clear the flags so the new configuration can arm its own.
  ack_scheduled_ = false;
  stable_scheduled_ = false;
}

std::int64_t GroupCommunication::cluster_min() const {
  return *std::min_element(cluster_contig_.begin(), cluster_contig_.end());
}

std::int64_t GroupCommunication::safe_line() const {
  // At most 15 peers plus one entry per other cluster: cheap enough to scan
  // on every ACK and STABLE without a memo. Members leave a sequencer
  // outside the clusters out, since it holds whatever they hold; that
  // sequencer takes every cluster's line.
  std::int64_t line = cluster_min();
  const std::size_t own = self_pos_ < cluster_origin_
                              ? cluster_line_.size()
                              : (cluster_begin_ - cluster_origin_) / kAckCluster;
  for (std::size_t k = 0; k < cluster_line_.size(); ++k) {
    if (k != own) line = std::min(line, cluster_line_[k]);
  }
  return line;
}

void GroupCommunication::after_contig_advance() {
  cluster_contig_[self_pos_ - cluster_begin_] = recv_contig_;
  if (cluster_contig_.size() > 1) schedule_ack();
  schedule_stable();
  try_deliver();
}

void GroupCommunication::try_deliver() {
  if (state_ != GcState::kOperational) return;
  const std::int64_t safe = safe_line();
  while (true) {
    const std::int64_t next = delivered_upto_ + 1;
    BufferedMsg* m = buffered(next);
    if (m == nullptr || next > recv_contig_) break;
    if (m->service == Service::kSafe && next > safe) break;
    deliver_one(next, m->service == Service::kSafe ? DeliveryKind::kSafeInRegular
                                                   : DeliveryKind::kAgreed);
  }
  // Prune messages that are both delivered here and received by everyone:
  // no member can ever need them retransmitted.
  const std::int64_t prune = std::min(safe, delivered_upto_);
  while (!buffer_.empty() && buffer_base_ <= prune) {
    buffer_.pop_front();
    ++buffer_base_;
  }
}

void GroupCommunication::deliver_one(std::int64_t seq, DeliveryKind kind) {
  BufferedMsg* slot = buffered(seq);
  assert(slot != nullptr);
  BufferedMsg& m = *slot;
  delivered_upto_ = seq;
  if (m.origin == id_) {
    while (!outbox_.empty() && outbox_.front().local_seq <= m.origin_local_seq) {
      outbox_.pop_front();
    }
  }
  ++stats_.deliveries;
  if (kind == DeliveryKind::kSafeInRegular) obs::count(stats_.safe_deliveries, safe_cell_);
  if (kind == DeliveryKind::kTransitional) ++stats_.transitional_deliveries;
  if (params_.tracer && kind == DeliveryKind::kSafeInRegular) {
    // Safe delivery is the point the paper's trichotomy hinges on: every
    // member of the configuration delivers the same payload at (config, seq).
    params_.tracer.emit(
        obs::EventKind::kSafeDeliver, config_.id.counter,
        static_cast<std::int64_t>(config_.id.coordinator), seq,
        static_cast<std::int64_t>(obs::fingerprint(m.payload_data(), m.payload_size())));
  }
  if (listener_.on_deliver) {
    Delivery d{m.origin, config_.id, seq, kind,
               std::span<const std::uint8_t>(m.payload_data(), m.payload_size()), m.buf};
    listener_.on_deliver(d);
  }
}

void GroupCommunication::schedule_ack() {
  if (ack_scheduled_ || state_ != GcState::kOperational) return;
  ack_scheduled_ = true;
  const SimTime fire =
      std::max(last_ack_sent_ + params_.ack_min_interval, sim_.now() + params_.ack_coalesce);
  const ConfigId cfg = config_.id;
  schedule(fire - sim_.now(), [this, cfg] {
    ack_scheduled_ = false;
    if (state_ != GcState::kOperational || !(config_.id == cfg)) return;
    send_ack();
  });
}

void GroupCommunication::flush_ack() {
  if (state_ == GcState::kOperational) send_ack();
}

void GroupCommunication::send_ack() {
  if (recv_contig_ == last_acked_value_ || cluster_contig_.size() < 2) return;
  last_ack_sent_ = sim_.now();
  last_acked_value_ = recv_contig_;
  ++stats_.acks_sent;
  // Acknowledgements go to every cluster peer directly (one hardware
  // multicast), so safe delivery within a cluster costs three one-way
  // hops (DATA, ORDERED, ACK) rather than four — the difference matters
  // on wide-area links. Other clusters learn it from the leader's STABLE.
  Bytes wire = encode(AckMsg{config_.id, recv_contig_});
  std::vector<NodeId> peers;
  peers.reserve(cluster_contig_.size());
  for (std::size_t i = cluster_begin_; i < cluster_begin_ + cluster_contig_.size(); ++i) {
    if (i != self_pos_) peers.push_back(config_.members[i]);
  }
  send_all(peers, std::move(wire));
}

void GroupCommunication::schedule_stable() {
  // Only a cluster's leader announces, to everyone outside its cluster, the
  // sequencer included. The cluster at position 0 is the whole group or the
  // sequencer alone: it has no one to tell.
  if (cluster_begin_ == 0 || self_pos_ != cluster_begin_) return;
  if (stable_scheduled_ || state_ != GcState::kOperational) return;
  if (cluster_min() <= last_stable_sent_) return;
  stable_scheduled_ = true;
  const ConfigId cfg = config_.id;
  // Coalesced but not rate limited: the minimum advances only when the
  // cluster's slowest member acks, and those ACKs are paced already.
  schedule(params_.ack_coalesce, [this, cfg] {
    stable_scheduled_ = false;
    if (state_ != GcState::kOperational || !(config_.id == cfg)) return;
    const std::int64_t line = cluster_min();
    if (line <= last_stable_sent_) return;
    last_stable_sent_ = line;
    const std::size_t cluster_end = cluster_begin_ + cluster_contig_.size();
    std::vector<NodeId> outside;
    outside.reserve(config_.members.size() - cluster_contig_.size());
    for (std::size_t i = 0; i < config_.members.size(); ++i) {
      if (i < cluster_begin_ || i >= cluster_end) outside.push_back(config_.members[i]);
    }
    send_all(outside, encode(StableMsg{config_.id, line}));
  });
}

void GroupCommunication::handle_ack(NodeId from, const AckMsg& msg) {
  if (state_ != GcState::kOperational || msg.config != config_.id) return;
  // Config-id match implies membership, and only cluster peers ack to us.
  const std::int32_t pos = pos_of(from);
  if (pos < 0) return;
  const auto i = static_cast<std::size_t>(pos) - cluster_begin_;  // wraps below the cluster
  if (i >= cluster_contig_.size() || msg.recv_contig <= cluster_contig_[i]) return;
  cluster_contig_[i] = msg.recv_contig;
  schedule_stable();
  try_deliver();
}

void GroupCommunication::handle_stable(NodeId from, const StableMsg& msg) {
  if (state_ != GcState::kOperational || msg.config != config_.id) return;
  // Position counted from the first clustered member (a non-member is < 0).
  const std::int32_t pos = pos_of(from) - static_cast<std::int32_t>(cluster_origin_);
  if (pos < 0 || pos % static_cast<std::int32_t>(kAckCluster) != 0) return;  // leaders only
  std::int64_t& line = cluster_line_[static_cast<std::size_t>(pos) / kAckCluster];
  if (msg.line <= line) return;
  line = msg.line;
  try_deliver();
}

// --------------------------------------------------------------------------
// Membership (flush) protocol
// --------------------------------------------------------------------------

void GroupCommunication::on_reachability(const std::vector<NodeId>& reachable) {
  last_reachable_ = reachable;
  if (state_ == GcState::kOperational && reachable == config_.members) return;
  start_gather(reachable);
}

void GroupCommunication::start_gather(const std::vector<NodeId>& reachable) {
  ++stats_.gathers_started;
  state_ = GcState::kGathering;
  committed_.reset();
  plan_.reset();
  plan_acked_ = false;
  my_token_.reset();
  my_proposed_.clear();
  infos_.clear();
  plan_acks_.clear();
  built_plan_.reset();
  install_sent_ = false;
  held_.clear();  // no sequence number yet: the senders resend them
  touch_progress();

  if (!reachable.empty() && reachable.front() == id_) {
    my_token_ = GatherToken{id_, ++gather_seq_};
    my_proposed_ = reachable;
    Bytes wire = encode(InquireMsg{*my_token_, my_proposed_});
    send_all(my_proposed_, std::move(wire));
    arm_retry_timer();
  }
  arm_stuck_timer();
}

void GroupCommunication::touch_progress() { last_progress_ = sim_.now(); }

void GroupCommunication::arm_stuck_timer() {
  schedule(params_.stuck_timeout, [this] {
    if (state_ != GcState::kGathering) return;
    if (sim_.now() - last_progress_ >= params_.stuck_timeout) {
      start_gather(last_reachable_);
    } else {
      arm_stuck_timer();
    }
  });
}

void GroupCommunication::arm_retry_timer() {
  if (!my_token_) return;
  const GatherToken token = *my_token_;
  schedule(params_.gather_retry, [this, token] {
    if (!my_token_ || !(*my_token_ == token)) return;
    if (!built_plan_) {
      // Re-inquire members whose JOIN_INFO is missing.
      const Bytes wire = encode(InquireMsg{token, my_proposed_});
      for (NodeId m : my_proposed_) {
        if (!infos_.count(m)) send_to(m, wire);
      }
    } else if (!install_sent_) {
      // Re-send the plan to members whose PLAN_ACK is missing.
      const Bytes wire = encode(*built_plan_);
      for (NodeId m : my_proposed_) {
        if (!plan_acks_.count(m)) send_to(m, wire);
      }
    }
    arm_retry_timer();
  });
}

JoinInfoMsg GroupCommunication::make_join_info(const GatherToken& token) const {
  JoinInfoMsg info;
  info.token = token;
  info.old_config = config_.id;
  info.old_members = config_.members;
  info.recv_contig = recv_contig_;
  info.delivered_upto = delivered_upto_;
  // Own cluster (self included): the ACKed prefixes. Other clusters: the
  // leader's announced minimum. A sequencer outside the clusters: our own
  // prefix, since it holds every frame it ordered. Each is a lower bound on
  // that member's prefix and >= our own safe line (DESIGN.md §1.1), so the
  // coordinator's plan formula keeps the safe-delivery trichotomy.
  info.known_contig.reserve(config_.members.size());
  for (std::size_t i = 0; i < config_.members.size(); ++i) {
    const std::size_t c = i - cluster_begin_;  // wraps below the own cluster
    if (c < cluster_contig_.size()) {
      info.known_contig.push_back(cluster_contig_[c]);
    } else if (i < cluster_origin_) {
      info.known_contig.push_back(recv_contig_);
    } else {
      info.known_contig.push_back(cluster_line_[(i - cluster_origin_) / kAckCluster]);
    }
  }
  info.max_config_counter = counter_floor_;
  return info;
}

void GroupCommunication::handle_inquire(NodeId from, const InquireMsg& msg) {
  if (msg.token.coordinator != from) return;
  if (!contains(last_reachable_, from)) return;  // can no longer complete

  if (committed_ && *committed_ == msg.token) {
    // Coordinator retry: re-send our info.
    send_to(from, encode(make_join_info(msg.token)));
    touch_progress();
    return;
  }

  bool accept = false;
  if (!committed_) {
    accept = true;
  } else if (msg.token.coordinator < committed_->coordinator) {
    accept = true;
  } else if (msg.token.coordinator == committed_->coordinator &&
             msg.token.seq > committed_->seq) {
    accept = true;
  } else if (!contains(last_reachable_, committed_->coordinator)) {
    accept = true;
  }
  if (!accept) return;

  if (state_ == GcState::kOperational) {
    state_ = GcState::kGathering;  // on_packet sent what the sequencer held
    arm_stuck_timer();
  }
  committed_ = msg.token;
  plan_.reset();
  plan_acked_ = false;
  if (my_token_ && msg.token.coordinator < id_) {
    // A smaller coordinator supersedes our own attempt.
    my_token_.reset();
    my_proposed_.clear();
    infos_.clear();
    plan_acks_.clear();
    built_plan_.reset();
    install_sent_ = false;
  }
  touch_progress();
  send_to(from, encode(make_join_info(msg.token)));
}

void GroupCommunication::handle_join_info(NodeId from, const JoinInfoMsg& msg) {
  if (!my_token_ || !(msg.token == *my_token_)) return;
  infos_[from] = msg;
  touch_progress();
  coordinator_maybe_plan();
}

void GroupCommunication::coordinator_maybe_plan() {
  if (built_plan_) return;
  for (NodeId m : my_proposed_) {
    if (!infos_.count(m)) return;
  }
  std::int64_t max_counter = counter_floor_;
  for (const auto& [n, info] : infos_) {
    max_counter = std::max({max_counter, info.max_config_counter, info.old_config.counter});
  }

  PlanMsg plan;
  plan.token = *my_token_;
  plan.new_config = ConfigId{max_counter + 1, id_};
  plan.new_members = my_proposed_;

  // Group participants by the regular configuration they come from.
  std::map<ConfigId, std::vector<NodeId>> groups;
  for (const auto& [n, info] : infos_) groups[info.old_config].push_back(n);

  for (auto& [old_id, participants] : groups) {
    std::sort(participants.begin(), participants.end());
    PlanEntry e;
    e.old_config = old_id;
    e.old_members = infos_.at(participants.front()).old_members;
    e.participants = participants;
    std::int64_t target = 0;
    NodeId holder = participants.front();
    for (NodeId p : participants) {
      const std::int64_t c = infos_.at(p).recv_contig;
      e.participant_contig.push_back(c);
      if (c > target) {
        target = c;
        holder = p;
      }
    }
    e.target_seq = target;
    e.retransmitter = holder;
    // Safe line: a message is known received by ALL old members if, for
    // every old member m, some participant saw an ack from m covering it.
    std::int64_t safe = target;
    for (std::size_t mi = 0; mi < e.old_members.size(); ++mi) {
      const NodeId m = e.old_members[mi];
      std::int64_t best = 0;
      for (NodeId p : participants) {
        const JoinInfoMsg& info = infos_.at(p);
        // Find m's slot in p's old_members (configs match, so aligned).
        for (std::size_t j = 0; j < info.old_members.size(); ++j) {
          if (info.old_members[j] == m) {
            best = std::max(best, info.known_contig[j]);
            break;
          }
        }
      }
      safe = std::min(safe, best);
    }
    e.safe_line = safe;
    plan.entries.push_back(std::move(e));
  }

  built_plan_ = plan;
  send_all(my_proposed_, encode(plan));
}

const PlanEntry* GroupCommunication::my_plan_entry() const {
  if (!plan_) return nullptr;
  for (const PlanEntry& e : plan_->entries) {
    if (e.old_config == config_.id) return &e;
  }
  return nullptr;
}

void GroupCommunication::handle_plan(const PlanMsg& msg) {
  if (!committed_ || !(msg.token == *committed_)) return;
  plan_ = msg;
  touch_progress();
  const PlanEntry* e = my_plan_entry();
  if (!e) return;
  if (e->retransmitter == id_) {
    for (std::size_t i = 0; i < e->participants.size(); ++i) {
      const NodeId q = e->participants[i];
      if (q == id_) continue;
      for (std::int64_t seq = e->participant_contig[i] + 1; seq <= e->target_seq; ++seq) {
        const BufferedMsg* m = buffered(seq);
        if (m == nullptr) continue;  // pruned as globally stable: q has it
        RetransMsg rm;
        rm.token = msg.token;
        rm.message =
            OrderedMsg{config_.id, seq, m->origin, m->origin_local_seq, m->service,
                       Bytes(m->payload_data(), m->payload_data() + m->payload_size())};
        ++stats_.retransmissions;
        send_to(q, encode(rm));
      }
    }
  }
  member_check_plan_ack();
}

void GroupCommunication::handle_retrans(const RetransMsg& msg) {
  if (msg.message.config != config_.id) return;
  store_ordered(std::move(const_cast<RetransMsg&>(msg).message));
  touch_progress();
  member_check_plan_ack();
}

void GroupCommunication::member_check_plan_ack() {
  if (!plan_ || plan_acked_ || !committed_) return;
  const PlanEntry* e = my_plan_entry();
  if (!e || recv_contig_ < e->target_seq) return;
  plan_acked_ = true;
  send_to(committed_->coordinator, encode(PlanAckMsg{*committed_}));
}

void GroupCommunication::handle_plan_ack(NodeId from, const PlanAckMsg& msg) {
  if (!my_token_ || !(msg.token == *my_token_)) return;
  plan_acks_[from] = true;
  touch_progress();
  coordinator_maybe_install();
}

void GroupCommunication::coordinator_maybe_install() {
  if (!built_plan_ || install_sent_) return;
  for (NodeId m : my_proposed_) {
    if (!plan_acks_.count(m)) return;
  }
  install_sent_ = true;
  send_all(my_proposed_, encode(InstallMsg{*my_token_}));
}

void GroupCommunication::handle_install(const InstallMsg& msg) {
  if (!committed_ || !(msg.token == *committed_) || !plan_) return;
  run_install();
}

void GroupCommunication::run_install() {
  const PlanMsg plan = *plan_;
  const PlanEntry* entry = my_plan_entry();
  assert(entry != nullptr);
  const PlanEntry e = *entry;  // copy: we mutate state below

  // 1. Deliver the remaining messages known to be received by every member
  //    of the old configuration: these still meet the safe guarantee.
  while (delivered_upto_ < e.safe_line) {
    const std::int64_t next = delivered_upto_ + 1;
    const BufferedMsg* m = buffered(next);
    if (m == nullptr) break;  // was pruned => already delivered
    deliver_one(next, m->service == Service::kSafe ? DeliveryKind::kSafeInRegular
                                                   : DeliveryKind::kAgreed);
  }

  // 2. Transitional configuration: members of the old regular configuration
  //    moving together into the new one.
  Configuration trans;
  trans.id = config_.id;
  trans.members = e.participants;
  trans.transitional = true;
  ++stats_.transitional_configs;
  emit_config(trans);
  if (listener_.on_transitional_config) listener_.on_transitional_config(trans);

  // 3. Left-over messages, delivered in the transitional configuration.
  while (delivered_upto_ < e.target_seq) {
    const std::int64_t next = delivered_upto_ + 1;
    const BufferedMsg* m = buffered(next);
    if (m == nullptr) break;
    deliver_one(next, m->service == Service::kSafe ? DeliveryKind::kTransitional
                                                   : DeliveryKind::kAgreed);
  }

  // 4. Install the new regular configuration and reset the data path.
  config_.id = plan.new_config;
  config_.members = plan.new_members;
  config_.transitional = false;
  counter_floor_ = std::max(counter_floor_, plan.new_config.counter);
  global_seq_ = 0;
  recv_contig_ = 0;
  delivered_upto_ = 0;
  buffer_.clear();
  reset_stability();
  state_ = GcState::kOperational;
  committed_.reset();
  plan_.reset();
  plan_acked_ = false;
  my_token_.reset();
  my_proposed_.clear();
  infos_.clear();
  plan_acks_.clear();
  built_plan_.reset();
  install_sent_ = false;

  // 5. Re-send local multicasts that were never self-delivered, preserving
  //    FIFO order, before the application reacts to the new configuration.
  stats_.resent_after_install += outbox_.size();
  for (const OutEntry& out : outbox_) send_data(out);

  obs::count(stats_.regular_configs, configs_cell_);
  emit_config(config_);
  if (listener_.on_regular_config) listener_.on_regular_config(config_);
}

void GroupCommunication::emit_config(const Configuration& c) {
  if (!params_.tracer) return;
  params_.tracer.emit(c.transitional ? obs::EventKind::kViewTransitional
                                     : obs::EventKind::kViewRegular,
                      c.id.counter, static_cast<std::int64_t>(c.id.coordinator),
                      static_cast<std::int64_t>(c.members.size()));
}

}  // namespace tordb::gc
