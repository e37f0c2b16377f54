#include "sim/network.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <stdexcept>

#include "util/log.h"

namespace tordb {

Network::Network(Simulator& sim, NetworkParams params) : sim_(sim), params_(params) {
  // One shard of everything lane-partitioned until set_lane() is called.
  reach_cache_.resize(1);
  stats_lanes_.resize(1);
}

NetworkStats& Network::lstats() const {
  if (!lanes_) return stats_lanes_[0];
  return stats_lanes_[static_cast<std::size_t>(sim_.current_lane())];
}

const NetworkStats& Network::stats() const {
  if (stats_lanes_.size() == 1) return stats_lanes_[0];
  NetworkStats agg;
  for (const NetworkStats& s : stats_lanes_) {
    agg.messages_sent += s.messages_sent;
    agg.messages_delivered += s.messages_delivered;
    agg.messages_dropped += s.messages_dropped;
    agg.bytes_sent += s.bytes_sent;
    agg.payload_bytes_copied += s.payload_bytes_copied;
    agg.reachable_cache_hits += s.reachable_cache_hits;
    agg.reachable_cache_misses += s.reachable_cache_misses;
  }
  stats_agg_ = agg;
  return stats_agg_;
}

void Network::set_metrics(obs::MetricsRegistry& m) {
  messages_cell_ = &m.counter("net.messages");
  bytes_cell_ = &m.counter("net.bytes");
  copied_cell_ = &m.counter("net.payload_bytes_copied");
  cache_hit_cell_ = &m.counter("net.reachable_cache_hits");
  cache_miss_cell_ = &m.counter("net.reachable_cache_misses");
}

void Network::ensure_lane_mode() {
  if (lanes_) return;
  if (!sim_.lanes_enabled()) throw std::logic_error("lane assignment requires simulator lanes");
  if (params_.wan_per_byte > 0) {
    // The WAN egress horizon is shared per site, not per lane.
    throw std::logic_error("wan_per_byte is not supported in lane mode");
  }
  lanes_ = true;
  reach_cache_.resize(static_cast<std::size_t>(sim_.lane_count()));
  stats_lanes_.resize(static_cast<std::size_t>(sim_.lane_count()));
}

void Network::set_lane(NodeId id, int lane) {
  ensure_lane_mode();
  if (lane < 0 || lane >= sim_.lane_count()) throw std::invalid_argument("bad lane");
  state(id).lane = lane;
}

int Network::lane(NodeId id) const { return state(id).lane; }

void Network::check_same_lane(const NodeState& src, const NodeState& dst) const {
  if (lanes_ && src.lane != dst.lane) {
    throw std::logic_error("network: traffic between nodes of different lanes");
  }
}

std::size_t Network::idx(NodeId id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= dense_.size() || dense_[id] < 0) {
    throw std::out_of_range("unknown node id");
  }
  return static_cast<std::size_t>(dense_[id]);
}

void Network::add_node(NodeId id) {
  if (id < 0) throw std::invalid_argument("negative node id");
  if (static_cast<std::size_t>(id) < dense_.size() && dense_[id] >= 0) {
    throw std::invalid_argument("duplicate node id");
  }
  if (static_cast<std::size_t>(id) >= dense_.size()) {
    dense_.resize(static_cast<std::size_t>(id) + 1, -1);
  }
  const std::size_t old_n = states_.size();
  dense_[id] = static_cast<std::int32_t>(old_n);
  states_.emplace_back();
  states_.back().id = id;
  if (sim_.lanes_enabled()) {
    // A node belongs to the lane it is constructed in (the harness wraps
    // each shard's construction in a Simulator::LaneScope).
    ensure_lane_mode();
    states_.back().lane = sim_.current_lane();
  }
  ids_sorted_.insert(std::lower_bound(ids_sorted_.begin(), ids_sorted_.end(), id), id);
  // Grow the flat link-horizon matrix from old_n^2 to n^2, preserving
  // existing horizons (indices are stable; only the row stride changes).
  const std::size_t n = old_n + 1;
  std::vector<SimTime> grown(n * n, 0);
  for (std::size_t f = 0; f < old_n; ++f) {
    for (std::size_t t = 0; t < old_n; ++t) grown[f * n + t] = link_horizon_[f * old_n + t];
  }
  link_horizon_ = std::move(grown);
  for (auto& cache : reach_cache_) cache.clear();
}

void Network::set_packet_handler(NodeId id, PacketHandler handler, Channel channel) {
  state(id).on_packet[static_cast<int>(channel)] = std::move(handler);
}

void Network::set_shared_packet_handler(NodeId id, SharedPacketHandler handler,
                                        Channel channel) {
  state(id).on_packet_shared[static_cast<int>(channel)] = std::move(handler);
}

void Network::clear_packet_handler(NodeId id, Channel channel) {
  state(id).on_packet[static_cast<int>(channel)] = nullptr;
  state(id).on_packet_shared[static_cast<int>(channel)] = nullptr;
}

void Network::set_reachability_handler(NodeId id, ReachabilityHandler handler) {
  state(id).on_reachability = std::move(handler);
  schedule_notify(id);
}

void Network::clear_reachability_handler(NodeId id) {
  state(id).on_reachability = nullptr;
}

void Network::set_group_active(NodeId id, bool active) {
  NodeState& s = state(id);
  if (s.group_active == active) return;
  s.group_active = active;
  topology_changed();
}

bool Network::group_active(NodeId id) const { return state(id).group_active; }

void Network::set_site(NodeId id, int site) {
  if (site < 0) throw std::invalid_argument("negative site");
  state(id).site = site;
}

SimDuration Network::wan_serialize(int site, std::size_t bytes) {
  if (params_.wan_per_byte <= 0) return 0;
  if (static_cast<std::size_t>(site) >= site_egress_busy_.size()) {
    site_egress_busy_.resize(static_cast<std::size_t>(site) + 1, 0);
  }
  SimTime& busy = site_egress_busy_[static_cast<std::size_t>(site)];
  const SimDuration ser = params_.wan_per_byte * static_cast<SimDuration>(bytes);
  const SimTime start = std::max(sim_.now(), busy);
  busy = start + ser;
  return busy - sim_.now();
}

int Network::site(NodeId id) const { return state(id).site; }

void Network::set_group(NodeId id, int group) {
  NodeState& s = state(id);
  if (s.group == group) return;
  s.group = group;
  topology_changed();
}

int Network::group(NodeId id) const { return state(id).group; }

bool Network::alive(NodeId id) const { return state(id).up; }

bool Network::connected(NodeId a, NodeId b) const { return connected_idx(idx(a), idx(b)); }

std::vector<NodeId> Network::reachable_set(NodeId id) const {
  const NodeState& s = state(id);
  if (!s.up) return {};
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(s.component)) << 32) |
      static_cast<std::uint32_t>(s.group);
  auto& cache = reach_cache_[lanes_ ? static_cast<std::size_t>(s.lane) : 0];
  auto it = cache.find(key);
  if (it != cache.end()) {
    obs::count(lstats().reachable_cache_hits, cache_hit_cell_);
    return it->second;
  }
  obs::count(lstats().reachable_cache_misses, cache_miss_cell_);
  std::vector<NodeId> out;
  for (NodeId nid : ids_sorted_) {
    const NodeState& ns = states_[static_cast<std::size_t>(dense_[nid])];
    if (ns.up && ns.group_active && ns.component == s.component && ns.group == s.group) {
      out.push_back(nid);
    }
  }
  cache.emplace(key, out);
  return out;
}

std::vector<NodeId> Network::node_ids() const { return ids_sorted_; }

void Network::charge(NodeId id, SimDuration d) {
  NodeState& s = state(id);
  s.busy_until = std::max(s.busy_until, sim_.now()) + d;
}

SimTime Network::busy_until(NodeId id) const { return state(id).busy_until; }

void Network::send(NodeId from, NodeId to, const Bytes& payload, Channel channel) {
  obs::count(lstats().payload_bytes_copied, copied_cell_, payload.size());
  send(from, to, Bytes(payload), channel);
}

void Network::send(NodeId from, NodeId to, Bytes&& payload, Channel channel) {
  const std::size_t fi = idx(from);
  const std::size_t ti = idx(to);
  NodeState& src = states_[fi];
  check_same_lane(src, states_[ti]);
  if (!src.up) return;
  NetworkStats& st = lstats();
  obs::count(st.messages_sent, messages_cell_);
  obs::count(st.bytes_sent, bytes_cell_, payload.size());
  charge(from, params_.send_per_message);

  if (!connected_idx(fi, ti)) {
    ++st.messages_dropped;
    return;
  }

  SimDuration latency = 0;
  if (from != to) {
    latency = params_.base_latency +
              params_.per_byte_latency * static_cast<SimDuration>(payload.size());
    if (src.site != states_[ti].site) {
      latency += params_.inter_site_latency + wan_serialize(src.site, payload.size());
    }
    if (params_.jitter > 0) latency += sim_.rng().next_range(0, params_.jitter - 1);
  }
  SimTime arrive = sim_.now() + latency;

  // FIFO per directed link: never deliver earlier than a previous packet.
  SimTime& horizon = link_horizon_[fi * states_.size() + ti];
  arrive = std::max(arrive, horizon + 1);
  horizon = arrive;

  const std::uint64_t to_epoch = states_[ti].epoch;
  auto p = std::make_shared<const Bytes>(std::move(payload));
  sim_.at(arrive, [this, from, to, to_epoch, channel, p = std::move(p)]() mutable {
    deliver(from, to, to_epoch, channel, std::move(p));
  });
}

void Network::multicast(NodeId from, const std::vector<NodeId>& to, const Bytes& payload,
                        Channel channel) {
  obs::count(lstats().payload_bytes_copied, copied_cell_, payload.size());
  multicast(from, to, Bytes(payload), channel);
}

void Network::multicast(NodeId from, const std::vector<NodeId>& to, Bytes&& payload,
                        Channel channel) {
  multicast(from, to, std::make_shared<const Bytes>(std::move(payload)), channel);
}

void Network::multicast(NodeId from, const std::vector<NodeId>& to,
                        std::shared_ptr<const Bytes> p, Channel channel) {
  // Models LAN hardware multicast (what Spread uses): the sender pays the
  // send cost once and the wire fans out; receivers each pay receive costs.
  // One refcounted buffer is shared by every recipient's delivery event.
  const std::size_t fi = idx(from);
  NodeState& src = states_[fi];
  if (!src.up) return;
  charge(from, params_.send_per_message);
  NetworkStats& st = lstats();
  obs::count(st.messages_sent, messages_cell_);
  obs::count(st.bytes_sent, bytes_cell_, p->size());

  // One WAN copy per remote site, not per remote target.
  std::map<int, SimDuration> site_serialization;
  if (params_.wan_per_byte > 0) {
    for (NodeId t : to) {
      const int s = states_[idx(t)].site;
      if (s != src.site && !site_serialization.count(s)) {
        site_serialization[s] = wan_serialize(src.site, p->size());
      }
    }
  }

  for (NodeId t : to) {
    const std::size_t ti = idx(t);
    check_same_lane(src, states_[ti]);
    if (!connected_idx(fi, ti)) {
      ++st.messages_dropped;
      continue;
    }
    SimDuration latency = 0;
    if (from != t) {
      latency = params_.base_latency +
                params_.per_byte_latency * static_cast<SimDuration>(p->size());
      if (src.site != states_[ti].site) {
        latency += params_.inter_site_latency;
        auto it = site_serialization.find(states_[ti].site);
        if (it != site_serialization.end()) latency += it->second;
      }
      if (params_.jitter > 0) latency += sim_.rng().next_range(0, params_.jitter - 1);
    }
    SimTime arrive = sim_.now() + latency;
    SimTime& horizon = link_horizon_[fi * states_.size() + ti];
    arrive = std::max(arrive, horizon + 1);
    horizon = arrive;
    const std::uint64_t to_epoch = states_[ti].epoch;
    sim_.at(arrive, [this, from, t, to_epoch, channel, p]() mutable {
      deliver(from, t, to_epoch, channel, std::move(p));
    });
  }
}

void Network::deliver(NodeId from, NodeId to, std::uint64_t to_epoch, Channel channel,
                      std::shared_ptr<const Bytes> payload) {
  const std::size_t fi = idx(from);
  const std::size_t ti = idx(to);
  NodeState& dst = states_[ti];
  // Drop if the receiver crashed (epoch bumped), or the partition map
  // changed while the packet was in flight.
  if (!dst.up || dst.epoch != to_epoch || !connected_idx(fi, ti)) {
    ++lstats().messages_dropped;
    return;
  }
  // Serialize receipt on the destination CPU.
  const SimDuration cost = params_.proc_per_message +
                           params_.proc_per_byte * static_cast<SimDuration>(payload->size());
  const SimTime start = std::max(sim_.now(), dst.busy_until);
  dst.busy_until = start + cost;
  // u32 indices (and 8-aligned captures first) keep this closure within
  // SmallFn's inline budget — the static_assert below pins that.
  const auto fi32 = static_cast<std::uint32_t>(fi);
  const auto ti32 = static_cast<std::uint32_t>(ti);
  auto ev = [this, to_epoch, p = std::move(payload), from, fi = fi32, ti = ti32, channel] {
    NodeState& d = states_[ti];
    if (!d.up || d.epoch != to_epoch || !connected_idx(fi, ti)) {
      ++lstats().messages_dropped;
      return;
    }
    ++lstats().messages_delivered;
    if (SharedPacketHandler& shared = d.on_packet_shared[static_cast<int>(channel)]) {
      shared(from, p);
      return;
    }
    PacketHandler& handler = d.on_packet[static_cast<int>(channel)];
    if (handler) handler(from, *p);
  };
  static_assert(sizeof(ev) <= SmallFn::kInlineSize, "delivery event must stay inline");
  sim_.at(dst.rx, dst.busy_until, std::move(ev));
}

void Network::set_components(const std::vector<std::vector<NodeId>>& components) {
  std::vector<int> assignment(states_.size(), -1);
  std::size_t assigned = 0;
  for (std::size_t c = 0; c < components.size(); ++c) {
    for (NodeId id : components[c]) {
      if (id < 0 || static_cast<std::size_t>(id) >= dense_.size() || dense_[id] < 0) {
        throw std::invalid_argument("unknown node in component");
      }
      const auto i = static_cast<std::size_t>(dense_[id]);
      if (assignment[i] != -1) throw std::invalid_argument("node in two components");
      assignment[i] = static_cast<int>(c);
      ++assigned;
    }
  }
  if (assigned != states_.size()) {
    throw std::invalid_argument("every node must appear in exactly one component");
  }
  bool changed = false;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (states_[i].component != assignment[i]) {
      states_[i].component = assignment[i];
      changed = true;
    }
  }
  if (changed) topology_changed();
}

void Network::heal() {
  bool changed = false;
  for (NodeState& st : states_) {
    if (st.component != 0) {
      st.component = 0;
      changed = true;
    }
  }
  if (changed) topology_changed();
}

void Network::crash(NodeId id) {
  NodeState& s = state(id);
  if (!s.up) return;
  s.up = false;
  ++s.epoch;       // all in-flight traffic to this node is dropped
  s.busy_until = 0;
  // The crashed node's queued cross-site traffic dies with it: release the
  // site's WAN egress so post-recovery sends don't serialize behind bytes
  // that were never put on the wire.
  if (static_cast<std::size_t>(s.site) < site_egress_busy_.size()) {
    site_egress_busy_[static_cast<std::size_t>(s.site)] = 0;
  }
  topology_changed();
}

void Network::recover(NodeId id) {
  NodeState& s = state(id);
  if (s.up) return;
  s.up = true;
  ++s.epoch;
  topology_changed();
}

void Network::topology_changed() {
  // A membership change made from a running worker lane (a node joining or
  // leaving its group) can only affect that lane: groups never span lanes,
  // so other lanes' reachable sets — and their caches — are untouched.
  // Everything else (harness crash/partition calls between runs, or from
  // the exclusive control phase) takes the global path.
  if (lanes_ && sim_.running() && sim_.current_lane() != sim_.control_lane()) {
    const int lane = sim_.current_lane();
    reach_cache_[static_cast<std::size_t>(lane)].clear();
    for (NodeId id : ids_sorted_) {
      const NodeState& st = states_[static_cast<std::size_t>(dense_[id])];
      if (st.up && st.lane == lane) schedule_notify(id);
    }
    return;
  }
  for (auto& cache : reach_cache_) cache.clear();
  for (NodeId id : ids_sorted_) {
    if (states_[static_cast<std::size_t>(dense_[id])].up) schedule_notify(id);
  }
}

void Network::schedule_notify(NodeId id) {
  NodeState& s = state(id);
  if (s.notify_pending) return;
  s.notify_pending = true;
  const std::uint64_t epoch = s.epoch;
  // post() == after() when lanes are off; in lane mode the notification
  // must fire on the node's own lane (detect_delay >= the handoff latency,
  // validated by the lane-mode harness).
  sim_.post(s.lane, params_.detect_delay, [this, id, epoch] {
    NodeState& st = state(id);
    st.notify_pending = false;
    if (!st.up || st.epoch != epoch) return;
    if (st.on_reachability) st.on_reachability(reachable_set(id));
  });
}

}  // namespace tordb
