#include "workload/cluster.h"

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace tordb::workload {

EngineCluster::EngineCluster(ClusterOptions options) : EngineCluster(std::move(options), 1, 0, 0) {
  start_metrics_roll();
}

EngineCluster::EngineCluster(ClusterOptions options, int groups, int lane_threads,
                             SimDuration lane_handoff)
    : options_(std::move(options)), sim_(options_.seed), net_(sim_, options_.net) {
  // Partition the simulator BEFORE anything is scheduled and before the
  // trace bus exists (the bus sizes its per-lane buffers and installs the
  // barrier hook at construction).
  if (lane_threads > 0) sim_.enable_lanes(groups + 1, lane_threads, lane_handoff);

  const bool check = options_.obs.check || obs::check_forced();
  if (options_.obs.trace || check) {
    obs::TraceBusOptions bus_opts;
    bus_opts.ring_capacity = options_.obs.ring_capacity;
    trace_bus_ = std::make_shared<obs::TraceBus>(sim_, bus_opts);
    trace_bus_->capture_logs();  // logger lines become kLogLine trace events
    options_.node.engine.trace_bus = trace_bus_;
    if (check) {
      obs::CheckerOptions copts;
      copts.fail_fast = options_.obs.checker_fail_fast;
      checker_ = std::make_unique<obs::SafetyChecker>(*trace_bus_, copts);
    }
  }
  if (options_.obs.metrics_window > 0) {
    metrics_ = std::make_shared<obs::MetricsRegistry>();
    options_.node.engine.metrics = metrics_;
    sim_.set_metrics(*metrics_);
    net_.set_metrics(*metrics_);
  }

  // Scope every node to its group BEFORE construction where possible: the
  // checker needs the node->group map before the engine's first event
  // (kEngineStart fires inside the ReplicaNode constructor); the network
  // group is set right after registration, before any simulated time
  // elapses, so the first (detect-delay-deferred) reachability notification
  // already sees the final assignment.
  for (int g = 0; g < groups; ++g) {
    std::vector<NodeId> members;
    for (int i = 0; i < options_.replicas; ++i) {
      members.push_back(static_cast<NodeId>(g * options_.replicas + i));
    }
    // In lane mode, build group g inside lane g: Network::add_node stamps
    // the current lane, and every event the nodes schedule during
    // construction (engine start, initial reachability notify) lands in
    // their own lane's heap. Lane `groups` is the control lane.
    std::optional<Simulator::LaneScope> scope;
    if (sim_.lanes_enabled()) scope.emplace(sim_, g);
    for (NodeId id : members) {
      if (checker_) checker_->set_node_group(id, g);
      nodes_.push_back(std::make_unique<core::ReplicaNode>(net_, id, members, options_.node));
      net_.set_group(id, g);
      if (metrics_) {  // the node's `shard.<g>.*` cells, now that its group is set
        nodes_.back()->storage().set_metrics(*metrics_, g);
        nodes_.back()->engine().bind_group_metrics();
      }
    }
    groups_.push_back(std::move(members));
  }
}

void EngineCluster::start_metrics_roll() {
  if (!metrics_) return;
  sim_.after(options_.obs.metrics_window, [this] {
    roll_metrics();
    start_metrics_roll();
  });
}

void EngineCluster::roll_metrics() {
  if (!metrics_) return;
  sample_metrics();
  metrics_->roll(sim_.now());
}

void EngineCluster::sample_metrics() {
  if (!metrics_) return;
  std::int64_t white_min = -1, white_lag = 0, bodies = 0, body_bytes = 0;
  db::DbStats db;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    std::int64_t min_white = -1, max_green = 0;
    for (NodeId id : groups_[g]) {
      core::ReplicaNode& n = node(id);
      if (!n.running()) continue;
      core::ReplicationEngine& e = n.engine();
      min_white = min_white < 0 ? e.white_line() : std::min(min_white, e.white_line());
      max_green = std::max(max_green, e.green_count());
      bodies += static_cast<std::int64_t>(e.action_log().stored_bodies());
      body_bytes += e.action_log().body_bytes();
      const db::DbStats ds = e.database().stats();
      db.interned_keys += ds.interned_keys;
      db.interned_bytes += ds.interned_bytes;
      db.table_slots += ds.table_slots;
    }
    // White-line / body-store health (DESIGN.md §14): `lag` is how far the
    // group's slowest white line trails its fastest green count — growing
    // lag means trimming is starving and bodies are pinned.
    const std::string prefix = "shard." + std::to_string(g) + ".";
    const std::int64_t line = std::max<std::int64_t>(min_white, 0);
    metrics_->gauge(prefix + "whiteline.min").set(line);
    metrics_->gauge(prefix + "whiteline.lag").set(max_green - line);
    if (min_white >= 0) white_min = white_min < 0 ? min_white : std::min(white_min, min_white);
    white_lag += max_green - line;
  }
  metrics_->gauge("gc.whiteline.min").set(std::max<std::int64_t>(white_min, 0));
  metrics_->gauge("gc.whiteline.lag").set(white_lag);  // summed over groups
  metrics_->gauge("gc.bodies.stored").set(bodies);
  metrics_->gauge("gc.bodies.bytes").set(body_bytes);
  // Flat-layout accounting (DESIGN.md §11), summed over running replicas.
  metrics_->gauge("db.intern.keys").set(static_cast<std::int64_t>(db.interned_keys));
  metrics_->gauge("db.intern.bytes").set(static_cast<std::int64_t>(db.interned_bytes));
  metrics_->gauge("db.table.slots").set(static_cast<std::int64_t>(db.table_slots));
  metrics_->gauge("sim.queue_depth").set(static_cast<std::int64_t>(sim_.queue_depth()));
  metrics_->gauge("sim.peak_queue_depth").set(static_cast<std::int64_t>(sim_.peak_queue_depth()));
  if (!sim_.lanes_enabled()) return;
  // Lane health (DESIGN.md §15): the per-lane event spread and the clock
  // skew inside the current window tell whether the load is balanced enough
  // for the worker pool to help (see docs/OPERATIONS.md).
  std::uint64_t ev_min = ~0ull, ev_max = 0;
  SimTime now_min = 0, now_max = 0;
  std::size_t depth_max = 0;
  for (int l = 0; l < sim_.lane_count() - 1; ++l) {  // worker lanes only
    ev_min = std::min<std::uint64_t>(ev_min, sim_.lane_executed(l));
    ev_max = std::max<std::uint64_t>(ev_max, sim_.lane_executed(l));
    now_min = l == 0 ? sim_.lane_now(l) : std::min(now_min, sim_.lane_now(l));
    now_max = std::max(now_max, sim_.lane_now(l));
    depth_max = std::max(depth_max, sim_.lane_queue_depth(l));
  }
  metrics_->gauge("sim.lanes.count").set(sim_.lane_count());
  metrics_->gauge("sim.lanes.threads").set(sim_.worker_threads());
  metrics_->gauge("sim.lanes.events.min").set(static_cast<std::int64_t>(ev_min));
  metrics_->gauge("sim.lanes.events.max").set(static_cast<std::int64_t>(ev_max));
  metrics_->gauge("sim.lanes.skew_ns").set(now_max - now_min);
  metrics_->gauge("sim.lanes.queue_depth.max").set(static_cast<std::int64_t>(depth_max));
}

std::vector<NodeId> EngineCluster::all_ids() const {
  std::vector<NodeId> all;
  for (std::size_t i = 0; i < nodes_.size(); ++i) all.push_back(static_cast<NodeId>(i));
  return all;
}

core::ReplicaNode& EngineCluster::add_dormant(NodeId id) {
  if (id != static_cast<NodeId>(nodes_.size())) {
    throw std::invalid_argument("dormant node ids must be contiguous");
  }
  nodes_.push_back(
      std::make_unique<core::ReplicaNode>(net_, id, core::ReplicaNode::DormantTag{},
                                          options_.node));
  groups_.back().push_back(id);
  if (metrics_) nodes_.back()->storage().set_metrics(*metrics_, net_.group(id));
  return *nodes_.back();
}

bool EngineCluster::group_converged(const std::vector<NodeId>& ids, bool skip_crashed) const {
  std::int64_t green = -1;
  std::uint64_t digest = 0;
  for (NodeId id : ids) {
    const core::ReplicaNode& n = node(id);
    if (!n.running()) {
      if (skip_crashed) continue;
      return false;
    }
    const auto& e = n.engine();
    if (e.state() != core::EngineState::kRegPrim) return false;
    if (green == -1) {
      green = e.green_count();
      digest = e.db_digest();
    } else if (e.green_count() != green || e.db_digest() != digest) {
      return false;
    }
  }
  return green >= 0;
}

std::optional<std::string> EngineCluster::check_green_prefix_consistency() const {
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const std::vector<NodeId>& members = groups_[g];
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (!node(members[i]).running()) continue;
      const auto& a = node(members[i]).engine();
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        if (!node(members[j]).running()) continue;
        const auto& b = node(members[j]).engine();
        const std::int64_t overlap_end = std::min(a.green_count(), b.green_count());
        for (std::int64_t pos = 1; pos <= overlap_end; ++pos) {
          const ActionId ia = a.green_action_at(pos);
          const ActionId ib = b.green_action_at(pos);
          if (ia.server_id == kNoNode || ib.server_id == kNoNode) continue;  // white-trimmed
          if (!(ia == ib)) {
            std::ostringstream os;
            os << "group " << g << ": green divergence at position " << pos << ": node "
               << a.id() << " has " << to_string(ia) << ", node " << b.id() << " has "
               << to_string(ib);
            return os.str();
          }
        }
        if (a.green_count() == b.green_count() && a.db_digest() != b.db_digest()) {
          std::ostringstream os;
          os << "group " << g << ": equal green count " << a.green_count()
             << " but different digests at nodes " << a.id() << " and " << b.id();
          return os.str();
        }
      }
    }
  }
  return std::nullopt;
}

std::optional<std::string> EngineCluster::check_green_fifo() const {
  for (const auto& n : nodes_) {
    if (!n->running()) continue;
    const auto& e = n->engine();
    std::map<NodeId, std::int64_t> last;
    for (std::int64_t pos = 1; pos <= e.green_count(); ++pos) {
      const ActionId id = e.green_action_at(pos);
      if (id.server_id == kNoNode) continue;  // white-trimmed
      auto it = last.find(id.server_id);
      if (it != last.end() && id.index != it->second + 1) {
        std::ostringstream os;
        os << "FIFO violation at node " << e.id() << ": creator " << id.server_id << " index "
           << id.index << " after " << it->second;
        return os.str();
      }
      last[id.server_id] = id.index;
    }
  }
  return std::nullopt;
}

std::optional<std::string> EngineCluster::check_single_primary() const {
  std::map<std::pair<std::size_t, std::int64_t>, std::vector<NodeId>> prim_members;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    for (NodeId id : groups_[g]) {
      if (!node(id).running()) continue;
      const auto& e = node(id).engine();
      if (!e.in_primary()) continue;
      const auto& p = e.prim_component();
      auto [it, inserted] = prim_members.emplace(std::make_pair(g, p.prim_index), p.servers);
      if (!inserted && it->second != p.servers) {
        std::ostringstream os;
        os << "group " << g << ": two primaries with index " << p.prim_index
           << " but different memberships";
        return os.str();
      }
    }
  }
  return std::nullopt;
}

std::optional<std::string> EngineCluster::check_all() const {
  if (checker_ && !checker_->ok()) return checker_->report();
  if (auto v = check_green_prefix_consistency()) return v;
  if (auto v = check_green_fifo()) return v;
  if (auto v = check_single_primary()) return v;
  return std::nullopt;
}

}  // namespace tordb::workload
