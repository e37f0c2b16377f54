#include "core/action_log.h"

#include <algorithm>
#include <utility>

namespace tordb::core {

std::unique_ptr<ActionLog::StoredAction> ActionLog::alloc_stored(Action&& body) {
  std::unique_ptr<StoredAction> p;
  if (pool_.empty()) {
    p = std::make_unique<StoredAction>();
  } else {
    p = std::move(pool_.back());
    pool_.pop_back();
  }
  p->body = std::move(body);
  body_bytes_ += static_cast<std::int64_t>(p->body.wire_size());
  return p;
}

void ActionLog::recycle(std::unique_ptr<StoredAction> p) {
  if (pool_.size() < 4096) pool_.push_back(std::move(p));
}

std::span<const Action* const> ActionLog::mark_red(Action&& a) {
  admitted_.clear();
  const ActionId aid = a.id;
  CreatorState& cs = creators_[aid.server_id];
  if (cs.red_cut >= aid.index) return admitted_;  // duplicate
  if (cs.red_cut < aid.index - 1) {
    // Creator-FIFO gap: exchange-phase red and green retransmissions come
    // from different members and may interleave out of creator order;
    // park the action until its predecessors arrive.
    red_waiting_[pack_action_id(aid)] = std::move(a);
    return admitted_;
  }
  admit(cs, std::move(a));
  return admitted_;
}

void ActionLog::admit(CreatorState& cs, Action&& a) {
  const NodeId creator = a.id.server_id;
  Action current = std::move(a);
  for (;;) {
    cs.red_cut = current.id.index;
    admitted_.push_back(store_red(cs, std::move(current)));
    if (red_waiting_.empty()) break;
    const std::uint64_t next_key = pack_action_id(ActionId{creator, cs.red_cut + 1});
    Action* next = red_waiting_.find(next_key);
    if (next == nullptr) break;
    current = std::move(*next);
    red_waiting_.erase(next_key);
  }
}

Action* ActionLog::store_red(const CreatorState& cs, Action&& a) {
  const ActionId aid = a.id;
  if (aid.index <= cs.green_red_cut) {
    // Marked green while parked: the green entry keeps the position it
    // already earned and takes the body.
    if (GreenEntry* e = green_entry(aid)) {
      if (e->has_body()) {
        body_bytes_ -= e->bytes();
        if (e->body) recycle(std::move(e->body));
        e->enc = SharedBytes{};
      } else {
        ++green_bodies_;
      }
      e->body = alloc_stored(std::move(a));
      return &e->body->body;
    }
  }
  auto& slot = store_[pack_action_id(aid)];
  if (slot) {
    body_bytes_ -= static_cast<std::int64_t>(slot->body.wire_size());
    recycle(std::move(slot));
  }
  slot = alloc_stored(std::move(a));
  return &slot->body;
}

void ActionLog::admit_parked_successor(CreatorState& cs, NodeId creator) {
  if (red_waiting_.empty()) return;
  const std::uint64_t next_key = pack_action_id(ActionId{creator, cs.red_cut + 1});
  Action* next = red_waiting_.find(next_key);
  if (next == nullptr) return;
  Action successor = std::move(*next);
  red_waiting_.erase(next_key);
  admit(cs, std::move(successor));
}

ActionLog::GreenResult ActionLog::push_green(CreatorState& cs, GreenEntry e,
                                             std::span<const Action* const> newly_red,
                                             const Action* body) {
  GreenResult res;
  res.newly_red = newly_red;
  res.body = body;
  res.position = ++green_count_;
  cs.green_red_cut = e.id.index;
  if (e.has_body()) ++green_bodies_;
  green_seq_.push_back(std::move(e));
  return res;
}

ActionLog::GreenResult ActionLog::mark_green(Action&& a) {
  const ActionId aid = a.id;
  // Present after this lookup, so later operator[] calls never insert and
  // `cs` stays valid.
  CreatorState& cs = creators_[aid.server_id];
  const std::span<const Action* const> newly_red = mark_red(std::move(a));
  if (aid.index <= cs.green_red_cut) {  // duplicate: position stays 0
    GreenResult res;
    res.newly_red = newly_red;
    return res;
  }
  // Already red (its body moves from the red table to the green
  // sequence), or parked: the green order still needs the body, so the
  // green entry gets a copy of the parked one (mark_red consumed the
  // argument).
  std::unique_ptr<StoredAction> cell;
  const std::uint64_t key = pack_action_id(aid);
  if (store_.find(key) != nullptr) {
    cell = store_.extract(key);
  } else if (const Action* parked = red_waiting_.find(key)) {
    cell = alloc_stored(Action(*parked));
  }
  const Action* body = cell ? &cell->body : nullptr;
  return push_green(cs, GreenEntry{aid, std::move(cell), {}}, newly_red, body);
}

ActionLog::GreenResult ActionLog::mark_green(const Action& a, SharedBytes enc) {
  const ActionId aid = a.id;
  CreatorState& cs = creators_[aid.server_id];
  if (aid.index <= cs.green_red_cut || cs.red_cut != aid.index - 1) return mark_green(Action(a));
  admitted_.clear();
  admitted_.push_back(&a);
  cs.red_cut = aid.index;
  admit_parked_successor(cs, aid.server_id);
  body_bytes_ += enc.len;
  return push_green(cs, GreenEntry{aid, nullptr, std::move(enc)}, admitted_, &a);
}

const Action* ActionLog::decoded(const GreenEntry& e) const {
  if (!e.body && e.enc.buf) {
    BufReader r(e.enc.buf->data() + e.enc.off, e.enc.len);
    e.body = std::make_unique<StoredAction>(StoredAction{Action::decode(r)});
  }
  return e.body ? &e.body->body : nullptr;
}

ActionLog::GreenEntry* ActionLog::green_entry(const ActionId& id) {
  return const_cast<GreenEntry*>(std::as_const(*this).green_entry(id));
}

const ActionLog::GreenEntry* ActionLog::green_entry(const ActionId& id) const {
  if (!is_green(id)) return nullptr;
  for (std::size_t i = green_head_; i < green_seq_.size(); ++i) {
    if (green_seq_[i].id == id) return &green_seq_[i];
  }
  return nullptr;
}

const Action* ActionLog::body_of(const ActionId& id) const {
  if (const auto* slot = store_.find(pack_action_id(id))) return &(*slot)->body;
  const GreenEntry* e = green_entry(id);
  return e != nullptr ? decoded(*e) : nullptr;
}

const Action* ActionLog::green_body_at(std::int64_t position) const {
  if (position <= white_count_ || position > green_count_) return nullptr;
  const std::size_t idx =
      green_head_ + static_cast<std::size_t>(position - white_count_ - 1);
  if (idx >= green_seq_.size()) return nullptr;
  return decoded(green_seq_[idx]);
}

ActionId ActionLog::green_action_at(std::int64_t position) const {
  if (position <= white_count_ || position > green_count_) return ActionId{};
  const std::size_t idx =
      green_head_ + static_cast<std::size_t>(position - white_count_ - 1);
  // An adopted prefix has no per-position ids; never index out of range.
  if (idx >= green_seq_.size()) return ActionId{};
  return green_seq_[idx].id;
}

std::int64_t ActionLog::position_of(const ActionId& id) const {
  const GreenEntry* e = green_entry(id);
  if (e == nullptr) return 0;
  return white_count_ + static_cast<std::int64_t>(e - &green_seq_[green_head_]) + 1;
}

std::size_t ActionLog::red_count() const {
  std::size_t n = 0;
  for (const auto& [c, cs] : creators_) {
    if (cs.red_cut > cs.green_red_cut) {
      n += static_cast<std::size_t>(cs.red_cut - cs.green_red_cut);
    }
  }
  return n;
}

std::int64_t ActionLog::red_cut(NodeId creator) const {
  const CreatorState* cs = creators_.find(creator);
  return cs == nullptr ? 0 : cs->red_cut;
}

std::int64_t ActionLog::green_red_cut(NodeId creator) const {
  const CreatorState* cs = creators_.find(creator);
  return cs == nullptr ? 0 : cs->green_red_cut;
}

std::vector<std::pair<NodeId, std::int64_t>> ActionLog::red_cut_pairs() const {
  std::vector<std::pair<NodeId, std::int64_t>> v;
  v.reserve(creators_.size());
  for (const auto& [c, cs] : creators_) v.emplace_back(c, cs.red_cut);
  return v;
}

std::vector<std::pair<NodeId, std::int64_t>> ActionLog::green_red_cut_pairs() const {
  std::vector<std::pair<NodeId, std::int64_t>> v;
  v.reserve(creators_.size());
  for (const auto& [c, cs] : creators_) v.emplace_back(c, cs.green_red_cut);
  return v;
}

std::vector<ActionId> ActionLog::pending_red_ids() const {
  std::vector<ActionId> ids;
  for (const auto& [c, cs] : creators_) {
    for (std::int64_t i = cs.green_red_cut + 1; i <= cs.red_cut; ++i) {
      ids.push_back(ActionId{c, i});
    }
  }
  return ids;
}

void ActionLog::for_each_pending_red(const std::function<void(const Action&)>& fn) const {
  for (const auto& [c, cs] : creators_) {
    for (std::int64_t i = cs.green_red_cut + 1; i <= cs.red_cut; ++i) {
      if (const Action* b = body_of(ActionId{c, i})) fn(*b);
    }
  }
}

std::size_t ActionLog::trim_white_to(std::int64_t white_line) {
  std::size_t trimmed = 0;
  while (white_count_ < white_line && green_head_ < green_seq_.size()) {
    GreenEntry& e = green_seq_[green_head_++];
    ++white_count_;
    if (e.has_body()) {
      body_bytes_ -= e.bytes();
      --green_bodies_;
      if (e.body) recycle(std::move(e.body));
      e.enc = SharedBytes{};
    }
    ++trimmed;
  }
  compact_green_seq();
  return trimmed;
}

void ActionLog::compact_green_seq() {
  // Amortized O(1): release the trimmed prefix once it dominates the
  // vector, keeping position lookup a plain offset index in between.
  if (green_head_ >= 64 && green_head_ * 2 >= green_seq_.size()) {
    green_seq_.erase(green_seq_.begin(),
                     green_seq_.begin() + static_cast<std::ptrdiff_t>(green_head_));
    green_head_ = 0;
  }
}

void ActionLog::reset(std::int64_t green_count,
                      const std::vector<std::pair<NodeId, std::int64_t>>& green_red_cut) {
  green_count_ = white_count_ = green_count;
  green_seq_.clear();
  green_head_ = 0;
  green_bodies_ = 0;
  store_.clear();
  body_bytes_ = 0;
  red_waiting_.clear();
  creators_.clear();
  for (const auto& [c, v] : green_red_cut) creators_[c] = CreatorState{v, v};
}

std::span<const Action* const> ActionLog::adopt_green_prefix(
    std::int64_t green_count,
    const std::vector<std::pair<NodeId, std::int64_t>>& green_red_cut) {
  green_count_ = green_count;
  white_count_ = green_count;
  for (std::size_t i = green_head_; i < green_seq_.size(); ++i) {
    body_bytes_ -= green_seq_[i].bytes();
  }
  green_seq_.clear();
  green_head_ = 0;
  green_bodies_ = 0;
  for (const auto& [c, v] : green_red_cut) {
    CreatorState& cs = creators_[c];
    cs.green_red_cut = std::max(cs.green_red_cut, v);
    cs.red_cut = std::max(cs.red_cut, v);
  }
  // Bodies and parked retransmissions the adopted prefix covers are dead:
  // green-by-position retransmission below our white line is impossible
  // (the exchange falls back to a catch-up transfer), and covered indices
  // can never be pending reds again. Collect first, then erase — the flat
  // tables must not shrink under their own iteration.
  std::vector<std::uint64_t> dead;
  store_.for_each([&](std::uint64_t key, const std::unique_ptr<StoredAction>& s) {
    if (is_green(unpack_action_id(key))) {
      body_bytes_ -= static_cast<std::int64_t>(s->body.wire_size());
      dead.push_back(key);
    }
  });
  for (const std::uint64_t key : dead) store_.erase(key);
  dead.clear();
  red_waiting_.for_each([&](std::uint64_t key, const Action&) {
    if (is_green(unpack_action_id(key))) dead.push_back(key);
  });
  for (const std::uint64_t key : dead) red_waiting_.erase(key);

  // The raised cuts may have filled the creator-FIFO gaps that surviving
  // parked retransmissions were waiting on; admit the now-contiguous
  // chains, or they stay stranded (never pending, never promoted) and
  // members that received them directly diverge at the next Install.
  admitted_.clear();
  std::vector<NodeId> ids;
  ids.reserve(creators_.size());
  for (const auto& [c, cs] : creators_) ids.push_back(c);
  for (const NodeId c : ids) {
    CreatorState& cs = creators_[c];
    for (;;) {
      const std::uint64_t key = pack_action_id(ActionId{c, cs.red_cut + 1});
      Action* w = red_waiting_.find(key);
      if (w == nullptr) break;
      ++cs.red_cut;
      admitted_.push_back(store_red(cs, std::move(*w)));
      red_waiting_.erase(key);
    }
  }
  return admitted_;
}

bool ActionLog::replay_green(std::int64_t position, const Action& a) {
  if (position != green_count_ + 1) return false;  // duplicate / out of order
  ++green_count_;
  CreatorState& cs = creators_[a.id.server_id];
  cs.green_red_cut = std::max(cs.green_red_cut, a.id.index);
  cs.red_cut = std::max(cs.red_cut, a.id.index);
  // A body replayed red earlier moves to the green sequence.
  const std::uint64_t key = pack_action_id(a.id);
  if (auto* slot = store_.find(key)) {
    body_bytes_ -= static_cast<std::int64_t>((*slot)->body.wire_size());
    recycle(store_.extract(key));
  }
  green_seq_.push_back(GreenEntry{a.id, alloc_stored(Action(a)), {}});
  ++green_bodies_;
  return true;
}

}  // namespace tordb::core
