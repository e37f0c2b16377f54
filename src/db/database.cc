#include "db/database.h"

#include <algorithm>
#include <charconv>

namespace tordb::db {

namespace {
std::int64_t to_num(const std::string& s) {
  std::int64_t v = 0;
  std::from_chars(s.data(), s.data() + s.size(), v);
  return v;
}

/// Decimal-format `v` into `out`, reusing its capacity (hot path: kAdd
/// rewrites a counter cell per op; std::to_string would allocate a fresh
/// string every time).
void assign_num(std::string& out, std::int64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.assign(buf, res.ptr);
}

bool mutates(OpType t) {
  switch (t) {
    case OpType::kPut:
    case OpType::kAdd:
    case OpType::kAppend:
    case OpType::kTimestampPut:
    case OpType::kDelete:
      return true;
    default:
      return false;
  }
}

/// Reserved infrastructure keys (session guards `__session/`, cross-shard
/// markers `__xs/`, transaction intent/pending/decision records `__txn/`,
/// `__txnp/`, `__txnd/`) are pinned to their group: never fenced, never
/// moved.
bool reserved_key(std::string_view key) { return key.size() >= 2 && key[0] == '_' && key[1] == '_'; }
}  // namespace

std::uint64_t range_fingerprint(std::string_view lo, std::string_view hi) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::string_view s) {
    for (char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    h ^= 0xff;
    h *= 1099511628211ull;
  };
  mix(lo);
  mix(hi);
  return h;
}

Bytes RangeSnapshot::encode() const {
  BufWriter w;
  w.str(lo);
  w.str(hi);
  w.vec(rows, [](BufWriter& w2, const RangeRow& r) {
    w2.str(r.key);
    w2.str(r.value);
    w2.i64(r.ts);
  });
  return w.take();
}

RangeSnapshot RangeSnapshot::decode(const Bytes& b) {
  BufReader r(b);
  RangeSnapshot s;
  s.lo = r.str();
  s.hi = r.str();
  s.rows = r.vec<RangeRow>([](BufReader& r2) {
    RangeRow row;
    row.key = r2.str();
    row.value = r2.str();
    row.ts = r2.i64();
    return row;
  });
  return s;
}

Bytes TxnPending::encode() const {
  BufWriter w;
  w.i64(client);
  w.i64(seq);
  w.u32(static_cast<std::uint32_t>(home));
  update.encode(w);
  return w.take();
}

TxnPending TxnPending::decode(const Bytes& b) {
  BufReader r(b);
  TxnPending p;
  p.client = r.i64();
  p.seq = r.i64();
  p.home = static_cast<int>(r.u32());
  p.update = Command::decode(r);
  return p;
}

void Command::encode(BufWriter& w) const {
  w.vec(ops, [](BufWriter& w2, const Op& op) {
    w2.u8(static_cast<std::uint8_t>(op.type));
    w2.str(op.key);
    w2.str(op.value);
    w2.i64(op.num);
  });
}

std::size_t Command::wire_size() const {
  std::size_t n = 4;
  for (const Op& op : ops) n += 1 + 4 + op.key.size() + 4 + op.value.size() + 8;
  return n;
}

Command Command::decode(BufReader& r) {
  Command c;
  decode_into(r, c);
  return c;
}

void Command::decode_into(BufReader& r, Command& c) {
  const std::uint32_t n = r.u32();
  // Grown one op at a time, so a corrupt count fails on the first missing
  // byte instead of reserving for it.
  for (std::uint32_t i = 0; i < n; ++i) {
    if (i == c.ops.size()) c.ops.emplace_back();
    Op& op = c.ops[i];
    op.type = static_cast<OpType>(r.u8());
    r.str_into(op.key);
    r.str_into(op.value);
    op.num = r.i64();
  }
  c.ops.resize(n);
}

Command Command::put(std::string key, std::string value) {
  return Command{{Op{OpType::kPut, std::move(key), std::move(value), 0}}};
}
Command Command::add(std::string key, std::int64_t delta) {
  return Command{{Op{OpType::kAdd, std::move(key), "", delta}}};
}
Command Command::append(std::string key, std::string value) {
  return Command{{Op{OpType::kAppend, std::move(key), std::move(value), 0}}};
}
Command Command::get(std::string key) {
  return Command{{Op{OpType::kGet, std::move(key), "", 0}}};
}
Command Command::checked_put(std::string key, std::string expected, std::string value) {
  Command c;
  c.ops.push_back(Op{OpType::kCheck, key, std::move(expected), 0});
  c.ops.push_back(Op{OpType::kPut, std::move(key), std::move(value), 0});
  return c;
}
Command Command::timestamp_put(std::string key, std::string value, std::int64_t ts) {
  return Command{{Op{OpType::kTimestampPut, std::move(key), std::move(value), ts}}};
}

Command Command::del(std::string key) {
  return Command{{Op{OpType::kDelete, std::move(key), "", 0}}};
}

Command Command::fence_range(std::string lo, std::string hi) {
  return Command{{Op{OpType::kFenceRange, std::move(lo), std::move(hi), 0}}};
}

Command Command::install_range(const RangeSnapshot& snap) {
  const Bytes blob = snap.encode();
  return Command{{Op{OpType::kInstallRange, snap.lo,
                     std::string(blob.begin(), blob.end()), 0}}};
}

Command Command::unfence_range(std::string lo, std::string hi) {
  return Command{{Op{OpType::kUnfenceRange, std::move(lo), std::move(hi), 0}}};
}

Command Command::txn_prepare(std::string pending_key, const TxnPending& pending) {
  const Bytes blob = pending.encode();
  return Command{{Op{OpType::kTxnPrepare, std::move(pending_key),
                     std::string(blob.begin(), blob.end()), 0}}};
}

Command Command::txn_confirm(std::string pending_key) {
  return Command{{Op{OpType::kTxnConfirm, std::move(pending_key), "", 0}}};
}

Command Command::txn_cancel(std::string pending_key) {
  return Command{{Op{OpType::kTxnCancel, std::move(pending_key), "", 0}}};
}

const Database::TrackedRange* Database::range_of(std::string_view key) const {
  for (const TrackedRange& r : ranges_) {
    if (key_in_range(key, r.lo, r.hi)) return &r;
  }
  return nullptr;
}

// Remove [lo, hi) from every tracked entry, splitting partially-overlapped
// entries into their remainders (which keep their fenced flag). Keeps the
// entries pairwise disjoint so range_of has exactly one answer per key —
// without this, a stale wide entry from an earlier move shadows a narrower
// fence/install after the directory re-draws bounds (split, move-back).
void Database::carve_tracked(std::string_view lo, std::string_view hi) {
  std::vector<TrackedRange> next;
  next.reserve(ranges_.size() + 1);
  for (TrackedRange& r : ranges_) {
    const bool overlaps =
        (hi.empty() || r.lo < hi) && (r.hi.empty() || lo < std::string_view(r.hi));
    if (!overlaps) {
      next.push_back(std::move(r));
      continue;
    }
    if (std::string_view(r.lo) < lo) next.push_back(TrackedRange{r.lo, std::string(lo), r.fenced});
    if (!hi.empty() && (r.hi.empty() || hi < std::string_view(r.hi))) {
      next.push_back(TrackedRange{std::string(hi), r.hi, r.fenced});
    }
  }
  ranges_ = std::move(next);
}

ApplyResult Database::apply(const Command& cmd) {
  static const Command kNoUpdate;
  return apply(cmd, kNoUpdate);
}

ApplyResult Database::apply(const Command& query, const Command& update) {
  const std::vector<Op>* const lists[2] = {&query.ops, &update.ops};
  ApplyResult res;
  // Intern every row key up front: one hash probe per op, after which the
  // check, fence and apply passes below run on dense ids against the flat
  // cell table. Interning is unconditional — aborted commands leave ids
  // behind but no live cells, and since every replica applies the same
  // command sequence the interner stays deterministic per node. Range ops
  // carry bounds, not row keys, and are not interned.
  //
  // Fixed-size stack array for the common case (a session-guarded command
  // is 3 ops); heap fallback for bulk commands.
  constexpr std::size_t kInlineOps = 16;
  util::KeyId inline_ids[kInlineOps];
  std::vector<util::KeyId> heap_ids;
  const std::size_t total_ops = query.ops.size() + update.ops.size();
  util::KeyId* ids = inline_ids;
  if (total_ops > kInlineOps) {
    heap_ids.resize(total_ops);
    ids = heap_ids.data();
  }
  {
    std::size_t n = 0;
    for (const auto* ops : lists) {
      for (const Op& op : *ops) {
        const bool row_op = op.type != OpType::kFenceRange &&
                            op.type != OpType::kInstallRange &&
                            op.type != OpType::kUnfenceRange;
        ids[n++] = row_op ? intern(op.key) : util::kNoKeyId;
      }
    }
  }
  if (keys_.size() > cells_.size()) cells_.resize(keys_.size());

  // Evaluate every precondition against the current state first, so that a
  // failed check aborts the whole command with no partial effects — every
  // replica applies the same deterministic rule to the same state and thus
  // "aborts" identically (paper §6, interactive actions). Checks are
  // evaluated before fences so a duplicate session retry reads as a plain
  // guard abort, which is what exactly-once resolution relies on.
  {
    std::size_t n = 0;
    for (const auto* ops : lists) {
      for (const Op& op : *ops) {
        if (op.type == OpType::kCheck && value_at(ids[n]) != op.value) {
          res.aborted = true;
          return res;
        }
        ++n;
      }
    }
  }
  if (!ranges_.empty()) {
    std::size_t n = 0;
    for (const auto* ops : lists) {
      for (const Op& op : *ops) {
        const util::KeyId id = ids[n++];
        if (mutates(op.type) && !reserved_key(op.key)) {
          const TrackedRange* r = range_of(op.key);
          if (r != nullptr && r->fenced) {
            res.aborted = true;
            res.fenced = true;
            return res;
          }
        } else if (op.type == OpType::kTxnPrepare || op.type == OpType::kTxnConfirm) {
          // A buffered transaction update must respect fences like any plain
          // write: decode the blob (the op's own value for a prepare, the
          // stored pending cell for a confirm) and pre-scan its ops. The
          // fenced abort has no effects, so the coordinator can cancel the
          // stranded prepare and re-route the slice to the range's new owner.
          const std::string& blob = op.type == OpType::kTxnPrepare ? op.value : value_at(id);
          if (!blob.empty() &&
              update_hits_fence(TxnPending::decode(Bytes(blob.begin(), blob.end())).update)) {
            res.aborted = true;
            res.fenced = true;
            return res;
          }
        }
      }
    }
  }

  std::size_t op_index = 0;
  for (const auto* op_list : lists) {
  for (const Op& op : *op_list) {
    const util::KeyId id = ids[op_index++];
    switch (op.type) {
      case OpType::kPut:
        upsert(id).value = op.value;
        break;
      case OpType::kAdd: {
        const std::int64_t cur = to_num(value_at(id));
        assign_num(upsert(id).value, cur + op.num);
        break;
      }
      case OpType::kAppend:
        upsert(id).value += op.value;
        break;
      case OpType::kGet:
        res.reads.push_back(value_at(id));
        break;
      case OpType::kCheck:
        break;  // evaluated above
      case OpType::kTimestampPut: {
        Cell& cell = upsert(id);
        if (op.num > cell.ts) {
          cell.ts = op.num;
          cell.value = op.value;
        }
        break;
      }
      case OpType::kDelete:
        erase_cell(id);
        break;
      case OpType::kFenceRange: {
        carve_tracked(op.key, op.value);
        ranges_.push_back(TrackedRange{op.key, op.value, true});
        res.range_events.push_back(
            RangeEvent{RangeEvent::Kind::kFence, range_fingerprint(op.key, op.value), 0});
        break;
      }
      case OpType::kInstallRange: {
        const RangeSnapshot snap =
            RangeSnapshot::decode(Bytes(op.value.begin(), op.value.end()));
        // The install must reproduce the source range exactly: clear any
        // rows this replica still holds in [lo, hi) (a former owner's copy
        // — keys deleted at the current owner must not resurrect), then
        // adopt the snapshot. Reserved "__" keys are pinned infrastructure.
        ensure_ordered();
        for (std::size_t i = ordered_lower_bound(snap.lo); i < ordered_.size(); ++i) {
          const std::string_view key = keys_.key(ordered_[i]);
          if (!snap.hi.empty() && key >= std::string_view(snap.hi)) break;
          Cell& cell = cells_[ordered_[i]];
          if (!cell.live || reserved_key(key)) continue;
          cell.live = false;
          cell.value.clear();
          cell.value.shrink_to_fit();
          cell.ts = -1;
          --live_;
        }
        carve_tracked(snap.lo, snap.hi);
        ranges_.push_back(TrackedRange{snap.lo, snap.hi, false});
        for (const RangeRow& row : snap.rows) {
          Cell& cell = upsert(intern(row.key));
          cell.value = row.value;
          cell.ts = row.ts;
        }
        res.range_events.push_back(RangeEvent{RangeEvent::Kind::kInstall,
                                              range_fingerprint(snap.lo, snap.hi),
                                              static_cast<std::int64_t>(snap.rows.size())});
        break;
      }
      case OpType::kUnfenceRange: {
        // Rollback of an abandoned move: drop the fence (and any tracked
        // remainder) so the source — still the directory's owner — accepts
        // user updates to the range again.
        carve_tracked(op.key, op.value);
        res.range_events.push_back(RangeEvent{RangeEvent::Kind::kUnfence,
                                              range_fingerprint(op.key, op.value), 0});
        break;
      }
      case OpType::kTxnPrepare: {
        // Plant the buffered update in the reserved pending cell. A
        // session-duplicate re-prepare overwrites with the same bytes —
        // identical state, but still a fresh transition event (the replay
        // dedup happens positionally in the checker).
        upsert(id).value = op.value;
        res.txn_events.push_back(
            TxnEvent{TxnEvent::Kind::kPrepare, range_fingerprint(op.key, "")});
        break;
      }
      case OpType::kTxnConfirm: {
        // Copy, not reference: applying the buffered ops below may grow the
        // cell table and invalidate cell storage.
        const std::string pending = value_at(id);
        if (pending.empty()) break;  // already confirmed or cancelled: idempotent
        erase_cell(id);              // erase first; buffered ops cannot resurrect it
        apply_buffered(TxnPending::decode(Bytes(pending.begin(), pending.end())).update, res);
        res.txn_events.push_back(
            TxnEvent{TxnEvent::Kind::kConfirm, range_fingerprint(op.key, "")});
        break;
      }
      case OpType::kTxnCancel: {
        if (value_at(id).empty()) break;  // already resolved: idempotent
        erase_cell(id);
        res.txn_events.push_back(
            TxnEvent{TxnEvent::Kind::kCancel, range_fingerprint(op.key, "")});
        break;
      }
    }
    // Surface green-applied user writes into tracked ranges so the checker
    // can assert single-shard ownership; deduped per command.
    if (!ranges_.empty() && mutates(op.type) && !reserved_key(op.key)) {
      if (const TrackedRange* r = range_of(op.key)) {
        const std::uint64_t h = range_fingerprint(r->lo, r->hi);
        bool seen = false;
        for (const RangeEvent& e : res.range_events) {
          seen = seen || (e.kind == RangeEvent::Kind::kWrite && e.range == h);
        }
        if (!seen) res.range_events.push_back(RangeEvent{RangeEvent::Kind::kWrite, h, 0});
      }
    }
  }
  }
  ++version_;
  return res;
}

ApplyResult Database::peek(const Command& cmd) const {
  ApplyResult res;
  for (const Op& op : cmd.ops) {
    if (op.type == OpType::kCheck && value_of(op.key) != op.value) {
      res.aborted = true;
      return res;
    }
  }
  for (const Op& op : cmd.ops) {
    if (op.type == OpType::kGet) res.reads.push_back(value_of(op.key));
  }
  return res;
}

std::string Database::get(const std::string& key) const { return value_of(key); }

const std::string& Database::value_of(std::string_view key) const {
  return value_at(keys_.find(key));
}

const std::string& Database::value_at(util::KeyId id) const {
  static const std::string kEmpty;
  if (id == util::kNoKeyId || id >= cells_.size() || !cells_[id].live) return kEmpty;
  return cells_[id].value;
}

void Database::erase_cell(util::KeyId id) {
  if (id == util::kNoKeyId || id >= cells_.size()) return;
  Cell& cell = cells_[id];
  if (!cell.live) return;
  cell.live = false;
  cell.value.clear();
  cell.value.shrink_to_fit();
  cell.ts = -1;
  --live_;
}

bool Database::update_hits_fence(const Command& cmd) const {
  for (const Op& op : cmd.ops) {
    if (!mutates(op.type) || reserved_key(op.key)) continue;
    const TrackedRange* r = range_of(op.key);
    if (r != nullptr && r->fenced) return true;
  }
  return false;
}

void Database::apply_buffered(const Command& cmd, ApplyResult& res) {
  for (const Op& op : cmd.ops) {
    const util::KeyId id = intern(op.key);
    switch (op.type) {
      case OpType::kPut:
        upsert(id).value = op.value;
        break;
      case OpType::kAdd: {
        const std::int64_t cur = to_num(value_at(id));
        assign_num(upsert(id).value, cur + op.num);
        break;
      }
      case OpType::kAppend:
        upsert(id).value += op.value;
        break;
      case OpType::kTimestampPut: {
        Cell& cell = upsert(id);
        if (op.num > cell.ts) {
          cell.ts = op.num;
          cell.value = op.value;
        }
        break;
      }
      case OpType::kDelete:
        erase_cell(id);
        break;
      default:
        break;  // checks were consumed at prepare time; reads/range/txn ops are never buffered
    }
    // Same kWrite surfacing as the main apply loop: a confirmed buffered
    // write into a tracked range is a green-applied user write the checker's
    // ownership invariant must see.
    if (!ranges_.empty() && mutates(op.type) && !reserved_key(op.key)) {
      if (const TrackedRange* r = range_of(op.key)) {
        const std::uint64_t h = range_fingerprint(r->lo, r->hi);
        bool seen = false;
        for (const RangeEvent& e : res.range_events) {
          seen = seen || (e.kind == RangeEvent::Kind::kWrite && e.range == h);
        }
        if (!seen) res.range_events.push_back(RangeEvent{RangeEvent::Kind::kWrite, h, 0});
      }
    }
  }
}

Database::Cell& Database::upsert(util::KeyId id) {
  if (id >= cells_.size()) cells_.resize(id + 1);
  Cell& cell = cells_[id];
  if (!cell.live) {
    cell.live = true;
    cell.value.clear();
    cell.ts = -1;
    ++live_;
  }
  return cell;
}

void Database::ensure_ordered() const {
  if (ordered_.size() == keys_.size()) return;
  const std::size_t merged = ordered_.size();
  ordered_.reserve(keys_.size());
  for (util::KeyId id = static_cast<util::KeyId>(merged); id < keys_.size(); ++id) {
    ordered_.push_back(id);
  }
  const auto by_key = [this](util::KeyId a, util::KeyId b) {
    return keys_.key(a) < keys_.key(b);
  };
  std::sort(ordered_.begin() + static_cast<std::ptrdiff_t>(merged), ordered_.end(), by_key);
  std::inplace_merge(ordered_.begin(), ordered_.begin() + static_cast<std::ptrdiff_t>(merged),
                     ordered_.end(), by_key);
}

std::size_t Database::ordered_lower_bound(std::string_view lo) const {
  const auto it = std::lower_bound(
      ordered_.begin(), ordered_.end(), lo,
      [this](util::KeyId id, std::string_view bound) { return keys_.key(id) < bound; });
  return static_cast<std::size_t>(it - ordered_.begin());
}

util::KeyId Database::intern(std::string_view key) {
  const std::uint64_t rehashes = keys_.rehashes();
  const util::KeyId id = keys_.intern(key);
  if (rehash_cell_ != nullptr && keys_.rehashes() != rehashes) rehash_cell_->inc();
  return id;
}

DbStats Database::stats() const {
  DbStats s;
  s.interned_keys = keys_.size();
  s.interned_bytes = keys_.bytes();
  s.table_slots = keys_.slots();
  s.table_rehashes = keys_.rehashes();
  return s;
}

bool Database::range_fenced(const std::string& lo, const std::string& hi) const {
  for (const TrackedRange& r : ranges_) {
    if (r.lo == lo && r.hi == hi) return r.fenced;
  }
  return false;
}

RangeSnapshot Database::extract_range(const std::string& lo, const std::string& hi) const {
  RangeSnapshot snap;
  snap.lo = lo;
  snap.hi = hi;
  ensure_ordered();
  for (std::size_t i = ordered_lower_bound(lo); i < ordered_.size(); ++i) {
    const std::string_view key = keys_.key(ordered_[i]);
    if (!hi.empty() && key >= std::string_view(hi)) break;
    const Cell& cell = cells_[ordered_[i]];
    if (!cell.live || reserved_key(key)) continue;
    snap.rows.push_back(RangeRow{std::string(key), cell.value, cell.ts});
  }
  return snap;
}

std::vector<std::pair<std::string, std::string>> Database::scan_prefix(
    const std::string& prefix) const {
  std::vector<std::pair<std::string, std::string>> out;
  ensure_ordered();
  for (std::size_t i = ordered_lower_bound(prefix); i < ordered_.size(); ++i) {
    const std::string_view key = keys_.key(ordered_[i]);
    if (key.substr(0, prefix.size()) != prefix) break;
    const Cell& cell = cells_[ordered_[i]];
    if (!cell.live) continue;
    out.emplace_back(std::string(key), cell.value);
  }
  return out;
}

Bytes Database::snapshot() const {
  // Rows are written in sorted key order — the same bytes the old std::map
  // walk produced, which state transfer (and therefore virtual time)
  // depends on.
  ensure_ordered();
  BufWriter w;
  w.i64(version_);
  w.u32(static_cast<std::uint32_t>(live_));
  for (const util::KeyId id : ordered_) {
    const Cell& cell = cells_[id];
    if (!cell.live) continue;
    w.str_view(keys_.key(id));
    w.str(cell.value);
    w.i64(cell.ts);
  }
  // Tracked ranges travel with the state: a joiner adopting this snapshot
  // must enforce the same fences the group's green order established.
  w.u32(static_cast<std::uint32_t>(ranges_.size()));
  for (const TrackedRange& r : ranges_) {
    w.str(r.lo);
    w.str(r.hi);
    w.boolean(r.fenced);
  }
  return w.take();
}

void Database::restore(const Bytes& snap) {
  BufReader r(snap);
  keys_.clear();
  cells_.clear();
  ordered_.clear();
  live_ = 0;
  ranges_.clear();
  version_ = r.i64();
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::string k = r.str();
    Cell& cell = upsert(intern(k));
    cell.value = r.str();
    cell.ts = r.i64();
  }
  const std::uint32_t nr = r.u32();
  for (std::uint32_t i = 0; i < nr; ++i) {
    TrackedRange tr;
    tr.lo = r.str();
    tr.hi = r.str();
    tr.fenced = r.boolean();
    ranges_.push_back(std::move(tr));
  }
}

std::uint64_t Database::digest() const {
  // Byte-identical to the pre-interning implementation: live rows in sorted
  // key order, then tracked ranges — ids never enter the digest.
  ensure_ordered();
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::string_view s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
    h ^= 0xff;
    h *= 0x100000001b3ULL;
  };
  for (const util::KeyId id : ordered_) {
    const Cell& cell = cells_[id];
    if (!cell.live) continue;
    mix(keys_.key(id));
    mix(cell.value);
    h ^= static_cast<std::uint64_t>(cell.ts) * 0x9e3779b97f4a7c15ULL;
  }
  // Fence state is replica state: fold tracked ranges in (no-op while the
  // deployment never rebalances, keeping pre-rebalance digests unchanged).
  for (const TrackedRange& r : ranges_) {
    mix(r.lo);
    mix(r.hi);
    h ^= r.fenced ? 0x9e3779b97f4a7c15ULL : 0x517cc1b727220a95ULL;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace tordb::db
