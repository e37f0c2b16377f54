#include "txn/coordinator.h"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <utility>

#include "db/database.h"

namespace tordb::txn {

namespace {

// Session-id spaces. The coordinator's engine-level sessions must never
// collide with the router's (session_id = client * shards + shard, small)
// nor with each other across coordinator incarnations (guards are consumed
// per id — see TxnOptions::session_epoch). Bases are spaced far above any
// realistic workload client id.
constexpr std::int64_t kTxnSessionBase = 1'000'000'000;
constexpr std::int64_t kEpochStride = 10'000'000;
constexpr std::int64_t kAdopterSessionBase = 2'000'000'000;
// Router client ids for re-driven slices (a confirm that bounced off a
// moved range). Unique per (transaction, slot) and deterministic.
constexpr std::int64_t kRerouteClientBase = 3'000'000'000;
// xid = client * stride + seq — same scheme the router uses for cross ids.
constexpr std::int64_t kXidStride = 1'000'000;

std::string encode_intent(std::int64_t client, std::int64_t seq, const std::vector<int>& shards) {
  std::string blob = std::to_string(client) + "/" + std::to_string(seq);
  for (const int s : shards) blob += "/" + std::to_string(s);
  return blob;
}

struct Intent {
  std::int64_t client = 0;
  std::int64_t seq = 0;
  std::vector<int> shards;
};

Intent decode_intent(const std::string& blob) {
  Intent in;
  std::vector<std::int64_t> fields;
  std::size_t pos = 0;
  while (pos <= blob.size()) {
    const std::size_t slash = blob.find('/', pos);
    const std::string part = blob.substr(pos, slash == std::string::npos ? slash : slash - pos);
    fields.push_back(std::stoll(part));
    if (slash == std::string::npos) break;
    pos = slash + 1;
  }
  if (fields.size() < 3) throw std::runtime_error("corrupt txn intent record: " + blob);
  in.client = fields[0];
  in.seq = fields[1];
  for (std::size_t i = 2; i < fields.size(); ++i) in.shards.push_back(static_cast<int>(fields[i]));
  return in;
}

}  // namespace

TxnCoordinator::TxnCoordinator(Simulator& sim, shard::Router& router,
                               std::vector<std::vector<core::ReplicaNode*>> replicas,
                               TxnOptions options)
    : sim_(sim),
      router_(router),
      replicas_(std::move(replicas)),
      options_(std::move(options)),
      alive_(std::make_shared<bool>(true)) {
  if (static_cast<int>(replicas_.size()) != router_.directory().shards()) {
    throw std::invalid_argument("coordinator replica groups must match the directory");
  }
  if (options_.metrics) {
    prepare_decide_hist_ = &options_.metrics->histogram("txn.prepare_decide_us");
    barrier_hist_ = &options_.metrics->histogram("txn.barrier_wait_us");
  }
}

TxnCoordinator::~TxnCoordinator() { *alive_ = false; }

std::string TxnCoordinator::intent_key(std::int64_t client, std::int64_t seq) {
  return "__txn/" + std::to_string(client) + "/" + std::to_string(seq);
}

std::string TxnCoordinator::pending_key(std::int64_t client, std::int64_t seq) {
  return "__txnp/" + std::to_string(client) + "/" + std::to_string(seq);
}

std::string TxnCoordinator::decision_key(std::int64_t client, std::int64_t seq) {
  return "__txnd/" + std::to_string(client) + "/" + std::to_string(seq);
}

core::ClientSession& TxnCoordinator::session(std::int64_t session_id, int shard) {
  auto& slot = sessions_[(static_cast<std::uint64_t>(session_id) << 16) |
                         static_cast<std::uint64_t>(shard & 0xffff)];
  if (!slot) {
    // The coordinator's cross-lane handoff point in a lane-partitioned
    // simulation (DESIGN.md §15): sessions live on the control lane and hop
    // each prepare/confirm/cancel submit to the target shard's lane.
    slot = std::make_unique<core::ClientSession>(sim_, replicas_.at(static_cast<std::size_t>(shard)),
                                                 session_id, options_.session);
  }
  return *slot;
}

const db::Database* TxnCoordinator::best_db(int shard) const {
  // Highest-green running replica: its green prefix covers every marker any
  // member of the group has applied (checker invariant 1), so its state is
  // the canonical view the recovery scan wants.
  const core::ReplicaNode* best = nullptr;
  for (const core::ReplicaNode* node : replicas_.at(static_cast<std::size_t>(shard))) {
    if (!node->running()) continue;
    if (best == nullptr || node->engine().green_count() > best->engine().green_count()) {
      best = node;
    }
  }
  return best == nullptr ? nullptr : &best->engine().database();
}

bool TxnCoordinator::idle() const {
  for (const auto& [token, t] : inflight_) {
    if (!t->halted) return false;
  }
  bool sessions_idle = true;
  sessions_.for_each([&](std::uint64_t, const std::unique_ptr<core::ClientSession>& s) {
    if (!s->idle()) sessions_idle = false;
  });
  return sessions_idle && deferred_.empty() && snapshots_.empty() && adoptions_.empty() &&
         adoption_orphans_ == 0 && pending_restarts_ == 0 && cleanups_ == 0;
}

void TxnCoordinator::submit(std::int64_t client, db::Command update, shard::RouteReplyFn reply) {
  if (hold_ > 0) {
    // A snapshot read is draining the barrier: admit nothing new until its
    // watermark vector is stamped and released (FIFO).
    deferred_.push_back(DeferredTxn{client, std::move(update), std::move(reply)});
    return;
  }
  begin(client, std::move(update), std::move(reply), /*bounces=*/0);
}

void TxnCoordinator::flush_deferred() {
  std::deque<DeferredTxn> q;
  q.swap(deferred_);
  for (DeferredTxn& d : q) {
    // Re-enter through submit: a snapshot read arriving mid-flush re-defers
    // the remainder into the fresh queue.
    submit(d.client, std::move(d.update), std::move(d.reply));
  }
}

void TxnCoordinator::begin(std::int64_t client, db::Command update, shard::RouteReplyFn reply,
                           int bounces) {
  const shard::Directory& dir = router_.directory();
  std::vector<int> shards = dir.shards_of(update);
  if (shards.size() <= 1) {
    // Degenerate (or a restart whose keys now co-locate after a merge):
    // one shard's green order already gives atomic checked updates.
    router_.submit(client, std::move(update), std::move(reply));
    return;
  }

  if (bounces == 0) ++stats_.begun;
  const std::int64_t seq = ++next_seq_[static_cast<std::uint64_t>(client)];
  auto txn = std::make_unique<Txn>();
  Txn& t = *txn;
  t.client = client;
  t.seq = seq;
  t.xid = client * kXidStride + seq;
  t.fp = db::range_fingerprint(pending_key(client, seq), "");
  t.original = update;
  t.reply = std::move(reply);
  t.shards = std::move(shards);  // shards_of returns them sorted ascending
  t.home = t.shards.front();
  t.bounces = bounces;
  t.t0 = sim_.now();

  const std::size_t n = t.shards.size();
  t.checks.resize(n);
  t.buffered.resize(n);
  t.prepared.assign(n, 0);
  for (db::Op& op : update.ops) {
    const int s = dir.shard_of_cached(op.key);
    const std::size_t slot = static_cast<std::size_t>(
        std::lower_bound(t.shards.begin(), t.shards.end(), s) - t.shards.begin());
    (op.type == db::OpType::kCheck ? t.checks : t.buffered)[slot].ops.push_back(std::move(op));
  }
  t.outstanding = static_cast<int>(n);
  options_.tracer.emit(obs::EventKind::kTxnBegin, static_cast<std::int64_t>(t.fp),
                       static_cast<std::int64_t>(n));

  const std::int64_t token = ++next_token_;
  inflight_[token] = std::move(txn);
  const std::int64_t sid = kTxnSessionBase + options_.session_epoch * kEpochStride + client;
  const std::string pend = pending_key(client, seq);

  // Round 1: one prepare action per involved shard — the slice's checks,
  // then the kTxnPrepare buffering its updates. The home shard's prepare
  // additionally carries the intent record a recovery pass scans for. A
  // failed check (or a fence) aborts the whole slice atomically: no pending,
  // no intent — the shard's deterministic "no" vote.
  for (std::size_t slot = 0; slot < n; ++slot) {
    Txn& tr = *inflight_[token];
    db::Command prep;
    if (tr.shards[slot] == tr.home) {
      prep.ops.push_back(db::Op{db::OpType::kPut, intent_key(client, seq),
                                encode_intent(client, seq, tr.shards), 0});
    }
    for (const db::Op& op : tr.checks[slot].ops) prep.ops.push_back(op);
    db::TxnPending pending;
    pending.client = client;
    pending.seq = seq;
    pending.home = tr.home;
    pending.update = tr.buffered[slot];
    prep.ops.push_back(db::Command::txn_prepare(pend, pending).ops[0]);
    obs::count(stats_.prepares, prepares_cell_);
    session(sid, tr.shards[slot])
        .submit(std::move(prep),
                [this, alive = alive_, token, slot](const core::SessionReply& r) {
                  if (!*alive) return;
                  auto it = inflight_.find(token);
                  if (it == inflight_.end()) return;
                  Txn& t = *it->second;
                  t.attempts += r.attempts;
                  if (r.committed) {
                    t.prepared[slot] = 1;
                  } else if (r.check_aborted) {
                    t.check_fail = true;
                  } else if (r.fenced) {
                    t.fence_fail = true;
                  } else {
                    t.other_fail = true;
                  }
                  if (--t.outstanding == 0) on_prepared(token);
                });
  }
}

void TxnCoordinator::on_prepared(std::int64_t token) {
  Txn& t = *inflight_[token];
  if (options_.halt_at_stage == 1) {
    // Crash model: every vote collected, nothing decided, no reply. The
    // pendings and the intent survive in replica state for adopt_orphans.
    t.halted = true;
    return;
  }
  const bool all_yes =
      std::all_of(t.prepared.begin(), t.prepared.end(), [](char p) { return p != 0; });
  if (all_yes) {
    submit_decision(token);
    return;
  }
  if (t.fence_fail && !t.check_fail && !t.other_fail && t.bounces < options_.max_fence_retries) {
    // Pure rebalance interference: cancel what prepared and restart the
    // whole transaction against the fresh directory after a pause.
    obs::count(stats_.restarts, restarts_cell_);
    t.restarting = true;
  }
  round2(token, /*commit=*/false);
}

void TxnCoordinator::submit_decision(std::int64_t token) {
  Txn& t = *inflight_[token];
  const std::string dec = decision_key(t.client, t.seq);
  // Guarded write: the decision record must be green at the home shard
  // BEFORE any confirm marker exists anywhere — adoption's confirm-iff-
  // all-pendings rule is only safe because a confirmed transaction always
  // has a durable decision. The kCheck makes a concurrent adopter's write
  // visible as check_aborted instead of a blind overwrite.
  db::Command cmd;
  cmd.ops.push_back(db::Op{db::OpType::kCheck, dec, "", 0});
  cmd.ops.push_back(db::Op{db::OpType::kPut, dec, "C", 0});
  const std::int64_t sid = kTxnSessionBase + options_.session_epoch * kEpochStride + t.client;
  session(sid, t.home).submit(
      std::move(cmd), [this, alive = alive_, token](const core::SessionReply& r) {
        if (!*alive) return;
        auto it = inflight_.find(token);
        if (it == inflight_.end()) return;
        Txn& t = *it->second;
        t.attempts += r.attempts;
        if (!r.committed && !r.check_aborted) {
          // The decision MUST become green before round 2 — keep driving it.
          submit_decision(token);
          return;
        }
        // Committed, or check_aborted (the record already reads "C").
        const SimDuration lat = sim_.now() - t.t0;
        options_.tracer.emit(obs::EventKind::kTxnDecide, static_cast<std::int64_t>(t.fp), 1, lat);
        if (prepare_decide_hist_ != nullptr) prepare_decide_hist_->record(lat / 1000);  // ns -> us
        if (options_.halt_at_stage == 2) {
          // Crash model: decision durable, no round-2 markers issued.
          t.halted = true;
          return;
        }
        round2(token, /*commit=*/true);
      });
}

void TxnCoordinator::round2(std::int64_t token, bool commit) {
  Txn& t = *inflight_[token];
  t.committing = commit;
  t.outstanding = 0;
  std::vector<std::size_t> slots;
  for (std::size_t slot = 0; slot < t.shards.size(); ++slot) {
    if (commit || t.prepared[slot] != 0) {
      ++t.outstanding;
      slots.push_back(slot);
    }
  }
  if (slots.empty()) {
    // Abort with nothing prepared anywhere: no markers, no state to undo.
    finish(token);
    return;
  }
  for (const std::size_t slot : slots) {
    commit ? submit_confirm(token, slot) : submit_cancel(token, slot, /*with_home_cleanup=*/true);
  }
}

void TxnCoordinator::submit_confirm(std::int64_t token, std::size_t slot) {
  Txn& t = *inflight_[token];
  obs::count(stats_.confirms, confirms_cell_);
  const std::int64_t sid = kTxnSessionBase + options_.session_epoch * kEpochStride + t.client;
  session(sid, t.shards[slot])
      .submit(db::Command::txn_confirm(pending_key(t.client, t.seq)),
              [this, alive = alive_, token, slot](const core::SessionReply& r) {
                if (!*alive) return;
                auto it = inflight_.find(token);
                if (it == inflight_.end()) return;
                Txn& t = *it->second;
                t.attempts += r.attempts;
                if (r.committed) {
                  mark_marker(t);
                  --t.outstanding;
                  maybe_finish(token);
                  return;
                }
                if (r.fenced) {
                  // The slot's data range moved between prepare and confirm
                  // (the reserved pending cell never travels with a move).
                  // Cancel the stranded prepare and re-drive the decided
                  // slice through the router, which re-splits it for the
                  // new owner. The one confirm becomes two operations.
                  obs::count(stats_.confirm_rerouted, rerouted_cell_);
                  const bool has_payload = !t.buffered[slot].ops.empty();
                  if (has_payload) ++t.outstanding;
                  submit_cancel(token, slot, /*with_home_cleanup=*/false);
                  if (has_payload) reroute_slice(token, slot);
                  return;
                }
                // Attempt budget exhausted against a churning group: the
                // marker is idempotent, keep driving it.
                submit_confirm(token, slot);
              });
}

void TxnCoordinator::submit_cancel(std::int64_t token, std::size_t slot, bool with_home_cleanup) {
  Txn& t = *inflight_[token];
  obs::count(stats_.cancels, cancels_cell_);
  db::Command cmd = db::Command::txn_cancel(pending_key(t.client, t.seq));
  if (with_home_cleanup && t.shards[slot] == t.home) {
    // The abort path's intent cleanup rides the home cancel: one action,
    // so a recovery scan never sees a cancelled home with a live intent.
    cmd.ops.push_back(db::Op{db::OpType::kDelete, intent_key(t.client, t.seq), "", 0});
  }
  const std::int64_t sid = kTxnSessionBase + options_.session_epoch * kEpochStride + t.client;
  session(sid, t.shards[slot])
      .submit(std::move(cmd),
              [this, alive = alive_, token, slot, with_home_cleanup](const core::SessionReply& r) {
                if (!*alive) return;
                auto it = inflight_.find(token);
                if (it == inflight_.end()) return;
                Txn& t = *it->second;
                t.attempts += r.attempts;
                if (!r.committed) {
                  submit_cancel(token, slot, with_home_cleanup);
                  return;
                }
                mark_marker(t);
                --t.outstanding;
                maybe_finish(token);
              });
}

void TxnCoordinator::reroute_slice(std::int64_t token, std::size_t slot) {
  Txn& t = *inflight_[token];
  // The slice is already decided (checks consumed at prepare) and purely
  // mutating, so the router's unconditional path applies it exactly once —
  // possibly across several shards if the range split. Snapshot reads stay
  // deadlock-free because their router gate is only taken once no
  // transaction is in flight (drain_for_snapshot stage order).
  const std::int64_t rclient = kRerouteClientBase + t.xid * 64 + static_cast<std::int64_t>(slot);
  router_.submit(rclient, t.buffered[slot],
                 [this, alive = alive_, token, slot](const shard::RouteReply& r) {
                   if (!*alive) return;
                   auto it = inflight_.find(token);
                   if (it == inflight_.end()) return;
                   Txn& t = *it->second;
                   t.attempts += r.attempts;
                   if (!r.committed) {
                     reroute_slice(token, slot);
                     return;
                   }
                   mark_marker(t);
                   --t.outstanding;
                   maybe_finish(token);
                 });
}

void TxnCoordinator::mark_marker(Txn& t) {
  const SimTime now = sim_.now();
  if (t.first_marker < 0) t.first_marker = now;
  t.last_marker = now;
}

void TxnCoordinator::maybe_finish(std::int64_t token) {
  auto it = inflight_.find(token);
  if (it != inflight_.end() && it->second->outstanding == 0) finish(token);
}

void TxnCoordinator::finish(std::int64_t token) {
  auto it = inflight_.find(token);
  std::unique_ptr<Txn> t = std::move(it->second);
  inflight_.erase(it);

  if (t->restarting) {
    schedule_restart(std::move(t));
    return;
  }

  shard::RouteReply out;
  out.shards_involved = static_cast<int>(t->shards.size());
  out.attempts = t->attempts;
  out.fenced_bounces = t->bounces;
  if (t->committing) {
    obs::count(stats_.committed, committed_cell_);
    out.committed = true;
    if (t->first_marker >= 0) {
      out.barrier_wait = t->last_marker - t->first_marker;
      if (barrier_hist_ != nullptr) barrier_hist_->record(out.barrier_wait / 1000);  // ns -> us
    }
    // Retire the intent and decision records off the critical path; the
    // reply does not wait for it (a crash before the cleanup is exactly
    // what adopt_orphans handles — it re-confirms, idempotently).
    submit_cleanup(t->client, t->seq, t->home,
                   kTxnSessionBase + options_.session_epoch * kEpochStride + t->client);
  } else {
    out.committed = false;
    out.check_aborted = t->check_fail;
    out.fenced = !t->check_fail && t->fence_fail;
    if (t->check_fail) {
      obs::count(stats_.aborted_check, check_cell_);
    } else if (t->fence_fail) {
      obs::count(stats_.aborted_fenced, fenced_cell_);
    } else {
      ++stats_.aborted_other;
    }
    options_.tracer.emit(obs::EventKind::kTxnDecide, static_cast<std::int64_t>(t->fp), 0,
                         sim_.now() - t->t0);
  }
  if (t->reply) t->reply(out);
}

void TxnCoordinator::schedule_restart(std::unique_ptr<Txn> t) {
  ++pending_restarts_;
  auto original = std::make_shared<db::Command>(std::move(t->original));
  sim_.after(options_.fence_retry_delay,
             [this, alive = alive_, original, client = t->client, bounces = t->bounces,
              reply = std::move(t->reply)]() mutable {
               if (!*alive) return;
               --pending_restarts_;
               // Deliberately bypasses the snapshot-read admission gate: the
               // transaction was admitted before the hold, and its restart
               // leg has zero applied effects, so the reader just waits for
               // it like any other in-flight transaction.
               begin(client, std::move(*original), std::move(reply), bounces + 1);
             });
}

void TxnCoordinator::submit_cleanup(std::int64_t client, std::int64_t seq, int home,
                                    std::int64_t sid) {
  ++cleanups_;
  db::Command cmd;
  cmd.ops.push_back(db::Op{db::OpType::kDelete, intent_key(client, seq), "", 0});
  cmd.ops.push_back(db::Op{db::OpType::kDelete, decision_key(client, seq), "", 0});
  session(sid, home).submit(std::move(cmd), [this, alive = alive_, client, seq, home,
                                             sid](const core::SessionReply& r) {
    if (!*alive) return;
    --cleanups_;
    if (!r.committed) submit_cleanup(client, seq, home, sid);
  });
}

// --- barrier-stamped snapshot reads ----------------------------------------

void TxnCoordinator::snapshot_read(db::Command query, SnapshotReadFn reply) {
  for (const db::Op& op : query.ops) {
    if (op.type != db::OpType::kGet) {
      if (reply) reply(SnapshotReadReply{});  // ok = false
      return;
    }
  }
  obs::count(stats_.snapshot_reads, snapshots_cell_);
  const shard::Directory& dir = router_.directory();
  std::vector<int> shards = dir.shards_of(query);
  if (shards.empty()) shards.push_back(0);

  const std::int64_t token = ++next_token_;
  Snapshot& s = snapshots_[token];
  s.query = std::move(query);
  s.reply = std::move(reply);
  s.shards = std::move(shards);
  s.slices.resize(s.shards.size());
  s.out.resize(s.shards.size());
  for (const db::Op& op : s.query.ops) {
    const int sh = dir.shard_of_cached(op.key);
    const std::size_t slot = static_cast<std::size_t>(
        std::lower_bound(s.shards.begin(), s.shards.end(), sh) - s.shards.begin());
    s.slots.emplace_back(slot, s.slices[slot].ops.size());
    s.slices[slot].ops.push_back(op);
  }
  s.t0 = sim_.now();
  // Gate order matters (deadlock freedom): first stop ADMITTING
  // transactions and wait for the in-flight ones — which may still need the
  // router for fenced-confirm reroutes — and only then take the router's
  // cross gate and wait out the marker barriers.
  ++hold_;
  drain_for_snapshot(token);
}

void TxnCoordinator::drain_for_snapshot(std::int64_t token) {
  auto it = snapshots_.find(token);
  Snapshot& s = it->second;
  const auto retry = [this, token] {
    sim_.after(millis(1), [this, alive = alive_, token] {
      if (*alive) drain_for_snapshot(token);
    });
  };
  bool own_busy = pending_restarts_ > 0 || !adoptions_.empty() || adoption_orphans_ > 0;
  for (const auto& [tok, t] : inflight_) {
    if (!t->halted) {
      own_busy = true;
      break;
    }
  }
  if (own_busy) {
    retry();
    return;
  }
  if (!s.gated) {
    router_.hold_cross();
    s.gated = true;
  }
  if (router_.cross_in_flight() > 0) {
    retry();
    return;
  }
  // Drained: every cross action is fully green at every involved shard, and
  // nothing new can start. Pin the watermark vector — any cross action is
  // now entirely at-or-below it, or entirely after the release.
  s.stamped = sim_.now();
  s.watermarks.resize(s.shards.size());
  for (std::size_t i = 0; i < s.shards.size(); ++i) {
    s.watermarks[i] = router_.green_watermark(s.shards[i]);
  }
  options_.tracer.emit(obs::EventKind::kTxnSnapshotRead,
                       static_cast<std::int64_t>(s.shards.size()), s.stamped - s.t0);
  if (s.query.ops.empty()) {
    finish_snapshot(token);
    return;
  }
  // A weak query can answer inline: the last slot's reply erases the
  // Snapshot, so `s` must not be touched once the reads start.
  const std::size_t slots = s.shards.size();
  s.outstanding = static_cast<int>(slots);
  for (std::size_t slot = 0; slot < slots; ++slot) read_snapshot_shard(token, slot);
}

void TxnCoordinator::read_snapshot_shard(std::int64_t token, std::size_t slot) {
  Snapshot& s = snapshots_.find(token)->second;
  // Any replica whose green count reached the pinned watermark serves: its
  // green prefix is the canonical one (invariant 1), so the answer is the
  // same at every qualifying replica. Later single-shard greens may be
  // included — they cannot straddle shards, so atomicity is unaffected.
  core::ReplicaNode* pick = nullptr;
  for (core::ReplicaNode* node : replicas_.at(static_cast<std::size_t>(s.shards[slot]))) {
    if (node->running() && node->engine().green_count() >= s.watermarks[slot]) {
      pick = node;
      break;
    }
  }
  if (pick == nullptr) {
    // Every caught-up replica just crashed; wait for a recovery or a
    // lagging member to replay up to the watermark.
    sim_.after(millis(1), [this, alive = alive_, token, slot] {
      if (*alive) read_snapshot_shard(token, slot);
    });
    return;
  }
  // kWeak is a synchronous pure read (no engine mutation), so in lane mode
  // it may run inline from the control phase against worker state frozen at
  // the window end — the snapshot semantics are unchanged.
  pick->engine().submit_query(
      s.slices[slot], core::QueryMode::kWeak,
      [this, alive = alive_, token, slot](const core::Reply& r) {
        if (!*alive) return;
        auto it = snapshots_.find(token);
        if (it == snapshots_.end()) return;
        Snapshot& s = it->second;
        s.out[slot] = r.reads;
        if (--s.outstanding == 0) finish_snapshot(token);
      });
}

void TxnCoordinator::finish_snapshot(std::int64_t token) {
  auto it = snapshots_.find(token);
  Snapshot s = std::move(it->second);
  snapshots_.erase(it);

  SnapshotReadReply out;
  out.ok = true;
  out.watermarks = std::move(s.watermarks);
  out.drain_wait = s.stamped - s.t0;
  out.reads.resize(s.slots.size());
  for (std::size_t i = 0; i < s.slots.size(); ++i) {
    out.reads[i] = std::move(s.out[s.slots[i].first][s.slots[i].second]);
  }
  if (s.gated) router_.release_cross();
  --hold_;
  if (hold_ == 0) flush_deferred();
  if (s.reply) s.reply(out);
}

// --- coordinator crash recovery --------------------------------------------

void TxnCoordinator::adopt_orphans(std::function<void(int adopted)> done) {
  adoption_done_ = std::move(done);
  adoption_count_ = 0;

  // Synchronous scan of every shard's best green state. Assumes the dead
  // coordinator's traffic has drained (run at quiescence): the scan must
  // see the final green marker set, not race half-delivered prepares.
  const int nshards = static_cast<int>(replicas_.size());
  std::set<std::pair<std::int64_t, std::int64_t>> known;
  std::vector<Adoption> work;
  for (int sh = 0; sh < nshards; ++sh) {
    const db::Database* d = best_db(sh);
    if (d == nullptr) continue;
    for (const auto& [key, value] : d->scan_prefix("__txn/")) {
      const Intent in = decode_intent(value);
      known.insert({in.client, in.seq});
      Adoption a;
      a.client = in.client;
      a.seq = in.seq;
      a.xid = in.client * kXidStride + in.seq;
      a.home = sh;
      a.shards = in.shards;
      const bool has_decision = d->get(decision_key(in.client, in.seq)) == "C";
      const std::string pend = pending_key(in.client, in.seq);
      for (const int t : a.shards) {
        const db::Database* dt = best_db(t);
        if (dt == nullptr) continue;
        const std::string cell = dt->get(pend);
        if (cell.empty()) continue;
        a.with_pending.push_back(t);
        a.buffered[t] = db::TxnPending::decode(Bytes(cell.begin(), cell.end())).update;
      }
      // Confirm iff the decision is durable, or every involved shard still
      // holds its pending — all voted yes and nothing was decided against.
      // (A confirmed shard always implies a durable decision, because the
      // live coordinator orders the decision before any confirm marker; so
      // a missing pending with no decision can only mean a "no" vote or a
      // cancel, and the safe resolution is cancel.)
      a.commit = has_decision || a.with_pending.size() == a.shards.size();
      work.push_back(std::move(a));
    }
  }
  // Pendings whose intent never went green: the home prepare aborted, so no
  // decision can ever exist — cancel them. Grouped per transaction.
  std::map<std::pair<std::int64_t, std::int64_t>, std::vector<int>> orphans;
  for (int sh = 0; sh < nshards; ++sh) {
    const db::Database* d = best_db(sh);
    if (d == nullptr) continue;
    for (const auto& [key, value] : d->scan_prefix("__txnp/")) {
      const db::TxnPending p = db::TxnPending::decode(Bytes(value.begin(), value.end()));
      if (known.count({p.client, p.seq}) != 0) continue;
      orphans[{p.client, p.seq}].push_back(sh);
    }
  }

  for (Adoption& a : work) {
    const std::int64_t token = ++next_token_;
    adoptions_[token] = std::move(a);
    adopt_drive(token);
  }
  for (const auto& [cs, shards] : orphans) {
    ++adoption_orphans_;
    adopt_cancel_orphan(cs.first, cs.second, shards);
  }
  adopt_maybe_done();
}

void TxnCoordinator::adopt_drive(std::int64_t token) {
  Adoption& a = adoptions_[token];
  options_.tracer.emit(obs::EventKind::kTxnDecide,
                       static_cast<std::int64_t>(db::range_fingerprint(
                           pending_key(a.client, a.seq), "")),
                       a.commit ? 1 : 0, 0);
  if (a.commit) {
    // Re-assert the decision first (idempotent if the dead coordinator got
    // that far), preserving the decision-before-confirm invariant.
    db::Command dec;
    const std::string key = decision_key(a.client, a.seq);
    dec.ops.push_back(db::Op{db::OpType::kCheck, key, "", 0});
    dec.ops.push_back(db::Op{db::OpType::kPut, key, "C", 0});
    session(kAdopterSessionBase + a.xid, a.home)
        .submit(std::move(dec), [this, alive = alive_, token](const core::SessionReply& r) {
          if (!*alive) return;
          if (!r.committed && !r.check_aborted) {
            adopt_drive(token);
            return;
          }
          adopt_confirms(token);
        });
    return;
  }
  // Cancel leg: erase every surviving pending; the home's cancel (or a
  // standalone delete when the home pending is already gone) retires the
  // intent in the same action.
  a.outstanding = static_cast<int>(a.with_pending.size());
  const bool home_pending =
      std::find(a.with_pending.begin(), a.with_pending.end(), a.home) != a.with_pending.end();
  if (!home_pending) ++a.outstanding;
  const auto on_done = [this, alive = alive_,
                        token](const core::SessionReply& r,
                               const std::shared_ptr<std::function<void()>>& resubmit) {
    if (*alive && !r.committed) {
      (*resubmit)();
      return;
    }
    // Done retrying: the stored lambda captures its own shared_ptr to stay
    // alive across resubmits, so it must be cleared here or the cycle leaks.
    *resubmit = nullptr;
    if (!*alive) return;
    Adoption& a = adoptions_[token];
    if (--a.outstanding == 0) {
      ++stats_.adopted_cancelled;
      ++adoption_count_;
      adopt_done_one(token);
    }
  };
  for (const int sh : a.with_pending) {
    obs::count(stats_.cancels, cancels_cell_);
    db::Command cmd = db::Command::txn_cancel(pending_key(a.client, a.seq));
    if (sh == a.home) {
      cmd.ops.push_back(db::Op{db::OpType::kDelete, intent_key(a.client, a.seq), "", 0});
    }
    auto submit = std::make_shared<std::function<void()>>();
    *submit = [this, token, sh, cmd, on_done, submit] {
      Adoption& a = adoptions_[token];
      session(kAdopterSessionBase + a.xid, sh)
          .submit(cmd, [on_done, submit](const core::SessionReply& r) { on_done(r, submit); });
    };
    (*submit)();
  }
  if (!home_pending) {
    db::Command cmd;
    cmd.ops.push_back(db::Op{db::OpType::kDelete, intent_key(a.client, a.seq), "", 0});
    auto submit = std::make_shared<std::function<void()>>();
    *submit = [this, token, cmd, on_done, submit] {
      Adoption& a = adoptions_[token];
      session(kAdopterSessionBase + a.xid, a.home)
          .submit(cmd, [on_done, submit](const core::SessionReply& r) { on_done(r, submit); });
    };
    (*submit)();
  }
}

void TxnCoordinator::adopt_confirms(std::int64_t token) {
  Adoption& a = adoptions_[token];
  a.outstanding = static_cast<int>(a.shards.size());
  for (std::size_t slot = 0; slot < a.shards.size(); ++slot) {
    adopt_confirm_shard(token, slot);
  }
}

void TxnCoordinator::adopt_confirm_shard(std::int64_t token, std::size_t slot) {
  Adoption& a = adoptions_[token];
  const int sh = a.shards[slot];
  obs::count(stats_.confirms, confirms_cell_);
  session(kAdopterSessionBase + a.xid, sh)
      .submit(db::Command::txn_confirm(pending_key(a.client, a.seq)),
              [this, alive = alive_, token, slot](const core::SessionReply& r) {
                if (!*alive) return;
                auto it = adoptions_.find(token);
                if (it == adoptions_.end()) return;
                Adoption& a = it->second;
                if (r.committed) {
                  if (--a.outstanding == 0) adopt_cleanup(token);
                  return;
                }
                if (r.fenced) {
                  // Same fenced-confirm case as the live path: the range
                  // moved after the prepare. Cancel the stranded pending
                  // and re-drive the buffered ops through the router.
                  obs::count(stats_.confirm_rerouted, rerouted_cell_);
                  adopt_reroute(token, slot);
                  return;
                }
                adopt_confirm_shard(token, slot);
              });
}

void TxnCoordinator::adopt_reroute(std::int64_t token, std::size_t slot) {
  Adoption& a = adoptions_[token];
  const int sh = a.shards[slot];
  db::Command buffered;
  const auto it = a.buffered.find(sh);
  if (it != a.buffered.end()) buffered = it->second;
  const bool has_payload = !buffered.ops.empty();
  if (has_payload) ++a.outstanding;  // the confirm becomes cancel + reroute
  obs::count(stats_.cancels, cancels_cell_);
  auto cancel = std::make_shared<std::function<void()>>();
  *cancel = [this, token, sh, cancel] {
    Adoption& a = adoptions_[token];
    session(kAdopterSessionBase + a.xid, sh)
        .submit(db::Command::txn_cancel(pending_key(a.client, a.seq)),
                [this, alive = alive_, token, cancel](const core::SessionReply& r) {
                  if (*alive && !r.committed) {
                    (*cancel)();
                    return;
                  }
                  *cancel = nullptr;  // break the retry lambda's self-reference cycle
                  if (!*alive) return;
                  Adoption& a = adoptions_[token];
                  if (--a.outstanding == 0) adopt_cleanup(token);
                });
  };
  (*cancel)();
  if (!has_payload) return;
  const std::int64_t rclient = kRerouteClientBase + a.xid * 64 + static_cast<std::int64_t>(slot);
  auto drive = std::make_shared<std::function<void()>>();
  *drive = [this, token, rclient, buffered, drive] {
    router_.submit(rclient, buffered,
                   [this, alive = alive_, token, drive](const shard::RouteReply& r) {
                     if (*alive && !r.committed) {
                       (*drive)();
                       return;
                     }
                     *drive = nullptr;  // break the retry lambda's self-reference cycle
                     if (!*alive) return;
                     Adoption& a = adoptions_[token];
                     if (--a.outstanding == 0) adopt_cleanup(token);
                   });
  };
  (*drive)();
}

void TxnCoordinator::adopt_cleanup(std::int64_t token) {
  Adoption& a = adoptions_[token];
  db::Command cmd;
  cmd.ops.push_back(db::Op{db::OpType::kDelete, intent_key(a.client, a.seq), "", 0});
  cmd.ops.push_back(db::Op{db::OpType::kDelete, decision_key(a.client, a.seq), "", 0});
  session(kAdopterSessionBase + a.xid, a.home)
      .submit(std::move(cmd), [this, alive = alive_, token](const core::SessionReply& r) {
        if (!*alive) return;
        if (!r.committed) {
          adopt_cleanup(token);
          return;
        }
        ++stats_.adopted_confirmed;
        ++adoption_count_;
        adopt_done_one(token);
      });
}

void TxnCoordinator::adopt_cancel_orphan(std::int64_t client, std::int64_t seq,
                                         const std::vector<int>& shards) {
  const std::int64_t xid = client * kXidStride + seq;
  auto remaining = std::make_shared<int>(static_cast<int>(shards.size()));
  for (const int sh : shards) {
    obs::count(stats_.cancels, cancels_cell_);
    auto submit = std::make_shared<std::function<void()>>();
    *submit = [this, client, seq, xid, sh, remaining, submit] {
      session(kAdopterSessionBase + xid, sh)
          .submit(db::Command::txn_cancel(pending_key(client, seq)),
                  [this, alive = alive_, remaining, submit](const core::SessionReply& r) {
                    if (*alive && !r.committed) {
                      (*submit)();
                      return;
                    }
                    *submit = nullptr;  // break the retry lambda's self-reference cycle
                    if (!*alive) return;
                    if (--*remaining == 0) {
                      ++stats_.adopted_cancelled;
                      ++adoption_count_;
                      --adoption_orphans_;
                      adopt_maybe_done();
                    }
                  });
    };
    (*submit)();
  }
}

void TxnCoordinator::adopt_done_one(std::int64_t token) {
  adoptions_.erase(token);
  adopt_maybe_done();
}

void TxnCoordinator::adopt_maybe_done() {
  if (!adoptions_.empty() || adoption_orphans_ != 0 || !adoption_done_) return;
  auto done = std::move(adoption_done_);
  adoption_done_ = nullptr;
  done(adoption_count_);
}

}  // namespace tordb::txn
