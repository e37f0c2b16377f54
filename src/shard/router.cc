#include "shard/router.h"

#include <map>
#include <stdexcept>
#include <utility>

namespace tordb::shard {

Router::Router(Simulator& sim, std::shared_ptr<Directory> directory,
               std::vector<std::vector<core::ReplicaNode*>> replicas, RouterOptions options)
    : sim_(sim),
      directory_(std::move(directory)),
      replicas_(std::move(replicas)),
      options_(std::move(options)),
      alive_(std::make_shared<bool>(true)) {
  if (!directory_) throw std::invalid_argument("router needs a directory");
  if (static_cast<int>(replicas_.size()) != directory_->shards()) {
    throw std::invalid_argument("replica groups must match the directory's shard count");
  }
  if (options_.metrics) {
    barrier_hist_ = &options_.metrics->histogram("shard.cross.barrier_wait_us");
  }
}

Router::Router(Simulator& sim, const Directory& directory,
               std::vector<std::vector<core::ReplicaNode*>> replicas, RouterOptions options)
    : Router(sim, std::make_shared<Directory>(directory), std::move(replicas),
             std::move(options)) {}

Router::~Router() { *alive_ = false; }

std::string Router::cross_marker_key(std::int64_t client, std::int64_t cross_seq) {
  return "__xs/" + std::to_string(client) + "/" + std::to_string(cross_seq);
}

core::ClientSession& Router::session(std::int64_t client, int shard) {
  auto& slot = sessions_[session_key(client, shard)];
  if (!slot) {
    // One engine-level session per (client, shard): the guard key is scoped
    // to the session's group, and sequence numbers stay dense per shard.
    // In a lane-partitioned simulation (DESIGN.md §15) this is the router's
    // cross-lane handoff point: the session lives on the router's (control)
    // lane and hops each submit to the target replica's lane itself.
    const std::int64_t session_id = client * directory_->shards() + shard;
    slot = std::make_unique<core::ClientSession>(sim_, replicas_[shard], session_id,
                                                 options_.session);
  }
  return *slot;
}

bool Router::idle() const {
  bool all_idle = true;
  sessions_.for_each([&](std::uint64_t, const std::unique_ptr<core::ClientSession>& s) {
    if (!s->idle()) all_idle = false;
  });
  return all_idle && cross_inflight_.empty() && pending_bounces_ == 0 &&
         deferred_cross_.empty();
}

void Router::hold_cross() { ++cross_hold_; }

void Router::release_cross() {
  if (--cross_hold_ > 0) return;
  // Flush in FIFO order. Each re-entry re-consults the directory (it may
  // have changed while the gate was held); a concurrent re-hold during the
  // flush re-defers the remainder into the fresh queue.
  std::deque<Deferred> q;
  q.swap(deferred_cross_);
  for (Deferred& d : q) route(d.client, std::move(d.update), std::move(d.reply), d.bounces);
}

std::int64_t Router::green_watermark(int shard) const {
  // Read-only engine access: safe from the control lane in lane mode (the
  // control phase runs exclusively, over worker state frozen at the window
  // end), so the watermark needs no handoff.
  std::int64_t best = 0;
  for (const core::ReplicaNode* node : replicas_.at(shard)) {
    if (node->running() && node->engine().green_count() > best) {
      best = node->engine().green_count();
    }
  }
  return best;
}

void Router::submit(std::int64_t client, db::Command update, RouteReplyFn reply) {
  route(client, std::move(update), std::move(reply), /*bounces=*/0);
}

void Router::route(std::int64_t client, db::Command update, RouteReplyFn reply, int bounces) {
  std::vector<int> shards = directory_->shards_of(update);
  if (shards.empty()) shards.push_back(0);  // pure no-op commands pin to shard 0

  if (shards.size() == 1) {
    const int shard = shards[0];
    if (bounces == 0) ++stats_.routed_single;
    options_.tracer.emit(obs::EventKind::kShardRoute, shard, client, /*xid=*/0);
    // Keep the command for a potential fenced re-route: a fenced abort had
    // no effects, so resubmitting it is a fresh first attempt.
    auto retained = std::make_shared<db::Command>(update);
    session(client, shard).submit(
        std::move(update),
        [this, alive = alive_, shard, client, bounces, retained,
         reply = std::move(reply)](const core::SessionReply& r) mutable {
          if (!*alive) return;
          if (r.attempts > 1) {
            obs::count(stats_.failovers, failovers_cell_);
            options_.tracer.emit(obs::EventKind::kShardFailover, shard, client, r.attempts);
          }
          if (!r.committed && r.fenced && bounces < options_.max_fence_bounces) {
            obs::count(stats_.fenced_bounces, bounces_cell_);
            ++pending_bounces_;
            sim_.after(options_.fence_retry_delay,
                       [this, alive, client, retained, bounces,
                        reply = std::move(reply)]() mutable {
                         if (!*alive) return;
                         route(client, std::move(*retained), std::move(reply), bounces + 1);
                         --pending_bounces_;
                       });
            return;
          }
          obs::count(r.committed ? stats_.committed : stats_.aborted,
                     r.committed ? committed_cell_ : aborted_cell_);
          if (!r.committed && r.check_aborted) obs::count(stats_.aborted_checks, checks_cell_);
          if (reply) {
            RouteReply out;
            out.committed = r.committed;
            out.fenced = !r.committed && r.fenced;
            out.check_aborted = !r.committed && r.check_aborted;
            out.shards_involved = 1;
            out.attempts = r.attempts;
            out.fenced_bounces = bounces;
            reply(out);
          }
        });
    return;
  }

  // Cross-shard path. Classify the op mix first: range administration and
  // raw txn markers are pinned to one group by construction and can never
  // span a barrier — a precise unsupported_mix rejection, applied at no
  // shard. User kCheck preconditions span groups only through the
  // prepared-check coordinator (DESIGN.md §13), which evaluates each check
  // at its owning shard and decides through durable markers; without a
  // wired coordinator they keep the legacy up-front rejection.
  bool has_check = false;
  for (const db::Op& op : update.ops) {
    switch (op.type) {
      case db::OpType::kCheck:
        has_check = true;
        break;
      case db::OpType::kFenceRange:
      case db::OpType::kInstallRange:
      case db::OpType::kUnfenceRange:
      case db::OpType::kTxnPrepare:
      case db::OpType::kTxnConfirm:
      case db::OpType::kTxnCancel: {
        obs::count(stats_.rejected_unsupported, unsupported_cell_);
        obs::count(stats_.aborted, aborted_cell_);
        if (reply) {
          RouteReply out;
          out.committed = false;
          out.unsupported_mix = true;
          out.shards_involved = static_cast<int>(shards.size());
          reply(out);
        }
        return;
      }
      default:
        break;
    }
  }
  if (has_check) {
    if (cross_check_handler_) {
      obs::count(stats_.txn_handoffs, handoffs_cell_);
      cross_check_handler_(client, std::move(update), std::move(reply));
      return;
    }
    ++stats_.rejected_cross_checks;
    obs::count(stats_.aborted, aborted_cell_);
    if (reply) {
      RouteReply out;
      out.committed = false;
      out.shards_involved = static_cast<int>(shards.size());
      reply(out);
    }
    return;
  }
  if (cross_hold_ > 0) {
    // A snapshot read is pinning its watermark vector: defer the submission
    // (FIFO) until the gate releases. The command is not in flight yet, so
    // the drain the reader waits for cannot deadlock on it.
    deferred_cross_.push_back(Deferred{client, std::move(update), std::move(reply), bounces});
    return;
  }

  obs::count(stats_.routed_cross, cross_cell_);
  const std::int64_t cross_seq = ++next_cross_seq_[static_cast<std::uint64_t>(client)];
  // Deterministic id: unique per (client, cross_seq), stable across runs.
  const std::int64_t xid = client * 1'000'000 + cross_seq;
  const std::int64_t token = ++next_cross_token_;
  CrossState& cs = cross_inflight_[static_cast<std::uint64_t>(token)];
  cs.xid = xid;
  cs.client = client;
  cs.marker = cross_marker_key(client, cross_seq);
  cs.involved = static_cast<int>(shards.size());
  cs.outstanding = cs.involved;
  cs.bounces = bounces;
  cs.reply = std::move(reply);
  options_.tracer.emit(obs::EventKind::kShardCrossSubmit, xid, client,
                       static_cast<std::int64_t>(shards.size()));

  // Split the ops by owning shard, preserving program order within each
  // slice; each slice rides the marker write so the action's presence at a
  // shard is observable state, not just a reply.
  for (const int shard : shards) {
    db::Command slice;
    for (const db::Op& op : update.ops) {
      if (directory_->shard_of_cached(op.key) == shard) slice.ops.push_back(op);
    }
    submit_cross_slice(token, shard, std::move(slice));
  }
}

void Router::submit_cross_slice(std::int64_t token, int shard, db::Command user_slice) {
  CrossState& cs = *cross_inflight_.find(static_cast<std::uint64_t>(token));
  db::Command sub = user_slice;
  sub.ops.push_back(db::Op{db::OpType::kPut, cs.marker, std::to_string(cs.xid), 0});
  options_.tracer.emit(obs::EventKind::kShardRoute, shard, cs.client, cs.xid);
  // Retained for a fenced re-route into the same commit barrier.
  auto retained = std::make_shared<db::Command>(std::move(user_slice));
  session(cs.client, shard)
      .submit(std::move(sub), [this, alive = alive_, token, shard,
                               retained](const core::SessionReply& r) {
        if (!*alive) return;
        CrossState& cs = *cross_inflight_.find(static_cast<std::uint64_t>(token));
        if (r.attempts > 1) {
          obs::count(stats_.failovers, failovers_cell_);
          options_.tracer.emit(obs::EventKind::kShardFailover, shard, cs.client, r.attempts);
        }
        cs.attempts += r.attempts;
        if (!r.committed && r.fenced && cs.bounces < options_.max_fence_bounces) {
          ++cs.bounces;
          obs::count(stats_.fenced_bounces, bounces_cell_);
          sim_.after(options_.fence_retry_delay, [this, alive, token, retained] {
            if (!*alive) return;
            rebounce_cross_slice(token, *retained);
          });
          return;  // the slice is still in flight: outstanding is unchanged
        }
        if (r.committed) {
          cs.any_committed = true;
          const SimTime now = sim_.now();
          if (cs.first_green < 0) cs.first_green = now;
          cs.last_green = now;
        } else {
          cs.all_committed = false;
          if (r.fenced) cs.fenced_exhausted = true;
          if (r.check_aborted) cs.check_aborted = true;
        }
        if (--cs.outstanding == 0) finish_cross(token);
      });
}

void Router::rebounce_cross_slice(std::int64_t token, const db::Command& user_slice) {
  CrossState& cs = *cross_inflight_.find(static_cast<std::uint64_t>(token));
  // Re-split by the *current* directory — the range may have moved, or even
  // split, since the slice was first routed. Every part re-enters the same
  // commit barrier.
  // An ordered map on purpose: parts are submitted in ascending shard
  // order, which the virtual-time goldens depend on.
  std::map<int, db::Command> parts;
  for (const db::Op& op : user_slice.ops) {
    parts[directory_->shard_of_cached(op.key)].ops.push_back(op);
  }
  cs.outstanding += static_cast<int>(parts.size()) - 1;
  for (auto& [shard, part] : parts) submit_cross_slice(token, shard, std::move(part));
}

void Router::finish_cross(std::int64_t token) {
  // The commit barrier: every involved group has reported its sub-action
  // green (or aborted). With unconditional sub-commands and sessions that
  // wait out whole-group outages, a mixed outcome means a sub-session
  // exhausted its attempt budget — surfaced as a distinct stat because it
  // breaks all-or-nothing and the property test must never observe it.
  CrossState cs = cross_inflight_.extract(static_cast<std::uint64_t>(token));
  const bool committed = cs.all_committed;
  if (cs.any_committed && !cs.all_committed) ++stats_.cross_partial_aborts;
  obs::count(committed ? stats_.committed : stats_.aborted,
             committed ? committed_cell_ : aborted_cell_);
  if (!committed && cs.check_aborted) obs::count(stats_.aborted_checks, checks_cell_);

  RouteReply out;
  out.committed = committed;
  out.fenced = cs.fenced_exhausted;
  out.check_aborted = !committed && cs.check_aborted;
  out.shards_involved = cs.involved;
  out.attempts = cs.attempts;
  out.fenced_bounces = cs.bounces;
  if (committed) out.barrier_wait = cs.last_green - cs.first_green;
  options_.tracer.emit(obs::EventKind::kShardCrossCommit, cs.xid, committed ? 1 : 0,
                       out.barrier_wait);
  if (committed && barrier_hist_ != nullptr) {
    barrier_hist_->record(out.barrier_wait / 1000);  // ns -> us
  }
  if (cs.reply) cs.reply(out);
}

}  // namespace tordb::shard
