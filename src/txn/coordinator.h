// Cross-shard prepared-check transaction coordinator (DESIGN.md §13).
//
// The paper's single total order gives atomic checked actions for free; the
// sharded tier (§8) broke that for commands whose kCheck preconditions span
// groups. This coordinator restores them with a two-round protocol over the
// existing router/session machinery, in the spirit of Sutra & Shapiro's
// decentralised commitment over partially-replicated groups — no global
// total order is reintroduced:
//
//   Round 1 (prepare): the command is split by owning shard. Each shard
//   orders ONE action carrying its slice's checks plus a kTxnPrepare
//   marker that buffers the slice's updates in a reserved `__txnp/` cell.
//   A failed check aborts the whole slice atomically (nothing buffered) —
//   the shard's deterministic "no" vote; a green prepare is its "yes".
//   Because the pending update is an ordinary reserved-key row, snapshot,
//   state transfer, recovery replay and digests carry it for free.
//
//   Decision: when every shard voted yes, the coordinator makes the commit
//   durable FIRST — a guarded write of a `__txnd/` decision record through
//   the home shard's green order — and only then issues round 2. Any abort
//   (a "no" vote, or the fence-restart budget exhausted) skips the record.
//
//   Round 2 (confirm/cancel): one kTxnConfirm (apply the buffered update,
//   erase the cell) or kTxnCancel (erase without applying) marker per
//   involved shard, each through that shard's green order, so every
//   replica of a group takes the identical transition at the identical
//   green position — checker invariant 9. The client reply waits for the
//   green-watermark commit barrier: all markers green.
//
// Rebalance interference: a fenced PREPARE cancels the prepared shards and
// restarts the whole transaction against the fresh directory (bounded by
// max_fence_retries). A fenced CONFIRM means a data range moved between
// prepare and confirm — the reserved pending cell never travels with a
// move — so the coordinator cancels the stranded prepare and re-drives the
// already-decided slice through the router, which re-splits it for the
// range's new owner (`confirm_rerouted`).
//
// Isolation caveat (documented, not hidden): checks are evaluated at the
// prepare position, buffered updates apply at the confirm position; a
// writer may touch a checked key in between. TPC-C's new-order checks are
// against immutable catalog rows, where the distinction is invisible.
//
// Coordinator crash recovery: the home-shard prepare piggybacks a `__txn/`
// intent record (client, seq, involved shards). A replacement coordinator
// calls adopt_orphans(): for every surviving intent it re-drives the
// transaction — confirm iff the decision record exists or every involved
// shard still holds its pending (all voted yes and nothing was decided
// against), else cancel — and a pending whose intent never went green is
// cancelled outright (the home prepare aborted, so no decision can exist).
// Run it at quiescence, after the dead coordinator's traffic drained.
//
// Barrier-stamped snapshot reads: snapshot_read() holds the router's
// cross-shard gate plus this coordinator's own admission gate, waits until
// every in-flight cross action and transaction drains, pins one green
// watermark per involved shard, and answers each shard's kGets with a weak
// query at a replica whose green count reached that watermark. Every cross
// action is then either entirely before or entirely after the pinned
// vector — a reader can no longer observe one half-applied.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/client_session.h"
#include "core/replica_node.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "shard/router.h"
#include "util/flat_map.h"

namespace tordb::txn {

struct TxnOptions {
  core::SessionOptions session;  ///< marker/prepare session knobs
  obs::Tracer tracer;            ///< coordinator-side events (node = kNoNode)
  std::shared_ptr<obs::MetricsRegistry> metrics;
  /// Wholesale-restart budget when a prepare bounces off a fenced range
  /// mid-rebalance, and the pause before the restart re-consults the
  /// directory (mirrors RouterOptions' fenced-bounce knobs).
  int max_fence_retries = 400;
  SimDuration fence_retry_delay = millis(50);
  /// Distinguishes a replacement coordinator's sessions from its dead
  /// predecessor's: session guards are consumed per id, so a new
  /// incarnation must claim fresh id space (ShardedCluster bumps this on
  /// restart_txn_coordinator).
  std::int64_t session_epoch = 0;
  /// Test hook modelling a coordinator crash mid-protocol: freeze every
  /// transaction at this stage (no reply, no further markers; txn_test
  /// then builds a replacement coordinator and drives adoption).
  /// 0 = never, 1 = after the prepare votes are collected (before the
  /// decision record or any cancels), 2 = after the decision record is
  /// green (before the confirm/cancel markers).
  int halt_at_stage = 0;
};

struct TxnStats {
  std::uint64_t begun = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted_check = 0;   ///< some shard's precondition failed
  std::uint64_t aborted_fenced = 0;  ///< fence-restart budget exhausted
  std::uint64_t aborted_other = 0;   ///< a vote neither committed nor classified
  std::uint64_t prepares = 0;        ///< prepare markers submitted
  std::uint64_t confirms = 0;        ///< confirm markers submitted
  std::uint64_t cancels = 0;         ///< cancel markers submitted
  std::uint64_t restarts = 0;        ///< wholesale fenced restarts
  std::uint64_t confirm_rerouted = 0;  ///< confirms bounced by a move, re-driven via the router
  std::uint64_t snapshot_reads = 0;
  std::uint64_t adopted_confirmed = 0;  ///< recovery pass drove the txn to commit
  std::uint64_t adopted_cancelled = 0;  ///< recovery pass cancelled it
};

/// Result of a barrier-stamped snapshot read.
struct SnapshotReadReply {
  bool ok = false;                       ///< false: the query carried non-kGet ops
  std::vector<std::string> reads;        ///< one entry per kGet, in program order
  std::vector<std::int64_t> watermarks;  ///< pinned green watermark per involved shard (ascending)
  SimDuration drain_wait = 0;            ///< gate hold -> all barriers drained
};
using SnapshotReadFn = std::function<void(const SnapshotReadReply&)>;

class TxnCoordinator {
 public:
  /// `replicas[s]` are the members of shard `s` — the same groups the
  /// router holds; adoption and snapshot reads consult their green state
  /// directly. The router must outlive the coordinator.
  TxnCoordinator(Simulator& sim, shard::Router& router,
                 std::vector<std::vector<core::ReplicaNode*>> replicas, TxnOptions options = {});
  ~TxnCoordinator();

  TxnCoordinator(const TxnCoordinator&) = delete;
  TxnCoordinator& operator=(const TxnCoordinator&) = delete;

  /// Run `update` as a prepared-check transaction (the router's
  /// cross-check handler lands here). Degenerate single-shard commands go
  /// straight back to the router's atomic fast path.
  void submit(std::int64_t client, db::Command update, shard::RouteReplyFn reply);

  /// Barrier-stamped snapshot read: `query` must be kGet-only; its reads
  /// are answered against one pinned green watermark per involved shard.
  void snapshot_read(db::Command query, SnapshotReadFn reply);

  /// Recovery pass over every shard's surviving `__txn/` intents and
  /// orphaned `__txnp/` pendings (see the header comment). `done` fires
  /// with the number of adopted transactions once all of them resolved.
  void adopt_orphans(std::function<void(int adopted)> done = nullptr);

  /// Every transaction, marker, cleanup, restart and snapshot read drained.
  bool idle() const;
  const TxnStats& stats() const { return stats_; }

  static std::string intent_key(std::int64_t client, std::int64_t seq);
  static std::string pending_key(std::int64_t client, std::int64_t seq);
  static std::string decision_key(std::int64_t client, std::int64_t seq);

 private:
  struct Txn {
    std::int64_t client = 0;
    std::int64_t seq = 0;
    std::int64_t xid = 0;   ///< deterministic: client * 1e6 + seq
    std::uint64_t fp = 0;   ///< db::range_fingerprint(pending key, "")
    db::Command original;   ///< kept verbatim for wholesale fenced restarts
    shard::RouteReplyFn reply;
    std::vector<int> shards;            ///< involved shards, ascending
    std::vector<db::Command> checks;    ///< per slot: the slice's kCheck ops
    std::vector<db::Command> buffered;  ///< per slot: the slice's buffered updates
    std::vector<char> prepared;         ///< per slot: 1 = green prepare ("yes" vote)
    int home = 0;           ///< lowest involved shard; holds intent + decision
    int outstanding = 0;    ///< markers awaited in the current round
    int bounces = 0;        ///< wholesale restarts consumed
    int attempts = 0;       ///< summed session attempts
    bool check_fail = false;
    bool fence_fail = false;
    bool other_fail = false;
    bool committing = false;  ///< round 2 is the confirm leg (decision durable)
    bool restarting = false;  ///< round 2 is the cancel leg of a restart
    bool halted = false;      ///< frozen by TxnOptions::halt_at_stage
    SimTime t0 = 0;
    SimTime first_marker = -1;  ///< first round-2 marker green
    SimTime last_marker = -1;   ///< last round-2 marker green
  };

  /// One transaction being re-driven by adopt_orphans.
  struct Adoption {
    std::int64_t client = 0;
    std::int64_t seq = 0;
    std::int64_t xid = 0;
    int home = 0;
    bool commit = false;
    std::vector<int> shards;                ///< involved shards (intent record)
    std::vector<int> with_pending;          ///< shards whose pending cell survives
    std::map<int, db::Command> buffered;    ///< decoded from surviving pendings
    int outstanding = 0;
  };

  core::ClientSession& session(std::int64_t session_id, int shard);
  const db::Database* best_db(int shard) const;

  void begin(std::int64_t client, db::Command update, shard::RouteReplyFn reply, int bounces);
  void on_prepared(std::int64_t token);
  void submit_decision(std::int64_t token);
  void round2(std::int64_t token, bool commit);
  void submit_confirm(std::int64_t token, std::size_t slot);
  void submit_cancel(std::int64_t token, std::size_t slot, bool with_home_cleanup);
  void reroute_slice(std::int64_t token, std::size_t slot);
  void mark_marker(Txn& t);
  void maybe_finish(std::int64_t token);
  void finish(std::int64_t token);
  void schedule_restart(std::unique_ptr<Txn> t);
  void submit_cleanup(std::int64_t client, std::int64_t seq, int home, std::int64_t sid);
  void flush_deferred();

  void drain_for_snapshot(std::int64_t token);
  void read_snapshot_shard(std::int64_t token, std::size_t slot);
  void finish_snapshot(std::int64_t token);

  void adopt_drive(std::int64_t token);
  void adopt_confirms(std::int64_t token);
  void adopt_confirm_shard(std::int64_t token, std::size_t slot);
  void adopt_reroute(std::int64_t token, std::size_t slot);
  void adopt_cleanup(std::int64_t token);
  void adopt_cancel_orphan(std::int64_t client, std::int64_t seq, const std::vector<int>& shards);
  void adopt_done_one(std::int64_t token);
  void adopt_maybe_done();

  Simulator& sim_;
  shard::Router& router_;
  std::vector<std::vector<core::ReplicaNode*>> replicas_;
  TxnOptions options_;
  std::shared_ptr<bool> alive_;

  util::FlatMap64<std::unique_ptr<core::ClientSession>> sessions_;  ///< by (sid << 16) | shard
  util::FlatMap64<std::int64_t> next_seq_;  ///< per client
  std::int64_t next_token_ = 0;
  std::map<std::int64_t, std::unique_ptr<Txn>> inflight_;

  /// Snapshot-read admission gate: while > 0, new transactions are
  /// deferred (FIFO) so the barrier can drain.
  int hold_ = 0;
  struct DeferredTxn {
    std::int64_t client = 0;
    db::Command update;
    shard::RouteReplyFn reply;
  };
  std::deque<DeferredTxn> deferred_;

  struct Snapshot {
    db::Command query;
    SnapshotReadFn reply;
    std::vector<int> shards;  ///< involved shards, ascending
    /// For each kGet of the query, (slot, index within the slot's slice).
    std::vector<std::pair<std::size_t, std::size_t>> slots;
    std::vector<db::Command> slices;            ///< per slot: the shard's kGets
    std::vector<std::vector<std::string>> out;  ///< per slot: that shard's reads
    std::vector<std::int64_t> watermarks;
    SimTime t0 = 0;
    SimTime stamped = 0;
    int outstanding = 0;
    bool gated = false;  ///< this read holds one router hold_cross()
  };
  std::map<std::int64_t, Snapshot> snapshots_;

  std::map<std::int64_t, Adoption> adoptions_;
  int adoption_orphans_ = 0;  ///< orphan-pending cancels still in flight
  std::function<void(int)> adoption_done_;
  int adoption_count_ = 0;

  std::int64_t pending_restarts_ = 0;
  std::int64_t cleanups_ = 0;  ///< post-commit intent/decision deletions in flight

  obs::Histogram* prepare_decide_hist_ = nullptr;
  obs::Histogram* barrier_hist_ = nullptr;
  TxnStats stats_;
  // Registry cells beside stats_ (null without a registry).
  obs::Counter* prepares_cell_ = obs::counter_in(options_.metrics, "router.txn.prepares");
  obs::Counter* confirms_cell_ = obs::counter_in(options_.metrics, "router.txn.confirms");
  obs::Counter* cancels_cell_ = obs::counter_in(options_.metrics, "router.txn.cancels");
  obs::Counter* committed_cell_ = obs::counter_in(options_.metrics, "txn.committed");
  obs::Counter* check_cell_ = obs::counter_in(options_.metrics, "txn.aborted.check");
  obs::Counter* fenced_cell_ = obs::counter_in(options_.metrics, "txn.aborted.fenced");
  obs::Counter* restarts_cell_ = obs::counter_in(options_.metrics, "txn.restarts");
  obs::Counter* rerouted_cell_ = obs::counter_in(options_.metrics, "txn.confirm_rerouted");
  obs::Counter* snapshots_cell_ = obs::counter_in(options_.metrics, "txn.snapshot_reads");
};

}  // namespace tordb::txn
