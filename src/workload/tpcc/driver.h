// TPC-C-style closed-loop driver over a ShardedCluster (DESIGN.md §12).
//
// The five-transaction mix exercises the paper's whole §6 semantics family
// against one realistic multi-table workload:
//
//   new-order     multi-key active update: kCheck item preconditions guard
//                 the whole command (a failed check aborts atomically at
//                 every replica — the paper's interactive-transaction
//                 mechanism), stock decrements ride as commutative kAdds.
//   payment       pure commutative kAdd increments (warehouse/district ytd,
//                 customer balance); the remote-customer knob makes a
//                 fraction of them cross-shard through the router's commit
//                 barrier.
//   delivery      a batched kTimestampPut stamping recent orders of one
//                 district (last-writer-wins timestamps, §6).
//   order-status  weak query: consistent-but-possibly-stale read of the
//                 customer's balance and latest order from the green state.
//   stock-level   dirty query: reads recent items' stock through the red
//                 overlay — the freshest local information.
//
// Cross-shard atomicity model: a new-order whose supplier warehouse lives
// on a foreign shard keeps its kCheck item preconditions — the router hands
// the command to the prepared-check transaction coordinator (src/txn,
// DESIGN.md §13), which evaluates each check at its owning shard and
// confirms or cancels the buffered updates identically everywhere. Checked
// remote orders are counted (`remote_checked`); an injected invalid item on
// a remote order aborts the whole order atomically at every involved shard.
// The `unchecked_remote` ablation knob restores the historical downgrade
// (strip the checks, apply unconditionally, count `remote_unchecked`) so
// the A10 experiment can quantify what the coordinator buys and costs.
//
// Skew: warehouses are picked through a util::ZipfGenerator rank stream; a
// configurable mid-run hotspot shift rotates rank→warehouse assignment so
// the hot range jumps to a different shard while the run is live — the
// scenario the load-driven auto-rebalancing roadmap item trains against.
//
// Determinism: per-client splitmix-derived Rng streams, all timestamps
// virtual — a fixed (cluster seed, TpccOptions::seed) reproduces the exact
// transaction sequence, admitted set, and final per-shard digests.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "util/zipf.h"
#include "workload/sharded_cluster.h"
#include "workload/stats.h"
#include "workload/tpcc/schema.h"

namespace tordb::workload::tpcc {

enum class TxnType : std::uint8_t {
  kNewOrder = 0,
  kPayment = 1,
  kDelivery = 2,
  kOrderStatus = 3,
  kStockLevel = 4,
};
inline constexpr int kTxnTypes = 5;
const char* to_string(TxnType t);

struct TpccOptions {
  // Scale (deliberately small defaults: simulated minutes, not rated tpmC).
  int warehouses = 4;
  int districts = 2;  ///< per warehouse (TPC-C: 10)
  int customers = 12; ///< per district (TPC-C: 3000)
  int items = 48;     ///< per-warehouse catalog copy (TPC-C: 100k, global)
  int clients = 8;    ///< closed-loop terminals
  /// Transaction mix in percent (TPC-C §5.2.3 steady-state weights);
  /// stock-level takes the remainder to 100.
  int pct_new_order = 45;
  int pct_payment = 43;
  int pct_delivery = 4;
  int pct_order_status = 4;
  /// Probability that a new-order's supplier (resp. a payment's customer)
  /// is a foreign warehouse — TPC-C's "remote" knob, and under range
  /// sharding by warehouse, directly the cross-shard fraction.
  double remote_fraction = 0.10;
  /// New-orders carrying a deliberately invalid item id: the kCheck
  /// precondition fails and the whole command aborts deterministically
  /// (TPC-C §2.4.1.5 mandates 1%). Applies to local AND remote orders —
  /// a remote invalid item exercises the coordinator's atomic cross-shard
  /// abort (unless `unchecked_remote` strips the checks).
  double invalid_item_fraction = 0.01;
  /// Ablation (experiment A10): strip kChecks from cross-shard new-orders
  /// and apply them unconditionally — the pre-coordinator downgrade. Off by
  /// default: remote preconditions are enforced via the prepared-check
  /// transaction coordinator and remote_unchecked stays 0.
  bool unchecked_remote = false;
  int max_order_lines = 6;  ///< lines per order, uniform in [1, max] (TPC-C: 5..15)
  int delivery_batch = 10;  ///< orders stamped per delivery (TPC-C: one per district)
  /// Zipf exponent for warehouse choice; 0 = uniform (no hotspot).
  double zipf_theta = 0.0;
  /// > 0: this long after start(), rotate the Zipf rank→warehouse mapping
  /// by `hotspot_shift_offset` so the hot warehouses move shards mid-run.
  SimDuration hotspot_shift_after = 0;
  int hotspot_shift_offset = -1;  ///< -1 = warehouses / 2
  std::uint64_t seed = 1;         ///< folded with per-client ids into Rng streams
};

/// Completion counts within the measurement window, per transaction type.
struct TxnStats {
  std::uint64_t committed = 0;
  std::uint64_t aborted_check = 0;   ///< own kCheck failed (real TPC-C abort)
  std::uint64_t aborted_fenced = 0;  ///< fence-bounce budget exhausted mid-rebalance
  std::uint64_t aborted_other = 0;   ///< no replica reachable / attempts exhausted
  LatencyStats latency;              ///< committed txns only
};

class TpccDriver {
 public:
  TpccDriver(ShardedCluster& cluster, TpccOptions options);

  /// Populate the item catalog and initial stock (runs the simulation until
  /// the load commits). Call once, after the shards formed their primaries.
  void load();

  /// Attach the closed-loop terminals. Latency/counts are recorded for
  /// completions inside [window_start, window_end); issuing stops at
  /// window_end (in-flight transactions drain afterwards).
  void start(SimTime window_start, SimTime window_end);

  /// True once every terminal stopped and the router drained.
  bool idle() const;

  // --- measurement-window results -------------------------------------------
  const TxnStats& stats(TxnType t) const {
    return window_[static_cast<std::size_t>(t)];
  }
  std::uint64_t committed_in_window() const;
  std::uint64_t aborted_checks_in_window() const;

  // --- full-run accounting (ledgers for the consistency tests) --------------
  const TxnStats& total(TxnType t) const { return total_[static_cast<std::size_t>(t)]; }
  /// Sum of committed payment amounts whose home district is (w, d) — must
  /// equal the database's district ytd row exactly (commutative kAdds,
  /// exactly-once sessions).
  std::int64_t payment_sum(int w, int d) const;
  /// Committed new-orders of district (w, d) — must equal the district's
  /// admitted order-count row (the kAdd rides inside the checked command).
  std::int64_t admitted_new_orders(int w, int d) const;
  std::uint64_t cross_shard_committed() const { return cross_committed_; }
  std::uint64_t remote_unchecked() const { return remote_unchecked_; }
  /// Cross-shard new-orders issued WITH their item preconditions — routed
  /// through the prepared-check coordinator. Zero iff unchecked_remote.
  std::uint64_t remote_checked() const { return remote_checked_; }
  std::uint64_t fenced_bounces() const { return fenced_bounces_; }
  std::uint64_t deliveries_stamped() const { return deliveries_stamped_; }

  /// Fold the full-run transaction counts and every shard's converged state
  /// (green watermark + running replicas' database digests) into one value:
  /// two same-seed runs must produce identical digests (bit-identical
  /// simulated results).
  std::uint64_t state_digest() const;

  const TpccOptions& options() const { return options_; }

 private:
  struct Terminal {
    std::int64_t id = 0;
    Rng rng{0};
    std::int64_t next_order = 0;
  };
  /// (creating client, per-client order number): an admitted, undelivered order.
  struct OrderRef {
    std::int64_t client;
    std::int64_t n;
  };

  int district_index(int w, int d) const { return w * options_.districts + d; }
  int pick_warehouse(Rng& rng);
  core::ReplicaNode* query_replica(int shard);
  void issue(std::size_t t);
  void finish(std::size_t t, TxnType type, SimTime t0, const shard::RouteReply& r);
  void record(TxnType type, SimTime t0, bool committed, bool check_aborted, bool fenced);

  void do_new_order(std::size_t t);
  void do_payment(std::size_t t);
  void do_delivery(std::size_t t);
  void do_order_status(std::size_t t);
  void do_stock_level(std::size_t t);

  ShardedCluster& cluster_;
  Simulator& sim_;
  TpccOptions options_;
  util::ZipfGenerator zipf_;
  int hot_offset_ = 0;
  SimTime window_start_ = 0;
  SimTime window_end_ = 0;
  std::vector<Terminal> terminals_;
  std::shared_ptr<bool> alive_;

  // Per-district driver-side bookkeeping (indexed by district_index).
  std::vector<std::deque<OrderRef>> undelivered_;
  std::vector<std::vector<int>> recent_items_;  ///< last-ordered item ids, capped
  std::vector<std::int64_t> payment_sum_;
  std::vector<std::int64_t> admitted_new_orders_;

  TxnStats window_[kTxnTypes];
  TxnStats total_[kTxnTypes];
  std::uint64_t cross_committed_ = 0;
  std::uint64_t remote_unchecked_ = 0;
  std::uint64_t remote_checked_ = 0;
  std::uint64_t fenced_bounces_ = 0;
  std::uint64_t deliveries_stamped_ = 0;
  std::uint64_t delivery_empty_ = 0;  ///< delivery draws with nothing to stamp

  // Metric handles (null when the cluster has no registry): cumulative
  // counters/histograms under tpcc.*, windowed by the registry's roll.
  obs::Counter* m_committed_[kTxnTypes] = {};
  obs::Counter* m_aborted_[kTxnTypes] = {};
  obs::Histogram* m_latency_[kTxnTypes] = {};
  obs::Counter* m_aborted_check_ = obs::counter_in(cluster_.metrics(), "tpcc.aborted.check");
  obs::Counter* m_aborted_fenced_ = obs::counter_in(cluster_.metrics(), "tpcc.aborted.fenced");
  obs::Counter* m_cross_ = obs::counter_in(cluster_.metrics(), "tpcc.cross.committed");
  obs::Counter* m_remote_unchecked_ =
      obs::counter_in(cluster_.metrics(), "tpcc.new_order.remote_unchecked");
  obs::Counter* m_remote_checked_ =
      obs::counter_in(cluster_.metrics(), "tpcc.new_order.remote_checked");
  obs::Counter* m_bounces_ = obs::counter_in(cluster_.metrics(), "tpcc.fenced_bounces");
};

}  // namespace tordb::workload::tpcc
