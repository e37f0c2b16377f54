// Simulated stable storage: an append-only record log with forced or
// delayed synchronization.
//
// The paper's evaluation is dominated by forced disk writes (one per action
// for the replication engine and COReL, two for 2PC; Figure 5(b) shows the
// engine with delayed writes). This module models exactly that:
//
//  - `append` adds a record to the volatile tail (no simulated time cost).
//  - `sync` in *forced* mode completes after `force_latency`; while a force
//    is in flight further syncs coalesce onto the next force (group commit),
//    which is what lets throughput exceed 1/force_latency when many clients
//    are in flight — visible in Figure 5(a)'s engine curve.
//  - `sync` in *delayed* mode completes immediately; records become durable
//    in the background and a crash loses the non-durable tail.
//  - `crash` truncates to the durable prefix and drops pending callbacks;
//    `recover_records` returns the durable log.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "util/serde.h"
#include "util/types.h"

namespace tordb {

enum class SyncMode {
  kForced,   ///< sync returns only once data is on stable storage
  kDelayed,  ///< sync returns immediately; durability is asynchronous
};

struct StorageParams {
  SyncMode mode = SyncMode::kForced;
  SimDuration force_latency = millis(8);  ///< one forced write / group commit
  /// Group-commit window: when a sync arrives at an idle disk, the force is
  /// delayed briefly so concurrent requests share it. When the disk is
  /// already forcing, waiting requests batch onto the next force anyway.
  SimDuration commit_window = millis(1);
  /// Observability handle (disconnected by default — zero cost). Emits one
  /// kForcedSync event per completed physical force.
  obs::Tracer tracer;
};

struct StorageStats {
  std::uint64_t appends = 0;
  std::uint64_t syncs_requested = 0;
  std::uint64_t forces = 0;  ///< physical forced writes issued
  std::uint64_t records_lost_in_crash = 0;
};

class StableStorage {
 public:
  /// SmallFn rather than std::function: the engine's post-persist callback
  /// (this + liveness guard + one wire buffer) fits the 48-byte inline slot,
  /// so the per-action sync costs no heap allocation.
  using SyncCallback = SmallFn;

  StableStorage(Simulator& sim, StorageParams params = {});

  /// Append one record to the volatile tail. Returns its index.
  std::size_t append(Bytes record);

  /// Append one record framed as [header][body] without copying the body:
  /// the record keeps a reference to it. The hot log paths (red / green /
  /// ongoing, one record per action per replica) all frame the same action
  /// encoding, which every member of a group shares. Recovers exactly as
  /// append(header + body). `header_len` is at most kMaxHeader.
  std::size_t append_framed(const std::uint8_t* header, std::size_t header_len,
                            SharedBytes body);
  std::size_t append_framed(std::uint8_t type, SharedBytes body) {
    return append_framed(&type, 1, std::move(body));
  }
  static constexpr std::size_t kMaxHeader = 15;

  /// Request that everything appended so far become durable. `done` fires
  /// when it is (forced mode) or immediately (delayed mode).
  void sync(SyncCallback done);

  /// Crash: volatile tail is lost, pending callbacks never fire.
  void crash();

  /// The durable log contents, as seen after a recovery.
  std::vector<Bytes> recover_records() const;

  /// Replace the durable prefix [0, upto) with a single snapshot record.
  /// Models log compaction; only durable data may be compacted.
  void compact(std::size_t upto, Bytes snapshot_record);

  std::size_t log_size() const { return records_.size(); }
  std::size_t durable_size() const { return durable_; }
  bool fully_durable() const { return durable_ == records_.size(); }

  const StorageStats& stats() const { return stats_; }
  StorageParams& params() { return params_; }
  /// Count `storage.appends`, `storage.forces` and the disk's replication
  /// group's `shard.<group>.storage_forces` into `m` beside stats().
  void set_metrics(obs::MetricsRegistry& m, int group);

 private:
  struct PendingSync {
    std::size_t upto;  ///< records [0, upto) must be durable before firing
    SyncCallback done;
  };

  /// One record: a short inline header followed by a shared body. Records
  /// are written once and read back only at recovery, so a record holds a
  /// reference to its body instead of a copy.
  struct Record {
    SharedBytes body;
    std::uint8_t head_len = 0;
    std::uint8_t head[kMaxHeader] = {};
  };

  std::size_t push(Record r);
  void start_force_if_needed();
  void force_completed(std::uint64_t epoch);

  Simulator& sim_;
  StorageParams params_;
  std::vector<Record> records_;
  std::size_t durable_ = 0;
  bool force_in_flight_ = false;
  bool window_armed_ = false;         ///< group-commit window timer pending
  std::size_t inflight_covered_ = 0;  ///< records the in-flight force covers
  std::uint64_t epoch_ = 0;  ///< bumped on crash to invalidate in-flight forces
  std::vector<PendingSync> pending_;
  StorageStats stats_;
  obs::Counter* appends_cell_ = nullptr;  ///< registry cells; null without one
  obs::Counter* forces_cell_ = nullptr;
  obs::Counter* group_forces_cell_ = nullptr;
};

}  // namespace tordb
