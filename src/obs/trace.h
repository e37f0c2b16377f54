// Structured trace bus — the observability backbone (DESIGN.md §7).
//
// Every node-side component (replication engine, group communication,
// stable storage) holds a `Tracer`: a copyable, two-word handle that is
// either disconnected (the default — every emit is a tagged-pointer test
// and a return, no formatting, no allocation) or connected to the
// deployment-wide `TraceBus`. The bus stamps events with the *simulated*
// clock, retains the most recent events in a fixed ring, and fans each
// event out to subscribers synchronously — the online safety checker
// (safety_checker.h) is one such subscriber.
//
// Events are typed and allocation-light: one POD struct, with per-kind
// field meaning documented at the enum. Anything that needs a string
// (log-line capture) goes through a side ring of strings and the event
// carries the index.
//
// Exports: JSONL (one event object per line) and the Chrome trace-event
// format (load the file in chrome://tracing or ui.perfetto.dev); the
// Chrome export pairs ExchangeStart/PrimaryInstall into duration slices so
// view changes show up as spans per node.
//
// Lane mode (DESIGN.md §15): when the simulator runs partitioned into
// event lanes, emits from a running lane are buffered per lane and flushed
// at each window barrier, merged by (virtual time, lane) — so the stream
// subscribers and the ring observe is deterministic regardless of worker
// thread count, and no two threads ever touch the ring concurrently. The
// bus must be constructed *after* Simulator::enable_lanes(). Emits while
// the simulator is parked (setup/teardown) dispatch inline as before.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "util/types.h"

namespace tordb::obs {

/// Per-kind payload fields (a, b, c, d are kind-specific; unused = 0):
enum class EventKind : std::uint8_t {
  kEngineStart = 0,      ///< a=green count, b=start mode (0 fresh/1 recover/2 join)
  kStateTransition,      ///< a=from EngineState, b=to EngineState
  kActionSubmitted,      ///< action; a=semantics, b=action type
  kActionRed,            ///< action
  kActionGreen,          ///< action; a=green position (1-based)
  kWhiteTrim,            ///< a=new white line, b=bodies trimmed by this call
  kSafeDeliver,          ///< a=config counter, b=config coordinator, c=seq, d=payload hash
  kViewRegular,          ///< a=config counter, b=coordinator, c=member count
  kViewTransitional,     ///< a=config counter, b=coordinator, c=member count
  kExchangeStart,        ///< a=config counter, b=coordinator
  kQuorumVote,           ///< a=config counter, b=coordinator, c=voting node (CPC)
  kPrimaryInstall,       ///< a=prim index, b=attempt index, c=member count, d=member hash
  kPrimaryMember,        ///< a=prim index, b=member id (follows kPrimaryInstall)
  kMemberReset,          ///< node's server-set view restarts empty (snapshot adopt)
  kMemberAdd,            ///< a=subject joining the node's server-set view
  kMemberRemove,         ///< a=subject leaving the node's server-set view
  kForcedSync,           ///< a=records durable after the force, b=total forces
  kStateTransferSend,    ///< a=green count shipped, b=destination node
  kStateTransferApply,   ///< a=green count adopted
  kLogLine,              ///< a=index into the bus string ring, b=log level
  // Shard tier (emitted by shard::Router; node = kNoNode).
  kShardRoute,           ///< a=shard, b=client, c=cross-shard id (0 = single-shard)
  kShardFailover,        ///< a=shard, b=client, c=attempts the request took
  kShardCrossSubmit,     ///< a=cross-shard id, b=client, c=involved shard count
  kShardCrossCommit,     ///< a=cross-shard id, b=committed (1/0), c=barrier wait ns
  // Rebalancing (DESIGN.md §9). Range kinds are emitted by each replica as
  // the action goes green there; kDirectoryEpoch by the rebalancer (kNoNode).
  kRangeFence,           ///< a=range fingerprint, b=green position of the fence
  kRangeInstall,         ///< a=range fingerprint, b=green position, c=rows installed
  kRangeWrite,           ///< a=range fingerprint, b=green position of the write
  kRangeUnfence,         ///< a=range fingerprint, b=green position (abandoned-move rollback)
  kDirectoryEpoch,       ///< a=new epoch, b=new owner shard, c=range fingerprint
  // Cross-shard prepared-check transactions (DESIGN.md §13). The first
  // three are emitted by each replica as the marker goes green there — the
  // per-group evidence invariant 9 consumes; the last three come from the
  // txn::TxnCoordinator (node = kNoNode).
  kTxnPrepare,           ///< a=txn fingerprint, b=green position of the prepare
  kTxnConfirm,           ///< a=txn fingerprint, b=green position of the confirm
  kTxnCancel,            ///< a=txn fingerprint, b=green position of the cancel
  kTxnBegin,             ///< a=txn fingerprint, b=involved shard count
  kTxnDecide,            ///< a=txn fingerprint, b=commit (1/0), c=prepare->decide ns
  kTxnSnapshotRead,      ///< a=involved shard count, b=drain wait ns
  // Green-line announcements (DESIGN.md §14).
  kAnnounceSend,         ///< a=announced own green line
  kAnnounceRecv,         ///< a=sender node, b=sender's announced own green line
};

const char* to_string(EventKind k);

struct TraceEvent {
  SimTime time = 0;
  NodeId node = kNoNode;
  EventKind kind = EventKind::kEngineStart;
  ActionId action;  ///< valid for kAction* kinds only
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::int64_t c = 0;
  std::int64_t d = 0;
};

/// FNV-1a over a byte payload — cheap stable fingerprint for kSafeDeliver.
std::uint64_t fingerprint(const std::uint8_t* data, std::size_t size);
inline std::uint64_t fingerprint(const std::vector<std::uint8_t>& bytes) {
  return fingerprint(bytes.data(), bytes.size());
}

struct TraceBusOptions {
  std::size_t ring_capacity = 1 << 16;      ///< events retained for export
  std::size_t string_ring_capacity = 4096;  ///< captured log lines retained
};

class TraceBus {
 public:
  /// `sim` provides the timestamp for every event (the simulated clock).
  explicit TraceBus(Simulator& sim, TraceBusOptions options = {});
  ~TraceBus();

  TraceBus(const TraceBus&) = delete;
  TraceBus& operator=(const TraceBus&) = delete;

  /// Stamp `e.time` and fan out. Synchronous: subscribers run inline, so a
  /// checker observes every event before the simulation proceeds.
  void emit(TraceEvent e);

  /// Subscribers are append-only for the bus lifetime (no unsubscribe —
  /// the deployment tears the bus down as one unit).
  void subscribe(std::function<void(const TraceEvent&)> fn);

  std::uint64_t emitted() const { return emitted_; }

  /// The retained tail of the event stream, oldest first.
  std::vector<TraceEvent> ring_snapshot() const;

  /// Capture `Log` output: installs a sink that interns each line into the
  /// string ring and emits a kLogLine event (while still writing the line
  /// to the default destination). Uninstalled automatically on destruction.
  void capture_logs();
  const std::string* log_line(std::int64_t index) const;

  // --- export ---------------------------------------------------------------
  std::string to_jsonl() const;
  std::string to_chrome_trace() const;
  bool write_file(const std::string& path, const std::string& contents) const;

 private:
  /// Ring insert + subscriber fan-out (single-threaded: inline when the
  /// simulator is parked or classic, barrier flush otherwise).
  void dispatch(const TraceEvent& e);
  /// Merge per-lane buffers by (time, lane) and dispatch; barrier hook.
  void flush_lanes();

  Simulator& sim_;
  TraceBusOptions options_;
  std::vector<TraceEvent> ring_;  ///< circular once full
  std::size_t ring_next_ = 0;
  bool ring_wrapped_ = false;
  std::uint64_t emitted_ = 0;
  std::vector<std::function<void(const TraceEvent&)>> subscribers_;
  std::mutex log_mu_;  ///< guards strings_/next_string_ (worker-lane logs)
  std::vector<std::string> strings_;
  std::int64_t next_string_ = 0;
  bool log_capture_installed_ = false;
  /// Per-lane pending events (lane mode only; empty otherwise). Each lane
  /// appends only its own buffer; flushed under the window barrier.
  std::vector<std::vector<TraceEvent>> lane_buf_;
  std::vector<TraceEvent> flush_buf_;  ///< merge scratch
  bool hook_installed_ = false;
};

/// The per-node emission handle. Default-constructed tracers are
/// disconnected and free: `emit` is a null test. Copy freely into params
/// structs; the bus must outlive every component holding a handle onto it
/// (the cluster harness owns both, in the right order).
class Tracer {
 public:
  Tracer() = default;
  Tracer(std::shared_ptr<TraceBus> bus, NodeId node) : bus_(std::move(bus)), node_(node) {}

  explicit operator bool() const { return bus_ != nullptr; }
  NodeId node() const { return node_; }
  TraceBus* bus() const { return bus_.get(); }

  void emit(EventKind kind, std::int64_t a = 0, std::int64_t b = 0, std::int64_t c = 0,
            std::int64_t d = 0) const {
    if (!bus_) return;
    TraceEvent e;
    e.node = node_;
    e.kind = kind;
    e.a = a;
    e.b = b;
    e.c = c;
    e.d = d;
    bus_->emit(e);
  }

  void emit_action(EventKind kind, const ActionId& action, std::int64_t a = 0,
                   std::int64_t b = 0) const {
    if (!bus_) return;
    TraceEvent e;
    e.node = node_;
    e.kind = kind;
    e.action = action;
    e.a = a;
    e.b = b;
    bus_->emit(e);
  }

 private:
  std::shared_ptr<TraceBus> bus_;
  NodeId node_ = kNoNode;
};

/// True when `TORDB_OBS_CHECK=1` (or any non-"0" value) is in the
/// environment, or a test binary called `force_check_for_tests()`. Cluster
/// harnesses consult this so the whole ctest suite can run with the safety
/// checker force-enabled without touching every test.
bool check_forced();
void force_check_for_tests();

}  // namespace tordb::obs
