// The four workloads. Each builds a fresh deployment from the seed, drives
// it through the public API only, checks what clients observed, and
// returns one repetition's measurements.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/replica_node.h"
#include "probe.h"
#include "sim/simulator.h"
#include "workload/stats.h"

namespace tordb_bench {

struct RunConfig {
  std::uint64_t seed = 1;
  int threads = 1;  ///< lane worker threads (shards100 only)
  Spans* spans = nullptr;  ///< enabled in traced repetitions
  bool traced() const { return spans->enabled(); }
};

/// Failure accounting: every attempted request ends committed, in an
/// expected application abort, or failed (aborted otherwise, or still
/// uncommitted at the drain deadline).
struct Counts {
  std::uint64_t attempted = 0;
  std::uint64_t committed = 0;
  std::uint64_t app_aborted = 0;
  std::uint64_t failed() const { return attempted - committed - app_aborted; }
};

struct Rep {
  MetricMap sim;     ///< simulated-clock end-to-end metrics: exact per seed
  MetricMap layers;  ///< simulated-clock per-layer metrics: exact per seed
  MetricMap host;    ///< host-clock per-layer numbers of this repetition
  Counts counts;
  double build_ms = 0;  ///< construct the deployment
  double form_ms = 0;   ///< run until the primary components formed
  double load_ms = 0;   ///< tpcc catalog load
  std::int64_t run_host_ns = 0;   ///< host time inside run_until over the load phase
  std::uint64_t run_events = 0;    ///< simulator events executed over the load phase
  tordb::SimDuration run_sim = 0;  ///< simulated length of the load phase
  double peak_rss_mb = 0;          ///< peak resident set of the repetition's process
  std::vector<std::string> violations;

  double setup_s() const { return (build_ms + form_ms + load_ms) / 1e3; }
  double host_ms_per_sim_s() const {
    return ratio(static_cast<double>(run_host_ns) / 1e6, tordb::to_seconds(run_sim));
  }
};

/// Advances a simulation in fixed slices, timing each slice on the host
/// clock (and as a `run_for` span in traced repetitions). Harness actions
/// such as fault injection happen between slices, never inside the
/// simulation, so they add no events to the schedule.
class Stepper {
 public:
  Stepper(tordb::Simulator& sim, Spans& spans) : sim_(sim), spans_(spans) {}

  void advance_to(tordb::SimTime until);
  /// Advance slice by slice until `done()` holds or `deadline` passes.
  template <typename Done>
  bool advance_until(Done done, tordb::SimTime deadline) {
    while (!done()) {
      if (sim_.now() >= deadline) return false;
      advance_to(std::min(deadline, sim_.now() + kSlice));
    }
    return true;
  }
  std::int64_t host_ns_total() const { return host_ns_; }
  std::uint64_t events_total() const { return events_; }

  static constexpr tordb::SimDuration kSlice = tordb::millis(50);

 private:
  tordb::Simulator& sim_;
  Spans& spans_;
  std::int64_t host_ns_ = 0;
  std::uint64_t events_ = 0;
};

/// Host milliseconds `fn` takes, recorded as span `name`.
template <typename Fn>
double timed_ms(Spans& spans, const char* name, Fn&& fn) {
  const std::int64_t t0 = host_ns();
  {
    Spans::Scope s(spans, name);
    fn();
  }
  return static_cast<double>(host_ns() - t0) / 1e6;
}

/// Bookkeeping of one client of a put workload. Values are unique per
/// client ("<client>:<seq>"); each write goes to one of the client's own
/// key slots, so the last acknowledged value of a slot must be what every
/// replica of its shard holds once the run drained.
struct PutClient {
  std::int64_t id = 0;
  std::int64_t seq = 0;             ///< last request sequence number issued
  std::vector<std::int64_t> acked;  ///< per slot: last acknowledged seq (0 = none)
  std::vector<std::int64_t> issued;  ///< per slot: last submitted seq

  PutClient(std::int64_t client, int slots)
      : id(client), acked(static_cast<std::size_t>(slots), 0),
        issued(static_cast<std::size_t>(slots), 0) {}
  std::string key(const char* prefix, int slot) const {
    return prefix + std::to_string(id) + "/" + std::to_string(slot);
  }
  std::string value(std::int64_t s) const { return std::to_string(id) + ":" + std::to_string(s); }
};

/// Every acknowledged write is still readable at every running replica
/// returned by `replicas_of(key)`: the replica holds the acknowledged value
/// or a later one the same client submitted to that slot (requests still
/// unresolved at the drain deadline may have landed).
void check_acked_puts(
    const char* workload, const char* prefix, const std::vector<PutClient>& clients,
    const std::function<std::vector<tordb::core::ReplicaNode*>(const std::string&)>& replicas_of,
    std::vector<std::string>& violations);

/// green_per_s, commit_p50_ms/_p99_ms (with the sample count) and
/// failed_share — the simulated-clock metrics every workload reports.
void common_sim_metrics(Rep& rep, double green_per_s, const tordb::workload::LatencyStats& lat);

Rep run_group100(const RunConfig& cfg);
Rep run_shards100(const RunConfig& cfg);
Rep run_tpcc(const RunConfig& cfg);
Rep run_churn14(const RunConfig& cfg);

}  // namespace tordb_bench
