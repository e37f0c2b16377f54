// Ablation A1 (DESIGN.md): cost of membership changes for the engine.
//
// The paper's central claim is that end-to-end exchange rounds are paid per
// *membership change*, not per action. This ablation injects periodic
// partition/heal cycles and shows (a) throughput degrades gracefully with
// the change rate, and (b) the number of end-to-end exchange rounds tracks
// the number of membership changes — not the number of actions, which is
// what a per-action-acknowledgement protocol like COReL pays.
#include <cstdio>

#include "bench_util.h"
#include "workload/experiments.h"

int main() {
  using namespace tordb;
  using namespace tordb::workload;

  bench::header("Ablation A1: engine under periodic membership changes",
                "end-to-end rounds scale with membership changes, not with actions");

  const int replicas = 7;
  const int clients = 12;  // two per surviving replica, so actions buffered
                           // across a view change can flush as one batch
  const SimDuration measure = bench::fast_mode() ? seconds(3) : seconds(10);
  std::vector<SimDuration> periods = {0, seconds(4), seconds(2), seconds(1), millis(500)};
  if (bench::fast_mode()) periods = {0, seconds(1), millis(500)};

  std::printf("%16s | %12s | %12s | %16s | %12s | %16s\n", "change period", "actions/s",
              "mem.changes", "exchange rounds", "rounds/action", "persist batches");
  bench::row_sep();
  for (SimDuration p : periods) {
    const auto r = measure_engine_under_view_changes(replicas, clients, p, measure, 1);
    const double per_action =
        r.actions_per_second > 0
            ? static_cast<double>(r.end_to_end_rounds) /
                  (r.actions_per_second * to_seconds(measure))
            : 0;
    std::printf("%14.1fs | %12.0f | %12llu | %16llu | %12.5f | %6llu (%4llu act)\n",
                to_seconds(p), r.actions_per_second,
                static_cast<unsigned long long>(r.membership_changes),
                static_cast<unsigned long long>(r.end_to_end_rounds), per_action,
                static_cast<unsigned long long>(r.persist_batches),
                static_cast<unsigned long long>(r.persist_batch_actions));
  }
  std::printf("\n(period 0 = stable membership; COReL's equivalent is 1 ack round per action;\n"
              " persist batches = client actions buffered across a view change flushing as\n"
              " one forced write + one multicast)\n");

  // Metrics time series (src/obs) for one churning run: each partition/heal
  // cycle shows up as a cluster.exchanges step and a throughput dip in the
  // engine.actions_green column, recovering within a window or two.
  const SimDuration churn = seconds(1);
  const SimDuration window = millis(500);
  std::string table;
  measure_engine_under_view_changes(replicas, clients, churn, measure, 1, window, &table);
  std::printf("\nengine metrics windows (%.1fs change period, %.1fs windows):\n%s",
              to_seconds(churn), to_seconds(window), table.c_str());
  return 0;
}
