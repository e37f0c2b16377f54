#include "workloads.h"

#include <algorithm>

namespace tordb_bench {

void Stepper::advance_to(tordb::SimTime until) {
  while (sim_.now() < until) {
    const tordb::SimTime next = std::min(until, sim_.now() + kSlice);
    const std::uint64_t e0 = sim_.executed_events();
    const std::int64_t t0 = host_ns();
    {
      Spans::Scope s(spans_, "run_for");
      sim_.run_until(next);
    }
    host_ns_ += host_ns() - t0;
    events_ += sim_.executed_events() - e0;
  }
}

void common_sim_metrics(Rep& rep, double green_per_s, const tordb::workload::LatencyStats& lat) {
  rep.sim["green_per_s"] = {green_per_s, "actions/s"};
  rep.sim["commit_p50_ms"] = {lat.p50_ms(), "ms"};
  rep.sim["commit_p99_ms"] = {lat.p99_ms(), "ms"};
  rep.sim["commit_samples"] = {static_cast<double>(lat.count()), "count"};
  rep.sim["failed_share"] = {ratio(static_cast<double>(rep.counts.failed()),
                                   static_cast<double>(rep.counts.attempted)),
                             "ratio"};
}

void check_acked_puts(
    const char* workload, const char* prefix, const std::vector<PutClient>& clients,
    const std::function<std::vector<tordb::core::ReplicaNode*>(const std::string&)>& replicas_of,
    std::vector<std::string>& violations) {
  std::uint64_t bad = 0;
  std::string first;
  for (const PutClient& c : clients) {
    for (int slot = 0; slot < static_cast<int>(c.acked.size()); ++slot) {
      const std::int64_t acked = c.acked[static_cast<std::size_t>(slot)];
      if (acked == 0) continue;
      const std::int64_t issued = c.issued[static_cast<std::size_t>(slot)];
      const std::string key = c.key(prefix, slot);
      const std::string client_prefix = std::to_string(c.id) + ":";
      for (tordb::core::ReplicaNode* n : replicas_of(key)) {
        if (!n->running()) continue;
        const std::string v = n->engine().database().get(key);
        std::int64_t seq = -1;
        if (v.rfind(client_prefix, 0) == 0) seq = std::stoll(v.substr(client_prefix.size()));
        if (seq >= acked && seq <= issued) continue;
        if (bad++ == 0) {
          first = key + " at node " + std::to_string(n->id()) + " holds '" + v +
                  "', acknowledged " + c.value(acked);
        }
      }
    }
  }
  if (bad > 0) {
    violations.push_back(std::string(workload) + ": " + std::to_string(bad) +
                         " acknowledged writes not readable, first: " + first);
  }
}

}  // namespace tordb_bench
