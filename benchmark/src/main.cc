// tordb end-to-end benchmark.
//
//   tordb_bench --workload <group100|shards100|tpcc|churn14> --seed <n>
//               --seconds <s> --trace <0|1> [--trace-out <file>]
//
// One run repeats the workload from the same seed until --seconds of host
// time are used (at least three repetitions), each repetition in a process
// of its own. Simulated-clock metrics are
// exact per seed, so every repetition must reproduce them bit for bit; a
// mismatch fails the run. Host-clock metrics are reported as the median
// over the repetitions.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates traced and
// untraced repetitions, prints the per-layer metrics plus the tracing
// overhead, and writes the first traced repetition's spans to --trace-out.
// On shards100 it also runs one repetition on a single lane worker, which
// must reproduce the multi-threaded schedule exactly.
//
// The last line of standard output is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// The exit code is 0 only when every correctness check passed.
#include <sys/prctl.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "isolate.h"
#include "probe.h"
#include "workloads.h"

namespace tordb_bench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

constexpr int kMinReps = 3;
constexpr int kMaxReps = 100;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The end-to-end metrics every workload reports (BENCHMARK.json).
constexpr MetricSpec kEndToEnd[] = {
    {"green_per_s", "actions/s"},  {"commit_p50_ms", "ms"}, {"commit_p99_ms", "ms"},
    {"host_ms_per_sim_s", "ms"},   {"setup_s", "s"},        {"peak_rss_mb", "MB"},
};

// The per-layer metrics of the traced run. A workload that does not
// exercise a layer reports 0 for it (manifest.json says which apply where).
constexpr MetricSpec kPerLayer[] = {
    {"sim.events_per_action", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.peak_queue_depth", "count"},
    {"sim.lanes.windows", "count"},
    {"sim.lanes.handoffs", "count"},
    {"sim.lanes.events_per_window", "count"},
    {"net.messages_per_action", "count"},
    {"net.bytes_per_action", "bytes"},
    {"net.dropped", "count"},
    {"net.payload_bytes_copied", "bytes"},
    {"net.reachable_cache_hit_ratio", "ratio"},
    {"storage.forces_per_action", "count"},
    {"storage.appends_per_action", "count"},
    {"storage.records_lost_in_crash", "count"},
    {"gc.ordered_per_action", "count"},
    {"gc.safe_deliveries_per_action", "count"},
    {"gc.retransmissions", "count"},
    {"gc.regular_configs", "count"},
    {"gc.transitional_configs", "count"},
    {"gc.gathers_started", "count"},
    {"core.announces_sent_per_s", "1/s"},
    {"core.announces_suppressed_ratio", "ratio"},
    {"core.persist_batch_mean", "actions"},
    {"core.exchanges", "count"},
    {"core.primaries_installed", "count"},
    {"core.retrans_sent", "count"},
    {"core.snapshots_sent", "count"},
    {"core.white_trimmed_ratio", "ratio"},
    {"session.retries", "count"},
    {"session.failovers", "count"},
    {"session.duplicates_suppressed", "count"},
    {"db.table_rehashes", "count"},
    {"db.interned_keys", "count"},
    {"db.table_slots", "count"},
    {"router.cross_share", "ratio"},
    {"router.failovers", "count"},
    {"router.fenced_bounces", "count"},
    {"directory.route_cache_hit_ratio", "ratio"},
    {"router.barrier_wait_p50_ms", "ms"},
    {"router.barrier_wait_p99_ms", "ms"},
    {"txn.prepares_per_commit", "count"},
    {"txn.cancels", "count"},
    {"txn.restarts", "count"},
    {"txn.abort_check_share", "ratio"},
    {"txn.prepare_decide_us_p50", "us"},
    {"txn.prepare_decide_us_p99", "us"},
    {"txn.barrier_wait_us_p50", "us"},
    {"txn.barrier_wait_us_p99", "us"},
    {"engine.green_latency_ms_p50", "ms"},
    {"engine.green_latency_ms_p99", "ms"},
    {"engine.view_change_ms_p50", "ms"},
    {"engine.view_change_ms_p99", "ms"},
    {"host.setup.build_ms", "ms"},
    {"host.setup.form_ms", "ms"},
    {"host.setup.load_ms", "ms"},
    {"host.engine_submit_ns", "ns"},
    {"host.router_submit_ns", "ns"},
    {"host.session_submit_ns", "ns"},
    {"host.driver_self_share", "ratio"},
    {"obs.trace_overhead_pct", "%"},
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v != "0";
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

using RunFn = Rep (*)(const RunConfig&);

RunFn workload_fn(const std::string& name) {
  if (name == "group100") return run_group100;
  if (name == "shards100") return run_shards100;
  if (name == "tpcc") return run_tpcc;
  if (name == "churn14") return run_churn14;
  return nullptr;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0 : (n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2);
}

/// Empty when `b` reproduces `a`'s simulated-clock results exactly
/// (end-to-end metrics, failure counts and, with `layers`, every per-layer
/// count); otherwise the first difference.
std::string sim_mismatch(const Rep& a, const Rep& b, bool layers) {
  auto cmp = [](const MetricMap& x, const MetricMap& y) -> std::string {
    for (const auto& [name, m] : x) {
      auto it = y.find(name);
      if (it == y.end()) return name + " missing";
      if (std::memcmp(&m.value, &it->second.value, sizeof(double)) != 0) {
        return name + " " + format_number(m.value) + " vs " + format_number(it->second.value);
      }
    }
    return x.size() == y.size() ? "" : "metric sets differ";
  };
  std::string d = cmp(a.sim, b.sim);
  if (d.empty() && layers) d = cmp(a.layers, b.layers);
  if (d.empty() && (a.counts.attempted != b.counts.attempted ||
                    a.counts.committed != b.counts.committed ||
                    a.counts.app_aborted != b.counts.app_aborted)) {
    d = "failure accounting differs";
  }
  return d;
}

/// Host-clock per-layer numbers of a traced repetition, from its spans.
void span_metrics(const Spans& spans, Rep& rep) {
  const auto totals = spans.host_totals();
  auto get = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? Spans::Totals{} : it->second;
  };
  auto per_call = [&](const char* name) {
    const Spans::Totals t = get(name);
    return ratio(static_cast<double>(t.total_ns), static_cast<double>(t.count));
  };
  rep.host["host.engine_submit_ns"] = {per_call("engine_submit"), "ns"};
  rep.host["host.router_submit_ns"] = {per_call("router_submit"), "ns"};
  rep.host["host.session_submit_ns"] = {per_call("session_submit"), "ns"};
  // The benchmark's own callbacks, minus the calls into tordb they make.
  const double self = static_cast<double>(get("reply").self_ns + get("arrival").self_ns);
  rep.host["host.driver_self_share"] = {ratio(self, static_cast<double>(get("run_for").total_ns)),
                                        "ratio"};
}

void print_json_metrics(std::FILE* out, const MetricMap& m) {
  std::fprintf(out, "{");
  bool first = true;
  for (const auto& [name, metric] : m) {
    std::fprintf(out, "%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", first ? "" : ", ",
                 json_escape(name).c_str(), format_number(metric.value).c_str(),
                 json_escape(metric.unit).c_str());
    first = false;
  }
  std::fprintf(out, "}");
}

int run(const Args& args) {
  const RunFn fn = workload_fn(args.workload);
  if (fn == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const int threads = static_cast<int>(std::min(4u, hw));
  const std::int64_t start = host_ns();
  auto elapsed_s = [&] { return static_cast<double>(host_ns() - start) / 1e9; };

  std::vector<Rep> plain;   // untraced repetitions at `threads`
  std::vector<Rep> traced;  // traced repetitions (trace mode only)
  std::vector<std::string> violations;
  bool trace_written = false;
  double longest = 0;
  auto one = [&](bool trace, int thr) {
    const std::int64_t t0 = host_ns();
    // Only the first traced repetition writes its spans.
    const std::string trace_out = trace && !trace_written ? args.trace_out : "";
    trace_written = trace_written || trace;
    Rep rep = run_isolated([&] {
      Spans spans(trace);
      RunConfig cfg;
      cfg.seed = args.seed;
      cfg.threads = thr;
      cfg.spans = &spans;
      Rep r = fn(cfg);
      if (trace) span_metrics(spans, r);
      const std::string label = args.workload + " seed " + std::to_string(args.seed);
      if (!trace_out.empty() && !spans.write_chrome_trace(trace_out, label)) {
        r.violations.push_back("cannot write trace file " + trace_out);
      }
      return r;
    });
    for (const std::string& v : rep.violations) violations.push_back(v);
    longest = std::max(longest, static_cast<double>(host_ns() - t0) / 1e9);
    return rep;
  };

  if (!args.trace) {
    while (static_cast<int>(plain.size()) < kMinReps ||
           (elapsed_s() + longest <= args.seconds && static_cast<int>(plain.size()) < kMaxReps)) {
      plain.push_back(one(false, threads));
    }
  } else {
    plain.push_back(one(false, threads));
    if (args.workload == "shards100") {
      // The lane schedule must not depend on the worker count.
      const Rep serial = one(false, 1);
      const std::string d = sim_mismatch(plain.front(), serial, true);
      if (!d.empty()) violations.push_back("1 vs " + std::to_string(threads) + " threads: " + d);
    }
    do {
      traced.push_back(one(true, threads));
      plain.push_back(one(false, threads));
    } while (elapsed_s() + 2 * longest <= args.seconds &&
             static_cast<int>(plain.size()) < kMaxReps);
  }

  // Determinism self-check: every repetition of the seed reproduces the
  // first one's simulated results exactly. Tracing adds registry events to
  // the schedule, so traced repetitions are held to the end-to-end results.
  for (std::size_t i = 1; i < plain.size(); ++i) {
    const std::string d = sim_mismatch(plain.front(), plain[i], true);
    if (!d.empty()) violations.push_back("repetition " + std::to_string(i) + " diverged: " + d);
  }
  for (std::size_t i = 0; i < traced.size(); ++i) {
    const std::string d = sim_mismatch(plain.front(), traced[i], false);
    if (!d.empty()) violations.push_back("traced repetition diverged: " + d);
    if (i > 0) {
      const std::string dl = sim_mismatch(traced.front(), traced[i], true);
      if (!dl.empty()) violations.push_back("traced repetition diverged: " + dl);
    }
  }

  const Rep& first = plain.front();
  std::vector<double> setup, host_ms, rss, build_ms, form_ms, load_ms, ns_per_event;
  for (const Rep& r : plain) {
    setup.push_back(r.setup_s());
    rss.push_back(r.peak_rss_mb);
    host_ms.push_back(r.host_ms_per_sim_s());
    build_ms.push_back(r.build_ms);
    form_ms.push_back(r.form_ms);
    load_ms.push_back(r.load_ms);
    ns_per_event.push_back(
        ratio(static_cast<double>(r.run_host_ns), static_cast<double>(r.run_events)));
  }
  std::uint64_t attempted = 0, failed = 0;
  for (const Rep& r : plain) {
    attempted += r.counts.attempted;
    failed += r.counts.failed();
  }

  MetricMap out;
  if (!args.trace) {
    for (const MetricSpec& s : kEndToEnd) out[s.name] = {0, s.unit};
    for (const char* n : {"green_per_s", "commit_p50_ms", "commit_p99_ms"}) {
      out[n] = first.sim.at(n);
    }
    out["host_ms_per_sim_s"].value = median(host_ms);
    out["setup_s"].value = median(setup);
    out["peak_rss_mb"].value = median(rss);
  } else {
    const Rep& t = traced.front();
    for (const MetricSpec& s : kPerLayer) out[s.name] = {0, s.unit};
    for (const auto& [name, m] : t.layers) {
      if (out.count(name)) out[name] = m;
    }
    for (const auto& [name, m] : t.host) {
      if (out.count(name)) out[name] = m;
    }
    // Host-clock numbers: medians over the untraced repetitions.
    out["sim.host_ns_per_event"].value = median(ns_per_event);
    out["host.setup.build_ms"].value = median(build_ms);
    out["host.setup.form_ms"].value = median(form_ms);
    out["host.setup.load_ms"].value = median(load_ms);
    std::vector<double> traced_ms;
    for (const Rep& r : traced) traced_ms.push_back(r.host_ms_per_sim_s());
    out["obs.trace_overhead_pct"].value = 100.0 * (ratio(median(traced_ms), median(host_ms)) - 1);
  }

  // Human-readable summary, then the detail record, then the result.
  std::printf("workload %s seed %llu: %zu repetitions (+%zu traced) in %.1f s, %d lane threads\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), plain.size(),
              traced.size(), elapsed_s(), args.workload == "shards100" ? threads : 1);
  for (const auto& [name, m] : first.sim) {
    std::printf("  %-28s %14s %s  (sim clock, exact)\n", name.c_str(),
                format_number(m.value).c_str(), m.unit.c_str());
  }
  std::printf("  %-28s %14s ms  (host clock, median)\n", "host_ms_per_sim_s",
              format_number(median(host_ms)).c_str());
  std::printf("  %-28s %14s s   (host clock, median)\n", "setup_s",
              format_number(median(setup)).c_str());
  std::printf("  %-28s %14s MB  (host clock, median)\n", "peak_rss_mb",
              format_number(median(rss)).c_str());
  std::printf("  attempted %llu committed %llu app_aborted %llu failed %llu (first repetition)\n",
              static_cast<unsigned long long>(first.counts.attempted),
              static_cast<unsigned long long>(first.counts.committed),
              static_cast<unsigned long long>(first.counts.app_aborted),
              static_cast<unsigned long long>(first.counts.failed()));
  for (const std::string& v : violations) std::printf("  VIOLATION: %s\n", v.c_str());

  std::printf("{\"detail\": {\"workload\": \"%s\", \"seed\": %llu, \"sim\": ",
              json_escape(args.workload).c_str(), static_cast<unsigned long long>(args.seed));
  print_json_metrics(stdout, first.sim);
  std::printf(", \"counts\": {\"attempted\": %llu, \"committed\": %llu, \"app_aborted\": %llu, "
              "\"failed\": %llu}, \"host_ms_per_sim_s\": [",
              static_cast<unsigned long long>(first.counts.attempted),
              static_cast<unsigned long long>(first.counts.committed),
              static_cast<unsigned long long>(first.counts.app_aborted),
              static_cast<unsigned long long>(first.counts.failed()));
  for (std::size_t i = 0; i < host_ms.size(); ++i) {
    std::printf("%s%s", i ? ", " : "", format_number(host_ms[i]).c_str());
  }
  std::printf("], \"setup_s\": [");
  for (std::size_t i = 0; i < setup.size(); ++i) {
    std::printf("%s%s", i ? ", " : "", format_number(setup[i]).c_str());
  }
  std::printf("], \"violations\": %zu}}\n", violations.size());

  const bool correct = violations.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": ",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  print_json_metrics(stdout, out);
  std::printf("}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace tordb_bench

int main(int argc, char** argv) {
  // Stop with the process that started this one; the forked repetitions do
  // the same, so nothing outlives a killed run.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  tordb_bench::Args args;
  try {
    if (!tordb_bench::parse_args(argc, argv, args)) {
      std::fprintf(stderr,
                   "usage: tordb_bench --workload <group100|shards100|tpcc|churn14> --seed <n> "
                   "--seconds <s> --trace <0|1> [--trace-out <file>]\n");
      return 2;
    }
    return tordb_bench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tordb_bench: %s\n", e.what());
    return 2;
  }
}
