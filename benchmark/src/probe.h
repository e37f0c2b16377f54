// Measurement plumbing the benchmark keeps on its own side of the API:
// named metrics with units, host-clock spans around its calls into tordb,
// and simulated-clock spans per client action. Nothing here is compiled
// into the system under test.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/types.h"

namespace tordb_bench {

inline std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Metric {
  double value = 0;
  std::string unit;
};
/// Ordered by name, so printing and fingerprinting are deterministic.
using MetricMap = std::map<std::string, Metric>;

/// 0 when the base is 0 (a ratio over no work).
inline double ratio(double num, double den) { return den != 0 ? num / den : 0; }

/// Shortest decimal that round-trips the double.
std::string format_number(double v);
std::string json_escape(const std::string& s);

/// Span recorder. Disabled recorders cost one branch per scope. Host spans
/// nest by call order (a submit made from inside a reply callback is that
/// callback's child); a span's self time is its duration minus its
/// children's. Simulated-clock spans carry the action id shared by every
/// span of one client action.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}
  Spans(const Spans&) = delete;
  Spans& operator=(const Spans&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII host-clock span. `name` must be a string literal.
  class Scope {
   public:
    Scope(Spans& spans, const char* name, std::uint64_t id = 0)
        : spans_(spans.enabled_ ? &spans : nullptr) {
      if (spans_ != nullptr) idx_ = spans_->open(name, id);
    }
    ~Scope() {
      if (spans_ != nullptr) spans_->close(idx_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
    std::size_t idx_ = 0;
  };

  /// Simulated-clock span [start, end) of action `id`.
  void sim_span(const char* name, std::uint64_t id, tordb::SimTime start, tordb::SimTime end) {
    if (enabled_) sim_.push_back(SimSpan{name, id, start, end});
  }

  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  /// Per-name host-span totals (closed spans only).
  std::map<std::string, Totals> host_totals() const;

  /// Write every span as Chrome trace-event JSON: host spans under process
  /// 1 (host clock), action spans under process 2 (simulated clock, one
  /// track per client). Returns false when the file cannot be written.
  bool write_chrome_trace(const std::string& path, const std::string& label) const;

 private:
  struct HostSpan {
    const char* name;
    std::uint64_t id;
    std::int64_t start;
    std::int64_t dur = -1;  ///< -1 while open
    std::int64_t child = 0;
  };
  struct SimSpan {
    const char* name;
    std::uint64_t id;
    tordb::SimTime start;
    tordb::SimTime end;
  };

  std::size_t open(const char* name, std::uint64_t id);
  void close(std::size_t idx);

  bool enabled_;
  std::int64_t origin_ = host_ns();
  std::vector<HostSpan> host_;
  std::vector<std::size_t> stack_;
  std::vector<SimSpan> sim_;
};

/// One id for every span of a client action: client in the high half,
/// the client's request sequence number in the low half.
inline std::uint64_t action_id(std::int64_t client, std::int64_t seq) {
  return (static_cast<std::uint64_t>(client) << 32) |
         (static_cast<std::uint64_t>(seq) & 0xffffffffULL);
}

}  // namespace tordb_bench
