// Latency/throughput accounting for the benchmark harness.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/types.h"

namespace tordb::workload {

class LatencyStats {
 public:
  void record(SimDuration d) {
    samples_.push_back(d);
    sorted_valid_ = false;
  }
  void clear() {
    samples_.clear();
    sorted_.clear();
    sorted_valid_ = true;
  }

  std::size_t count() const { return samples_.size(); }

  double mean_ms() const {
    if (samples_.empty()) return 0;
    double sum = 0;
    for (SimDuration s : samples_) sum += to_millis(s);
    return sum / static_cast<double>(samples_.size());
  }

  /// Percentile with linear interpolation between the two bracketing order
  /// statistics (p in [0, 1]). The sorted copy is cached and reused until
  /// the next record(), so repeated percentile queries cost one sort total.
  double percentile_ms(double p) const {
    if (samples_.empty()) return 0;
    ensure_sorted();
    p = std::clamp(p, 0.0, 1.0);
    const double rank = p * static_cast<double>(sorted_.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted_.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return to_millis(sorted_[lo]) * (1.0 - frac) + to_millis(sorted_[hi]) * frac;
  }

  double p50_ms() const { return percentile_ms(0.5); }
  double p99_ms() const { return percentile_ms(0.99); }
  double p999_ms() const { return percentile_ms(0.999); }

 private:
  void ensure_sorted() const {
    if (sorted_valid_) return;
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }

  std::vector<SimDuration> samples_;
  mutable std::vector<SimDuration> sorted_;  ///< cache for percentile queries
  mutable bool sorted_valid_ = true;
};

}  // namespace tordb::workload
