// One repetition per process: each runs in a forked child, so it starts
// from a fresh heap and has a peak RSS of its own, and the child's exit
// releases everything it allocated.
#pragma once

#include <functional>

#include "workloads.h"

namespace tordb_bench {

/// Run `body` in a forked child and return the Rep it produced, with
/// peak_rss_mb set to the child's peak resident set. Throws when the child
/// crashes or `body` throws.
Rep run_isolated(const std::function<Rep()>& body);

}  // namespace tordb_bench
