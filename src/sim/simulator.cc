#include "sim/simulator.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace tordb {

namespace {

constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

/// Stateless splitmix64-style scramble for the per-lane schedule digest.
std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// One iteration of a busy-wait: tell the core we're spinning so the
/// sibling hyperthread (usually the lane worker we're waiting on) gets
/// the pipeline.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

/// Spin budget before falling back to a condvar sleep. Windows are
/// microseconds apart, so ~10-20us of spinning covers the common case; the
/// sleep path only triggers when the simulation goes quiet (between run()
/// calls, or a long control-lane phase).
constexpr int kSpinRounds = 1 << 14;

/// Phase-1 volume below which run_window executes the active lanes on the
/// coordinating thread instead of waking the pool: with only a handful of
/// events in the window, even a spin handoff costs more than the work.
constexpr std::uint64_t kParallelThreshold = 32;

}  // namespace

thread_local Simulator::ThreadCtx Simulator::tls_ctx_;

Simulator::Simulator(std::uint64_t seed) : seed_(seed) {
  lanes_.emplace_back(seed);  // classic mode: one lane, RNG seeded exactly as before
}

Simulator::~Simulator() {
  if (!workers_.empty()) {
    pool_stop_.store(true, std::memory_order_seq_cst);
    {
      std::lock_guard<std::mutex> lk(pool_mu_);
      pool_cv_.notify_all();
    }
    for (std::thread& w : workers_) w.join();
  }
}

int Simulator::current_lane() const {
  if (tls_ctx_.sim == this) return tls_ctx_.lane;
  return lane_mode_ ? control_lane() : 0;
}

Simulator::LaneScope::LaneScope(Simulator& sim, int lane)
    : prev_sim_(tls_ctx_.sim), prev_lane_(tls_ctx_.lane) {
  if (lane < 0 || lane >= sim.lane_count()) throw std::out_of_range("bad lane");
  tls_ctx_.sim = &sim;
  tls_ctx_.lane = lane;
}

Simulator::LaneScope::~LaneScope() {
  tls_ctx_.sim = prev_sim_;
  tls_ctx_.lane = prev_lane_;
}

void Simulator::enable_lanes(int lanes, int threads, SimDuration handoff_latency) {
  if (lane_mode_) throw std::logic_error("simulator: lanes already enabled");
  if (lanes < 2) throw std::invalid_argument("simulator: need >= 2 lanes");
  if (threads < 1) throw std::invalid_argument("simulator: need >= 1 thread");
  if (handoff_latency <= 0) throw std::invalid_argument("simulator: handoff latency must be > 0");
  const Lane& l0 = lanes_[0];
  if (!l0.heap.empty() || l0.next_seq != 0 || l0.now != 0) {
    throw std::logic_error("simulator: enable_lanes before scheduling anything");
  }
  lane_mode_ = true;
  threads_ = threads;
  handoff_ = handoff_latency;
  lanes_.clear();
  lanes_.reserve(static_cast<std::size_t>(lanes));
  for (int i = 0; i < lanes; ++i) {
    // Per-lane RNG streams: two splitmix steps over (seed, lane) so related
    // base seeds and adjacent lanes both land in uncorrelated streams.
    std::uint64_t x = seed_;
    (void)splitmix64(x);
    x ^= static_cast<std::uint64_t>(i + 1) * 0x9e3779b97f4a7c15ULL;
    lanes_.emplace_back(splitmix64(x));
  }
  // Spinning at the window rendezvous only pays when every pool thread can
  // hold a core; on smaller hosts (1-core CI containers included) a spinner
  // steals the timeslice from the thread doing the work, so both sides go
  // straight to the condvar.
  spin_rounds_ = std::thread::hardware_concurrency() >= static_cast<unsigned>(threads)
                     ? kSpinRounds
                     : 0;
  for (int w = 1; w < threads; ++w) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

void Simulator::schedule(Lane& l, SimTime t, SmallFn fn,
                         std::shared_ptr<Cancelable::State> cancel) {
  if (t < l.now) t = l.now;
  push(l, claim(l, t, std::move(fn), std::move(cancel)));
}

Simulator::Entry Simulator::claim(Lane& l, SimTime t, SmallFn fn,
                                  std::shared_ptr<Cancelable::State> cancel) {
  // Opportunistically drop dead weight before growing the queue: once
  // cancelled entries make up more than half of it (and there are enough of
  // them to amortize the scan), compact in one pass.
  if (*l.cancel_tally > kMinDeadForPurge && *l.cancel_tally * 2 > l.depth()) purge(l);
  const std::uint32_t slot = acquire_slot(l);
  if (slot >> kSlotBits) throw std::length_error("simulator: too many pending events");
  Slot& s = l.slots[slot];
  s.fn = std::move(fn);
  s.cancel = std::move(cancel);
  return Entry{t, (l.next_seq++ << kSlotBits) | slot};
}

void Simulator::push(Lane& l, Entry e) {
  l.heap.push_back(e);
  sift_up(l, l.heap.size() - 1);
  if (l.depth() > l.peak_depth) l.peak_depth = l.depth();
}

void Simulator::at(Stream& stream, SimTime t, SmallFn fn) {
  Lane& l = current_mutable_lane();
  const int lane = static_cast<int>(&l - lanes_.data());
  if (t < l.now) t = l.now;
  const Entry e = claim(l, t, std::move(fn), nullptr);
  l.slots[e.slot()].key = e.key;
  // The tail is still queued iff its slot still carries the tail's key
  // (release_slot clears it; a reused slot carries a newer seq).
  Slot* tail = nullptr;
  if (stream.lane == lane && stream.tail_time <= t) {
    Slot& ts = l.slots[Entry{stream.tail_time, stream.tail_key}.slot()];
    if (ts.key == stream.tail_key) tail = &ts;
  }
  if (tail != nullptr) {
    tail->succ_key = e.key;
    tail->succ_time = t;
    ++l.streamed;
    if (l.depth() > l.peak_depth) l.peak_depth = l.depth();
  } else {
    push(l, e);  // stream idle, or an earlier time (after a crash reset)
  }
  stream.tail_key = e.key;
  stream.tail_time = t;
  stream.lane = lane;
}

Cancelable Simulator::after_cancelable(SimDuration delay, SmallFn fn) {
  Lane& l = current_mutable_lane();
  Cancelable c;
  c.state_->cancel_tally = l.cancel_tally;
  schedule(l, l.now + delay, std::move(fn), c.state_);
  return c;
}

std::uint32_t Simulator::acquire_slot(Lane& l) {
  if (!l.free_slots.empty()) {
    const std::uint32_t slot = l.free_slots.back();
    l.free_slots.pop_back();
    return slot;
  }
  l.slots.emplace_back();
  return static_cast<std::uint32_t>(l.slots.size() - 1);
}

void Simulator::release_slot(Lane& l, std::uint32_t slot) {
  Slot& s = l.slots[slot];
  s.fn = SmallFn{};
  s.cancel.reset();
  s.key = kNoKey;
  s.succ_key = kNoKey;
  l.free_slots.push_back(slot);
}

// 4-ary heap: half the levels of a binary heap, so pops touch far fewer
// cache lines on the hundred-thousand-entry queues of 100-replica sweeps.
// (time, seq) keys are unique per lane, so the pop order — and therefore
// every simulation result — is identical to any other correct priority
// queue.

void Simulator::sift_up(Lane& l, std::size_t i) {
  const Entry e = l.heap[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!later(l.heap[parent], e)) break;
    l.heap[i] = l.heap[parent];
    i = parent;
  }
  l.heap[i] = e;
}

void Simulator::sift_down(Lane& l, std::size_t i) {
  const std::size_t n = l.heap.size();
  const Entry e = l.heap[i];
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    const std::size_t end = first + 4 < n ? first + 4 : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (later(l.heap[best], l.heap[c])) best = c;
    }
    if (!later(e, l.heap[best])) break;
    l.heap[i] = l.heap[best];
    i = best;
  }
  l.heap[i] = e;
}

void Simulator::purge(Lane& l) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < l.heap.size(); ++i) {
    const Entry& e = l.heap[i];
    const auto& cancel = l.slots[e.slot()].cancel;
    if (cancel && !cancel->alive) {
      release_slot(l, e.slot());
      ++l.purged;
      assert(*l.cancel_tally > 0);
      --*l.cancel_tally;
      continue;
    }
    l.heap[kept++] = e;
  }
  l.heap.resize(kept);
  // Rebuild heap order over the survivors; (time, seq) keys are unique, so
  // live events rank exactly as they did before the purge. (Bottom-up over
  // the non-leaf prefix of the 4-ary layout.)
  if (l.heap.size() > 1) {
    for (std::size_t i = (l.heap.size() - 2) / 4 + 1; i-- > 0;) sift_down(l, i);
  }
}

bool Simulator::pop_and_run(Lane& l) {
  const Entry top = l.heap[0];
  const std::size_t last = l.heap.size() - 1;
  if (last > 0) {
    l.heap[0] = l.heap[last];
    l.heap.resize(last);
    sift_down(l, 0);
  } else {
    l.heap.clear();
  }
  assert(top.time >= l.now);

  Slot& s = l.slots[top.slot()];
  // A stream event hands the stream's next event to the heap (stream
  // events are never cancelable, so this precedes the cancel check).
  if (s.succ_key != kNoKey) {
    --l.streamed;
    push(l, Entry{s.succ_time, s.succ_key});
  }
  // A cancelled event still advances the clock to its scheduled time (it held
  // its place in the time order), but never executes.
  if (s.cancel && !s.cancel->alive) {
    l.now = top.time;
    release_slot(l, top.slot());
    ++l.cancelled_pops;
    assert(*l.cancel_tally > 0);
    --*l.cancel_tally;
    return false;
  }
  if (s.cancel) s.cancel->alive = false;  // fired: token reports inactive, no tally
  // Move the closure out and release the slot *before* invoking, so events
  // scheduled from inside the callback can reuse it.
  SmallFn fn = std::move(s.fn);
  release_slot(l, top.slot());
  // The slot pool outgrows the caches at 100 replicas; start fetching the
  // next event's slot while this one runs (it is usually still the top).
  if (!l.heap.empty()) {
    const char* next_slot = reinterpret_cast<const char*>(&l.slots[l.heap[0].slot()]);
    __builtin_prefetch(next_slot);
    __builtin_prefetch(next_slot + sizeof(Slot) - 1);
  }
  l.now = top.time;
  if (lane_mode_) {
    // Fold the executed schedule so equivalence suites can compare runs
    // without replaying cluster state. Classic mode skips this (one
    // predictable branch) to keep the golden-pinned hot path untouched.
    l.digest = mix64(l.digest ^ (static_cast<std::uint64_t>(top.time) +
                                 0x9e3779b97f4a7c15ULL * (top.key >> kSlotBits)));
  }
  fn();
  ++l.executed;
  if (events_cell_ != nullptr && !lane_mode_) events_cell_->inc();
  return true;
}

std::size_t Simulator::run(std::size_t limit) {
  if (!lane_mode_) {
    Lane& l = lanes_[0];
    std::size_t n = 0;
    while (n < limit && !l.heap.empty()) {
      if (pop_and_run(l)) ++n;
    }
    return n;
  }
  // Lane mode: drain window by window; the limit is honored at window
  // granularity (each window is at most handoff_ wide).
  const std::size_t before = executed_events();
  running_ = true;
  for (;;) {
    if (executed_events() - before >= limit) break;
    const SimTime s = earliest_event();
    if (s == kNever) break;
    run_window(s > kNever - handoff_ ? kNever : s + handoff_);
  }
  running_ = false;
  if (barrier_hook_) barrier_hook_();
  return executed_events() - before;
}

void Simulator::run_until(SimTime t) {
  if (!lane_mode_) {
    Lane& l = lanes_[0];
    while (!l.heap.empty() && l.heap[0].time <= t) pop_and_run(l);
    if (l.now < t) l.now = t;
    return;
  }
  run_lanes_until(t);
}

SimTime Simulator::earliest_event() const {
  SimTime s = kNever;
  for (const Lane& l : lanes_) {
    if (!l.heap.empty() && l.heap[0].time < s) s = l.heap[0].time;
  }
  return s;
}

void Simulator::run_lanes_until(SimTime t) {
  running_ = true;
  for (;;) {
    const SimTime s = earliest_event();
    if (s == kNever || s > t) break;
    // Window [s, end): `end` is exclusive, so `t + 1` makes the horizon
    // inclusive of events at exactly t (matching the classic run_until).
    const SimTime end = (t - s >= handoff_) ? s + handoff_ : t + 1;
    run_window(end);
  }
  running_ = false;
  for (Lane& l : lanes_) {
    if (l.now < t) l.now = t;
  }
  if (barrier_hook_) barrier_hook_();
}

void Simulator::run_window(SimTime end) {
  // Phase 1: every worker lane with events before the window end runs in
  // parallel. Worker lanes share no mutable state (network traffic is
  // intra-lane; cross-lane effects are outbox handoffs), so any
  // interleaving — including fully serial — produces the same result.
  active_.clear();
  const int workers_end = control_lane();  // lanes [0, workers_end) are worker lanes
  std::uint64_t executed_before = 0;
  for (int i = 0; i < workers_end; ++i) {
    const Lane& l = lanes_[static_cast<std::size_t>(i)];
    if (!l.heap.empty() && l.heap[0].time < end) {
      active_.push_back(i);
      executed_before += l.executed;
    }
  }
  if (!active_.empty()) {
    // Run serially when the previous window's phase-1 volume was tiny:
    // waking the pool for a handful of events costs more than the events.
    // The choice of execution strategy cannot change results — worker
    // lanes are disjoint, so serial and parallel interleavings commute.
    if (workers_.empty() || active_.size() == 1 ||
        window_worker_events_ < kParallelThreshold) {
      for (const int lane : active_) run_lane_window(lane, end);
    } else {
      dispatch_workers(end);
    }
    std::uint64_t executed_after = 0;
    for (const int lane : active_) executed_after += lanes_[static_cast<std::size_t>(lane)].executed;
    window_worker_events_ = executed_after - executed_before;
  }
  // Phase 2: the control lane runs exclusively on this thread. Its events
  // may read worker-lane state — frozen at the window end, identically for
  // every thread count — but must route mutations through call_in_lane().
  run_lane_window(control_lane(), end);
  obs::count(windows_, windows_cell_);
  merge_outboxes(end);
  if (barrier_hook_) barrier_hook_();
}

void Simulator::run_lane_window(int lane, SimTime end) {
  Lane& l = lanes_[static_cast<std::size_t>(lane)];
  if (l.heap.empty() || l.heap[0].time >= end) return;
  LaneScope scope(*this, lane);
  const std::size_t before = l.executed;
  while (!l.heap.empty() && l.heap[0].time < end) pop_and_run(l);
  if (events_cell_ != nullptr) events_cell_->inc(l.executed - before);
}

void Simulator::dispatch_workers(SimTime end) {
  pool_end_ = end;
  pool_next_.store(0, std::memory_order_relaxed);
  pool_unfinished_.store(static_cast<int>(workers_.size()), std::memory_order_relaxed);
  pool_gen_.fetch_add(1, std::memory_order_seq_cst);
  // Dekker handshake with worker_main: the gen bump above and the
  // pool_sleepers_ increment there are both seq_cst, so either we see the
  // sleeper (and notify under the mutex) or the sleeper's predicate
  // recheck sees the new generation.
  if (pool_sleepers_.load(std::memory_order_seq_cst) > 0) {
    std::lock_guard<std::mutex> lk(pool_mu_);
    pool_cv_.notify_all();
  }
  work_loop(end);  // the coordinating thread is one of the `threads_` executors
  // Spin for the stragglers: a worker-lane window is microseconds of work,
  // so a sleep here would usually outlive the wait.
  int spins = 0;
  while (pool_unfinished_.load(std::memory_order_acquire) != 0) {
    if (++spins < spin_rounds_) {
      cpu_relax();
      continue;
    }
    std::unique_lock<std::mutex> lk(pool_mu_);
    done_sleeping_.store(true, std::memory_order_seq_cst);
    done_cv_.wait(lk, [this] {
      return pool_unfinished_.load(std::memory_order_relaxed) == 0;
    });
    done_sleeping_.store(false, std::memory_order_seq_cst);
  }
}

void Simulator::work_loop(SimTime end) {
  for (;;) {
    const std::size_t i = pool_next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= active_.size()) return;
    run_lane_window(active_[i], end);
  }
}

void Simulator::worker_main() {
  std::uint64_t seen = 0;
  for (;;) {
    // Spin first: the next window usually dispatches within microseconds.
    int spins = 0;
    while (!pool_stop_.load(std::memory_order_acquire) &&
           pool_gen_.load(std::memory_order_acquire) == seen) {
      if (++spins < spin_rounds_) {
        cpu_relax();
        continue;
      }
      std::unique_lock<std::mutex> lk(pool_mu_);
      pool_sleepers_.fetch_add(1, std::memory_order_seq_cst);
      pool_cv_.wait(lk, [this, seen] {
        return pool_stop_.load(std::memory_order_relaxed) ||
               pool_gen_.load(std::memory_order_relaxed) != seen;
      });
      pool_sleepers_.fetch_sub(1, std::memory_order_seq_cst);
      break;
    }
    if (pool_stop_.load(std::memory_order_acquire)) return;
    seen = pool_gen_.load(std::memory_order_acquire);
    work_loop(pool_end_);  // pool_end_ published before the gen bump
    if (pool_unfinished_.fetch_sub(1, std::memory_order_seq_cst) == 1 &&
        done_sleeping_.load(std::memory_order_seq_cst)) {
      std::lock_guard<std::mutex> lk(pool_mu_);
      done_cv_.notify_one();
    }
  }
}

void Simulator::merge_outboxes(SimTime end) {
  merge_buf_.clear();
  for (Lane& l : lanes_) {
    if (l.outbox.empty()) continue;
    for (Handoff& h : l.outbox) merge_buf_.push_back(std::move(h));
    l.outbox.clear();
  }
  if (merge_buf_.empty()) return;
  if (handoffs_cell_ != nullptr) handoffs_cell_->inc(merge_buf_.size());
  // (time, source lane, source seq): source lane is recoverable from seq
  // ordering only within a lane, so carry it via stable partition — the
  // outboxes were appended in lane order above, and std::stable_sort keeps
  // that order for equal (time, seq)... seqs are per-lane, so sort on
  // (time, then the append order), which stable_sort preserves exactly.
  std::stable_sort(merge_buf_.begin(), merge_buf_.end(),
                   [](const Handoff& a, const Handoff& b) { return a.time < b.time; });
  for (Handoff& h : merge_buf_) {
    if (h.time < end) throw std::logic_error("simulator: handoff inside a committed window");
    schedule(lanes_[static_cast<std::size_t>(h.target)], h.time, std::move(h.fn), nullptr);
  }
  merge_buf_.clear();
}

void Simulator::post(int lane, SimDuration delay, SmallFn fn) {
  if (!lane_mode_) {
    after(delay, std::move(fn));
    return;
  }
  if (lane < 0 || lane >= lane_count()) throw std::out_of_range("simulator: bad lane");
  const int cur = current_lane();
  if (!running_) {
    // Parked: all lane clocks are synchronized; land directly in the target.
    Lane& t = lanes_[static_cast<std::size_t>(lane)];
    schedule(t, t.now + delay, std::move(fn), nullptr);
    return;
  }
  if (lane == cur) {
    after(delay, std::move(fn));
    return;
  }
  if (delay < handoff_) {
    throw std::logic_error("simulator: cross-lane post below the handoff latency");
  }
  Lane& c = lanes_[static_cast<std::size_t>(cur)];
  ++c.handoffs;
  c.outbox.push_back(Handoff{c.now + delay, lane, c.handoff_seq++, std::move(fn)});
}

void Simulator::call_in_lane(int lane, SmallFn fn) {
  if (!lane_mode_ || lane == current_lane()) {
    fn();
    return;
  }
  post(lane, handoff_, std::move(fn));
}

bool Simulator::idle() const {
  for (const Lane& l : lanes_) {
    if (!l.heap.empty()) return false;
  }
  return true;
}

void Simulator::set_metrics(obs::MetricsRegistry& m) {
  events_cell_ = &m.counter("sim.events_executed");
  if (!lane_mode_) return;
  windows_cell_ = &m.counter("sim.lanes.windows");
  handoffs_cell_ = &m.counter("sim.lanes.handoffs");
}

std::size_t Simulator::executed_events() const {
  std::size_t n = 0;
  for (const Lane& l : lanes_) n += l.executed;
  return n;
}

std::size_t Simulator::queue_depth() const {
  std::size_t n = 0;
  for (const Lane& l : lanes_) n += l.depth();
  return n;
}

std::size_t Simulator::peak_queue_depth() const {
  std::size_t n = 0;
  for (const Lane& l : lanes_) n += l.peak_depth;
  return n;
}

std::uint64_t Simulator::cancelled_pops() const {
  std::uint64_t n = 0;
  for (const Lane& l : lanes_) n += l.cancelled_pops;
  return n;
}

std::uint64_t Simulator::purged_events() const {
  std::uint64_t n = 0;
  for (const Lane& l : lanes_) n += l.purged;
  return n;
}

std::uint64_t Simulator::handoffs_posted() const {
  std::uint64_t n = 0;
  for (const Lane& l : lanes_) n += l.handoffs;
  return n;
}

}  // namespace tordb
