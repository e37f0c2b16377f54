#include "storage/stable_storage.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>

namespace tordb {

StableStorage::StableStorage(Simulator& sim, StorageParams params)
    : sim_(sim), params_(params) {}

std::size_t StableStorage::push(Record r) {
  ++stats_.appends;
  records_.push_back(std::move(r));
  return records_.size() - 1;
}

std::size_t StableStorage::append(Bytes record) {
  return push(Record{SharedBytes::own(std::move(record))});
}

std::size_t StableStorage::append_framed(const std::uint8_t* header, std::size_t header_len,
                                         SharedBytes body) {
  if (header_len > kMaxHeader) throw std::invalid_argument("record header too long");
  Record r{std::move(body)};
  r.head_len = static_cast<std::uint8_t>(header_len);
  std::copy(header, header + header_len, r.head);
  return push(std::move(r));
}

void StableStorage::sync(SyncCallback done) {
  ++stats_.syncs_requested;
  if (params_.mode == SyncMode::kDelayed) {
    // The caller proceeds immediately; durability happens in the background.
    sim_.after(0, std::move(done));
    start_force_if_needed();
    return;
  }
  if (durable_ >= records_.size()) {
    // Nothing new to force; complete as soon as the loop turns.
    sim_.after(0, std::move(done));
    return;
  }
  pending_.push_back(PendingSync{records_.size(), std::move(done)});
  if (force_in_flight_) return;  // will batch onto the next force
  if (params_.commit_window > 0 && !window_armed_) {
    window_armed_ = true;
    const std::uint64_t epoch = epoch_;
    sim_.after(params_.commit_window, [this, epoch] {
      window_armed_ = false;
      if (epoch != epoch_) return;
      start_force_if_needed();
    });
    return;
  }
  if (!window_armed_) start_force_if_needed();
}

void StableStorage::start_force_if_needed() {
  if (force_in_flight_ || durable_ == records_.size()) return;
  force_in_flight_ = true;
  ++stats_.forces;
  inflight_covered_ = records_.size();
  const std::uint64_t epoch = epoch_;
  sim_.after(params_.force_latency, [this, epoch] { force_completed(epoch); });
}

void StableStorage::force_completed(std::uint64_t epoch) {
  if (epoch != epoch_) return;  // crashed while forcing
  force_in_flight_ = false;
  durable_ = std::max(durable_, inflight_covered_);
  if (params_.tracer) {
    params_.tracer.emit(obs::EventKind::kForcedSync, static_cast<std::int64_t>(durable_),
                        static_cast<std::int64_t>(stats_.forces));
  }
  // Fire every sync whose records are now durable (group commit).
  std::vector<PendingSync> still_waiting;
  std::vector<SyncCallback> ready;
  for (auto& p : pending_) {
    if (p.upto <= durable_) {
      ready.push_back(std::move(p.done));
    } else {
      still_waiting.push_back(std::move(p));
    }
  }
  pending_ = std::move(still_waiting);
  for (auto& cb : ready) cb();
  // Forced mode only re-forces when someone is waiting on durability; lazy
  // appends (e.g. the engine's green records) stay volatile until the next
  // sync. Delayed mode keeps flushing in the background — that is its point.
  if (!pending_.empty() || params_.mode == SyncMode::kDelayed) start_force_if_needed();
}

void StableStorage::crash() {
  ++epoch_;
  force_in_flight_ = false;
  pending_.clear();
  stats_.records_lost_in_crash += records_.size() - durable_;
  records_.resize(durable_);
}

std::vector<Bytes> StableStorage::recover_records() const {
  std::vector<Bytes> records;
  records.reserve(durable_);
  for (std::size_t i = 0; i < durable_; ++i) {
    const Record& rec = records_[i];
    const std::span<const std::uint8_t> body = rec.body.view();
    Bytes& out = records.emplace_back(rec.head, rec.head + rec.head_len);
    out.insert(out.end(), body.begin(), body.end());
  }
  return records;
}

void StableStorage::compact(std::size_t upto, Bytes snapshot_record) {
  if (upto > durable_) throw std::logic_error("cannot compact non-durable records");
  if (upto == 0) return;
  // Replace records [0, upto) with the snapshot record.
  records_[upto - 1] = Record{SharedBytes::own(std::move(snapshot_record))};
  records_.erase(records_.begin(), records_.begin() + static_cast<std::ptrdiff_t>(upto - 1));
  durable_ = durable_ - upto + 1;
  // Re-base bookkeeping that referenced pre-compaction record counts.
  const std::size_t shrink = upto - 1;
  if (force_in_flight_) {
    inflight_covered_ = inflight_covered_ > upto ? inflight_covered_ - shrink : 1;
  }
  for (PendingSync& p : pending_) {
    p.upto = p.upto > upto ? p.upto - shrink : 1;
  }
}

}  // namespace tordb
