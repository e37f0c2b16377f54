// Retransmission plan of the exchange phase (paper A.4-A.6).
//
// Every member of a new configuration computes the same plan from the
// identical set of State messages, which replaces the turn-based Retrans()
// of A.4/A.6 with fully parallel retransmission of the same content:
//  - green: when green counts differ, the member with the longest green
//    prefix (ties: the lower white line, so it still holds bodies; then
//    member order) sends positions (min green, max green], or one snapshot
//    of its green state when it holds no bodies above the minimum;
//  - red, per creator in ascending order: the first member in member order
//    holding the longest red cut sends the indices every member lacks that
//    its own green prefix does not already cover.
// Every member waits for `expected` retransmissions before End_of_retrans.
//
// Cost: one pass over the members' creator-sorted red cuts with a cursor
// per member, O(n·C) for n members and C creators.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/messages.h"
#include "util/types.h"

namespace tordb::core {

struct ExchangePlan {
  /// Retransmissions every member waits for.
  std::int64_t expected = 0;
  /// Member that sends green positions (green_lo, green_hi]; kNoNode when
  /// every member holds the same green prefix.
  NodeId green_source = kNoNode;
  /// The green part travels as one snapshot transfer, not per position.
  bool green_snapshot = false;
  std::int64_t green_lo = 0;
  std::int64_t green_hi = 0;
  /// Red indices (lo, hi] of `creator`, sent by `source`.
  struct RedRange {
    NodeId source = kNoNode;
    NodeId creator = kNoNode;
    std::int64_t lo = 0;
    std::int64_t hi = 0;
    friend bool operator==(const RedRange&, const RedRange&) = default;
  };
  std::vector<RedRange> red;  ///< ascending creator order

  friend bool operator==(const ExchangePlan&, const ExchangePlan&) = default;
};

/// The plan for the State messages of a configuration's members, in member
/// order. Each message lists the creators of its red_cut and green_red_cut
/// in strictly ascending order, as ActionLog emits them.
ExchangePlan plan_exchange(std::span<const StateMessage* const> members);

}  // namespace tordb::core
