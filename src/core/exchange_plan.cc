#include "core/exchange_plan.h"

#include <algorithm>
#include <limits>

namespace tordb::core {

ExchangePlan plan_exchange(std::span<const StateMessage* const> members) {
  ExchangePlan plan;
  if (members.empty()) return plan;

  // Green: the most updated member, preferring one that still holds bodies
  // (lower white line) so per-action retransmission beats a state transfer.
  std::int64_t min_green = std::numeric_limits<std::int64_t>::max();
  const StateMessage* most_updated = members.front();
  for (const StateMessage* s : members) {
    min_green = std::min(min_green, s->green_count);
    if (s->green_count > most_updated->green_count ||
        (s->green_count == most_updated->green_count &&
         s->white_count < most_updated->white_count)) {
      most_updated = s;
    }
  }
  if (most_updated->green_count > min_green) {
    plan.green_source = most_updated->server_id;
    plan.green_lo = min_green;
    plan.green_hi = most_updated->green_count;
    // A member that inherited its prefix (joined via snapshot) holds no
    // bodies below its white line.
    plan.green_snapshot = most_updated->white_count > min_green;
    plan.expected += plan.green_snapshot ? 1 : plan.green_hi - plan.green_lo;
  }

  // Red: merge the creator-sorted cuts, one cursor per member. A member
  // whose cut lacks a creator holds none of its actions.
  const std::size_t n = members.size();
  std::vector<std::size_t> red_at(n, 0), green_at(n, 0);
  for (;;) {
    bool any = false;
    NodeId c = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto& cut = members[i]->red_cut;
      if (red_at[i] < cut.size() && (!any || cut[red_at[i]].first < c)) {
        c = cut[red_at[i]].first;
        any = true;
      }
    }
    if (!any) break;
    std::int64_t cmax = 0, cmin = std::numeric_limits<std::int64_t>::max();
    std::size_t holder = 0;  // the first maximum in member order
    for (std::size_t i = 0; i < n; ++i) {
      const auto& cut = members[i]->red_cut;
      std::int64_t v = 0;
      if (red_at[i] < cut.size() && cut[red_at[i]].first == c) v = cut[red_at[i]++].second;
      cmin = std::min(cmin, v);
      if (v > cmax) {
        cmax = v;
        holder = i;
      }
    }
    // What the holder's green prefix covers travels on the green path.
    const auto& covered = members[holder]->green_red_cut;
    std::size_t& g = green_at[holder];
    while (g < covered.size() && covered[g].first < c) ++g;
    const std::int64_t lo =
        std::max(cmin, g < covered.size() && covered[g].first == c ? covered[g].second : 0);
    if (cmax <= lo) continue;
    plan.expected += cmax - lo;
    plan.red.push_back({members[holder]->server_id, c, lo, cmax});
  }
  return plan;
}

}  // namespace tordb::core
