#include "core/oracle.hpp"

#include <algorithm>
#include <span>

#include "common/error.hpp"

namespace lagover {

bool DirectoryOracle::eligible(OracleKind kind, NodeId querier,
                               NodeId candidate, const Overlay& overlay) {
  if (candidate == querier || candidate == kSourceId) return false;
  if (!overlay.online(candidate)) return false;
  switch (kind) {
    case OracleKind::kRandom:
      return true;
    case OracleKind::kRandomCapacity:
      return overlay.free_fanout(candidate) > 0;
    case OracleKind::kRandomDelayCapacity:
      return overlay.free_fanout(candidate) > 0 &&
             overlay.delay_at(candidate) < overlay.latency_of(querier);
    case OracleKind::kRandomDelay:
      return overlay.delay_at(candidate) < overlay.latency_of(querier);
  }
  return false;
}

std::optional<NodeId> DirectoryOracle::sample_impl(NodeId querier,
                                                   const Overlay& overlay,
                                                   Rng& rng) {
  // The filter admits whole buckets of the overlay's sampling index:
  // levels below l_querier for the delay filters (all levels otherwise),
  // and only the free-fanout half for the capacity filters. One draw
  // over their summed sizes, minus the querier when it is in range, is
  // uniform over the eligible set.
  const bool by_delay = kind_ == OracleKind::kRandomDelay ||
                        kind_ == OracleKind::kRandomDelayCapacity;
  const bool free_only = kind_ == OracleKind::kRandomCapacity ||
                         kind_ == OracleKind::kRandomDelayCapacity;
  const Delay levels =
      by_delay ? std::min(overlay.latency_of(querier), overlay.max_level() + 1)
               : overlay.max_level() + 1;
  const int first_half = free_only ? 1 : 0;
  std::uint64_t count = 0;
  for (Delay level = 0; level < levels; ++level)
    for (int half = first_half; half < 2; ++half)
      count += overlay.level_members(level, half != 0).size();

  // The querier's bucket, as (level, half), when it is in range.
  Delay own_level = -1;
  int own_half = -1;
  std::size_t own_slot = 0;
  if (querier != kSourceId && overlay.online(querier)) {
    const Delay level = overlay.level_of(querier);
    const int half = overlay.free_fanout(querier) > 0 ? 1 : 0;
    if (level < levels && half >= first_half) {
      own_level = level;
      own_half = half;
      own_slot = overlay.level_slot(querier);
      --count;
    }
  }
  if (count == 0) return std::nullopt;

  std::uint64_t pick = rng.next_below(count);
  for (Delay level = 0; level < levels; ++level) {
    for (int half = first_half; half < 2; ++half) {
      const std::span<const NodeId> bucket =
          overlay.level_members(level, half != 0);
      const bool own = level == own_level && half == own_half;
      const std::size_t size = bucket.size() - (own ? 1 : 0);
      if (pick < size) {
        const std::size_t at = static_cast<std::size_t>(pick);
        return bucket[own && at >= own_slot ? at + 1 : at];
      }
      pick -= size;
    }
  }
  LAGOVER_ASSERT_MSG(false, "sampling index lost a counted member");
  return std::nullopt;
}

std::unique_ptr<Oracle> make_oracle(OracleKind kind) {
  return std::make_unique<DirectoryOracle>(kind);
}

}  // namespace lagover
