#include "sched/lower_bound.hpp"

#include <algorithm>
#include <functional>

namespace casbus::sched {

void GroupBound::add(const CoreTestSpec& core) {
  sum_bits += core.total_scan_bits();
  for (const std::size_t c : core.chains)
    longest_chain = std::max(longest_chain, c);
  max_patterns = std::max(max_patterns, core.patterns);
}

std::uint64_t core_session_lower_bound(const CoreTestSpec& core,
                                       unsigned width) {
  if (!core.is_scan()) return core.bist_cycles;
  GroupBound g;
  g.add(core);
  return g.scan_lower_bound(width);
}

std::uint64_t total_wire_work(const std::vector<CoreTestSpec>& cores) {
  std::uint64_t work = 0;
  for (const CoreTestSpec& c : cores) {
    if (c.is_scan())
      work += static_cast<std::uint64_t>(c.patterns) *
              static_cast<std::uint64_t>(c.total_scan_bits());
    else
      work += c.bist_cycles;
  }
  return work;
}

std::uint64_t schedule_lower_bound(const std::vector<CoreTestSpec>& cores,
                                   unsigned width,
                                   std::uint64_t config_cycles) {
  CASBUS_REQUIRE(width >= 1, "schedule_lower_bound: width must be >= 1");
  // Wire-time conservation. A scan core shifts patterns * total_bits wire
  // cycles no matter how its chains are spread or which session hosts it;
  // a BIST engine holds one wire for its whole run. Rail plans divide the
  // work *and* the wires, so the bound survives them too: the slowest rail
  // is at least the average, and the average is total work over total
  // width.
  std::uint64_t most_demanding = 0;
  for (const CoreTestSpec& c : cores)
    most_demanding =
        std::max(most_demanding, core_session_lower_bound(c, width));
  const std::uint64_t spread = (total_wire_work(cores) + width - 1) / width;
  return std::max(spread, most_demanding) + config_cycles;
}

std::uint64_t partition_session_floor(std::size_t scan_groups,
                                      std::size_t bist_engines,
                                      unsigned width) {
  const auto k_eff = std::max<std::uint64_t>(scan_groups, 1);
  if (bist_engines == 0) return k_eff;
  if (width <= 1) return k_eff + bist_engines;  // no session can host riders
  // With k' final scan groups the session count is k' + overflow(k') where
  // overflow(k') = max(0, engines - k' * (width-1)). Over k' >= scan_groups
  // that sum is non-increasing until overflow hits zero at
  // k* = ceil(engines / (width-1)) and grows afterwards, so the minimum is
  // max(k_eff, k*).
  const std::uint64_t cap = width - 1;
  const std::uint64_t k_star = (bist_engines + cap - 1) / cap;
  return std::max(k_eff, k_star);
}

std::uint64_t partition_overflow_floor(std::size_t scan_groups,
                                       std::size_t bist_engines,
                                       unsigned width) {
  if (bist_engines == 0) return 0;
  if (width <= 1) return bist_engines;
  // Completing with k' >= scan_groups groups adds (k' - scan_groups) scan
  // sessions and max(0, engines - k' * (width-1)) dedicated ones; the sum
  // is minimized at k* = ceil(engines / (width-1)) (same shape as above).
  const std::uint64_t cap = width - 1;
  const std::uint64_t k_star = (bist_engines + cap - 1) / cap;
  const auto k_eff = std::max<std::uint64_t>(scan_groups, 1);
  return k_star > k_eff ? k_star - k_eff : 0;
}

std::uint64_t bist_chunk_bound(const std::vector<CoreTestSpec>& cores,
                               unsigned width) {
  std::vector<std::uint64_t> engines;
  for (const CoreTestSpec& c : cores)
    if (!c.is_scan()) engines.push_back(c.bist_cycles);
  if (engines.empty()) return 0;
  std::sort(engines.begin(), engines.end(), std::greater<>());
  const std::size_t cap = width > 1 ? width - 1 : 1;
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < engines.size(); i += cap) sum += engines[i];
  return sum;
}

}  // namespace casbus::sched
