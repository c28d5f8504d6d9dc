#include "explore/explorer.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <mutex>
#include <utility>

#include "core/arrangement.hpp"
#include "core/cas_generator.hpp"
#include "netlist/area.hpp"
#include "sched/exact.hpp"
#include "sched/lower_bound.hpp"

namespace casbus::explore {

namespace {

/// Largest instruction space we synthesize gate-level (Table 1 tops out at
/// m = 1684; beyond a few thousand the decoder dominates build time).
constexpr double kGateLevelArrangementCap = 4096.0;

/// A(n,p) in double precision (exact for small products, the right order
/// of magnitude for the huge ones the extrapolation needs).
double arrangements(unsigned n, unsigned p) {
  return std::exp2(tam::log2_arrangement_count(n, p));
}

/// Gate-level area of one (n, p) CAS in GE. Generated + measured when the
/// instruction space is small enough; otherwise the Table 1 trend
/// extrapolation (optimized synthesis lands at ~2.5 GE per instruction
/// plus the instruction register and per-wire muxing).
double cas_area_uncached(unsigned n, unsigned p) {
  const double a = arrangements(n, p);
  const unsigned k = sched::cas_ir_bits(n, p);
  if (a <= kGateLevelArrangementCap) {
    const tam::GeneratedCas cas = tam::generate_cas(
        n, p, {tam::CasImplementation::OptimizedGateLevel, true});
    return netlist::AreaModel::typical().total(cas.netlist);
  }
  return 2.5 * a + 7.0 * k + 3.0 * n;
}

/// cas_area_uncached, memoized for the process: the area is a pure
/// function of (n, p), and a sweep only ever asks for a few port counts
/// per width. The lock is never held while synthesizing; two racing
/// misses compute the same value and the first insert wins.
double cas_area_ge(unsigned n, unsigned p) {
  static std::mutex mutex;
  static std::map<std::pair<unsigned, unsigned>, double> table;
  const std::pair<unsigned, unsigned> key{n, p};
  {
    const std::lock_guard<std::mutex> lock(mutex);
    const auto it = table.find(key);
    if (it != table.end()) return it->second;
  }
  const double area = cas_area_uncached(n, p);
  const std::lock_guard<std::mutex> lock(mutex);
  return table.emplace(key, area).first->second;
}

/// §3.3 pass-transistor CAS in GE, analytic at any geometry (mirrors
/// tam::pass_transistor_area, which cannot count a 2^64 instruction
/// space): full N x P crosspoint matrix (10T per crosspoint), per-wire
/// bypass (4T), shift+update IR (2k DFFs at 22T + 12T gating), 4T per GE.
double cas_pass_transistor_ge(unsigned n, unsigned p) {
  const unsigned k = sched::cas_ir_bits(n, p);
  const double transistors = static_cast<double>(n) * p * 10.0 + n * 4.0 +
                             2.0 * k * 22.0 + 12.0;
  return transistors / 4.0;
}

unsigned ports_of(const sched::CoreTestSpec& core, unsigned width) {
  return static_cast<unsigned>(
      core.is_scan() ? std::min<std::size_t>(core.chains.size(), width)
                     : 1);
}

}  // namespace

const ExplorePoint* ExploreReport::best_time() const {
  const ExplorePoint* best = nullptr;
  for (const ExplorePoint& p : points) {
    if (best == nullptr || p.test_cycles < best->test_cycles ||
        (p.test_cycles == best->test_cycles &&
         p.bus_area_ge < best->bus_area_ge))
      best = &p;
  }
  return best;
}

double DesignSpaceExplorer::bus_area_ge(
    const std::vector<sched::CoreTestSpec>& cores, unsigned width) {
  double total = 0.0;
  for (const sched::CoreTestSpec& core : cores)
    total += cas_area_ge(width, ports_of(core, width));
  return total;
}

double DesignSpaceExplorer::bus_pass_transistor_ge(
    const std::vector<sched::CoreTestSpec>& cores, unsigned width) {
  double total = 0.0;
  for (const sched::CoreTestSpec& core : cores)
    total += cas_pass_transistor_ge(width, ports_of(core, width));
  return total;
}

ExploreReport DesignSpaceExplorer::sweep(const ExploreConfig& config) const {
  ExploreReport report;
  report.soc_name = soc_.name;
  report.core_count = soc_.cores.size();

  std::vector<unsigned> widths = config.widths;
  if (widths.empty()) {
    const unsigned s = soc_.suggested_width;
    widths = {std::max(2u, s / 2), s, std::min(64u, s * 2)};
  }
  std::sort(widths.begin(), widths.end());
  widths.erase(std::unique(widths.begin(), widths.end()), widths.end());

  std::size_t scan_cores = 0;
  for (const auto& c : soc_.cores) scan_cores += c.is_scan() ? 1 : 0;

  for (const unsigned width : widths) {
    const sched::SessionScheduler scheduler(soc_.cores, width);
    const std::uint64_t global_lb = sched::schedule_lower_bound(
        soc_.cores, width, scheduler.reconfig_cost());
    const double area = bus_area_ge(soc_.cores, width);
    const double pass_area = bus_pass_transistor_ge(soc_.cores, width);

    for (const sched::Strategy strategy : config.strategies) {
      // Exact is exponential; skip the combos it cannot finish.
      if (strategy == sched::Strategy::Exact && scan_cores > 12) continue;

      ExplorePoint pt;
      pt.width = width;
      pt.strategy = strategy;
      pt.bus_area_ge = area;
      pt.pass_transistor_ge = pass_area;
      pt.lower_bound = global_lb;

      const auto start = std::chrono::steady_clock::now();
      if (strategy == sched::Strategy::BranchBound) {
        const BranchBoundResult bb =
            BranchBoundScheduler(scheduler, config.branch_bound).run();
        pt.test_cycles = bb.best_cost;
        pt.lower_bound = std::max(global_lb, bb.lower_bound);
        pt.proven_optimal = bb.optimal;
      } else {
        pt.test_cycles = scheduler.schedule_with(strategy).total_cycles;
      }
      pt.schedule_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      if (pt.lower_bound > 0 && pt.test_cycles > pt.lower_bound)
        pt.gap = static_cast<double>(pt.test_cycles) /
                     static_cast<double>(pt.lower_bound) -
                 1.0;
      report.points.push_back(pt);
    }
  }

  // Pareto frontier over (test time, bus area).
  for (ExplorePoint& p : report.points) {
    bool dominated = false;
    for (const ExplorePoint& q : report.points) {
      if (&q == &p) continue;
      if (q.test_cycles <= p.test_cycles && q.bus_area_ge <= p.bus_area_ge &&
          (q.test_cycles < p.test_cycles || q.bus_area_ge < p.bus_area_ge)) {
        dominated = true;
        break;
      }
    }
    p.pareto = !dominated;
  }
  return report;
}

}  // namespace casbus::explore
