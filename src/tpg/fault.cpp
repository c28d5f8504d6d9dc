#include "tpg/fault.hpp"

#include <algorithm>
#include <utility>

namespace casbus::tpg {

using netlist::Netlist;

std::vector<Fault> enumerate_faults(const Netlist& nl) {
  return netlist::enumerate_stuck_at_faults(nl);
}

FaultSimulator::FaultSimulator(Netlist nl)
    : FaultSimulator(netlist::levelize(std::move(nl))) {}

FaultSimulator::FaultSimulator(
    std::shared_ptr<const netlist::LevelizedNetlist> lev)
    : packed_(std::move(lev)) {
  for (std::size_t i = 0; i < nl().inputs().size(); ++i)
    free_inputs_.push_back(i);
}

void FaultSimulator::pin_input(const std::string& name, bool value) {
  for (std::size_t i = 0; i < nl().inputs().size(); ++i) {
    if (nl().inputs()[i].name != name) continue;
    pinned_.emplace_back(i, value);
    free_inputs_.erase(
        std::remove(free_inputs_.begin(), free_inputs_.end(), i),
        free_inputs_.end());
    return;
  }
  CASBUS_REQUIRE(false, "pin_input: unknown input " + name);
}

std::size_t FaultSimulator::pattern_width() const noexcept {
  return free_inputs_.size() + dffs().size();
}

std::size_t FaultSimulator::response_width() const noexcept {
  return nl().outputs().size() + dffs().size();
}

void FaultSimulator::load_pattern(netlist::FaultSim& engine,
                                  const BitVector& pattern) const {
  CASBUS_REQUIRE(pattern.size() == pattern_width(),
                 "FaultSimulator: pattern width mismatch");
  for (const auto& [idx, val] : pinned_)
    engine.set_input_index(idx, to_logic(val));
  for (std::size_t i = 0; i < free_inputs_.size(); ++i)
    engine.set_input_index(free_inputs_[i], to_logic(pattern.get(i)));
  for (std::size_t i = 0; i < dffs().size(); ++i)
    engine.set_dff_state(i, to_logic(pattern.get(free_inputs_.size() + i)));
}

void FaultSimulator::apply_pattern(const BitVector& pattern) {
  load_pattern(packed_, pattern);
}

BitVector FaultSimulator::good_response(const BitVector& pattern) {
  // The engine's observation order (primary outputs, then DFF D pins) is
  // the response layout, and one 64-lane sweep costs about what one
  // scalar GateSim pass does.
  apply_pattern(pattern);
  const std::vector<int>& r = packed_.good_response();
  BitVector out(r.size());
  for (std::size_t i = 0; i < r.size(); ++i) out.set(i, r[i] == 1);
  return out;
}

bool FaultSimulator::detects(const BitVector& pattern, const Fault& fault) {
  apply_pattern(pattern);
  return packed_.detect_batch(&fault, 1) != 0;
}

std::size_t FaultSimulator::grade(const BitVector& pattern,
                                  const std::vector<Fault>& faults,
                                  std::vector<bool>& detected) {
  apply_pattern(pattern);
  return packed_.detect_all(faults, detected);
}

FaultSimReport FaultSimulator::run(const PatternSet& patterns,
                                   const std::vector<Fault>& faults) {
  FaultSimReport report;
  report.total_faults = faults.size();
  report.detected_mask.assign(faults.size(), false);
  report.per_pattern.assign(patterns.size(), 0);

  for (std::size_t p = 0; p < patterns.size(); ++p) {
    const std::size_t newly =
        grade(patterns.at(p), faults, report.detected_mask);
    report.per_pattern[p] = newly;
    report.detected += newly;
  }
  return report;
}

FaultSimReport FaultSimulator::run(const PatternSet& patterns,
                                   const std::vector<Fault>& faults,
                                   std::size_t threads) {
  netlist::FaultCampaignOptions opts;
  opts.threads = threads;
  const auto loader = [this, &patterns](netlist::FaultSim& engine,
                                        std::size_t p) {
    load_pattern(engine, patterns.at(p));
  };
  const netlist::FaultCampaignReport campaign = netlist::run_fault_campaign(
      packed_.levelized(), faults, patterns.size(), loader, opts);

  FaultSimReport report;
  report.total_faults = faults.size();
  report.detected = campaign.detected_count;
  report.detected_mask.assign(faults.size(), false);
  report.per_pattern.assign(patterns.size(), 0);
  for (std::size_t f = 0; f < faults.size(); ++f) {
    if (campaign.detected[f] == 0) continue;
    report.detected_mask[f] = true;
    ++report.per_pattern[static_cast<std::size_t>(
        campaign.first_detect_pattern[f])];
  }
  return report;
}

}  // namespace casbus::tpg
