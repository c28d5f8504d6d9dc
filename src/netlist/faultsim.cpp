#include "netlist/faultsim.hpp"

#include <algorithm>
#include <exception>
#include <thread>
#include <utility>

#include "util/threads.hpp"

namespace casbus::netlist {

FaultSim::FaultSim(Netlist nl)
    : FaultSim(std::make_shared<const LevelizedNetlist>(std::move(nl))) {}

FaultSim::FaultSim(std::shared_ptr<const LevelizedNetlist> lev)
    : sim_(std::move(lev)) {
  set_observation(true, true);
}

void FaultSim::set_observation(bool outputs, bool dff_next_states) {
  observe_outputs_ = outputs;
  observe_dffs_ = dff_next_states;
  obs_nets_.clear();
  if (observe_outputs_)
    for (const Port& p : design().outputs()) obs_nets_.push_back(p.net);
  if (observe_dffs_)
    for (const CellId id : sim_.levelized()->dff_cells())
      obs_nets_.push_back(design().cell(id).in[0]);  // D pin = next state
  good_valid_ = false;
}

void FaultSim::set_input_index(std::size_t index, Logic4 v) {
  sim_.set_input_index(index, word_broadcast(v));
  good_valid_ = false;
}

void FaultSim::set_dff_state(std::size_t i, Logic4 v) {
  sim_.set_dff_state(i, v);
  good_valid_ = false;
}

void FaultSim::ensure_good() {
  if (good_valid_) return;
  sim_.clear_forces();
  sim_.eval();
  good_.clear();
  good_.reserve(obs_nets_.size());
  for (const NetId n : obs_nets_) {
    const Logic4 v = word_lane(sim_.net_value(n), 0);
    good_.push_back(v == Logic4::Zero ? 0 : v == Logic4::One ? 1 : -1);
  }
  good_valid_ = true;
}

const std::vector<int>& FaultSim::good_response() {
  ensure_good();
  return good_;
}

std::uint64_t FaultSim::detect_batch(const StuckAtFault* faults,
                                     std::size_t count) {
  CASBUS_REQUIRE(count <= kBatch, "detect_batch: more than 64 faults");
  if (count == 0) return 0;
  ensure_good();

  sim_.clear_forces();
  for (std::size_t i = 0; i < count; ++i)
    sim_.set_force(faults[i].net, to_logic(faults[i].stuck_one),
                   std::uint64_t{1} << i);
  sim_.eval();

  const std::uint64_t live =
      count == kBatch ? ~std::uint64_t{0} : (std::uint64_t{1} << count) - 1;
  std::uint64_t detected = 0;
  for (std::size_t k = 0; k < obs_nets_.size(); ++k) {
    if (good_[k] < 0) continue;  // good machine undriven here
    const Logic64 bad = sim_.net_value(obs_nets_[k]);
    detected |= good_[k] == 0 ? word_is1(bad) : word_is0(bad);
    if ((detected & live) == live) break;  // whole batch already caught
  }
  sim_.clear_forces();
  return detected & live;
}

std::size_t FaultSim::detect_all(const std::vector<StuckAtFault>& faults,
                                 std::vector<bool>& detected) {
  CASBUS_REQUIRE(detected.size() == faults.size(),
                 "detect_all: detected mask size mismatch");
  std::size_t newly = 0;
  StuckAtFault batch[kBatch];
  std::size_t batch_idx[kBatch];
  std::size_t n = 0;

  const auto flush = [&] {
    if (n == 0) return;
    const std::uint64_t hit = detect_batch(batch, n);
    for (std::size_t i = 0; i < n; ++i) {
      if ((hit >> i) & 1ULL) {
        detected[batch_idx[i]] = true;
        ++newly;
      }
    }
    n = 0;
  };

  for (std::size_t f = 0; f < faults.size(); ++f) {
    if (detected[f]) continue;  // fault dropping
    batch[n] = faults[f];
    batch_idx[n] = f;
    if (++n == kBatch) flush();
  }
  flush();
  return newly;
}

FaultCampaignReport run_fault_campaign(
    std::shared_ptr<const LevelizedNetlist> lev,
    const std::vector<StuckAtFault>& faults, std::size_t pattern_count,
    const FaultCampaignLoader& load, const FaultCampaignOptions& opts) {
  CASBUS_REQUIRE(lev != nullptr, "run_fault_campaign: null netlist");
  FaultCampaignReport report;
  report.detected.assign(faults.size(), 0);
  report.first_detect_pattern.assign(faults.size(), -1);
  if (faults.empty() || pattern_count == 0) return report;

  const std::size_t threads =
      std::min(effective_workers(opts.threads), faults.size());

  // One worker grades the contiguous shard [lo, hi): a private engine over
  // the shared immutable levelization, all patterns in order, fault
  // dropping within the shard. Workers write disjoint slices of the
  // report vectors, so no synchronisation is needed until the join.
  const auto grade_shard = [&](std::size_t lo, std::size_t hi) {
    FaultSim fs(lev);
    fs.set_observation(opts.observe_outputs, opts.observe_dffs);
    StuckAtFault batch[FaultSim::kBatch];
    std::size_t batch_idx[FaultSim::kBatch];
    std::size_t remaining = hi - lo;
    for (std::size_t p = 0; p < pattern_count && remaining > 0; ++p) {
      load(fs, p);
      std::size_t n = 0;
      const auto flush = [&] {
        if (n == 0) return;
        const std::uint64_t hit = fs.detect_batch(batch, n);
        for (std::size_t i = 0; i < n; ++i) {
          if ((hit >> i) & 1ULL) {
            report.detected[batch_idx[i]] = 1;
            report.first_detect_pattern[batch_idx[i]] =
                static_cast<std::int32_t>(p);
            --remaining;
          }
        }
        n = 0;
      };
      for (std::size_t f = lo; f < hi; ++f) {
        if (report.detected[f] != 0) continue;  // fault dropping
        batch[n] = faults[f];
        batch_idx[n] = f;
        if (++n == FaultSim::kBatch) flush();
      }
      flush();
    }
  };

  const std::size_t base = faults.size() / threads;
  const std::size_t extra = faults.size() % threads;
  if (threads == 1) {
    grade_shard(0, faults.size());
  } else {
    std::vector<std::thread> pool;
    std::vector<std::exception_ptr> errors(threads);
    pool.reserve(threads);
    std::size_t lo = 0;
    for (std::size_t t = 0; t < threads; ++t) {
      const std::size_t hi = lo + base + (t < extra ? 1 : 0);
      pool.emplace_back([&, t, lo, hi] {
        try {
          grade_shard(lo, hi);
        } catch (...) {
          errors[t] = std::current_exception();
        }
      });
      lo = hi;
    }
    for (std::thread& t : pool) t.join();
    for (const std::exception_ptr& e : errors)
      if (e) std::rethrow_exception(e);
  }

  for (const std::uint8_t d : report.detected)
    report.detected_count += d;
  return report;
}

std::vector<StuckAtFault> enumerate_stuck_at_faults(const Netlist& nl) {
  std::vector<bool> constant(nl.net_count(), false);
  for (const Cell& c : nl.cells())
    if (c.kind == CellKind::Const0 || c.kind == CellKind::Const1)
      constant[c.out] = true;

  std::vector<StuckAtFault> faults;
  faults.reserve(nl.net_count() * 2);
  for (NetId n = 0; n < nl.net_count(); ++n) {
    if (constant[n]) continue;
    faults.push_back(StuckAtFault{n, false});
    faults.push_back(StuckAtFault{n, true});
  }
  return faults;
}

}  // namespace casbus::netlist
