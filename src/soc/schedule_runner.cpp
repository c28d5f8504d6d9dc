#include "soc/schedule_runner.hpp"

#include <algorithm>

#include "tpg/patterns.hpp"
#include "util/rng.hpp"

namespace casbus::soc {

std::vector<sched::CoreTestSpec> specs_of(const Soc& soc,
                                          std::size_t patterns_per_ff) {
  std::vector<sched::CoreTestSpec> specs;
  for (std::size_t i = 0; i < soc.core_count(); ++i) {
    const CoreInstance& inst = soc.cores()[i];
    CASBUS_REQUIRE(inst.kind != CoreKind::Hierarchical,
                   "specs_of: hierarchical cores are not schedulable at "
                   "the top level (schedule their children directly)");
    sched::CoreTestSpec spec;
    spec.name = inst.name;
    switch (inst.kind) {
      case CoreKind::Scan:
      case CoreKind::External: {
        const tpg::SyntheticCore& sc = inst.as_scan().synth();
        for (const auto& chain : sc.chains)
          spec.chains.push_back(chain.size());
        spec.patterns =
            std::max<std::size_t>(1, sc.spec.n_flipflops * patterns_per_ff);
        break;
      }
      case CoreKind::Bist:
        spec.bist_cycles = inst.as_bist().cycles();
        break;
      case CoreKind::Memory:
        spec.bist_cycles = inst.as_memory().mbist_cycles();
        break;
      case CoreKind::Hierarchical:
        break;  // unreachable
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

ScheduleRunReport run_schedule(Soc& soc, SocTester& tester,
                               const std::vector<sched::CoreTestSpec>& specs,
                               const sched::Schedule& schedule,
                               std::uint64_t pattern_seed) {
  CASBUS_REQUIRE(schedule.chip_synchronous,
                 "run_schedule: rail-emulation schedules need per-group "
                 "sequencing the broadcast-WSC controller cannot execute");
  CASBUS_REQUIRE(specs.size() == soc.core_count(),
                 "run_schedule: one spec per top-level core");

  ScheduleRunReport report;
  report.predicted_cycles = schedule.total_cycles;
  report.sessions = schedule.sessions.size();

  const unsigned width = soc.bus().width();
  std::vector<std::size_t> applied(specs.size(), 0);
  const std::uint64_t start = tester.cycles();

  // Spanning-BIST bookkeeping (phased schedules): engines started in the
  // first session keep running across reconfigurations on their reserved
  // wires; the verdict is harvested in the session during which the
  // engine is expected to finish (late reads are safe — the verdict is a
  // level — so remaining-cycle estimates are conservative).
  struct Carried {
    std::size_t core;
    unsigned wire;
    std::uint64_t remaining;
    bool started = false;
  };
  std::vector<Carried> carried;
  if (schedule.bist_spans_sessions && !schedule.sessions.empty()) {
    unsigned wire = width - 1;
    for (const std::size_t b : schedule.sessions[0].bist_cores)
      carried.push_back(Carried{b, wire--, specs[b].bist_cycles + 8});
  }

  for (std::size_t idx = 0; idx < schedule.sessions.size(); ++idx) {
    const sched::ScheduledSession& session = schedule.sessions[idx];
    const bool last = idx + 1 == schedule.sessions.size();
    ScanSession exec;

    if (schedule.bist_spans_sessions) {
      std::size_t live_carried = 0;
      for (Carried& c : carried) {
        if (c.remaining == 0) continue;  // harvested already
        const bool harvest = last || c.remaining <= session.scan_cycles;
        exec.bist.push_back(
            BistJoin{c.core, c.wire, c.remaining, harvest});
        if (harvest) {
          c.remaining = 0;
        } else {
          c.started = true;
          c.remaining -= std::min<std::uint64_t>(c.remaining,
                                                 session.scan_cycles);
          ++live_carried;
        }
      }
      // Overflow BIST sessions (appended after the scan phases) are
      // self-contained; they use the low wires to avoid the reserved ones.
      if (idx > 0 && !session.bist_cores.empty()) {
        CASBUS_REQUIRE(session.bist_cores.size() + live_carried <= width,
                       "run_schedule: overflow BIST collides with "
                       "still-running spanned engines");
        unsigned bist_wire = 0;
        for (const std::size_t b : session.bist_cores)
          exec.bist.push_back(
              BistJoin{b, bist_wire++, specs[b].bist_cycles, true});
      }
    } else {
      // Self-contained sessions: each BIST waits within its own session.
      unsigned bist_wire = width - 1;
      for (const std::size_t b : session.bist_cores)
        exec.bist.push_back(
            BistJoin{b, bist_wire--, specs[b].bist_cycles, true});
    }

    // Scan targets: wire per chain from the session's balance.
    for (const std::size_t c : session.scan_cores) {
      const tpg::SyntheticCore& sc = soc.cores()[c].as_scan().synth();
      CASBUS_REQUIRE(sc.chains.size() == specs[c].chains.size(),
                     "run_schedule: spec chains mismatch core geometry");
      std::vector<unsigned> wire_of_chain(sc.chains.size(), 0);
      for (std::size_t k = 0; k < session.items.size(); ++k) {
        const sched::ChainItem& item = session.items[k];
        if (item.core == c)
          wire_of_chain[item.chain] = session.balance.wire_of_item[k];
      }
      const std::size_t remaining = specs[c].patterns - applied[c];
      const std::size_t count =
          std::min(session.patterns_applied, remaining);
      applied[c] += count;

      Rng rng(pattern_seed * 131 + c * 17 + applied[c]);
      exec.targets.push_back(ScanTarget{
          CoreRef{c, std::nullopt}, std::move(wire_of_chain),
          tpg::PatternSet::random(sc.spec.n_flipflops, count, rng)});
    }

    const ScanSessionResult r = tester.run_scan_session(exec);
    if (!r.all_pass()) report.all_pass = false;
  }

  report.measured_cycles = tester.cycles() - start;
  return report;
}

}  // namespace casbus::soc
