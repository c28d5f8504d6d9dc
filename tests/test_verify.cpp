/// Tests for the static verification layer (src/verify/): the rule
/// catalogue, the netlist linter, the schedule linter, and the negative-
/// test generator — seeded mutation helpers that break a known-good design
/// one rule at a time and assert the linter reports exactly that rule.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "core/casbus_netlist.hpp"
#include "core/complete_tam.hpp"
#include "explore/branch_bound.hpp"
#include "explore/soc_generator.hpp"
#include "netlist/levelize.hpp"
#include "netlist/netlist.hpp"
#include "tpg/synthcore.hpp"
#include "verify/netlist_lint.hpp"
#include "verify/schedule_lint.hpp"

namespace {

using namespace casbus;
using netlist::Cell;
using netlist::CellId;
using netlist::CellKind;
using netlist::NetId;
using netlist::RawNetlist;
using verify::LintReport;
using verify::RuleId;

// ---------------------------------------------------------------------------
// Shared fixtures: a known-good scan core and its lint configuration.
// ---------------------------------------------------------------------------

tpg::SyntheticCore clean_core() {
  tpg::SyntheticCoreSpec spec;
  spec.n_inputs = 4;
  spec.n_outputs = 4;
  spec.n_flipflops = 12;
  spec.n_gates = 48;
  spec.n_chains = 2;
  spec.seed = 77;
  return tpg::make_synthetic_core(spec);
}

verify::NetlistLintConfig chain_config(const tpg::SyntheticCore& core) {
  verify::NetlistLintConfig config;
  for (std::size_t c = 0; c < core.chains.size(); ++c)
    config.scan_chains.push_back(verify::ScanChainSpec{
        "si" + std::to_string(c), "so" + std::to_string(c),
        core.chains[c].size()});
  return config;
}

/// The set of distinct rules among the report's *error*-grade findings —
/// the exactness assertion of the negative tests (warnings from knock-on
/// effects, e.g. a gate orphaned by a retargeted pin, are tolerated).
std::set<RuleId> error_rules(const LintReport& report) {
  std::set<RuleId> rules;
  for (const verify::Diagnostic& d : report.diagnostics)
    if (d.severity == verify::Severity::Error) rules.insert(d.rule);
  return rules;
}

/// First cloud gate: a 2-input combinational cell that is neither part of
/// the scan path (Mux2 scan side, flip-flops) nor a tri-state driver.
CellId find_cloud_gate(const RawNetlist& raw) {
  for (CellId id = 0; id < raw.cells.size(); ++id) {
    const CellKind k = raw.cells[id].kind;
    if (k == CellKind::And2 || k == CellKind::Or2 || k == CellKind::Xor2 ||
        k == CellKind::Nand2 || k == CellKind::Nor2 ||
        k == CellKind::Xnor2)
      return id;
  }
  ADD_FAILURE() << "no cloud gate in fixture";
  return 0;
}

/// First scan-path mux: a Mux2 whose output feeds a flip-flop's D pin.
CellId find_scan_mux(const RawNetlist& raw) {
  for (CellId id = 0; id < raw.cells.size(); ++id) {
    if (raw.cells[id].kind != CellKind::Mux2) continue;
    for (const Cell& c : raw.cells)
      if (netlist::is_sequential(c.kind) && c.in[0] == raw.cells[id].out)
        return id;
  }
  ADD_FAILURE() << "no scan mux in fixture";
  return 0;
}

// ---------------------------------------------------------------------------
// Rule catalogue.
// ---------------------------------------------------------------------------

TEST(VerifyReport, RuleIdsAreStableAndUnique) {
  std::set<std::string> ids, names;
  for (std::size_t r = 0; r < verify::kRuleCount; ++r) {
    ids.insert(verify::rule_id(static_cast<RuleId>(r)));
    names.insert(verify::rule_name(static_cast<RuleId>(r)));
  }
  EXPECT_EQ(ids.size(), verify::kRuleCount);
  EXPECT_EQ(names.size(), verify::kRuleCount);
  EXPECT_STREQ(verify::rule_id(RuleId::NetMultiDriver), "NL001");
  EXPECT_STREQ(verify::rule_id(RuleId::BoundIncoherent), "SC006");
}

TEST(VerifyReport, OnlyDeadLogicAndFanoutAreWarnings) {
  for (std::size_t r = 0; r < verify::kRuleCount; ++r) {
    const auto rule = static_cast<RuleId>(r);
    const bool warning =
        rule == RuleId::GateUnreachable || rule == RuleId::NetFanout;
    EXPECT_EQ(verify::rule_severity(rule) == verify::Severity::Warning,
              warning)
        << verify::rule_id(rule);
  }
}

TEST(VerifyReport, SummaryAndCountsFoldDiagnostics) {
  LintReport report;
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.summary(), "verify: clean");
  report.add(RuleId::NetMultiDriver, 7, "x");
  report.add(RuleId::NetMultiDriver, 9, "y");
  report.add(RuleId::GateUnreachable, 3, "z");
  EXPECT_FALSE(report.clean());
  EXPECT_FALSE(report.admissible());
  EXPECT_EQ(report.error_count(), 2u);
  EXPECT_EQ(report.warning_count(), 1u);
  EXPECT_EQ(report.count(RuleId::NetMultiDriver), 2u);
  EXPECT_EQ(report.summary(), "verify: NL001 x2, NL004 x1");
}

// ---------------------------------------------------------------------------
// Clean designs: zero diagnostics over everything the generators emit.
// ---------------------------------------------------------------------------

TEST(VerifyNetlist, CleanScanCoresLintClean) {
  for (const std::uint64_t seed : {1u, 17u, 99u}) {
    for (const std::size_t chains : {1u, 2u, 3u}) {
      tpg::SyntheticCoreSpec spec;
      spec.n_flipflops = 10 + 2 * chains;
      spec.n_gates = 40;
      spec.n_chains = chains;
      spec.seed = seed;
      const tpg::SyntheticCore core = tpg::make_synthetic_core(spec);
      const LintReport report =
          verify::lint_netlist(core.netlist, chain_config(core));
      EXPECT_TRUE(report.clean()) << "seed " << seed << " chains " << chains
                                  << "\n" << report.to_string();
    }
  }
}

TEST(VerifyNetlist, OptimizedCasBusAndCompleteTamLintClean) {
  tam::CasBusNetlistSpec bus_spec;
  bus_spec.width = 6;
  bus_spec.ports_per_cas = {2, 3, 1};
  bus_spec.run_optimizer = true;
  const LintReport bus =
      verify::lint_netlist(tam::generate_casbus_netlist(bus_spec).netlist);
  EXPECT_TRUE(bus.clean()) << bus.to_string();

  tam::CompleteTamSpec tam_spec;
  tam_spec.width = 4;
  for (const unsigned chains : {2u, 1u}) {
    p1500::WrapperSpec w;
    w.n_func_in = 2;
    w.n_func_out = 2;
    w.n_chains = chains;
    tam_spec.wrappers.push_back(w);
  }
  const LintReport tam =
      verify::lint_netlist(generate_complete_tam(tam_spec).netlist);
  EXPECT_TRUE(tam.clean()) << tam.to_string();
}

TEST(VerifyNetlist, UnoptimizedCasDecodeDeadLogicIsWarningOnly) {
  tam::CasBusNetlistSpec spec;
  spec.width = 4;
  spec.ports_per_cas = {2, 1};
  spec.run_optimizer = false;  // decoder keeps dead comparator terms
  const LintReport report =
      verify::lint_netlist(tam::generate_casbus_netlist(spec).netlist);
  EXPECT_TRUE(report.admissible()) << report.to_string();
  EXPECT_TRUE(report.has(RuleId::GateUnreachable));
}

// ---------------------------------------------------------------------------
// Negative-test generator: one mutation, exactly one rule.
// ---------------------------------------------------------------------------

TEST(VerifyNetlist, MutationSparePinIsExactlyNl000) {
  const tpg::SyntheticCore core = clean_core();
  RawNetlist raw = core.netlist.to_raw();
  raw.cells[find_cloud_gate(raw)].in[2] = 0;  // connect the spare pin
  const LintReport report = verify::lint_netlist(raw, chain_config(core));
  EXPECT_EQ(error_rules(report),
            std::set<RuleId>{RuleId::NetlistMalformed});
}

TEST(VerifyNetlist, MutationExtraDriverIsExactlyNl001) {
  const tpg::SyntheticCore core = clean_core();
  RawNetlist raw = core.netlist.to_raw();
  // A second plain driver onto the first output port's net.
  raw.cells.push_back(Cell{CellKind::Buf,
                           {raw.inputs[0].net, netlist::kNoNet,
                            netlist::kNoNet},
                           raw.outputs[0].net});
  const LintReport report = verify::lint_netlist(raw, chain_config(core));
  EXPECT_EQ(error_rules(report), std::set<RuleId>{RuleId::NetMultiDriver});
}

TEST(VerifyNetlist, MutationDroppedDriverIsExactlyNl002) {
  const tpg::SyntheticCore core = clean_core();
  RawNetlist raw = core.netlist.to_raw();
  // Retarget one cloud-gate input to a fresh net nothing drives.
  const CellId gate = find_cloud_gate(raw);
  raw.cells[gate].in[0] = static_cast<NetId>(raw.n_nets);
  ++raw.n_nets;
  const LintReport report = verify::lint_netlist(raw, chain_config(core));
  EXPECT_EQ(error_rules(report),
            std::set<RuleId>{RuleId::NetFloatingInput});
}

TEST(VerifyNetlist, MutationSplicedCycleIsExactlyNl003) {
  const tpg::SyntheticCore core = clean_core();
  RawNetlist raw = core.netlist.to_raw();
  const CellId gate = find_cloud_gate(raw);
  raw.cells[gate].in[0] = raw.cells[gate].out;  // self-loop
  const LintReport report = verify::lint_netlist(raw, chain_config(core));
  EXPECT_EQ(error_rules(report), std::set<RuleId>{RuleId::CombCycle});
  // The cycle finder names the loop.
  const std::vector<CellId> cycle = verify::find_comb_cycle(raw);
  ASSERT_EQ(cycle.size(), 1u);
  EXPECT_EQ(cycle[0], gate);
}

TEST(VerifyNetlist, MutationOrphanGateIsNl004WarningOnly) {
  const tpg::SyntheticCore core = clean_core();
  RawNetlist raw = core.netlist.to_raw();
  // A gate driving a net nothing reads: dead logic, not an error.
  raw.cells.push_back(Cell{CellKind::And2,
                           {raw.inputs[0].net, raw.inputs[1].net,
                            netlist::kNoNet},
                           static_cast<NetId>(raw.n_nets)});
  ++raw.n_nets;
  const LintReport report = verify::lint_netlist(raw, chain_config(core));
  EXPECT_TRUE(report.admissible());
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.count(RuleId::GateUnreachable), 1u);
  EXPECT_TRUE(error_rules(report).empty());

  verify::NetlistLintConfig no_sweep = chain_config(core);
  no_sweep.check_unreachable = false;
  EXPECT_TRUE(verify::lint_netlist(raw, no_sweep).clean());
}

TEST(VerifyNetlist, MutationDanglingOutputIsExactlyNl005) {
  const tpg::SyntheticCore core = clean_core();
  RawNetlist raw = core.netlist.to_raw();
  raw.outputs.push_back(
      netlist::Port{"floating", static_cast<NetId>(raw.n_nets)});
  ++raw.n_nets;
  const LintReport report = verify::lint_netlist(raw, chain_config(core));
  EXPECT_EQ(error_rules(report), std::set<RuleId>{RuleId::PortDangling});
  // The diagnostic names the port by output index.
  ASSERT_EQ(report.count(RuleId::PortDangling), 1u);
  for (const verify::Diagnostic& d : report.diagnostics) {
    if (d.rule == RuleId::PortDangling) {
      EXPECT_EQ(d.object, raw.outputs.size() - 1);
    }
  }
}

TEST(VerifyNetlist, FanoutCeilingIsNl006WarningOnly) {
  const tpg::SyntheticCore core = clean_core();
  verify::NetlistLintConfig config = chain_config(core);
  config.fanout_ceiling = 1;  // scan_en alone fans out to every mux
  const LintReport report = verify::lint_netlist(core.netlist, config);
  EXPECT_TRUE(report.admissible());
  EXPECT_TRUE(report.has(RuleId::NetFanout));

  config.fanout_ceiling = 0;  // rule disabled
  config.check_unreachable = true;
  EXPECT_TRUE(verify::lint_netlist(core.netlist, config).clean());
}

TEST(VerifyNetlist, MutationBrokenScanChainIsExactlyNl007) {
  const tpg::SyntheticCore core = clean_core();
  RawNetlist raw = core.netlist.to_raw();
  // Retarget a scan mux's scan-path pin (in[1]) away from its chain
  // predecessor, onto an ordinary (driven) functional input net.
  raw.cells[find_scan_mux(raw)].in[1] = raw.inputs[0].net;
  const LintReport report = verify::lint_netlist(raw, chain_config(core));
  EXPECT_EQ(error_rules(report),
            std::set<RuleId>{RuleId::ScanChainBroken});
}

TEST(VerifyNetlist, WrongChainLengthIsExactlyNl007) {
  const tpg::SyntheticCore core = clean_core();
  verify::NetlistLintConfig config = chain_config(core);
  config.scan_chains[0].length += 1;  // the schedule expects one more FF
  const LintReport report = verify::lint_netlist(core.netlist, config);
  EXPECT_EQ(error_rules(report),
            std::set<RuleId>{RuleId::ScanChainBroken});
}

TEST(VerifyNetlist, UnlistedChainLeavesOrphanFlipFlopsNl007) {
  const tpg::SyntheticCore core = clean_core();
  ASSERT_GE(core.chains.size(), 2u);
  verify::NetlistLintConfig config = chain_config(core);
  config.scan_chains.pop_back();  // chain 1's FFs become unreachable
  const LintReport report = verify::lint_netlist(core.netlist, config);
  EXPECT_EQ(error_rules(report),
            std::set<RuleId>{RuleId::ScanChainBroken});
}

// ---------------------------------------------------------------------------
// Levelize failure routing (the latent-footgun fix): cycle errors name the
// offending nets instead of only counting unplaceable cells.
// ---------------------------------------------------------------------------

TEST(VerifyNetlist, LevelizeCycleErrorNamesTheLoop) {
  RawNetlist raw;
  raw.name = "looper";
  raw.n_nets = 4;  // a, loop_x, loop_y, unused
  raw.inputs.push_back(netlist::Port{"a", 0});
  raw.cells.push_back(
      Cell{CellKind::And2, {0, 2, netlist::kNoNet}, 1});  // loop_x
  raw.cells.push_back(
      Cell{CellKind::Not, {1, netlist::kNoNet, netlist::kNoNet},
           2});  // loop_y
  raw.outputs.push_back(netlist::Port{"y", 1});
  raw.net_names.emplace_back(1, "loop_x");
  raw.net_names.emplace_back(2, "loop_y");

  const netlist::Netlist nl = netlist::Netlist::from_raw(raw);
  try {
    (void)netlist::levelize(nl);
    FAIL() << "levelize accepted a cyclic netlist";
  } catch (const SimulationError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("combinational cycle"), std::string::npos) << what;
    EXPECT_NE(what.find("loop_x"), std::string::npos) << what;
    EXPECT_NE(what.find("loop_y"), std::string::npos) << what;
    EXPECT_NE(what.find("->"), std::string::npos) << what;
  }

  const std::string walk = verify::describe_comb_cycle(nl);
  EXPECT_NE(walk.find("loop_x"), std::string::npos) << walk;
  const std::vector<CellId> cycle = verify::find_comb_cycle(nl.to_raw());
  EXPECT_EQ(cycle.size(), 2u);
}

// ---------------------------------------------------------------------------
// Schedule lint: clean strategies, then one mutation per rule.
// ---------------------------------------------------------------------------

std::vector<sched::CoreTestSpec> mixed_cores() {
  using sched::CoreTestSpec;
  std::vector<CoreTestSpec> cores;
  cores.push_back(CoreTestSpec{"c0", {40, 30, 20}, 60, 0});
  cores.push_back(CoreTestSpec{"c1", {25, 25}, 40, 0});
  cores.push_back(CoreTestSpec{"c2", {64}, 100, 0});
  cores.push_back(CoreTestSpec{"b0", {}, 0, 900});
  cores.push_back(CoreTestSpec{"b1", {}, 0, 500});
  return cores;
}

TEST(VerifySched, EveryStrategyLintsClean) {
  const std::vector<sched::CoreTestSpec> cores = mixed_cores();
  for (const sched::Strategy s :
       {sched::Strategy::Single, sched::Strategy::PerCore,
        sched::Strategy::Greedy, sched::Strategy::Phased,
        sched::Strategy::Best, sched::Strategy::Exact,
        sched::Strategy::BranchBound}) {
    const sched::Schedule schedule = sched::schedule_with(cores, 4, s);
    const LintReport report = verify::lint_schedule(schedule, cores, 4);
    EXPECT_TRUE(report.clean())
        << sched::strategy_name(s) << "\n" << report.to_string();
  }
}

TEST(VerifySched, BranchBoundCertificateLintsClean) {
  const std::vector<sched::CoreTestSpec> cores = mixed_cores();
  const sched::SessionScheduler scheduler(cores, 4);
  const explore::BranchBoundResult result =
      explore::BranchBoundScheduler(scheduler).run();
  const LintReport report = verify::lint_branch_bound(result, cores, 4);
  EXPECT_TRUE(report.clean()) << report.to_string();
}

TEST(VerifySched, MutationDoubleBookedWireIsExactlySc001) {
  // Two cores, two equal-length chains each, two wires: injectivity puts
  // each core's chains on distinct wires. Re-pack both chains of each core
  // onto one wire — loads and max load stay identical, only the N/P
  // routing constraint breaks.
  std::vector<sched::CoreTestSpec> cores;
  cores.push_back(sched::CoreTestSpec{"c0", {16, 16}, 8, 0});
  cores.push_back(sched::CoreTestSpec{"c1", {16, 16}, 8, 0});
  sched::Schedule schedule = sched::schedule_with(
      cores, 2, sched::Strategy::Single);
  ASSERT_EQ(schedule.sessions.size(), 1u);
  sched::ScheduledSession& s = schedule.sessions[0];
  ASSERT_EQ(s.items.size(), 4u);
  for (std::size_t i = 0; i < s.items.size(); ++i)
    s.balance.wire_of_item[i] =
        static_cast<unsigned>(s.items[i].core);  // core -> its own wire
  s.balance.wire_load = {32, 32};
  const LintReport report = verify::lint_schedule(schedule, cores, 2);
  EXPECT_EQ(error_rules(report),
            std::set<RuleId>{RuleId::SessWireConflict});
}

TEST(VerifySched, MutationOverWideBalanceIsExactlySc002) {
  const std::vector<sched::CoreTestSpec> cores = mixed_cores();
  sched::Schedule schedule =
      sched::schedule_with(cores, 4, sched::Strategy::Greedy);
  // Claim one more balance wire than the bus (minus BIST) can offer; the
  // extra wire carries nothing, so every load/time figure still checks.
  ASSERT_FALSE(schedule.sessions.empty());
  sched::ScheduledSession* scan_session = nullptr;
  for (sched::ScheduledSession& s : schedule.sessions)
    if (!s.scan_cores.empty()) scan_session = &s;
  ASSERT_NE(scan_session, nullptr);
  while (scan_session->balance.wire_load.size() <
         4 - scan_session->bist_cores.size() + 1)
    scan_session->balance.wire_load.push_back(0);
  const LintReport report = verify::lint_schedule(schedule, cores, 4);
  EXPECT_EQ(error_rules(report),
            std::set<RuleId>{RuleId::SessOverCapacity});
}

TEST(VerifySched, MutationWrongScanCyclesIsExactlySc003) {
  const std::vector<sched::CoreTestSpec> cores = mixed_cores();
  sched::Schedule schedule =
      sched::schedule_with(cores, 4, sched::Strategy::PerCore);
  // Falsify one session's scan counter and patch the program total so the
  // reconfiguration accounting stays coherent.
  sched::ScheduledSession* scan_session = nullptr;
  for (sched::ScheduledSession& s : schedule.sessions)
    if (!s.scan_cores.empty()) scan_session = &s;
  ASSERT_NE(scan_session, nullptr);
  scan_session->scan_cycles += 1;
  schedule.total_cycles += 1;
  const LintReport report = verify::lint_schedule(schedule, cores, 4);
  EXPECT_EQ(error_rules(report), std::set<RuleId>{RuleId::SessTimeModel});
}

TEST(VerifySched, MutationReconfigAccountingIsExactlySc004) {
  const std::vector<sched::CoreTestSpec> cores = mixed_cores();
  sched::Schedule schedule =
      sched::schedule_with(cores, 4, sched::Strategy::Greedy);
  schedule.sessions[0].config_cycles += 5;
  schedule.total_cycles += 5;
  const LintReport report = verify::lint_schedule(schedule, cores, 4);
  EXPECT_EQ(error_rules(report), std::set<RuleId>{RuleId::SessReconfig});

  // The program-total consistency check is SC004 as well.
  sched::Schedule totals =
      sched::schedule_with(cores, 4, sched::Strategy::Greedy);
  totals.total_cycles += 123;
  EXPECT_EQ(error_rules(verify::lint_schedule(totals, cores, 4)),
            std::set<RuleId>{RuleId::SessReconfig});
}

TEST(VerifySched, MutationDroppedSessionIsExactlySc005) {
  const std::vector<sched::CoreTestSpec> cores = mixed_cores();
  sched::Schedule schedule =
      sched::schedule_with(cores, 4, sched::Strategy::PerCore);
  // Retire the last core's dedicated session and keep totals consistent:
  // its test budget is simply never fulfilled.
  ASSERT_EQ(schedule.sessions.size(), cores.size());
  schedule.total_cycles -= schedule.sessions.back().total_cycles();
  schedule.sessions.pop_back();
  const LintReport report = verify::lint_schedule(schedule, cores, 4);
  EXPECT_EQ(error_rules(report), std::set<RuleId>{RuleId::CoreNotCovered});
}

TEST(VerifySched, MutationIncoherentBoundIsExactlySc006) {
  const std::vector<sched::CoreTestSpec> cores = mixed_cores();
  const sched::SessionScheduler scheduler(cores, 4);
  explore::BranchBoundResult result =
      explore::BranchBoundScheduler(scheduler).run();
  result.lower_bound = result.best_cost + 1;  // certificate above incumbent
  const LintReport report = verify::lint_branch_bound(result, cores, 4);
  EXPECT_EQ(error_rules(report), std::set<RuleId>{RuleId::BoundIncoherent});
}

// ---------------------------------------------------------------------------
// Zero diagnostics over SocGenerator populations at 10 / 100 / 1000 cores.
// ---------------------------------------------------------------------------

TEST(VerifySched, GeneratedPopulationsLintClean) {
  const explore::SocGenerator gen(42);
  for (const std::size_t n : {std::size_t{10}, std::size_t{100}}) {
    for (const explore::SocProfile profile :
         {explore::SocProfile::Mixed, explore::SocProfile::ScanHeavy,
          explore::SocProfile::BistHeavy}) {
      const explore::GeneratedSoc soc = gen.generate(n, profile, 0);
      for (const sched::Strategy s :
           {sched::Strategy::Greedy, sched::Strategy::Phased,
            sched::Strategy::PerCore}) {
        const sched::Schedule schedule =
            sched::schedule_with(soc.cores, soc.suggested_width, s);
        const LintReport report =
            verify::lint_schedule(schedule, soc.cores, soc.suggested_width);
        EXPECT_TRUE(report.clean())
            << soc.name << " " << sched::strategy_name(s) << "\n"
            << report.to_string();
      }
    }
  }
}

TEST(VerifySched, ThousandCorePopulationLintsClean) {
  const explore::SocGenerator gen(42);
  const explore::GeneratedSoc soc =
      gen.generate(1000, explore::SocProfile::Mixed, 0);
  // Branch-and-bound is the strategy built for this scale; its incumbent
  // and certificate must both survive the linter.
  const sched::SessionScheduler scheduler(soc.cores, soc.suggested_width);
  explore::BranchBoundConfig config;
  config.node_budget = 2000;  // bound arithmetic only, keeps the test fast
  const explore::BranchBoundResult result =
      explore::BranchBoundScheduler(scheduler, config).run();
  const LintReport report =
      verify::lint_branch_bound(result, soc.cores, soc.suggested_width);
  EXPECT_TRUE(report.clean()) << report.to_string();

  const sched::Schedule per_core = sched::schedule_with(
      soc.cores, soc.suggested_width, sched::Strategy::PerCore);
  EXPECT_TRUE(
      verify::lint_schedule(per_core, soc.cores, soc.suggested_width)
          .clean());
}

}  // namespace
