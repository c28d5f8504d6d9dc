// Closing the loop: analytic schedules executed cycle-accurately must
// land within a small deviation of their predicted cycle counts, and every
// response must check out.

#include <gtest/gtest.h>

#include "soc/schedule_runner.hpp"
#include "soc/soc.hpp"
#include "soc/tester.hpp"

namespace casbus::soc {
namespace {

tpg::SyntheticCoreSpec spec(std::uint64_t seed, std::size_t chains,
                            std::size_t ffs) {
  tpg::SyntheticCoreSpec s;
  s.n_inputs = 4;
  s.n_outputs = 4;
  s.n_flipflops = ffs;
  s.n_gates = 40;
  s.n_chains = chains;
  s.seed = seed;
  return s;
}

std::unique_ptr<Soc> build_mixed_soc() {
  SocBuilder b(4);
  b.add_scan_core("alpha", spec(1, 2, 12));
  b.add_scan_core("beta", spec(2, 1, 8));
  b.add_scan_core("gamma", spec(3, 2, 16));
  b.add_bist_core("delta", spec(4, 1, 8), 200);
  return b.build();
}

TEST(ScheduleRunner, SpecsMatchSocGeometry) {
  auto soc = build_mixed_soc();
  const auto specs = specs_of(*soc, 2);
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].chains, (std::vector<std::size_t>{6, 6}));
  EXPECT_EQ(specs[0].patterns, 24u);
  EXPECT_EQ(specs[1].chains, (std::vector<std::size_t>{8}));
  EXPECT_EQ(specs[3].bist_cycles, 200u);
  EXPECT_FALSE(specs[3].is_scan());
}

class RunnerStrategies
    : public ::testing::TestWithParam<const char*> {};

TEST_P(RunnerStrategies, MeasuredMatchesPredictedWithinTolerance) {
  auto soc = build_mixed_soc();
  SocTester tester(*soc);
  const auto specs = specs_of(*soc, 1);
  sched::SessionScheduler scheduler(specs, 4);

  sched::Schedule schedule;
  const std::string which = GetParam();
  if (which == "single") schedule = scheduler.single_session();
  else if (which == "per_core") schedule = scheduler.per_core_sessions();
  else if (which == "greedy") schedule = scheduler.greedy();
  else schedule = scheduler.phased();

  const ScheduleRunReport report =
      run_schedule(*soc, tester, specs, schedule, 9);
  EXPECT_TRUE(report.all_pass) << which;
  EXPECT_EQ(report.sessions, schedule.sessions.size());
  // Analytic model vs simulator: the only unmodeled costs are the 2-cycle
  // BIST handshake margins and settle rounding — well under 5%.
  EXPECT_LT(report.deviation(), 0.05)
      << which << ": predicted " << report.predicted_cycles
      << " measured " << report.measured_cycles;
}

INSTANTIATE_TEST_SUITE_P(All, RunnerStrategies,
                         ::testing::Values("single", "per_core", "greedy",
                                           "phased"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

// --- Mutation oracle: corrupted BIST and MARCH signatures fail ------------
// The floor's scheduled scenarios run specs_of -> sched::schedule_with ->
// run_schedule; these drive that path on a SoC shaped like a floor BistJoin
// job (a logic-BIST engine, an embedded memory, scan cores on a 4-wire
// bus). Greedy keeps every BIST inside its own session, so the phased
// spanning-BIST carry (a known source of fault-free false fails) is not
// involved.

std::unique_ptr<Soc> build_bist_join_soc() {
  SocBuilder b(4);
  b.add_bist_core("lbist", spec(21, 1, 12), 96);
  b.add_memory_core("ram", 16, 8);
  b.add_scan_core("scan0", spec(22, 1, 10));
  b.add_scan_core("scan1", spec(23, 2, 12));
  return b.build();
}

ScheduleRunReport run_greedy(Soc& soc) {
  SocTester tester(soc);
  const auto specs = specs_of(soc);
  const sched::Schedule schedule = sched::schedule_with(
      specs, soc.bus().width(), sched::Strategy::Greedy);
  EXPECT_FALSE(schedule.bist_spans_sessions);
  return run_schedule(soc, tester, specs, schedule, 3);
}

TEST(ScheduleRunnerOracle, FaultFreeBistJoinSocPasses) {
  auto soc = build_bist_join_soc();
  const ScheduleRunReport report = run_greedy(*soc);
  EXPECT_TRUE(report.all_pass);
  EXPECT_GT(report.sessions, 0u);
}

TEST(ScheduleRunnerOracle, StuckNetInBistLogicFailsTheRun) {
  auto soc = build_bist_join_soc();
  // The spec is deterministic, so regenerating it yields the engine's net
  // numbering.
  const tpg::SyntheticCore logic = tpg::make_synthetic_core(spec(21, 1, 12));
  netlist::NetId ffq = netlist::kNoNet;
  for (const auto& [net, name] : logic.netlist.net_names())
    if (name == "ff_q0") ffq = net;
  ASSERT_NE(ffq, netlist::kNoNet);
  soc->cores()[0].as_bist().inject_fault(ffq, true);
  EXPECT_FALSE(run_greedy(*soc).all_pass);
}

TEST(ScheduleRunnerOracle, StuckMemoryBitFailsTheRun) {
  auto soc = build_bist_join_soc();
  soc->cores()[1].as_memory().inject_stuck_bit(5, 3, true);
  EXPECT_FALSE(run_greedy(*soc).all_pass);
}

TEST(ScheduleRunner, RejectsRailEmulation) {
  auto soc = build_mixed_soc();
  SocTester tester(*soc);
  const auto specs = specs_of(*soc, 1);
  sched::SessionScheduler scheduler(specs, 4);
  const sched::Schedule rails = scheduler.rail_emulation(2);
  EXPECT_FALSE(rails.chip_synchronous);
  EXPECT_THROW((void)run_schedule(*soc, tester, specs, rails, 1),
               PreconditionError);
}

TEST(ScheduleRunner, RejectsHierarchicalTopLevel) {
  SocBuilder b(4);
  b.add_hierarchical_core("h", 1, {{"c", spec(7, 1, 8)}});
  auto soc = b.build();
  EXPECT_THROW((void)specs_of(*soc, 1), PreconditionError);
}

TEST(ScheduleRunner, PhasedAppliesFullBudgetAcrossSessions) {
  // Each core's total applied pattern count must equal its spec budget,
  // even though phased splits it across sessions.
  auto soc = build_mixed_soc();
  SocTester tester(*soc);
  const auto specs = specs_of(*soc, 2);
  sched::SessionScheduler scheduler(specs, 4);
  const sched::Schedule schedule = scheduler.phased();
  ASSERT_GT(schedule.sessions.size(), 1u);

  const ScheduleRunReport report =
      run_schedule(*soc, tester, specs, schedule, 3);
  EXPECT_TRUE(report.all_pass);
  // Budget accounting: sum of session deltas equals the largest budget.
  std::size_t total_applied = 0;
  for (const auto& s : schedule.sessions) total_applied += s.patterns_applied;
  std::size_t max_budget = 0;
  for (const auto& c : specs) max_budget = std::max(max_budget, c.patterns);
  EXPECT_EQ(total_applied, max_budget);
}

}  // namespace
}  // namespace casbus::soc
