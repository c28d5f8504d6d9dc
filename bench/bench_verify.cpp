/// \file bench_verify.cpp
/// V1 — Cost of the static verification layer: the Verify stage sits in
/// front of every cycle-accurate Simulate in the floor pipeline, so its
/// price has to stay in the microsecond range or the "reject bad designs
/// cheaply" argument inverts. This harness measures both linter heads:
///
///   - netlist lint over synthetic scan cores and composed CAS-BUS / full
///     TAM netlists of growing size (metric: microseconds per gate and per
///     design — the per-gate figure should be flat, the sweep is the
///     linearity check),
///   - schedule lint over generated SoC populations of 10 / 100 / 1000
///     cores across strategies (metric: microseconds per session and per
///     design).
///
/// Artifact: BENCH_verify.json (schema-checked in CI by check_bench.py,
/// like every other bench artifact).

#include <chrono>
#include <cstddef>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/casbus_netlist.hpp"
#include "core/complete_tam.hpp"
#include "explore/soc_generator.hpp"
#include "sched/scheduler.hpp"
#include "tpg/synthcore.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "verify/netlist_lint.hpp"
#include "verify/schedule_lint.hpp"

namespace {

using namespace casbus;
using bench::JsonReporter;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Repeats \p fn until ~20ms have elapsed (at least 3 runs) and returns
/// mean seconds per run — enough repetition to de-noise microsecond-scale
/// lint passes without a heavyweight stats harness.
template <typename Fn>
double time_per_run(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  std::size_t runs = 0;
  double elapsed = 0.0;
  do {
    fn();
    ++runs;
    elapsed = seconds_since(start);
  } while (elapsed < 0.02 || runs < 3);
  return elapsed / static_cast<double>(runs);
}

}  // namespace

int main() {
  bench::banner("V1", "Static verification layer cost");
  JsonReporter rep("verify");

  // --- Head 1: netlist lint, size sweep ---------------------------------
  Table nl_table({"design", "cells", "diags", "lint us", "us/gate"},
                 {Align::Left, Align::Right, Align::Right, Align::Right,
                  Align::Right});

  struct NetlistCase {
    std::string name;
    netlist::Netlist netlist;
    verify::NetlistLintConfig config;
  };
  std::vector<NetlistCase> cases;

  for (const std::size_t ffs : {32u, 128u, 512u}) {
    tpg::SyntheticCoreSpec spec;
    spec.n_inputs = 8;
    spec.n_outputs = 8;
    spec.n_flipflops = ffs;
    spec.n_gates = 4 * ffs;
    spec.n_chains = 4;
    spec.seed = 7;
    tpg::SyntheticCore core = tpg::make_synthetic_core(spec);
    verify::NetlistLintConfig config;
    for (std::size_t c = 0; c < core.chains.size(); ++c)
      config.scan_chains.push_back(verify::ScanChainSpec{
          "si" + std::to_string(c), "so" + std::to_string(c),
          core.chains[c].size()});
    cases.push_back(NetlistCase{"core_ff" + std::to_string(ffs),
                                std::move(core.netlist),
                                std::move(config)});
  }
  for (const unsigned width : {4u, 8u}) {
    tam::CasBusNetlistSpec spec;
    spec.width = width;
    spec.ports_per_cas.assign(width / 2, 2);
    spec.run_optimizer = true;
    cases.push_back(NetlistCase{"casbus_n" + std::to_string(width),
                                tam::generate_casbus_netlist(spec).netlist,
                                {}});
  }
  {
    tam::CompleteTamSpec spec;
    spec.width = 6;
    for (const unsigned chains : {2u, 3u, 1u}) {
      p1500::WrapperSpec w;
      w.n_func_in = 4;
      w.n_func_out = 4;
      w.n_chains = chains;
      spec.wrappers.push_back(w);
    }
    cases.push_back(NetlistCase{
        "complete_tam_n6", generate_complete_tam(spec).netlist, {}});
  }

  for (const NetlistCase& c : cases) {
    const verify::LintReport report =
        verify::lint_netlist(c.netlist, c.config);
    const double secs = time_per_run(
        [&] { (void)verify::lint_netlist(c.netlist, c.config); });
    const double us = secs * 1e6;
    const double us_per_gate =
        us / static_cast<double>(c.netlist.cell_count());
    nl_table.add_row({c.name, std::to_string(c.netlist.cell_count()),
                  std::to_string(report.diagnostics.size()),
                  format_double(us, 1), format_double(us_per_gate, 4)});
    const JsonReporter::Params params = {
        {"design", c.name},
        {"cells", std::to_string(c.netlist.cell_count())}};
    rep.record("netlist_lint", params, "lint_us", us);
    rep.record("netlist_lint", params, "us_per_gate", us_per_gate);
    rep.record("netlist_lint", params, "diagnostics",
               static_cast<std::uint64_t>(report.diagnostics.size()));
  }
  nl_table.print(std::cout);

  // --- Head 2: schedule lint, population sweep ---------------------------
  std::cout << "\n";
  Table sc_table(
      {"cores", "strategy", "sessions", "lint us", "us/session"},
      {Align::Right, Align::Left, Align::Right, Align::Right, Align::Right});

  const explore::SocGenerator generator(2000);
  for (const std::size_t n :
       {std::size_t{10}, std::size_t{100}, std::size_t{1000}}) {
    const explore::GeneratedSoc soc =
        generator.generate(n, explore::SocProfile::Mixed);
    for (const sched::Strategy strategy :
         {sched::Strategy::Greedy, sched::Strategy::PerCore}) {
      const sched::Schedule schedule = sched::schedule_with(
          soc.cores, soc.suggested_width, strategy);
      const verify::LintReport report =
          verify::lint_schedule(schedule, soc.cores, soc.suggested_width);
      if (!report.clean())
        std::cerr << "unexpected diagnostics on " << soc.name << ":\n"
                  << report.to_string();
      const double secs = time_per_run([&] {
        (void)verify::lint_schedule(schedule, soc.cores,
                                    soc.suggested_width);
      });
      const double us = secs * 1e6;
      const double us_per_session =
          us / static_cast<double>(schedule.sessions.size());
      sc_table.add_row({std::to_string(n), sched::strategy_name(strategy),
                    std::to_string(schedule.sessions.size()),
                    format_double(us, 1), format_double(us_per_session, 2)});
      const JsonReporter::Params params = {
          {"cores", std::to_string(n)},
          {"strategy", sched::strategy_name(strategy)},
          {"sessions", std::to_string(schedule.sessions.size())}};
      rep.record("schedule_lint", params, "lint_us", us);
      rep.record("schedule_lint", params, "us_per_session",
                 us_per_session);
      rep.record("schedule_lint", params, "diagnostics",
                 static_cast<std::uint64_t>(report.diagnostics.size()));
    }
  }
  sc_table.print(std::cout);

  std::cout << "\nwrote " << rep.path() << " (" << rep.size()
            << " records)\n";
  return 0;
}
