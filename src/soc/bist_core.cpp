#include "soc/bist_core.hpp"

#include <algorithm>

namespace casbus::soc {

namespace {

unsigned clamp_width(std::size_t n, unsigned lo, unsigned hi) {
  return static_cast<unsigned>(std::min<std::size_t>(
      std::max<std::size_t>(n, lo), hi));
}

}  // namespace

BistCore::BistCore(sim::Simulation& sim_ctx, std::string name,
                   const tpg::SyntheticCoreSpec& logic_spec,
                   std::uint32_t cycles)
    : CoreModel(std::move(name)),
      core_(tpg::make_synthetic_core(logic_spec)),
      sim_(core_.netlist),
      ports_(sim_, core_.spec),
      cycles_(cycles),
      lfsr_width_(clamp_width(logic_spec.n_inputs, 2, 32)),
      misr_width_(clamp_width(logic_spec.n_outputs, 1, 32)) {
  CASBUS_REQUIRE(cycles_ >= 1, "BistCore: session must be >= 1 cycle");
  term_.bist_start = &sim_ctx.wire(this->name() + ".bist_start",
                                   Logic4::Zero);
  term_.bist_done = &sim_ctx.wire(this->name() + ".bist_done", Logic4::Zero);
  term_.bist_pass = &sim_ctx.wire(this->name() + ".bist_pass", Logic4::Zero);
  term_.core_clk_en = &sim_ctx.wire(this->name() + ".clk_en", Logic4::One);
  golden_ = run_reference();
}

std::uint32_t BistCore::run_reference() {
  // A private fault-free simulator sharing the levelization, so the
  // engine's own simulator (and its work counters) only sees sessions.
  netlist::GateSim ref(sim_.levelized());
  tpg::Lfsr lfsr = tpg::Lfsr::standard(lfsr_width_, 1);
  tpg::Misr misr(misr_width_);
  for (std::uint32_t c = 0; c < cycles_; ++c) bist_cycle(ref, lfsr, misr);
  return misr.signature();
}

void BistCore::bist_cycle(netlist::GateSim& sim, tpg::Lfsr& lfsr,
                          tpg::Misr& misr) {
  const std::uint32_t word = lfsr.state();
  for (std::size_t i = 0; i < ports_.pi.size(); ++i)
    sim.set_input_index(
        ports_.pi[i], to_logic(((word >> (i % lfsr_width_)) & 1u) != 0));
  sim.set_input_index(ports_.scan_en, Logic4::Zero);
  for (const std::size_t si : ports_.si)
    sim.set_input_index(si, Logic4::Zero);
  sim.eval();
  std::uint32_t resp = 0;
  for (std::size_t o = 0; o < ports_.po.size(); ++o)
    if (sim.output_index(ports_.po[o]) == Logic4::One)
      resp ^= 1u << (o % misr_width_);
  misr.feed_word(resp);
  sim.tick();
  lfsr.step();
}

void BistCore::evaluate() {
  term_.bist_done->set(done_);
  term_.bist_pass->set(done_ && pass_);
}

void BistCore::tick() {
  if (term_.core_clk_en->get() != Logic4::One) return;

  const bool start = term_.bist_start->get() == Logic4::One;
  if (start && !start_seen_ && !running_) {
    // Rising edge launches a session.
    running_ = true;
    done_ = false;
    pass_ = false;
    elapsed_ = 0;
    sim_.reset();
    lfsr_.emplace(tpg::Lfsr::standard(lfsr_width_, 1));
    misr_.emplace(misr_width_);
  }
  start_seen_ = start;
  if (!running_) return;

  bist_cycle(sim_, *lfsr_, *misr_);

  if (++elapsed_ >= cycles_) {
    running_ = false;
    done_ = true;
    pass_ = misr_->signature() == golden_;
  }
}

void BistCore::reset() {
  running_ = false;
  done_ = false;
  pass_ = false;
  start_seen_ = false;
  elapsed_ = 0;
  sim_.reset();
}

void BistCore::inject_fault(netlist::NetId net, bool stuck_one) {
  sim_.set_force(net, to_logic(stuck_one));
}

void BistCore::clear_faults() { sim_.clear_forces(); }

}  // namespace casbus::soc
