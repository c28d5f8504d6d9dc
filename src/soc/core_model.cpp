#include "soc/core_model.hpp"

#include <sstream>

namespace casbus::soc {

namespace {
Logic4 as_logic(const sim::Wire* w) {
  // Core models are 2-valued internally at their boundary: Z/X read as X
  // and are clamped by the gate simulator's own semantics.
  return w == nullptr ? Logic4::X : w->get();
}
}  // namespace

CorePortIndex::CorePortIndex(const netlist::GateSim& sim,
                             const tpg::SyntheticCoreSpec& spec) {
  const netlist::LevelizedNetlist& lev = *sim.levelized();
  for (std::size_t i = 0; i < spec.n_inputs; ++i)
    pi.push_back(lev.input_index("pi" + std::to_string(i)));
  for (std::size_t o = 0; o < spec.n_outputs; ++o)
    po.push_back(lev.output_index("po" + std::to_string(o)));
  for (std::size_t c = 0; c < spec.n_chains; ++c) {
    si.push_back(lev.input_index("si" + std::to_string(c)));
    so.push_back(lev.output_index("so" + std::to_string(c)));
  }
  scan_en = lev.input_index("scan_en");
}

NetlistCore::NetlistCore(sim::Simulation& sim_ctx, std::string name,
                         tpg::SyntheticCore core)
    : CoreModel(std::move(name)),
      core_(std::move(core)),
      sim_(core_.netlist),
      ports_(sim_, core_.spec) {
  const auto& spec = core_.spec;
  for (std::size_t i = 0; i < spec.n_inputs; ++i) {
    std::ostringstream os;
    os << this->name() << ".fin" << i;
    term_.func_in.push_back(&sim_ctx.wire(os.str(), Logic4::Zero));
  }
  for (std::size_t i = 0; i < spec.n_outputs; ++i) {
    std::ostringstream os;
    os << this->name() << ".fout" << i;
    term_.func_out.push_back(&sim_ctx.wire(os.str(), Logic4::Zero));
  }
  term_.scan_en = &sim_ctx.wire(this->name() + ".scan_en", Logic4::Zero);
  term_.core_clk_en =
      &sim_ctx.wire(this->name() + ".clk_en", Logic4::One);
  for (std::size_t c = 0; c < spec.n_chains; ++c) {
    std::ostringstream osi, oso;
    osi << this->name() << ".si" << c;
    oso << this->name() << ".so" << c;
    term_.scan_in.push_back(&sim_ctx.wire(osi.str(), Logic4::Zero));
    term_.scan_out.push_back(&sim_ctx.wire(oso.str(), Logic4::Zero));
    term_.chain_lengths.push_back(core_.chains[c].size());
  }
  sim_.plan_shift(ports_.scan_en, ports_.so);
  sim_.reset();
}

void NetlistCore::evaluate() {
  const auto drive = [this](std::size_t index, const sim::Wire* w) {
    const Logic4 v = as_logic(w);
    const Logic4 driven = is01(v) ? v : Logic4::Zero;
    sim_.set_input_index(index, driven);
    return driven;
  };
  for (std::size_t i = 0; i < ports_.pi.size(); ++i)
    drive(ports_.pi[i], term_.func_in[i]);
  const bool shifting = drive(ports_.scan_en, term_.scan_en) == Logic4::One;
  for (std::size_t c = 0; c < ports_.si.size(); ++c)
    drive(ports_.si[c], term_.scan_in[c]);
  sim_.eval();  // sweeps only if an input (or a force) changed
  if (!shifting)  // fout holds under scan_en (core_model.hpp)
    for (std::size_t i = 0; i < ports_.po.size(); ++i)
      term_.func_out[i]->set(sim_.output_index(ports_.po[i]));
  for (std::size_t c = 0; c < ports_.so.size(); ++c)
    term_.scan_out[c]->set(sim_.output_index(ports_.so[c]));
}

void NetlistCore::tick() {
  if (term_.core_clk_en->get() != Logic4::One) return;  // gated clock
  sim_.tick();
}

void NetlistCore::reset() { sim_.reset(); }

}  // namespace casbus::soc
