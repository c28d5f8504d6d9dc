#include "sim/simulation.hpp"

#include <sstream>

#include "sim/vcd.hpp"
#include "util/error.hpp"

namespace casbus::sim {

void Wire::set(Logic4 v) noexcept {
  if (v != value_) {
    value_ = v;
    sim_->note_change();
  }
}

std::uint64_t WireBundle::to_uint() const {
  CASBUS_REQUIRE(wires_.size() <= 64, "WireBundle::to_uint needs <= 64 bits");
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < wires_.size(); ++i)
    if (to_bool(wires_[i]->get())) v |= 1ULL << i;
  return v;
}

void WireBundle::set_uint(std::uint64_t v) {
  CASBUS_REQUIRE(wires_.size() <= 64, "WireBundle::set_uint needs <= 64 bits");
  for (std::size_t i = 0; i < wires_.size(); ++i)
    wires_[i]->set(to_logic((v >> i) & 1ULL));
}

void WireBundle::set_all(Logic4 v) {
  for (Wire* w : wires_) w->set(v);
}

std::string WireBundle::to_string() const {
  std::string s;
  s.reserve(wires_.size());
  for (const Wire* w : wires_) s.push_back(to_char(w->get()));
  return s;
}

Wire& Simulation::wire(std::string name, Logic4 init) {
  wires_.emplace_back(Wire(this, std::move(name), init));
  return wires_.back();
}

WireBundle Simulation::bundle(const std::string& base, std::size_t n,
                              Logic4 init) {
  WireBundle b;
  for (std::size_t i = 0; i < n; ++i) {
    std::ostringstream os;
    os << base << '[' << i << ']';
    b.push_back(&wire(os.str(), init));
  }
  return b;
}

void Simulation::add(Module* m) {
  CASBUS_REQUIRE(m != nullptr, "Simulation::add: null module");
  modules_.push_back(m);
}

void Simulation::reset() {
  cycle_ = 0;
  for (Module* m : modules_) m->reset();
}

void Simulation::settle() {
  ++counters_.settles;
  last_passes_ = 0;
  for (std::size_t pass = 0; pass < max_delta_; ++pass) {
    changes_ = 0;
    for (Module* m : modules_) m->evaluate();
    ++last_passes_;
    ++counters_.delta_passes;
    if (changes_ == 0) return;
  }
  std::ostringstream os;
  os << "combinational loop: simulation did not settle within " << max_delta_
     << " delta cycles at cycle " << cycle_;
  throw SimulationError(os.str());
}

void Simulation::step(std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) {
    settle();
    if (vcd_ != nullptr) vcd_->sample(cycle_);
    for (Module* m : modules_) m->tick();
    ++cycle_;
    ++counters_.cycles;
  }
}

}  // namespace casbus::sim
