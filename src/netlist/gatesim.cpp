#include "netlist/gatesim.hpp"

#include <utility>

namespace casbus::netlist {

GateSim::GateSim(Netlist nl)
    : GateSim(std::make_shared<const LevelizedNetlist>(std::move(nl))) {}

GateSim::GateSim(std::shared_ptr<const LevelizedNetlist> lev)
    : lev_(std::move(lev)) {
  CASBUS_REQUIRE(lev_ != nullptr, "GateSim: null levelized netlist");
  net_val_.assign(nl().net_count(), Logic4::X);
  input_val_.assign(nl().inputs().size(), Logic4::X);
  dff_state_.assign(lev_->dff_cells().size(), Logic4::Zero);
  dff_next_.resize(dff_state_.size());
  output_planned_.assign(nl().outputs().size(), false);
}

void GateSim::plan_shift(std::size_t scan_en,
                         const std::vector<std::size_t>& observed) {
  CASBUS_REQUIRE(scan_en < input_val_.size(),
                 "plan_shift: scan_en index out of range");
  const Netlist& n = nl();
  const NetId se = n.inputs()[scan_en].net;

  // Backward cone walk from the nets a shift clock reads. Each net is
  // visited once, and each cell drives one net, so each cell once.
  std::vector<bool> in_cone(n.net_count(), false);
  std::vector<bool> planned(n.cell_count(), false);
  std::vector<NetId> todo;
  const auto visit = [&](NetId net) {
    if (in_cone[net]) return;
    in_cone[net] = true;
    todo.push_back(net);
  };
  for (const CellId id : lev_->dff_cells()) {
    const Cell& c = n.cell(id);
    visit(c.in[0]);
    if (c.kind == CellKind::Dffe) visit(c.in[1]);
  }
  for (const std::size_t o : observed) {
    CASBUS_REQUIRE(o < n.outputs().size(),
                   "plan_shift: output index out of range");
    visit(n.outputs()[o].net);
  }
  while (!todo.empty()) {
    const NetId net = todo.back();
    todo.pop_back();
    for (const CellId id : lev_->comb_drivers(net)) {
      planned[id] = true;
      const Cell& c = n.cell(id);
      if (c.kind == CellKind::Mux2 && c.in[2] == se) {
        visit(c.in[1]);  // scan_en = One selects in(1); in(0) is not read
        visit(c.in[2]);
        continue;
      }
      for (int i = 0; i < fanin(c.kind); ++i)
        visit(c.in[static_cast<std::size_t>(i)]);
    }
  }

  // A plan sweep re-seeds the cone nets a full sweep would not overwrite
  // anyway: tri-state nets (start at Z) and undriven non-source nets (X).
  std::vector<bool> source(n.net_count(), false);
  for (const Port& p : n.inputs()) source[p.net] = true;
  for (const CellId id : lev_->dff_cells()) source[n.cell(id).out] = true;
  plan_reset_.clear();
  for (NetId net = 0; net < n.net_count(); ++net)
    if (in_cone[net] && (lev_->net_is_tri(net) ||
                         (lev_->comb_drivers(net).empty() && !source[net])))
      plan_reset_.push_back(net);
  plan_cells_.clear();
  for (const CellId id : lev_->comb_order())
    if (planned[id]) plan_cells_.push_back(id);
  for (std::size_t o = 0; o < n.outputs().size(); ++o)
    output_planned_[o] = in_cone[n.outputs()[o].net];
  plan_scan_en_ = scan_en;
  dirty_ = true;  // values settled under an earlier plan mean nothing now
}

void GateSim::reset(Logic4 state) {
  dff_state_.assign(lev_->dff_cells().size(), state);
  input_val_.assign(nl().inputs().size(), Logic4::X);
  dirty_ = true;
}

void GateSim::set_input(const std::string& name, Logic4 v) {
  set_input_index(lev_->input_index(name), v);
}

void GateSim::set_input_index(std::size_t index, Logic4 v) {
  CASBUS_REQUIRE(index < input_val_.size(), "input index out of range");
  if (input_val_[index] == v) return;
  input_val_[index] = v;
  dirty_ = true;
}

Logic4 GateSim::eval_cell(const Cell& c) const {
  const auto in = [&](int i) {
    return net_val_[c.in[static_cast<std::size_t>(i)]];
  };
  switch (c.kind) {
    case CellKind::Const0: return Logic4::Zero;
    case CellKind::Const1: return Logic4::One;
    case CellKind::Buf: return is01(in(0)) ? in(0) : Logic4::X;
    case CellKind::Not: return logic_not(in(0));
    case CellKind::And2: return logic_and(in(0), in(1));
    case CellKind::Or2: return logic_or(in(0), in(1));
    case CellKind::Nand2: return logic_not(logic_and(in(0), in(1)));
    case CellKind::Nor2: return logic_not(logic_or(in(0), in(1)));
    case CellKind::Xor2: return logic_xor(in(0), in(1));
    case CellKind::Xnor2: return logic_not(logic_xor(in(0), in(1)));
    case CellKind::Mux2: return logic_mux(in(2), in(0), in(1));
    case CellKind::Tribuf: return logic_tribuf(in(1), in(0));
    case CellKind::Dff:
    case CellKind::Dffe: break;  // handled in tick()
  }
  CASBUS_ASSERT(false, "eval_cell on sequential cell");
  return Logic4::X;
}

void GateSim::eval() {
  ++eval_requests_;
  eval_if_dirty();
}

void GateSim::sweep(bool full) {
  ++sweeps_;
  dirty_ = false;
  stale_ = !full && shifting();
  // Seed source nets: primary inputs and DFF outputs; tri-state nets start
  // at Z and accumulate driver resolution; everything else gets X until its
  // single driver is evaluated. A plan sweep does the same for the plan's
  // cone and leaves every other net stale.
  const auto& dffs = lev_->dff_cells();
  if (stale_) {
    for (const NetId n : plan_reset_)
      net_val_[n] = lev_->net_is_tri(n) ? Logic4::Z : Logic4::X;
  } else {
    for (NetId n = 0; n < net_val_.size(); ++n)
      net_val_[n] = lev_->net_is_tri(n) ? Logic4::Z : Logic4::X;
  }
  for (std::size_t i = 0; i < nl().inputs().size(); ++i)
    net_val_[nl().inputs()[i].net] = input_val_[i];
  for (std::size_t i = 0; i < dffs.size(); ++i)
    net_val_[nl().cell(dffs[i]).out] = dff_state_[i];

  if (has_forces()) {  // never in a plan sweep
    for (NetId n = 0; n < net_val_.size(); ++n)
      if (force_on_[n]) net_val_[n] = force_[n];
  }

  const std::vector<CellId>& cells = stale_ ? plan_cells_ : lev_->comb_order();
  cell_evals_ += cells.size();
  for (const CellId id : cells) {
    const Cell& c = nl().cell(id);
    const Logic4 v = eval_cell(c);
    if (has_forces() && force_on_[c.out]) continue;  // stuck net stays stuck
    if (lev_->net_is_tri(c.out))
      net_val_[c.out] = resolve(net_val_[c.out], v);
    else
      net_val_[c.out] = v;
  }
}

void GateSim::set_force(NetId net, Logic4 v) {
  CASBUS_REQUIRE(net < nl().net_count(), "set_force: invalid net");
  if (force_on_.empty()) {
    force_on_.assign(nl().net_count(), false);
    force_.assign(nl().net_count(), Logic4::X);
  }
  if (!force_on_[net]) ++n_forces_;
  force_on_[net] = true;
  force_[net] = v;
  dirty_ = true;
}

void GateSim::clear_forces() {
  if (n_forces_ == 0) return;
  force_on_.assign(nl().net_count(), false);
  n_forces_ = 0;
  dirty_ = true;
}

void GateSim::tick() {
  // Capture all D inputs simultaneously from the settled combinational
  // values (D and enable pins are inside any shift plan); propagating the
  // new state is left to the next eval or read.
  eval_if_dirty();
  const auto& dffs = lev_->dff_cells();
  for (std::size_t i = 0; i < dffs.size(); ++i) {
    const Cell& c = nl().cell(dffs[i]);
    const Logic4 d = net_val_[c.in[0]];
    if (c.kind == CellKind::Dff) {
      dff_next_[i] = is01(d) ? d : Logic4::X;
    } else {  // Dffe
      const Logic4 en = net_val_[c.in[1]];
      if (en == Logic4::One)
        dff_next_[i] = is01(d) ? d : Logic4::X;
      else if (en == Logic4::Zero)
        dff_next_[i] = dff_state_[i];
      else
        dff_next_[i] = Logic4::X;
    }
  }
  dff_state_.swap(dff_next_);
  dirty_ = true;
}

Logic4 GateSim::output(const std::string& name) {
  return output_index(lev_->output_index(name));
}

Logic4 GateSim::output_index(std::size_t index) {
  CASBUS_REQUIRE(index < nl().outputs().size(), "output index out of range");
  if (output_planned_[index])
    eval_if_dirty();
  else
    eval_all();
  return net_val_[nl().outputs()[index].net];
}

void GateSim::set_dff_state(std::size_t i, Logic4 v) {
  CASBUS_REQUIRE(i < dff_state_.size(), "dff index out of range");
  if (dff_state_[i] == v) return;
  dff_state_[i] = v;
  dirty_ = true;
}

}  // namespace casbus::netlist
