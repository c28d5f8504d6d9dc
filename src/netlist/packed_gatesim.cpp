#include "netlist/packed_gatesim.hpp"

#include <utility>

namespace casbus::netlist {

PackedGateSim::PackedGateSim(Netlist nl)
    : PackedGateSim(std::make_shared<const LevelizedNetlist>(std::move(nl))) {}

PackedGateSim::PackedGateSim(std::shared_ptr<const LevelizedNetlist> lev)
    : lev_(std::move(lev)) {
  CASBUS_REQUIRE(lev_ != nullptr, "PackedGateSim: null levelized netlist");
  net_val_.assign(nl().net_count(), kWordAllX);
  input_val_.assign(nl().inputs().size(), kWordAllX);
  dff_state_.assign(lev_->dff_cells().size(), kWordAllZero);
}

void PackedGateSim::reset(Logic4 state) {
  dff_state_.assign(lev_->dff_cells().size(), word_broadcast(state));
  input_val_.assign(nl().inputs().size(), kWordAllX);
  net_val_.assign(nl().net_count(), kWordAllX);
}

void PackedGateSim::set_input(const std::string& name, Logic64 v) {
  set_input_index(lev_->input_index(name), v);
}

void PackedGateSim::set_input_index(std::size_t index, Logic64 v) {
  CASBUS_REQUIRE(index < input_val_.size(), "input index out of range");
  input_val_[index] = v;
}

void PackedGateSim::set_input_lane(std::size_t index, unsigned lane,
                                   Logic4 v) {
  CASBUS_REQUIRE(index < input_val_.size(), "input index out of range");
  CASBUS_REQUIRE(lane < kLanes, "input lane out of range");
  set_input_index(index, word_set_lane(input_val_[index], lane, v));
}

Logic64 PackedGateSim::eval_cell(const Cell& c) const {
  const auto in = [&](int i) {
    return net_val_[c.in[static_cast<std::size_t>(i)]];
  };
  switch (c.kind) {
    case CellKind::Const0: return kWordAllZero;
    case CellKind::Const1: return kWordAllOne;
    case CellKind::Buf: return word_buf(in(0));
    case CellKind::Not: return word_not(in(0));
    case CellKind::And2: return word_and(in(0), in(1));
    case CellKind::Or2: return word_or(in(0), in(1));
    case CellKind::Nand2: return word_not(word_and(in(0), in(1)));
    case CellKind::Nor2: return word_not(word_or(in(0), in(1)));
    case CellKind::Xor2: return word_xor(in(0), in(1));
    case CellKind::Xnor2: return word_xnor(in(0), in(1));
    case CellKind::Mux2: return word_mux(in(2), in(0), in(1));
    case CellKind::Tribuf: return word_tribuf(in(1), in(0));
    case CellKind::Dff:
    case CellKind::Dffe: break;  // handled in tick()
  }
  CASBUS_ASSERT(false, "eval_cell on sequential cell");
  return kWordAllX;
}

void PackedGateSim::eval() {
  // Seed source nets exactly as the scalar simulator does, lane-wise:
  // tri-state nets start at Z, everything else at X, then primary inputs
  // and DFF outputs overwrite their nets and forces overwrite their lanes.
  const auto& dffs = lev_->dff_cells();
  for (NetId n = 0; n < net_val_.size(); ++n)
    net_val_[n] = lev_->net_is_tri(n) ? kWordAllZ : kWordAllX;
  for (std::size_t i = 0; i < nl().inputs().size(); ++i)
    net_val_[nl().inputs()[i].net] = input_val_[i];
  for (std::size_t i = 0; i < dffs.size(); ++i)
    net_val_[nl().cell(dffs[i]).out] = dff_state_[i];

  for (const NetId n : forced_)
    net_val_[n] = word_blend(net_val_[n], force_val_[n], force_mask_[n]);

  for (const CellId id : lev_->comb_order()) {
    const Cell& c = nl().cell(id);
    Logic64 v = eval_cell(c);
    if (lev_->net_is_tri(c.out)) v = word_resolve(net_val_[c.out], v);
    // Stuck lanes stay stuck: the forced value wins over the driver.
    if (has_forces() && force_on_[c.out])
      v = word_blend(v, force_val_[c.out], force_mask_[c.out]);
    net_val_[c.out] = v;
  }
  ++stats_.eval_passes;
  stats_.cell_evals += lev_->comb_order().size();
  stats_.sweep_cell_evals += lev_->comb_order().size();
}

void PackedGateSim::set_force(NetId net, Logic4 v, std::uint64_t lane_mask) {
  CASBUS_REQUIRE(net < nl().net_count(), "set_force: invalid net");
  if (force_on_.empty()) {
    force_on_.assign(nl().net_count(), false);
    force_val_.assign(nl().net_count(), kWordAllX);
    force_mask_.assign(nl().net_count(), 0);
  }
  if (!force_on_[net]) forced_.push_back(net);
  force_on_[net] = true;
  force_val_[net] = word_blend(force_val_[net], word_broadcast(v), lane_mask);
  force_mask_[net] |= lane_mask;
}

void PackedGateSim::clear_forces() {
  for (const NetId n : forced_) {
    force_on_[n] = false;
    force_mask_[n] = 0;
  }
  forced_.clear();
}

void PackedGateSim::tick() {
  const auto& dffs = lev_->dff_cells();
  std::vector<Logic64> next(dffs.size());
  for (std::size_t i = 0; i < dffs.size(); ++i) {
    const Cell& c = nl().cell(dffs[i]);
    const Logic64 d = net_val_[c.in[0]];
    if (c.kind == CellKind::Dff) {
      next[i] = word_dff_capture(d);
    } else {  // Dffe: capture where en=1, hold where en=0, X elsewhere
      const Logic64 en = net_val_[c.in[1]];
      const std::uint64_t e1 = word_is1(en);
      const std::uint64_t e0 = word_is0(en);
      const Logic64 cap = word_dff_capture(d);
      next[i] = {(e1 & cap.p0) | (e0 & dff_state_[i].p0) | ~(e0 | e1),
                 (e1 & cap.p1) | (e0 & dff_state_[i].p1) | ~(e0 | e1)};
    }
  }
  dff_state_ = std::move(next);
  eval();
}

Logic64 PackedGateSim::output(const std::string& name) const {
  return net_val_[nl().outputs()[lev_->output_index(name)].net];
}

Logic64 PackedGateSim::output_index(std::size_t index) const {
  CASBUS_REQUIRE(index < nl().outputs().size(), "output index out of range");
  return net_val_[nl().outputs()[index].net];
}

void PackedGateSim::set_dff_state(std::size_t i, Logic64 v) {
  CASBUS_REQUIRE(i < dff_state_.size(), "dff index out of range");
  dff_state_[i] = v;
}

void PackedGateSim::set_dff_lane(std::size_t i, unsigned lane, Logic4 v) {
  CASBUS_REQUIRE(i < dff_state_.size(), "dff index out of range");
  CASBUS_REQUIRE(lane < kLanes, "dff lane out of range");
  set_dff_state(i, word_set_lane(dff_state_[i], lane, v));
}

}  // namespace casbus::netlist
