#include "netlist/levelize.hpp"

#include <algorithm>
#include <queue>
#include <sstream>
#include <utility>

// Deliberate upward dependency (cpp-only, no header cycle), following the
// sched -> explore precedent in sched/scheduler.cpp: when levelization
// fails, the error should name the nets on the offending loop, and the
// cycle extractor lives in the verification layer. The casbus library is a
// single archive; if netlist ever needs to stand alone, this reporter call
// is the one seam to cut.
#include "verify/netlist_lint.hpp"

namespace casbus::netlist {

LevelizedNetlist::LevelizedNetlist(Netlist nl) : nl_(std::move(nl)) {
  nl_.validate();
  net_is_tri_.assign(nl_.net_count(), false);
  for (const Cell& c : nl_.cells())
    if (c.kind == CellKind::Tribuf) net_is_tri_[c.out] = true;

  for (CellId id = 0; id < nl_.cell_count(); ++id)
    if (is_sequential(nl_.cell(id).kind)) dff_cells_.push_back(id);

  for (std::size_t i = 0; i < nl_.inputs().size(); ++i)
    input_index_.emplace(nl_.inputs()[i].name, i);
  for (std::size_t i = 0; i < nl_.outputs().size(); ++i)
    output_index_.emplace(nl_.outputs()[i].name, i);

  levelize();
}

void LevelizedNetlist::levelize() {
  // Kahn's algorithm over combinational cells. A net is "ready" when all of
  // its drivers have been evaluated; source nets (primary inputs, DFF
  // outputs, undriven nets) are ready from the start.
  const std::size_t n_nets = nl_.net_count();
  std::vector<int> pending_drivers(n_nets, 0);
  std::vector<std::vector<CellId>> readers(n_nets);
  net_comb_drivers_.assign(n_nets, {});
  std::vector<int> cell_missing(nl_.cell_count(), 0);
  std::vector<std::size_t> cell_level(nl_.cell_count(), 0);
  std::vector<std::size_t> net_level(n_nets, 0);

  for (CellId id = 0; id < nl_.cell_count(); ++id) {
    const Cell& c = nl_.cell(id);
    if (is_sequential(c.kind)) continue;  // DFF outputs are sources
    ++pending_drivers[c.out];
    net_comb_drivers_[c.out].push_back(id);
    const int n_in = fanin(c.kind);
    for (int i = 0; i < n_in; ++i)
      readers[c.in[static_cast<std::size_t>(i)]].push_back(id);
  }
  for (CellId id = 0; id < nl_.cell_count(); ++id) {
    const Cell& c = nl_.cell(id);
    if (is_sequential(c.kind)) continue;
    int missing = 0;
    const int n_in = fanin(c.kind);
    for (int i = 0; i < n_in; ++i)
      if (pending_drivers[c.in[static_cast<std::size_t>(i)]] > 0) ++missing;
    cell_missing[id] = missing;
  }

  std::queue<CellId> ready;
  for (CellId id = 0; id < nl_.cell_count(); ++id) {
    const Cell& c = nl_.cell(id);
    if (!is_sequential(c.kind) && cell_missing[id] == 0) ready.push(id);
  }

  comb_order_.clear();
  while (!ready.empty()) {
    const CellId id = ready.front();
    ready.pop();
    comb_order_.push_back(id);
    const Cell& c = nl_.cell(id);
    std::size_t lvl = 0;
    const int n_in = fanin(c.kind);
    for (int i = 0; i < n_in; ++i)
      lvl = std::max(lvl, net_level[c.in[static_cast<std::size_t>(i)]]);
    cell_level[id] = lvl + 1;
    depth_ = std::max(depth_, cell_level[id]);

    net_level[c.out] = std::max(net_level[c.out], cell_level[id]);
    if (--pending_drivers[c.out] == 0) {
      for (CellId r : readers[c.out])
        if (--cell_missing[r] == 0) ready.push(r);
    }
  }

  std::size_t comb_cells = 0;
  for (const Cell& c : nl_.cells())
    if (!is_sequential(c.kind)) ++comb_cells;
  if (comb_order_.size() != comb_cells) {
    std::ostringstream os;
    os << "combinational cycle in netlist '" << nl_.name() << "': "
       << (comb_cells - comb_order_.size()) << " cells unplaceable";
    const std::string cycle = verify::describe_comb_cycle(nl_);
    if (!cycle.empty()) os << "; " << cycle;
    throw SimulationError(os.str());
  }
}

std::size_t LevelizedNetlist::input_index(const std::string& name) const {
  const auto it = input_index_.find(name);
  CASBUS_REQUIRE(it != input_index_.end(), "unknown primary input: " + name);
  return it->second;
}

std::size_t LevelizedNetlist::output_index(const std::string& name) const {
  const auto it = output_index_.find(name);
  CASBUS_REQUIRE(it != output_index_.end(),
                 "unknown primary output: " + name);
  return it->second;
}

std::shared_ptr<const LevelizedNetlist> levelize(Netlist nl) {
  return std::make_shared<const LevelizedNetlist>(std::move(nl));
}

}  // namespace casbus::netlist
