#include "graph/memory_plan.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace rangerpp::graph {

MemoryPlan plan_memory(const Graph& g,
                       const std::vector<tensor::Shape>& shapes) {
  const std::size_t n = g.size();
  if (shapes.size() != n)
    throw std::invalid_argument("plan_memory: shapes do not match graph");

  MemoryPlan mp;
  mp.release_after.assign(n, {});

  // Lifetime [i, last_use[i]] per node over the topological schedule.
  const NodeId output = g.output();
  std::vector<std::size_t> last_use(n, 0);
  std::vector<std::uint8_t> droppable(n, 1);
  for (const Node& node : g.nodes()) {
    const auto i = static_cast<std::size_t>(node.id);
    const ops::OpKind k = node.op->kind();
    // Inputs stay live (peak_arena_bytes counts them for the whole run),
    // Consts live in the plan, and the graph output is the result.
    if (k == ops::OpKind::kInput || k == ops::OpKind::kConst ||
        node.id == output)
      droppable[i] = 0;
    last_use[i] = i;  // a value with no consumers dies where it is born
    for (const NodeId in : node.inputs)
      last_use[static_cast<std::size_t>(in)] =
          std::max(last_use[static_cast<std::size_t>(in)], i);
  }
  std::vector<std::vector<NodeId>> dies_at(n);
  for (std::size_t i = 0; i < n; ++i)
    if (droppable[i]) dies_at[last_use[i]].push_back(static_cast<NodeId>(i));

  const auto bytes_of = [&shapes](std::size_t i) {
    return shapes[i].elements() * sizeof(float);
  };

  // Simulated greedy allocator: at each definition take the free slot
  // with the smallest sufficient high-water size, else grow the largest
  // free slot, else open a new one.  The sum of final slot sizes is what
  // a real aliasing arena would reserve for droppable activations.
  struct Slot {
    std::size_t bytes = 0;
    bool free = true;
  };
  std::vector<Slot> slot_pool;
  constexpr std::size_t kNoSlot = MemoryPlan::kNoSlot;
  std::vector<std::size_t>& slot_of = mp.slot_of;
  slot_of.assign(n, kNoSlot);

  for (std::size_t i = 0; i < n; ++i) {
    const bool is_const = g.node(static_cast<NodeId>(i)).op->kind() ==
                          ops::OpKind::kConst;
    if (!is_const) mp.unplanned_bytes += bytes_of(i);
    if (droppable[i]) {
      const std::size_t need = bytes_of(i);
      std::size_t best = kNoSlot, grow = kNoSlot;
      for (std::size_t s = 0; s < slot_pool.size(); ++s) {
        if (!slot_pool[s].free) continue;
        if (slot_pool[s].bytes >= need &&
            (best == kNoSlot || slot_pool[s].bytes < slot_pool[best].bytes))
          best = s;
        if (grow == kNoSlot || slot_pool[s].bytes > slot_pool[grow].bytes)
          grow = s;
      }
      const std::size_t chosen = best != kNoSlot ? best : grow;
      if (chosen != kNoSlot) {
        slot_pool[chosen].free = false;
        slot_pool[chosen].bytes = std::max(slot_pool[chosen].bytes, need);
        slot_of[i] = chosen;
      } else {
        slot_pool.push_back(Slot{need, false});
        slot_of[i] = slot_pool.size() - 1;
      }
    } else if (!is_const) {
      // Retained activations (Inputs, the output) are arena residents in
      // either mode.
      mp.peak_arena_bytes += bytes_of(i);
    }
    for (const NodeId d : dies_at[i]) {
      mp.release_after[i].push_back(d);
      slot_pool[slot_of[static_cast<std::size_t>(d)]].free = true;
    }
  }

  for (const Slot& s : slot_pool) mp.peak_arena_bytes += s.bytes;
  mp.slot_bytes.reserve(slot_pool.size());
  for (const Slot& s : slot_pool) mp.slot_bytes.push_back(s.bytes);
  mp.slots = slot_pool.size();
  return mp;
}

}  // namespace rangerpp::graph
