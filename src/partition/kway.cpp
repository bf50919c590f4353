#include "partition/kway.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/error.hpp"
#include "common/indexed_heap.hpp"
#include "partition/partition.hpp"

namespace focus::partition {

using graph::Edge;
using graph::Graph;

namespace {

struct MoveRecord {
  NodeId node;
  PartId from;
  PartId to;
};

}  // namespace

Weight kway_kl_refine(const Graph& g, std::vector<PartId>& part, PartId parts,
                      const KwayConfig& config, double* work) {
  const std::size_t n = g.node_count();
  FOCUS_CHECK(part.size() == n, "partition size mismatch");
  FOCUS_CHECK(parts >= 1, "parts must be positive");
  FOCUS_CHECK(is_complete(part, parts), "k-way refine needs a complete partition");
  if (parts == 1 || n == 0) return 0;

  Weight cut = edge_cut(g, part);
  if (work != nullptr) *work += static_cast<double>(g.edge_count());

  std::vector<Weight> part_weight = part_node_weights(g, part, parts);

  // External cost and gain(v) = E(v) − I(v) under the current partition.
  // Work-free: callers charge g.degree(v) themselves.
  auto external_of = [&](NodeId v) {
    Weight e = 0;
    for (const Edge& edge : g.neighbors(v)) {
      if (part[edge.to] != part[v]) e += edge.weight;
    }
    return e;
  };
  auto gain_of = [&](NodeId v) {
    Weight e = 0, i = 0;
    for (const Edge& edge : g.neighbors(v)) {
      if (part[edge.to] == part[v]) {
        i += edge.weight;
      } else {
        e += edge.weight;
      }
    }
    return e - i;
  };

  std::vector<bool> locked(n);
  std::unordered_map<PartId, Weight> to_part;

  for (std::size_t pass = 0; pass < config.max_passes; ++pass) {
    IndexedMaxHeap<Weight> queue(n);
    std::fill(locked.begin(), locked.end(), false);
    for (NodeId v = 0; v < n; ++v) {
      const Weight external = external_of(v);
      if (work != nullptr) *work += static_cast<double>(g.degree(v));
      if (external > 0) {
        if (work != nullptr) *work += static_cast<double>(g.degree(v));
        queue.push(v, gain_of(v));
      }
    }

    std::vector<MoveRecord> moves;
    Weight running = 0;
    Weight best_sum = 0;
    std::size_t best_index = 0;
    std::size_t idle = 0;

    while (!queue.empty()) {
      const NodeId v = queue.pop();
      if (locked[v]) continue;

      // External cost toward each adjacent partition.
      to_part.clear();
      Weight internal = 0;
      const PartId from = part[v];
      for (const Edge& edge : g.neighbors(v)) {
        if (part[edge.to] == from) {
          internal += edge.weight;
        } else {
          to_part[part[edge.to]] += edge.weight;
        }
      }
      if (work != nullptr) *work += static_cast<double>(g.degree(v));

      // Best admissible target (max external cost; ties to lower part id).
      PartId target = kNoPart;
      Weight target_cost = 0;
      for (PartId p = 0; p < parts; ++p) {
        const auto it = to_part.find(p);
        if (it == to_part.end()) continue;
        if (static_cast<double>(
                part_weight[static_cast<std::size_t>(p)]) >=
            config.balance_bound *
                static_cast<double>(
                    part_weight[static_cast<std::size_t>(from)])) {
          continue;
        }
        if (target == kNoPart || it->second > target_cost) {
          target = p;
          target_cost = it->second;
        }
      }
      if (target == kNoPart) continue;

      // Execute the move.
      part[v] = target;
      locked[v] = true;
      part_weight[static_cast<std::size_t>(from)] -= g.node_weight(v);
      part_weight[static_cast<std::size_t>(target)] += g.node_weight(v);
      const Weight realized = target_cost - internal;  // edge-cut reduction
      running += realized;
      moves.push_back(MoveRecord{v, from, target});

      // Refresh unlocked neighbors' gains (they may enter or leave the
      // boundary).
      for (const Edge& edge : g.neighbors(v)) {
        if (locked[edge.to]) continue;
        const Weight external = external_of(edge.to);
        if (work != nullptr) {
          *work += static_cast<double>(g.degree(edge.to));
        }
        if (external > 0) {
          if (work != nullptr) {
            *work += static_cast<double>(g.degree(edge.to));
          }
          queue.push_or_update(edge.to, gain_of(edge.to));
        } else if (queue.contains(edge.to)) {
          queue.erase(edge.to);
        }
      }

      if (running > best_sum) {
        best_sum = running;
        best_index = moves.size();
        idle = 0;
      } else if (++idle >= config.idle_move_limit) {
        break;
      }
    }

    // Undo moves beyond the maximal partial sum.
    for (std::size_t m = moves.size(); m > best_index; --m) {
      const MoveRecord& rec = moves[m - 1];
      part[rec.node] = rec.from;
      part_weight[static_cast<std::size_t>(rec.to)] -= g.node_weight(rec.node);
      part_weight[static_cast<std::size_t>(rec.from)] += g.node_weight(rec.node);
    }
    if (best_sum <= 0) break;
    cut -= best_sum;
  }
  FOCUS_ASSERT(cut == edge_cut(g, part), "tracked k-way cut diverged");
  return cut;
}

}  // namespace focus::partition
