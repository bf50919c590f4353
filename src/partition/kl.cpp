#include "partition/kl.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/error.hpp"
#include "partition/partition.hpp"

namespace focus::partition {

using graph::Edge;
using graph::Graph;

namespace {

struct SwapRecord {
  NodeId a;  // moved side 0 -> 1
  NodeId b;  // moved side 1 -> 0
  Weight gain;
};

struct NodeD {
  NodeId node;
  Weight d;
};

// Candidate best pair from one pair-search round. (i, j) are the pair's
// indices into the sorted side arrays; together with dsum they carry the
// tie-break key of the total order below.
struct BestPair {
  bool found = false;
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  Weight gain = 0;
  Weight dsum = 0;
  std::size_t i = 0, j = 0;
};

// Total order shared by every pair-search strategy: larger gain wins, ties
// break toward the larger D-sum, then the smaller side-0 index, then the
// smaller side-1 index. The side arrays are sorted by the total order
// (D desc, node id asc), so the key is a pure function of (graph, part) —
// independent of the strategy, the chunking, and the standard library.
//
// Why index order and not plain node-id order: gain == D-sum for every
// zero-weight (non-adjacent) pair, so when the winning gain lands on an
// equal-D-sum plateau, *all* non-adjacent pairs on the plateau tie. A
// node-id tie-break would force every strategy to enumerate the whole
// plateau (measured ~5x total KL work on the Fig. 4 graph sets); breaking
// ties in diagonal-enumeration order instead lets the scans keep their
// cannot-beat-or-tie cutoff, because every pair the cutoff prunes compares
// strictly below the incumbent under this order.
bool improves(const BestPair& best, Weight gain, Weight dsum, std::size_t i,
              std::size_t j) {
  if (!best.found) return true;
  if (gain != best.gain) return gain > best.gain;
  if (dsum != best.dsum) return dsum > best.dsum;
  if (i != best.i) return i < best.i;
  return j < best.j;
}

// The paper's scheme: sort each side by D descending, enumerate pairs in
// decreasing D-sum order via a heap (diagonal scanning), stop once the next
// D-sum cannot beat or tie the best gain found. The cutoff may fire on
// dsum == best.gain: a pair there can at best tie the incumbent's gain with
// an equal-or-smaller D-sum and a later enumeration position, which loses
// the total order.
BestPair diagonal_scan_best_pair(const Graph& g,
                                 const std::vector<NodeD>& side0,
                                 const std::vector<NodeD>& side1,
                                 double* work) {
  BestPair best;
  if (side0.empty() || side1.empty()) return best;

  struct HeapEntry {
    Weight dsum;
    std::uint32_t i, j;
    // Total order: pop by descending D-sum, ties by ascending (i, j). A
    // comparator that looked only at dsum would leave the pop order of
    // equal-dsum entries implementation-defined (it varies between
    // libstdc++ and libc++ heap layouts) — with the total order the popped
    // maximum is unique, so the scan order is the same on every stdlib.
    bool operator<(const HeapEntry& other) const {
      if (dsum != other.dsum) return dsum < other.dsum;
      if (i != other.i) return i > other.i;
      return j > other.j;
    }
  };
  std::priority_queue<HeapEntry> heap;
  heap.push(HeapEntry{side0[0].d + side1[0].d, 0, 0});

  while (!heap.empty()) {
    const HeapEntry top = heap.top();
    heap.pop();
    if (work != nullptr) *work += std::log2(static_cast<double>(heap.size()) + 2.0);
    if (best.found && top.dsum <= best.gain) break;  // no pair can win
    const NodeId a = side0[top.i].node;
    const NodeId b = side1[top.j].node;
    const Weight gain = top.dsum - 2 * g.edge_weight(a, b);
    if (work != nullptr) {
      *work += std::log2(static_cast<double>(g.degree(a)) + 2.0);
    }
    if (improves(best, gain, top.dsum, top.i, top.j)) {
      best.found = true;
      best.a = a;
      best.b = b;
      best.gain = gain;
      best.dsum = top.dsum;
      best.i = top.i;
      best.j = top.j;
    }
    if (top.i + 1 < side0.size()) {
      heap.push(HeapEntry{side0[top.i + 1].d + side1[top.j].d, top.i + 1,
                          top.j});
    }
    if (top.i == 0 && top.j + 1 < side1.size()) {
      heap.push(HeapEntry{side0[top.i].d + side1[top.j + 1].d, 0, top.j + 1});
    }
  }
  return best;
}

/// Side-0 rows per chunk of the chunked pair search. The decomposition is a
/// pure function of the row count.
constexpr std::size_t kPairChunkRows = 64;

// Chunked bounded scan. Each chunk of side-0 rows scans side-1 in D order
// and stops a row (or the whole chunk, since rows are sorted by D
// descending) as soon as the D-sum can no longer beat or tie the
// chunk-local best, which is seeded with the top D-sum pair so pruning is
// active from the first row. Chunk-local pruning never drops a global
// winner: a pruned pair has gain <= dsum <= local best gain, and on
// equality it ties the local best's gain at an equal-or-smaller D-sum and a
// later (i, j) — strictly below it in the total order. The chunk winners
// are reduced in chunk order; the work charge is one unit per evaluated
// pair (whole counts, exact in a double).
BestPair chunked_best_pair(const Graph& g, const std::vector<NodeD>& side0,
                           const std::vector<NodeD>& side1, double* work) {
  BestPair seed;
  seed.found = true;
  seed.a = side0[0].node;
  seed.b = side1[0].node;
  seed.dsum = side0[0].d + side1[0].d;
  seed.gain = seed.dsum - 2 * g.edge_weight(seed.a, seed.b);
  seed.i = 0;
  seed.j = 0;
  if (work != nullptr) *work += 1.0;

  BestPair best = seed;
  double evaluated = 0.0;
  for (std::size_t begin = 0; begin < side0.size(); begin += kPairChunkRows) {
    const std::size_t end = std::min(side0.size(), begin + kPairChunkRows);
    BestPair local = seed;
    for (std::size_t i = begin; i < end; ++i) {
      const NodeD& a = side0[i];
      if (a.d + side1[0].d <= local.gain) break;  // rows sorted by D desc
      for (std::size_t j = 0; j < side1.size(); ++j) {
        const NodeD& b = side1[j];
        const Weight dsum = a.d + b.d;
        if (dsum <= local.gain) break;
        evaluated += 1.0;
        const Weight gain = dsum - 2 * g.edge_weight(a.node, b.node);
        if (improves(local, gain, dsum, i, j)) {
          local.a = a.node;
          local.b = b.node;
          local.gain = gain;
          local.dsum = dsum;
          local.i = i;
          local.j = j;
        }
      }
    }
    if (improves(best, local.gain, local.dsum, local.i, local.j)) best = local;
  }
  if (work != nullptr) *work += evaluated;
  return best;
}

// Naive fallback: examine every unlocked pair (O(n^2) per swap). Kept for
// the ablation bench.
BestPair naive_best_pair(const Graph& g, const std::vector<NodeD>& side0,
                         const std::vector<NodeD>& side1, double* work) {
  BestPair best;
  for (std::size_t i = 0; i < side0.size(); ++i) {
    const NodeD& a = side0[i];
    for (std::size_t j = 0; j < side1.size(); ++j) {
      const NodeD& b = side1[j];
      const Weight dsum = a.d + b.d;
      const Weight gain = dsum - 2 * g.edge_weight(a.node, b.node);
      if (improves(best, gain, dsum, i, j)) {
        best.found = true;
        best.a = a.node;
        best.b = b.node;
        best.gain = gain;
        best.dsum = dsum;
        best.i = i;
        best.j = j;
      }
    }
  }
  if (work != nullptr) {
    *work += static_cast<double>(side0.size()) *
             static_cast<double>(side1.size());
  }
  return best;
}

}  // namespace

Weight kl_bisection_refine(const Graph& g, std::vector<PartId>& part,
                           const KlConfig& config, double* work) {
  const std::size_t n = g.node_count();
  FOCUS_CHECK(part.size() == n, "partition size mismatch");
  for (const PartId p : part) {
    FOCUS_CHECK(p == 0 || p == 1, "kl_bisection_refine requires a bisection");
  }

  Weight cut = edge_cut(g, part);
  if (work != nullptr) *work += static_cast<double>(g.edge_count());

  std::vector<Weight> d(n);
  std::vector<bool> locked(n);

  // D value of one node: external minus internal incident weight.
  const auto d_of = [&](NodeId v) {
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

  for (std::size_t pass = 0; pass < config.max_passes; ++pass) {
    for (NodeId v = 0; v < n; ++v) {
      d[v] = d_of(v);
      if (work != nullptr) *work += static_cast<double>(g.degree(v));
    }
    std::fill(locked.begin(), locked.end(), false);

    std::vector<SwapRecord> swaps;
    Weight running = 0;
    Weight best_sum = 0;
    std::size_t best_index = 0;  // number of swaps kept
    std::size_t idle = 0;

    for (;;) {
      // Collect unlocked nodes per side, sorted by D descending (ties by id
      // for determinism).
      std::vector<NodeD> side0, side1;
      for (NodeId v = 0; v < n; ++v) {
        if (locked[v]) continue;
        (part[v] == 0 ? side0 : side1).push_back(NodeD{v, d[v]});
      }
      auto by_d = [](const NodeD& x, const NodeD& y) {
        if (x.d != y.d) return x.d > y.d;
        return x.node < y.node;
      };
      std::sort(side0.begin(), side0.end(), by_d);
      std::sort(side1.begin(), side1.end(), by_d);
      if (work != nullptr) {
        const auto total = static_cast<double>(side0.size() + side1.size());
        *work += total * std::log2(total + 2.0);
      }

      // Strategy dispatch: the chunked-vs-heap choice compares the
      // unlocked-node count against the config threshold.
      BestPair best;
      if (!config.diagonal_scanning) {
        best = naive_best_pair(g, side0, side1, work);
      } else if (!side0.empty() && !side1.empty() &&
                 side0.size() + side1.size() >= config.pair_chunk_min_nodes) {
        best = chunked_best_pair(g, side0, side1, work);
      } else {
        best = diagonal_scan_best_pair(g, side0, side1, work);
      }
      if (!best.found) break;

      // Perform the swap.
      part[best.a] = 1;
      part[best.b] = 0;
      locked[best.a] = true;
      locked[best.b] = true;
      running += best.gain;
      swaps.push_back(SwapRecord{best.a, best.b, best.gain});

      // Update D values of unlocked neighbors.
      for (const Edge& e : g.neighbors(best.a)) {
        if (locked[e.to]) continue;
        // a left side 0: side-0 neighbors gained an external edge (+2w),
        // side-1 neighbors gained an internal edge (−2w).
        d[e.to] += part[e.to] == 0 ? 2 * e.weight : -2 * e.weight;
        if (work != nullptr) *work += 1.0;
      }
      for (const Edge& e : g.neighbors(best.b)) {
        if (locked[e.to]) continue;
        d[e.to] += part[e.to] == 1 ? 2 * e.weight : -2 * e.weight;
        if (work != nullptr) *work += 1.0;
      }

      if (running > best_sum) {
        best_sum = running;
        best_index = swaps.size();
        idle = 0;
      } else if (++idle >= config.idle_swap_limit) {
        break;
      }
    }

    // Roll back swaps beyond the maximal partial sum.
    for (std::size_t s = swaps.size(); s > best_index; --s) {
      const SwapRecord& rec = swaps[s - 1];
      part[rec.a] = 0;
      part[rec.b] = 1;
    }
    if (best_sum <= 0) break;  // no improvement: refinement converged
    cut -= best_sum;
  }
  FOCUS_ASSERT(cut == edge_cut(g, part), "tracked cut diverged from graph");
  return cut;
}

}  // namespace focus::partition
