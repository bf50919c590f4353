// Kernighan–Lin bisection refinement (paper §IV-B).
//
// Each pass repeatedly selects the unlocked pair (vz ∈ P1, vy ∈ P2) with the
// greatest swap gain g = D(vz) + D(vy) − 2·w(vz,vy), swaps and locks it, and
// updates neighbors' D values. Two cutoffs end a pass: all pairs locked, or
// the maximal partial gain sum has not improved for `idle_swap_limit` (50)
// swaps. Swaps after the maximal partial sum are rolled back; passes repeat
// until a pass yields no gain.
//
// The selected pair is the unique maximum of a total order: largest gain,
// ties broken toward the larger D-sum, then the earlier position (i, j) in
// the diagonal enumeration of the side arrays (each sorted by D descending,
// node id ascending — itself a total order). Tie-breaking in enumeration
// order rather than by raw node id is deliberate: every zero-weight pair
// has gain == D-sum, so gain ties pool on equal-D-sum plateaus, and a
// node-id tie-break would force the scans to enumerate whole plateaus
// (~5x total KL work on the Fig. 4 sets) instead of cutting off. Every
// pair-search strategy below computes the same argmax, so they are
// interchangeable swap for swap:
//  * diagonal scanning (the paper's O(n² log n) scheme, Dutt [18]): both
//    sides sorted by D descending, pairs enumerated in decreasing D-sum
//    order through a heap; the scan stops once the next D-sum can no longer
//    beat the best gain seen (gain ≤ D-sum because edge weights are
//    non-negative, and a later pair that merely ties loses the total order).
//  * chunked bounded scan (`pair_chunk_min_nodes`): side-0 rows are split
//    into fixed chunks; each chunk scans side-1 in D order with the same
//    cannot-win cutoff against a chunk-local best seeded from the
//    top D-sum pair, and the per-chunk winners are reduced in chunk order.
//    The strategy choice and the chunk decomposition depend only on the
//    unlocked-node count, so they are part of the refinement's definition
//    (and its work accounting), not a tuning knob of the host.
//  * naive all-pairs (O(n³)-style, kept for the ablation benchmark).
#pragma once

#include <vector>

#include "common/types.hpp"
#include "graph/graph.hpp"

namespace focus::partition {

struct KlConfig {
  /// Pass ends after this many swaps without improving the max partial sum.
  std::size_t idle_swap_limit = 50;
  /// Hard cap on refinement passes.
  std::size_t max_passes = 8;
  /// Use the sorted-array + diagonal-scanning pair search (the paper's
  /// O(n² log n) scheme). When false, falls back to the naive O(n³)-style
  /// full pair scan per swap — kept for the ablation benchmark.
  bool diagonal_scanning = true;
  /// Unlocked-node count (both sides together) at or above which the
  /// diagonal pair search switches from the heap scan to the chunked
  /// bounded scan. The threshold compares against problem size only, so the
  /// selected pairs and the work accounting are a pure function of (graph,
  /// part, config). Chunk-local pruning is weaker than the heap's global
  /// bound (each chunk re-scans side 1 until its own cutoff fires), so
  /// chunking charges more total work; the default keeps the heap scan on
  /// small and mid-size instances, including the Fig. 4 hybrid graph sets.
  /// 0 forces chunking everywhere (used by tests and the ablation bench);
  /// SIZE_MAX restores the pure heap scan.
  std::size_t pair_chunk_min_nodes = 4096;
};

/// Refines a bisection (part ids 0/1) in place; returns the final edge cut.
/// `work` accumulates work units for virtual-time accounting.
Weight kl_bisection_refine(const graph::Graph& g, std::vector<PartId>& part,
                           const KlConfig& config = {},
                           double* work = nullptr);

}  // namespace focus::partition
