// Builds the directed assembly graph over hybrid-graph nodes: contig
// sequences from cluster layouts, plus directed cluster-to-cluster edges with
// overlap estimates derived from read-level overlap geometry. This is the
// structure the distributed algorithms of paper §V operate on.
#pragma once

#include <vector>

#include "dist/asm_graph.hpp"
#include "graph/digraph.hpp"
#include "graph/hybrid.hpp"
#include "io/read.hpp"

namespace focus::core {

struct AsmBuildResult {
  dist::AsmGraph graph;
  /// Hybrid node id == AsmGraph node id (identity mapping by construction).
  /// cluster_of[read] = assembly node owning the read, or kInvalidNode for
  /// reads absent from every layout (contained reads).
  std::vector<NodeId> cluster_of;
};

/// Constructs contigs by walking each hybrid node's layout (reads chained by
/// their overlap lengths) and derives inter-cluster edges: a read-level edge
/// a -> b with a, b laid out in different clusters implies the downstream
/// cluster continues the upstream one; the contig-overlap estimate follows
/// from the reads' offsets within their contigs. Parallel read edges between
/// the same cluster pair collapse to the largest estimate.
///
/// With `use_consensus` (default), contig sequences are called by
/// quality-weighted per-column consensus over the layout reads (error
/// correction); otherwise the first read wins at every overlap.
AsmBuildResult build_assembly_graph(const graph::HybridGraphSet& hybrid,
                                    const graph::Digraph& read_graph,
                                    const io::ReadSet& reads,
                                    bool use_consensus = true);

}  // namespace focus::core
