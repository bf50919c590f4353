// Graph simplification and error correction on the (distributed) hybrid
// assembly graph — paper §V-A (transitive edge reduction), §V-B (containment
// removal and false-positive edge removal), §V-C (dead-end trimming and
// bubble popping).
//
// Every operation is phrased as "workers scan a node subset and *record*
// changes; the master *applies* them" — exactly the paper's master/worker
// protocol — so the same building blocks serve the serial driver (one subset
// = all nodes) and the mpr-parallel driver (one subset per partition).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dist/asm_graph.hpp"

namespace focus::dist {

struct SimplifyConfig {
  /// Edges whose verified contig overlap is shorter than this are false
  /// positives (paper: 50 bp).
  std::uint32_t min_edge_overlap = 50;
  /// Minimum identity of the verified contig-contig alignment.
  double min_edge_identity = 0.90;
  /// A contig covered by a neighbor alignment over at least this fraction of
  /// its length is contained.
  double containment_coverage = 0.95;
  /// Banded-NW half width for contig overlap verification; absorbs errors in
  /// the edge's offset estimate.
  std::uint32_t band = 16;
  /// Dead-end paths at most this many nodes AND shorter than tip_max_bp are
  /// clipped.
  std::size_t tip_max_nodes = 3;
  std::uint32_t tip_max_bp = 250;
  /// Bubble branches are followed at most this many interior nodes.
  std::size_t bubble_max_nodes = 5;
};

/// Counts of applied changes across a simplification run.
struct SimplifyStats {
  std::size_t transitive_edges = 0;
  std::size_t false_edges = 0;
  std::size_t contained_nodes = 0;
  std::size_t verified_edges = 0;
  std::size_t tip_nodes = 0;
  std::size_t bubble_nodes = 0;
};

// --- Worker-side recording passes (read-only on the graph). ---------------

/// Reusable direct-successor marks for find_transitive_edges. One instance
/// per scanning rank; sized (lazily) to node_count() and never re-zeroed on
/// the hot path — membership is `stamp[v] == epoch` and bumping the epoch
/// invalidates every mark in O(1).
struct TransitiveScratch {
  std::vector<std::uint32_t> stamp;
  std::uint32_t epoch = 0;
};

/// §V-A: transitive edges seen from the nodes in `scan`. `scratch` persists
/// across calls by the same rank.
std::vector<EdgeId> find_transitive_edges(const AsmGraph& g,
                                          std::span<const NodeId> scan,
                                          TransitiveScratch& scratch,
                                          double* work = nullptr);

/// Convenience overload with a call-local scratch.
std::vector<EdgeId> find_transitive_edges(const AsmGraph& g,
                                          std::span<const NodeId> scan,
                                          double* work = nullptr);

/// §V-B results: verified edge updates, false-positive edges, contained
/// nodes. Trivially copyable for mpr shipping.
struct EdgeVerification {
  EdgeId edge = kInvalidEdge;
  std::uint32_t overlap = 0;
  float identity = 0.0f;
};

struct ContainmentFindings {
  std::vector<EdgeVerification> verified;
  std::vector<EdgeId> false_edges;
  std::vector<NodeId> contained_nodes;
};

/// §V-B: aligns each scanned node's contig against its out-neighbors'
/// contigs; classifies edges (verified / false) and detects containment.
ContainmentFindings find_containments(const AsmGraph& g,
                                      std::span<const NodeId> scan,
                                      const SimplifyConfig& config,
                                      double* work = nullptr);

/// §V-C: nodes on short dead-end paths reachable from the scanned nodes.
std::vector<NodeId> find_tips(const AsmGraph& g, std::span<const NodeId> scan,
                              const SimplifyConfig& config,
                              double* work = nullptr);

/// §V-C: interior nodes of the weaker branch of each simple bubble whose
/// branch point is a scanned node.
std::vector<NodeId> find_bubbles(const AsmGraph& g,
                                 std::span<const NodeId> scan,
                                 const SimplifyConfig& config,
                                 double* work = nullptr);

// --- Master-side application. ----------------------------------------------

/// Applies recorded changes, deduplicating (cross-partition edges are
/// recorded by both sides, paper §V-A). Returns the number of *distinct*
/// applied changes. The records may have crossed the wire: an id outside the
/// graph throws focus::Error before anything is applied.
std::size_t apply_edge_removals(AsmGraph& g, std::vector<EdgeId> edges);
std::size_t apply_node_removals(AsmGraph& g, std::vector<NodeId> nodes);
std::size_t apply_verifications(AsmGraph& g,
                                const std::vector<EdgeVerification>& v);

// --- Serial driver. ---------------------------------------------------------

/// Full simplification pipeline on one process: transitive reduction →
/// containment/verification → tips → bubbles.
SimplifyStats simplify_serial(AsmGraph& g, const SimplifyConfig& config,
                              double* work = nullptr);

}  // namespace focus::dist
