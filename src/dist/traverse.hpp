// Maximal path extraction and joining (paper §V-D).
//
// Workers grow unambiguous paths inside their own partition: from a seed
// node, extension by out-edges appends vz when the current endpoint has a
// single out-edge e = (vy, vz), e is vz's only in-edge, and vz is in the same
// partition; extension by in-edges is symmetric. The coordinator then joins
// sub-paths whose junction is unambiguous (p1's right endpoint has an
// out-edge to p2's left endpoint, and that endpoint has no other in-edges).
#pragma once

#include <span>
#include <vector>

#include "dist/asm_graph.hpp"

namespace focus::dist {

/// Grows maximal unambiguous paths over `scan`. If `part` is non-empty,
/// extension never crosses a partition boundary (worker behaviour); an empty
/// `part` means unrestricted (serial behaviour). `visited` persists across
/// calls by the same worker. Every live scanned node ends up in exactly one
/// path (possibly a singleton).
std::vector<std::vector<NodeId>> extract_subpaths(
    const AsmGraph& g, std::span<const NodeId> scan,
    std::span<const PartId> part, std::vector<bool>& visited,
    double* work = nullptr);

/// Unmarks every node of `paths` in `visited`. Every node extract_subpaths
/// marks ends up in exactly one returned path, so this restores the scratch
/// to all-false in O(extracted nodes) — callers that must re-scan (fault
/// replays) reuse one allocation instead of zeroing node_count() bits per
/// partition.
void clear_visited(const std::vector<std::vector<NodeId>>& paths,
                   std::vector<bool>& visited);

/// Coordinator-side joining of worker sub-paths; returns the final maximal
/// paths. A sub-path naming a node outside the graph (a corrupt record)
/// throws focus::Error.
std::vector<std::vector<NodeId>> join_subpaths(
    const AsmGraph& g, std::vector<std::vector<NodeId>> subpaths,
    double* work = nullptr);

/// Serial driver: extraction over all live nodes followed by joining.
std::vector<std::vector<NodeId>> traverse_serial(const AsmGraph& g,
                                                 double* work = nullptr);

}  // namespace focus::dist
