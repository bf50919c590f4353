// GFA 1.0 export of assembly graphs — the de-facto interchange format for
// assembly graph viewers (Bandage) and downstream tools. Segments are the
// live contigs; links are the live directed overlap edges with their
// (estimated or verified) overlap length as a CIGAR match run.
#pragma once

#include <iosfwd>
#include <string>

#include "dist/asm_graph.hpp"

namespace focus::dist {

struct GfaOptions {
  /// Emit per-node read counts as `RC` tags.
  bool read_count_tags = true;
  /// Skip contigs shorter than this (0 = keep all).
  std::size_t min_segment_length = 0;
};

/// Writes the live part of the assembly graph as GFA 1.0. Node ids become
/// segment names ("c<N>").
void write_gfa(std::ostream& out, const AsmGraph& graph,
               const GfaOptions& options = {});

/// Convenience: write to a file path; throws focus::Error on I/O failure.
void write_gfa_file(const std::string& path, const AsmGraph& graph,
                    const GfaOptions& options = {});

}  // namespace focus::dist
