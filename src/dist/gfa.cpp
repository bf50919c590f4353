#include "dist/gfa.hpp"

#include <fstream>
#include <ostream>

#include "common/error.hpp"

namespace focus::dist {

void write_gfa(std::ostream& out, const AsmGraph& graph,
               const GfaOptions& options) {
  out << "H\tVN:Z:1.0\n";
  std::vector<bool> emitted(graph.node_count(), false);
  for (NodeId v = 0; v < graph.node_count(); ++v) {
    if (!graph.node_live(v)) continue;
    const auto& node = graph.node(v);
    if (node.contig.size() < options.min_segment_length) continue;
    emitted[v] = true;
    out << "S\tc" << v << '\t' << node.contig;
    if (options.read_count_tags) {
      out << "\tRC:i:" << node.reads;
    }
    out << '\n';
  }
  for (EdgeId e = 0; e < graph.edge_count(); ++e) {
    if (!graph.edge_live(e)) continue;
    const auto& edge = graph.edge(e);
    if (!emitted[edge.from] || !emitted[edge.to]) continue;
    // All sequences are stored forward (reverse complements are separate
    // nodes), so every link is +/+ with the overlap as a match run.
    out << "L\tc" << edge.from << "\t+\tc" << edge.to << "\t+\t"
        << edge.overlap << "M\n";
  }
}

void write_gfa_file(const std::string& path, const AsmGraph& graph,
                    const GfaOptions& options) {
  std::ofstream out(path);
  FOCUS_CHECK(out.good(), "cannot open GFA output file: " + path);
  write_gfa(out, graph, options);
  FOCUS_CHECK(out.good(), "error writing GFA file: " + path);
}

}  // namespace focus::dist
