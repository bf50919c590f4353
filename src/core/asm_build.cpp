#include "core/asm_build.hpp"

#include <algorithm>
#include <map>

#include "common/error.hpp"
#include "core/consensus.hpp"

namespace focus::core {

AsmBuildResult build_assembly_graph(const graph::HybridGraphSet& hybrid,
                                    const graph::Digraph& read_graph,
                                    const io::ReadSet& reads,
                                    bool use_consensus) {
  const std::size_t cluster_count = hybrid.cluster_reads.size();
  AsmBuildResult out;
  out.cluster_of.assign(reads.size(), kInvalidNode);

  // offset_in_contig[read]: start position of the read within its cluster's
  // contig; only reads that appear in a layout get an offset.
  std::vector<std::int64_t> offset(reads.size(), -1);

  for (NodeId h = 0; h < cluster_count; ++h) {
    const auto& layout = hybrid.layouts[h];
    FOCUS_ASSERT(!layout.empty(), "cluster with empty layout");

    std::string contig;
    std::int64_t cursor = 0;
    for (std::size_t i = 0; i < layout.size(); ++i) {
      const NodeId read = layout[i].read;
      FOCUS_ASSERT(read < reads.size(), "layout read out of range");
      const std::string& seq = reads[read].seq;
      if (i == 0) {
        contig = seq;
        offset[read] = 0;
        cursor = 0;
      } else {
        const auto ov =
            static_cast<std::int64_t>(layout[i - 1].overlap_to_next);
        cursor = static_cast<std::int64_t>(contig.size()) - ov;
        if (cursor < 0) cursor = 0;
        offset[read] = cursor;
        const auto keep = static_cast<std::size_t>(
            std::min<std::int64_t>(ov, static_cast<std::int64_t>(seq.size())));
        if (keep < seq.size()) contig += seq.substr(keep);
      }
    }
    if (use_consensus && layout.size() > 1) {
      // Replace the first-read-wins merge with the quality-weighted
      // consensus call; read offsets are unchanged (same coordinates).
      auto called = consensus_from_layout(reads, layout);
      FOCUS_ASSERT(called.sequence.size() == contig.size(),
                   "consensus length diverged from layout merge");
      contig = std::move(called.sequence);
    }
    // All cluster reads (including contained ones skipped by the layout)
    // belong to this assembly node.
    const NodeId node =
        out.graph.add_node(std::move(contig),
                           static_cast<Weight>(hybrid.cluster_reads[h].size()));
    FOCUS_ASSERT(node == h, "assembly node ids must mirror hybrid node ids");
    for (const NodeId read : hybrid.cluster_reads[h]) {
      out.cluster_of[read] = h;
    }
  }

  // Inter-cluster directed edges with contig-overlap estimates. Keyed by the
  // cluster pair; parallel read edges keep the estimate with the largest
  // overlap (most evidence of true adjacency).
  struct EdgeEstimate {
    std::int64_t overlap = 0;
    std::int64_t offset = 0;
  };
  std::map<std::pair<NodeId, NodeId>, EdgeEstimate> best_estimate;
  for (NodeId a = 0; a < read_graph.node_count(); ++a) {
    if (offset[a] < 0) continue;  // not laid out (contained)
    const NodeId ca = out.cluster_of[a];
    if (ca == kInvalidNode) continue;
    const auto la = static_cast<std::int64_t>(reads[a].seq.size());
    const auto len_ca =
        static_cast<std::int64_t>(out.graph.node(ca).contig.size());
    for (const graph::DiEdge& e : read_graph.out_edges(a)) {
      const NodeId b = e.to;
      if (offset[b] < 0) continue;
      const NodeId cb = out.cluster_of[b];
      if (cb == kInvalidNode || cb == ca) continue;
      const auto len_cb =
          static_cast<std::int64_t>(out.graph.node(cb).contig.size());
      // Read a ends at genome offset offset[a] + la within contig ca; read b
      // starts `overlap` bases before that point. In ca's coordinates, cb
      // starts at:
      const std::int64_t cb_start =
          offset[a] + la - static_cast<std::int64_t>(e.overlap) - offset[b];
      const std::int64_t est =
          std::min(len_ca, cb_start + len_cb) - std::max<std::int64_t>(0, cb_start);
      if (est <= 0) continue;
      if (cb_start <= 0) continue;  // cb would not extend ca to the right
      const std::int64_t clipped = std::min({est, len_ca, len_cb});
      auto [it, inserted] = best_estimate.try_emplace(
          {ca, cb}, EdgeEstimate{clipped, cb_start});
      if (!inserted && clipped > it->second.overlap) {
        it->second = EdgeEstimate{clipped, cb_start};
      }
    }
  }
  for (const auto& [key, est] : best_estimate) {
    out.graph.add_edge(key.first, key.second,
                       static_cast<std::uint32_t>(est.overlap),
                       static_cast<std::uint32_t>(est.offset));
  }
  return out;
}

}  // namespace focus::core
