#include "dist/variants.hpp"

#include <algorithm>
#include <numeric>

#include "align/banded_nw.hpp"
#include "common/error.hpp"
#include "mpr/ft_phase.hpp"

namespace focus::dist {

namespace {

// A branch candidate: an unambiguous chain of interior nodes starting at
// the anchor's target. `merge` is the re-joining node, or kInvalidNode for
// an open branch (the chain dead-ends, forks, or hits the node limit).
struct Branch {
  std::vector<NodeId> nodes;
  NodeId merge = kInvalidNode;
  Weight coverage = 0;  // mean reads per interior node

  NodeId front() const { return nodes.front(); }
  bool closed() const { return merge != kInvalidNode; }
};

// Follows the unambiguous interior chain starting at `first`; returns true
// if the branch has at least one interior node (closed or open).
bool follow_branch(const AsmGraph& g, NodeId first, std::size_t max_nodes,
                   Branch& branch, double* work) {
  NodeId cur = first;
  Weight total_reads = 0;
  for (std::size_t steps = 0; steps <= max_nodes; ++steps) {
    if (work != nullptr) *work += 1.0;
    if (g.live_in_degree(cur) >= 2) {
      if (branch.nodes.empty()) return false;  // immediate re-entry: no allele
      branch.merge = cur;
      break;
    }
    if (branch.nodes.size() == max_nodes) break;  // open: truncated
    branch.nodes.push_back(cur);
    total_reads += g.node(cur).reads;
    const auto next = g.live_out(cur);
    if (next.size() != 1) break;  // open: dead end or fork
    cur = g.edge(next[0]).to;
  }
  if (branch.nodes.empty()) return false;
  branch.coverage = total_reads / static_cast<Weight>(branch.nodes.size());
  return true;
}

}  // namespace

std::vector<Variant> find_variants(const AsmGraph& g,
                                   std::span<const NodeId> scan,
                                   const VariantConfig& config, double* work) {
  std::vector<Variant> out;
  for (const NodeId v : scan) {
    if (!g.node_live(v)) continue;
    const auto edges = g.live_out(v);
    if (edges.size() < 2) continue;

    // Collect unambiguous branches that re-join the graph.
    std::vector<Branch> branches;
    for (const EdgeId e : edges) {
      Branch b;
      if (follow_branch(g, g.edge(e).to, config.max_branch_nodes, b, work)) {
        branches.push_back(std::move(b));
      }
    }
    if (branches.size() < 2) continue;

    // Branch pairs sharing a merge point are closed-bubble allele
    // candidates; pairs of open branches (merge == kInvalidNode groups last)
    // are open-bubble candidates compared over their common-length prefix.
    std::sort(branches.begin(), branches.end(),
              [](const Branch& a, const Branch& b) {
                if (a.merge != b.merge) return a.merge < b.merge;
                return a.front() < b.front();
              });
    for (std::size_t i = 0; i < branches.size(); ++i) {
      for (std::size_t j = i + 1;
           j < branches.size() && branches[j].merge == branches[i].merge;
           ++j) {
        const Branch& a = branches[i];
        const Branch& b = branches[j];
        const bool open = !a.closed();
        if (open && !config.allow_open_bubbles) continue;
        std::string ca = g.merge_path_contigs(a.nodes);
        std::string cb = g.merge_path_contigs(b.nodes);
        if (open) {
          const std::size_t prefix = std::min(ca.size(), cb.size());
          if (prefix < config.min_open_prefix) continue;
          ca.resize(prefix);
          cb.resize(prefix);
        } else {
          const double ratio =
              static_cast<double>(std::max(ca.size(), cb.size())) /
              static_cast<double>(std::min(ca.size(), cb.size()));
          if (ratio > config.max_length_ratio) continue;
        }
        if (work != nullptr) {
          *work += align::banded_align_work(ca.size(), cb.size(), config.band);
        }
        const auto aln = align::banded_global_align(ca, cb, config.band);
        if (!aln.valid || aln.identity() < config.min_identity) continue;

        Variant variant;
        variant.branch_point = v;
        variant.merge_point = a.merge;
        const bool a_major =
            a.coverage > b.coverage ||
            (a.coverage == b.coverage && a.front() < b.front());
        variant.major_allele = a_major ? a.front() : b.front();
        variant.minor_allele = a_major ? b.front() : a.front();
        variant.major_coverage = a_major ? a.coverage : b.coverage;
        variant.minor_coverage = a_major ? b.coverage : a.coverage;
        variant.major_nodes = static_cast<std::uint32_t>(
            (a_major ? a : b).nodes.size());
        variant.minor_nodes = static_cast<std::uint32_t>(
            (a_major ? b : a).nodes.size());
        variant.mismatch_sites = aln.mismatches;
        variant.indel_sites = aln.gaps;
        variant.identity = static_cast<float>(aln.identity());
        out.push_back(variant);
      }
    }
  }
  return out;
}

namespace {

// Deterministic order + dedupe by (branch, merge, allele pair).
std::vector<Variant> canonical_variants(std::vector<Variant> variants) {
  std::sort(variants.begin(), variants.end(),
            [](const Variant& a, const Variant& b) {
              if (a.branch_point != b.branch_point) {
                return a.branch_point < b.branch_point;
              }
              if (a.merge_point != b.merge_point) {
                return a.merge_point < b.merge_point;
              }
              if (a.major_allele != b.major_allele) {
                return a.major_allele < b.major_allele;
              }
              return a.minor_allele < b.minor_allele;
            });
  variants.erase(
      std::unique(variants.begin(), variants.end(),
                  [](const Variant& a, const Variant& b) {
                    return a.branch_point == b.branch_point &&
                           a.merge_point == b.merge_point &&
                           a.major_allele == b.major_allele &&
                           a.minor_allele == b.minor_allele;
                  }),
      variants.end());
  return variants;
}

// A variant record arriving off the wire must name nodes that exist —
// without this, a corrupted-but-CRC-colliding or hostile frame could smuggle
// out-of-range ids into downstream consumers (GFA emission indexes by node).
void validate_variant(const AsmGraph& g, const Variant& v) {
  const auto n = static_cast<NodeId>(g.node_count());
  FOCUS_CHECK(v.branch_point < n, "variant record names an invalid node");
  FOCUS_CHECK(v.merge_point == kInvalidNode || v.merge_point < n,
              "variant record names an invalid merge point");
  FOCUS_CHECK(v.major_allele < n && v.minor_allele < n,
              "variant record names an invalid allele node");
}

}  // namespace

std::vector<Variant> find_variants_serial(const AsmGraph& g,
                                          const VariantConfig& config,
                                          double* work) {
  std::vector<NodeId> all(g.node_count());
  std::iota(all.begin(), all.end(), 0u);
  return canonical_variants(find_variants(g, all, config, work));
}

ParallelVariantResult find_variants_parallel(
    const AsmGraph& g, std::span<const PartId> part, PartId nparts,
    const VariantConfig& config, int nranks, mpr::CostModel cost,
    const mpr::FaultPlan& fault_plan, const mpr::FaultConfig& fault,
    const DistConfig& dist) {
  FOCUS_CHECK(part.size() == g.node_count(), "partition size mismatch");
  const auto nodes = partition_node_lists(part, nparts);
  ParallelVariantResult out;
  using Rec = std::vector<Variant>;
  const auto scan_one = [&](std::uint32_t p, double* work) {
    return find_variants(g, nodes[p], config, work);
  };
  const auto unpack_one = [&](mpr::Message& m) {
    auto rec = m.unpack_vector<Variant>();
    for (const Variant& v : rec) validate_variant(g, v);
    return rec;
  };
  const auto scan_and_pack = [&](std::uint32_t phase, std::uint32_t p,
                                 mpr::Message& frame, double* work) {
    FOCUS_CHECK(phase == 0, "unknown variants phase in scan command");
    frame.pack_vector(find_variants(g, nodes[p], config, work));
  };
  const auto merge = [&](mpr::Comm& comm, std::vector<Rec> recs) {
    std::vector<Variant> all;
    for (auto& r : recs) all.insert(all.end(), r.begin(), r.end());
    comm.charge(static_cast<double>(all.size()));
    return canonical_variants(std::move(all));
  };

  out.run = mpr::ft_execute(
      nranks, dist.protocol == DistProtocol::kSymmetric, cost, fault_plan,
      [&](mpr::Comm& comm, mpr::PhaseLog& log) {
        const auto coordinate = [&](std::uint32_t phase_start) {
          if (phase_start == 0) {
            auto recs = mpr::ft_collect<Rec>(comm, log, nparts, 0, fault,
                                             scan_one, unpack_one);
            mpr::PhaseLog::Entry entry;
            entry.payload.pack_vector(merge(comm, std::move(recs)));
            mpr::ft_commit(comm, log, std::move(entry));
          }
          // Publish from the durable record — identical whether this rank
          // merged the records itself or inherited them.
          out.variants = mpr::ft_read_entry(
              log, 0, "variant log",
              [](mpr::Message& m) { return m.unpack_vector<Variant>(); });
        };
        mpr::ft_drive(comm, log, fault, scan_and_pack, coordinate);
      });
  return out;
}

}  // namespace focus::dist
