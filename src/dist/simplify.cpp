#include "dist/simplify.hpp"

#include <algorithm>
#include <string_view>

#include "align/banded_nw.hpp"
#include "common/error.hpp"

namespace focus::dist {

std::vector<EdgeId> find_transitive_edges(const AsmGraph& g,
                                          std::span<const NodeId> scan,
                                          TransitiveScratch& scratch,
                                          double* work) {
  std::vector<EdgeId> found;
  if (scratch.stamp.size() != g.node_count()) {
    scratch.stamp.assign(g.node_count(), 0);
    scratch.epoch = 0;
  }
  for (const NodeId v : scan) {
    if (!g.node_live(v)) continue;
    const auto out = g.live_out(v);
    if (out.size() < 2) continue;
    if (++scratch.epoch == 0) {
      // Epoch wrapped: stale stamps could alias the new epoch, so pay one
      // full clear every 2^32 scanned nodes.
      std::fill(scratch.stamp.begin(), scratch.stamp.end(), 0);
      scratch.epoch = 1;
    }
    for (const EdgeId e : out) scratch.stamp[g.edge(e).to] = scratch.epoch;
    for (const EdgeId mid : out) {
      const NodeId w = g.edge(mid).to;
      for (const EdgeId far : g.live_out(w)) {
        if (work != nullptr) *work += 1.0;
        const NodeId x = g.edge(far).to;
        if (x == v || scratch.stamp[x] != scratch.epoch) continue;
        // v -> x is reachable via w: the direct edge v -> x is transitive.
        const auto vx = g.find_edge(v, x);
        if (vx.has_value()) found.push_back(*vx);
      }
    }
  }
  return found;
}

std::vector<EdgeId> find_transitive_edges(const AsmGraph& g,
                                          std::span<const NodeId> scan,
                                          double* work) {
  TransitiveScratch scratch;
  return find_transitive_edges(g, scan, scratch, work);
}

ContainmentFindings find_containments(const AsmGraph& g,
                                      std::span<const NodeId> scan,
                                      const SimplifyConfig& config,
                                      double* work) {
  ContainmentFindings out;
  for (const NodeId v : scan) {
    if (!g.node_live(v)) continue;
    const std::string_view cv = g.node(v).contig;
    for (const EdgeId e : g.live_out(v)) {
      if (g.edge(e).verified) continue;  // cross-part edges may be rescanned
      const NodeId w = g.edge(e).to;
      const std::string_view cw = g.node(w).contig;

      // The edge's offset estimate locates cw within cv's coordinates; the
      // expected overlap window follows directly. The banded alignment's
      // width absorbs small estimate errors.
      const std::size_t offset = g.edge(e).offset;
      if (offset >= cv.size()) {
        out.false_edges.push_back(e);
        continue;
      }
      const std::size_t window = std::min(cv.size() - offset, cw.size());
      const std::string_view a_win = cv.substr(offset, window);
      const std::string_view b_win = cw.substr(0, window);
      if (work != nullptr) {
        *work += align::banded_align_work(window, window, config.band);
      }
      const auto aln = align::banded_global_align(a_win, b_win, config.band);

      // End-trimmed statistics: terminal gap runs only reflect error in the
      // offset estimate, not genuine divergence.
      if (!aln.valid || aln.core_columns() < config.min_edge_overlap ||
          aln.core_identity() < config.min_edge_identity) {
        out.false_edges.push_back(e);
        continue;
      }
      out.verified.push_back(EdgeVerification{
          e, aln.core_columns(), static_cast<float>(aln.core_identity())});
      // Containment: the verified overlap covers (almost) a whole contig —
      // the source when the window starts at its beginning, else the target
      // when the window spans all of it.
      if (static_cast<double>(aln.core_columns()) >=
          config.containment_coverage * static_cast<double>(cv.size())) {
        out.contained_nodes.push_back(v);
      } else if (static_cast<double>(aln.core_columns()) >=
                 config.containment_coverage *
                     static_cast<double>(cw.size())) {
        out.contained_nodes.push_back(w);
      }
    }
  }
  return out;
}

namespace {

// Follows the unambiguous chain starting at `v` in the given direction
// (true = forward/out). Returns the chain nodes (including v) and stops at
// a branching node or after max_nodes.
std::vector<NodeId> follow_chain(const AsmGraph& g, NodeId v, bool forward,
                                 std::size_t max_nodes, double* work) {
  std::vector<NodeId> chain{v};
  NodeId cur = v;
  while (chain.size() < max_nodes) {
    const auto next_edges = forward ? g.live_out(cur) : g.live_in(cur);
    if (work != nullptr) *work += 1.0;
    if (next_edges.size() != 1) break;
    const NodeId next = forward ? g.edge(next_edges[0]).to
                                : g.edge(next_edges[0]).from;
    const std::size_t back_degree =
        forward ? g.live_in_degree(next) : g.live_out_degree(next);
    if (back_degree != 1) break;  // `next` is a junction: chain ends before it
    chain.push_back(next);
    cur = next;
  }
  return chain;
}

std::uint32_t chain_bp(const AsmGraph& g, const std::vector<NodeId>& chain) {
  std::uint64_t bp = 0;
  for (const NodeId v : chain) bp += g.node(v).contig.size();
  return static_cast<std::uint32_t>(std::min<std::uint64_t>(bp, 0xffffffffu));
}

// Lexicographic branch strength: total bp, then total coverage, then the
// *smaller* endpoint id wins (a deterministic tiebreak so exactly one of two
// otherwise-equal dead ends is clipped).
struct BranchStrength {
  std::uint64_t bp = 0;
  Weight reads = 0;
  NodeId endpoint = kInvalidNode;

  bool stronger_than(const BranchStrength& other) const {
    if (bp != other.bp) return bp > other.bp;
    if (reads != other.reads) return reads > other.reads;
    return endpoint < other.endpoint;
  }
};

BranchStrength branch_strength(const AsmGraph& g,
                               const std::vector<NodeId>& chain) {
  BranchStrength s;
  for (const NodeId v : chain) {
    s.bp += g.node(v).contig.size();
    s.reads += g.node(v).reads;
  }
  s.endpoint = chain.front();
  return s;
}

}  // namespace

std::vector<NodeId> find_tips(const AsmGraph& g, std::span<const NodeId> scan,
                              const SimplifyConfig& config, double* work) {
  std::vector<NodeId> tips;

  // A dead-end chain is clipped only when it is short AND some competing
  // branch at the junction is strictly stronger — clipping must never orphan
  // the dominant sequence (a chain's own free end is not an error).
  auto consider = [&](NodeId v, bool forward) {
    const auto chain =
        follow_chain(g, v, forward, config.tip_max_nodes, work);
    if (chain.size() > config.tip_max_nodes) return;
    if (chain_bp(g, chain) >= config.tip_max_bp) return;
    const NodeId last = chain.back();
    const auto hang = forward ? g.live_out(last) : g.live_in(last);
    if (hang.size() != 1) return;  // fully dead or branching: not a tip shape
    const NodeId junction =
        forward ? g.edge(hang[0]).to : g.edge(hang[0]).from;
    const auto siblings =
        forward ? g.live_in(junction) : g.live_out(junction);
    if (siblings.size() < 2) return;  // no alternative support

    const BranchStrength mine = branch_strength(g, chain);
    for (const EdgeId se : siblings) {
      const NodeId sib =
          forward ? g.edge(se).from : g.edge(se).to;
      if (sib == last) continue;
      const auto competitor =
          follow_chain(g, sib, !forward, config.tip_max_nodes + 1, work);
      if (branch_strength(g, competitor).stronger_than(mine)) {
        tips.insert(tips.end(), chain.begin(), chain.end());
        return;
      }
    }
  };

  for (const NodeId v : scan) {
    if (!g.node_live(v)) continue;
    if (g.live_in_degree(v) == 0 && g.live_out_degree(v) >= 1) {
      consider(v, /*forward=*/true);
    }
    if (g.live_out_degree(v) == 0 && g.live_in_degree(v) >= 1) {
      consider(v, /*forward=*/false);
    }
  }
  return tips;
}

std::vector<NodeId> find_bubbles(const AsmGraph& g,
                                 std::span<const NodeId> scan,
                                 const SimplifyConfig& config, double* work) {
  std::vector<NodeId> removals;
  for (const NodeId v : scan) {
    if (!g.node_live(v)) continue;
    const auto out = g.live_out(v);
    if (out.size() < 2) continue;

    // Each branch: walk the unambiguous interior and record the merge node
    // where the branch re-joins (a node with in-degree >= 2).
    struct Branch {
      NodeId merge = kInvalidNode;
      std::vector<NodeId> interior;
      Weight coverage = 0;
    };
    std::vector<Branch> branches;
    for (const EdgeId e : out) {
      Branch b;
      NodeId cur = g.edge(e).to;
      for (std::size_t steps = 0; steps < config.bubble_max_nodes; ++steps) {
        if (work != nullptr) *work += 1.0;
        if (g.live_in_degree(cur) >= 2) {
          b.merge = cur;  // re-joined the graph
          break;
        }
        b.interior.push_back(cur);
        b.coverage += g.node(cur).reads;
        const auto next = g.live_out(cur);
        if (next.size() != 1) break;  // dead end or fork: not a simple bubble
        cur = g.edge(next[0]).to;
      }
      if (b.merge != kInvalidNode && !b.interior.empty()) {
        branches.push_back(std::move(b));
      }
    }
    if (branches.size() < 2) continue;

    // Group branches by merge node; within a group keep the best-covered
    // branch (ties: fewer nodes, then lower first id) and pop the rest.
    std::sort(branches.begin(), branches.end(),
              [](const Branch& a, const Branch& b) {
                if (a.merge != b.merge) return a.merge < b.merge;
                if (a.coverage != b.coverage) return a.coverage > b.coverage;
                if (a.interior.size() != b.interior.size()) {
                  return a.interior.size() < b.interior.size();
                }
                return a.interior.front() < b.interior.front();
              });
    for (std::size_t i = 0; i < branches.size();) {
      std::size_t j = i + 1;
      while (j < branches.size() && branches[j].merge == branches[i].merge) {
        removals.insert(removals.end(), branches[j].interior.begin(),
                        branches[j].interior.end());
        ++j;
      }
      i = j;
    }
  }
  return removals;
}

std::size_t apply_edge_removals(AsmGraph& g, std::vector<EdgeId> edges) {
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  FOCUS_CHECK(edges.empty() || edges.back() < g.edge_count(),
              "edge removal names an edge outside the graph");
  std::size_t applied = 0;
  for (const EdgeId e : edges) {
    if (!g.edge(e).removed) {
      g.remove_edge(e);
      ++applied;
    }
  }
  return applied;
}

std::size_t apply_node_removals(AsmGraph& g, std::vector<NodeId> nodes) {
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  FOCUS_CHECK(nodes.empty() || nodes.back() < g.node_count(),
              "node removal names a node outside the graph");
  std::size_t applied = 0;
  for (const NodeId v : nodes) {
    if (g.node_live(v)) {
      g.remove_node(v);
      ++applied;
    }
  }
  return applied;
}

std::size_t apply_verifications(AsmGraph& g,
                                const std::vector<EdgeVerification>& v) {
  for (const auto& rec : v) {
    FOCUS_CHECK(rec.edge < g.edge_count(),
                "edge verification names an edge outside the graph");
  }
  std::size_t applied = 0;
  for (const auto& rec : v) {
    if (!g.edge(rec.edge).verified) {
      g.set_verified(rec.edge, rec.overlap, rec.identity);
      ++applied;
    }
  }
  return applied;
}

SimplifyStats simplify_serial(AsmGraph& g, const SimplifyConfig& config,
                              double* work) {
  SimplifyStats stats;
  std::vector<NodeId> all;
  all.reserve(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) all.push_back(v);

  TransitiveScratch scratch;
  stats.transitive_edges =
      apply_edge_removals(g, find_transitive_edges(g, all, scratch, work));

  auto contain = find_containments(g, all, config, work);
  stats.verified_edges = apply_verifications(g, contain.verified);
  stats.false_edges = apply_edge_removals(g, std::move(contain.false_edges));
  stats.contained_nodes =
      apply_node_removals(g, std::move(contain.contained_nodes));

  stats.tip_nodes = apply_node_removals(g, find_tips(g, all, config, work));
  stats.bubble_nodes =
      apply_node_removals(g, find_bubbles(g, all, config, work));
  return stats;
}

}  // namespace focus::dist
