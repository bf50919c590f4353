#include "graph/digraph.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"

namespace focus::graph {

void Digraph::add_edge(NodeId from, NodeId to, Weight overlap) {
  FOCUS_CHECK(from < node_count() && to < node_count(),
              "digraph edge endpoint out of range");
  FOCUS_CHECK(from != to, "digraph self-loops are not allowed");
  staged_.emplace_back(from, DiEdge{to, overlap});
}

void Digraph::mark_contained(NodeId v) {
  FOCUS_CHECK(v < node_count(), "digraph containment mark out of range");
  contained_[v] = true;
}

void Digraph::finalize() {
  const std::size_t n = node_count();
  if (!staged_.empty()) {
    // Rebuild the rows from the staged and the existing edges, bucketed by
    // source (a counting sort that keeps the staged order within a row).
    for (NodeId v = 0; v < n; ++v) {
      for (const DiEdge& e : out_edges(v)) staged_.emplace_back(v, e);
    }
    std::vector<std::size_t> offsets(n + 1, 0);
    for (const auto& staged : staged_) ++offsets[staged.first + 1];
    std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
    std::vector<std::size_t> fill(offsets.begin(), offsets.end() - 1);
    edges_.resize(staged_.size());
    for (const auto& [from, e] : staged_) edges_[fill[from]++] = e;
    offsets_ = std::move(offsets);
    staged_ = {};
  }
  auto by_target = [](const DiEdge& a, const DiEdge& b) {
    if (a.to != b.to) return a.to < b.to;
    return a.overlap > b.overlap;
  };
  for (NodeId v = 0; v < n; ++v) {
    const auto begin = edges_.begin() + static_cast<std::ptrdiff_t>(offsets_[v]);
    const auto end = edges_.begin() + static_cast<std::ptrdiff_t>(offsets_[v + 1]);
    if (!std::is_sorted(begin, end, by_target)) std::sort(begin, end, by_target);
  }
}

Digraph build_read_digraph(std::size_t read_count,
                           const std::vector<align::Overlap>& overlaps) {
  Digraph g(read_count);
  // Canonical records by pair, longest first; the kind settles a length tie
  // so the surviving record of a pair never depends on the input order.
  auto before = [](const align::Overlap& a, const align::Overlap& b) {
    if (a.query != b.query) return a.query < b.query;
    if (a.ref != b.ref) return a.ref < b.ref;
    if (a.length != b.length) return a.length > b.length;
    return a.kind < b.kind;
  };
  // Stage 2 hands over canonical records in this order already; sort a
  // canonical copy only when they are not.
  std::span<const align::Overlap> records = overlaps;
  std::vector<align::Overlap> canon;
  const bool ready =
      std::all_of(overlaps.begin(), overlaps.end(),
                  [](const align::Overlap& o) { return o.query <= o.ref; }) &&
      std::is_sorted(overlaps.begin(), overlaps.end(), before);
  if (!ready) {
    canon.reserve(overlaps.size());
    for (const auto& o : overlaps) canon.push_back(align::canonicalized(o));
    std::sort(canon.begin(), canon.end(), before);
    records = canon;
  }
  const align::Overlap* prev = nullptr;
  for (const auto& o : records) {
    if (prev != nullptr && prev->query == o.query && prev->ref == o.ref) {
      continue;
    }
    prev = &o;
    switch (o.kind) {
      case align::OverlapKind::kSuffixPrefix:
        g.add_edge(o.query, o.ref, static_cast<Weight>(o.length));
        break;
      case align::OverlapKind::kPrefixSuffix:
        g.add_edge(o.ref, o.query, static_cast<Weight>(o.length));
        break;
      case align::OverlapKind::kQueryContained:
        g.mark_contained(o.query);
        break;
      case align::OverlapKind::kRefContained:
        g.mark_contained(o.ref);
        break;
    }
  }
  g.finalize();
  return g;
}

}  // namespace focus::graph
