#include "graph/contiguity.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace focus::graph {

namespace {

constexpr std::uint32_t kNoEdge = ~std::uint32_t{0};

// Advances an epoch counter; on wrap, stale marks could alias the new
// epoch, so the marks are cleared (once every 2^32 advances).
std::uint32_t next_epoch(std::uint32_t& epoch,
                         std::vector<std::uint32_t>& a,
                         std::vector<std::uint32_t>* b = nullptr) {
  if (++epoch == 0) {
    std::fill(a.begin(), a.end(), 0);
    if (b != nullptr) std::fill(b->begin(), b->end(), 0);
    epoch = 1;
  }
  return epoch;
}

}  // namespace

ContiguityTester::ContiguityTester(const Digraph& reads,
                                   std::vector<std::uint32_t> read_lengths)
    : reads_(&reads),
      read_lengths_(std::move(read_lengths)),
      stamp_(reads.node_count(), 0),
      local_(reads.node_count(), kInvalidNode),
      direct_(reads.node_count(), 0),
      transitive_(reads.node_count(), 0) {
  FOCUS_CHECK(read_lengths_.size() == reads.node_count(),
              "read length table size mismatch");
}

bool ContiguityTester::contiguous(std::span<const NodeId> cluster,
                                  std::vector<LayoutStep>* layout) {
  if (cluster.empty()) return false;
  const Digraph& g = *reads_;

  // Stamp the members; active ones (not contained in another read) get
  // local ids in cluster order.
  const std::uint32_t member = next_epoch(epoch_, stamp_);
  active_.clear();
  for (const NodeId v : cluster) {
    FOCUS_CHECK(v < stamp_.size(), "cluster read out of range");
    FOCUS_CHECK(stamp_[v] != member, "cluster lists a read twice");
    stamp_[v] = member;
    if (g.is_contained(v)) {
      local_[v] = kInvalidNode;
    } else {
      local_[v] = static_cast<NodeId>(active_.size());
      active_.push_back(v);
    }
  }
  work_ += static_cast<double>(cluster.size());
  const std::size_t n = active_.size();

  if (n <= 1) {
    if (layout != nullptr) {
      layout->clear();
      NodeId rep = kInvalidNode;
      if (!active_.empty()) {
        rep = active_.front();
      } else {
        // All reads contained: the longest read carries the cluster sequence.
        rep = *std::max_element(
            cluster.begin(), cluster.end(), [&](NodeId a, NodeId b) {
              if (read_lengths_[a] != read_lengths_[b]) {
                return read_lengths_[a] < read_lengths_[b];
              }
              return a < b;
            });
      }
      layout->push_back(LayoutStep{rep, 0});
    }
    return true;
  }

  // Induced CSR adjacency among the active members. Contained reads are
  // excluded from the path; edges through them carry no extra layout
  // information.
  row_.assign(n + 1, 0);
  adj_.clear();
  in_degree_.assign(n, 0);
  std::size_t scanned = 0;
  for (std::size_t u = 0; u < n; ++u) {
    const auto out = g.out_edges(active_[u]);
    scanned += out.size();
    for (const DiEdge& e : out) {
      if (stamp_[e.to] != member || local_[e.to] == kInvalidNode) continue;
      adj_.push_back(DiEdge{local_[e.to], e.overlap});
      ++in_degree_[local_[e.to]];
    }
    row_[u + 1] = static_cast<std::uint32_t>(adj_.size());
  }
  // The reduction below scans m's row once per induced edge u->m. Charging
  // that up front keeps the count exact when a verdict comes early.
  std::size_t reduction = 0;
  for (std::size_t m = 0; m < n; ++m) {
    reduction += std::size_t{in_degree_[m]} * (row_[m + 1] - row_[m]);
  }
  work_ += static_cast<double>(scanned + reduction);

  // Local transitive reduction: u->w is redundant if some active v gives
  // u->v and v->w. A member keeping two out-edges cannot lie on a path.
  kept_.assign(n, kNoEdge);
  for (std::uint32_t u = 0; u < n; ++u) {
    const std::uint32_t mark = next_epoch(mark_epoch_, direct_, &transitive_);
    for (std::uint32_t p = row_[u]; p < row_[u + 1]; ++p) {
      direct_[adj_[p].to] = mark;
    }
    for (std::uint32_t p = row_[u]; p < row_[u + 1]; ++p) {
      const NodeId mid = adj_[p].to;
      for (std::uint32_t q = row_[mid]; q < row_[mid + 1]; ++q) {
        const NodeId far = adj_[q].to;
        if (far != u && direct_[far] == mark) transitive_[far] = mark;
      }
    }
    for (std::uint32_t p = row_[u]; p < row_[u + 1]; ++p) {
      if (transitive_[adj_[p].to] == mark) continue;
      if (kept_[u] != kNoEdge) return false;
      kept_[u] = p;
    }
  }

  // Path test: every member now has out-degree <= 1; in-degree must be <= 1
  // too, with exactly n-1 edges and a unique zero-in-degree start.
  std::fill(in_degree_.begin(), in_degree_.end(), 0);
  std::size_t edge_total = 0;
  for (std::size_t u = 0; u < n; ++u) {
    if (kept_[u] == kNoEdge) continue;
    ++edge_total;
    if (++in_degree_[adj_[kept_[u]].to] > 1) return false;
  }
  if (edge_total != n - 1) return false;

  NodeId start = kInvalidNode;
  for (NodeId u = 0; u < n; ++u) {
    if (in_degree_[u] != 0) continue;
    if (start != kInvalidNode) return false;  // two path starts: disconnected
    start = u;
  }
  if (start == kInvalidNode) return false;  // cycle

  // Walk the path; it must visit every active member exactly once (a cycle
  // beside the path also leaves the edge count at n-1).
  std::size_t steps = 1;
  for (NodeId cur = start; kept_[cur] != kNoEdge; cur = adj_[kept_[cur]].to) {
    ++steps;
  }
  if (steps != n) return false;

  if (layout != nullptr) {
    layout->clear();
    layout->reserve(n);
    NodeId cur = start;
    for (; kept_[cur] != kNoEdge; cur = adj_[kept_[cur]].to) {
      layout->push_back(LayoutStep{active_[cur], adj_[kept_[cur]].overlap});
    }
    layout->push_back(LayoutStep{active_[cur], 0});
  }
  return true;
}

}  // namespace focus::graph
