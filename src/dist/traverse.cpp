#include "dist/traverse.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/error.hpp"

namespace focus::dist {

namespace {

// Whether extension may move from `from` to `to` under partition `part`.
bool same_partition(std::span<const PartId> part, NodeId from, NodeId to) {
  if (part.empty()) return true;
  return part[from] == part[to];
}

}  // namespace

std::vector<std::vector<NodeId>> extract_subpaths(
    const AsmGraph& g, std::span<const NodeId> scan,
    std::span<const PartId> part, std::vector<bool>& visited, double* work) {
  FOCUS_CHECK(visited.size() == g.node_count(), "visited vector size mismatch");
  std::vector<std::vector<NodeId>> paths;

  for (const NodeId seed : scan) {
    if (!g.node_live(seed) || visited[seed]) continue;
    std::vector<NodeId> path{seed};
    visited[seed] = true;

    // Extension by out-edges.
    for (NodeId cur = seed;;) {
      if (work != nullptr) *work += 1.0;
      const auto out = g.live_out(cur);
      if (out.size() != 1) break;
      const NodeId next = g.edge(out[0]).to;
      if (visited[next] || g.live_in_degree(next) != 1 ||
          !same_partition(part, cur, next)) {
        break;
      }
      path.push_back(next);
      visited[next] = true;
      cur = next;
    }
    // Extension by in-edges from the seed.
    std::vector<NodeId> front;
    for (NodeId cur = seed;;) {
      if (work != nullptr) *work += 1.0;
      const auto in = g.live_in(cur);
      if (in.size() != 1) break;
      const NodeId prev = g.edge(in[0]).from;
      if (visited[prev] || g.live_out_degree(prev) != 1 ||
          !same_partition(part, cur, prev)) {
        break;
      }
      front.push_back(prev);
      visited[prev] = true;
      cur = prev;
    }
    if (!front.empty()) {
      std::reverse(front.begin(), front.end());
      front.insert(front.end(), path.begin(), path.end());
      path = std::move(front);
    }
    paths.push_back(std::move(path));
  }
  return paths;
}

void clear_visited(const std::vector<std::vector<NodeId>>& paths,
                   std::vector<bool>& visited) {
  for (const auto& path : paths) {
    for (const NodeId v : path) visited[v] = false;
  }
}

std::vector<std::vector<NodeId>> join_subpaths(
    const AsmGraph& g, std::vector<std::vector<NodeId>> subpaths,
    double* work) {
  // left_of[v] = index of the sub-path whose left endpoint is v.
  std::unordered_map<NodeId, std::size_t> left_of;
  left_of.reserve(subpaths.size());
  for (std::size_t i = 0; i < subpaths.size(); ++i) {
    FOCUS_CHECK(!subpaths[i].empty(), "empty sub-path");
    for (const NodeId v : subpaths[i]) {
      FOCUS_CHECK(v < g.node_count(),
                  "sub-path names a node outside the graph");
    }
    const auto [it, inserted] = left_of.emplace(subpaths[i].front(), i);
    FOCUS_CHECK(inserted, "two sub-paths share a left endpoint");
  }

  // next[i] = sub-path that unambiguously continues sub-path i.
  std::vector<std::size_t> next(subpaths.size(), subpaths.size());
  std::vector<bool> is_continuation(subpaths.size(), false);
  for (std::size_t i = 0; i < subpaths.size(); ++i) {
    const NodeId right = subpaths[i].back();
    const auto out = g.live_out(right);
    if (work != nullptr) *work += 1.0 + static_cast<double>(out.size());
    if (out.size() != 1) continue;
    const NodeId target = g.edge(out[0]).to;
    if (g.live_in_degree(target) != 1) continue;  // other in-edges: ambiguous
    const auto it = left_of.find(target);
    if (it == left_of.end() || it->second == i) continue;
    next[i] = it->second;
    is_continuation[it->second] = true;
  }

  // Emit chains starting from sub-paths that are not continuations.
  std::vector<std::vector<NodeId>> joined;
  std::vector<bool> consumed(subpaths.size(), false);
  for (std::size_t i = 0; i < subpaths.size(); ++i) {
    if (is_continuation[i] || consumed[i]) continue;
    std::vector<NodeId> path;
    std::size_t cur = i;
    while (cur < subpaths.size() && !consumed[cur]) {
      consumed[cur] = true;
      path.insert(path.end(), subpaths[cur].begin(), subpaths[cur].end());
      cur = next[cur];
    }
    joined.push_back(std::move(path));
  }
  // Cycles of sub-paths (every element a continuation) are emitted as-is,
  // broken at the lowest index.
  for (std::size_t i = 0; i < subpaths.size(); ++i) {
    if (consumed[i]) continue;
    std::vector<NodeId> path;
    std::size_t cur = i;
    while (cur < subpaths.size() && !consumed[cur]) {
      consumed[cur] = true;
      path.insert(path.end(), subpaths[cur].begin(), subpaths[cur].end());
      cur = next[cur];
    }
    joined.push_back(std::move(path));
  }
  return joined;
}

std::vector<std::vector<NodeId>> traverse_serial(const AsmGraph& g,
                                                 double* work) {
  std::vector<NodeId> all;
  all.reserve(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) all.push_back(v);
  std::vector<bool> visited(g.node_count(), false);
  auto subpaths = extract_subpaths(g, all, {}, visited, work);
  return join_subpaths(g, std::move(subpaths), work);
}

}  // namespace focus::dist
