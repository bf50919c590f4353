#include "svc/artifact_cache.hpp"

namespace focus::svc {

namespace {

std::size_t graph_bytes(const graph::Graph& g) {
  // CSR arrays: per-node weight + offset, two directed Edge entries per
  // undirected edge.
  return g.node_count() * (sizeof(Weight) + sizeof(std::size_t)) +
         2 * g.edge_count() * sizeof(graph::Edge) + sizeof(graph::Graph);
}

template <typename T>
std::size_t nested_bytes(const std::vector<std::vector<T>>& v) {
  std::size_t total = v.capacity() * sizeof(std::vector<T>);
  for (const auto& inner : v) total += inner.capacity() * sizeof(T);
  return total;
}

std::size_t hierarchy_bytes(const graph::GraphHierarchy& h) {
  std::size_t total = sizeof(graph::GraphHierarchy);
  for (const graph::Graph& level : h.levels) total += graph_bytes(level);
  return total + nested_bytes(h.parent);
}

std::size_t hybrid_bytes(const graph::HybridGraphSet& h) {
  return hierarchy_bytes(h.hierarchy) + nested_bytes(h.origin) +
         nested_bytes(h.cluster_reads) + nested_bytes(h.layouts) +
         h.reps_per_level.capacity() * sizeof(std::size_t);
}

std::size_t asm_graph_bytes(const dist::AsmGraph& g) {
  // Node records with their contigs, edge records, and one out- and one
  // in-adjacency list per node holding every edge id once each.
  std::size_t total = g.node_count() * (sizeof(dist::AsmNode) +
                                        2 * sizeof(std::vector<dist::EdgeId>));
  for (NodeId v = 0; v < g.node_count(); ++v) {
    total += g.node(v).contig.capacity();
  }
  return total + g.edge_count() *
                     (sizeof(dist::AsmEdge) + 2 * sizeof(dist::EdgeId));
}

}  // namespace

std::size_t artifact_bytes(const core::PreprocessArtifact& artifact) {
  std::size_t total = sizeof(core::PreprocessArtifact);
  total += artifact.reads.size() * sizeof(io::Read);
  for (const io::Read& r : artifact.reads) {
    total += r.name.capacity() + r.seq.capacity() + r.qual.capacity();
  }
  return total;
}

std::size_t artifact_bytes(const core::OverlapArtifact& artifact) {
  return sizeof(core::OverlapArtifact) +
         artifact.overlaps.capacity() * sizeof(align::Overlap);
}

std::size_t artifact_bytes(const core::CoarsenArtifact& artifact) {
  return sizeof(core::CoarsenArtifact) + graph_bytes(artifact.overlap_graph) +
         hierarchy_bytes(artifact.multilevel) +
         hybrid_bytes(artifact.hybrid) +
         asm_graph_bytes(artifact.assembly_graph);
}

std::shared_ptr<const void> ArtifactCache::get_any(Kind kind,
                                                   const common::Digest& key) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = entries_.find(Key{kind, key});
  if (it == entries_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);  // touch
  return it->second.value;
}

void ArtifactCache::put_any(Kind kind, const common::Digest& key,
                            std::shared_ptr<const void> value,
                            std::size_t bytes) {
  std::lock_guard<std::mutex> lk(mu_);
  if (budget_ > 0 && bytes > budget_) {
    ++stats_.declined;
    return;
  }
  const Key full_key{kind, key};
  auto it = entries_.find(full_key);
  if (it != entries_.end()) {
    // Refresh: a concurrent assembly rebuilt an artifact another one already
    // deposited. Keep the newer value (identical content by construction).
    stats_.resident_bytes -= it->second.bytes;
    it->second.value = std::move(value);
    it->second.bytes = bytes;
    stats_.resident_bytes += bytes;
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  } else {
    lru_.push_front(full_key);
    entries_[full_key] = Entry{std::move(value), bytes, lru_.begin()};
    stats_.resident_bytes += bytes;
    stats_.entries = entries_.size();
  }
  while (budget_ > 0 && stats_.resident_bytes > budget_ && lru_.size() > 1) {
    const Key victim = lru_.back();
    lru_.pop_back();
    auto vit = entries_.find(victim);
    stats_.resident_bytes -= vit->second.bytes;
    entries_.erase(vit);
    ++stats_.evictions;
  }
  stats_.entries = entries_.size();
}

std::shared_ptr<const core::PreprocessArtifact> ArtifactCache::get_preprocess(
    const common::Digest& key) {
  return std::static_pointer_cast<const core::PreprocessArtifact>(
      get_any(Kind::kPreprocess, key));
}

void ArtifactCache::put_preprocess(
    const common::Digest& key,
    std::shared_ptr<const core::PreprocessArtifact> artifact) {
  const std::size_t bytes = artifact_bytes(*artifact);
  put_any(Kind::kPreprocess, key, std::move(artifact), bytes);
}

std::shared_ptr<const core::OverlapArtifact> ArtifactCache::get_overlaps(
    const common::Digest& key) {
  return std::static_pointer_cast<const core::OverlapArtifact>(
      get_any(Kind::kOverlaps, key));
}

void ArtifactCache::put_overlaps(
    const common::Digest& key,
    std::shared_ptr<const core::OverlapArtifact> artifact) {
  const std::size_t bytes = artifact_bytes(*artifact);
  put_any(Kind::kOverlaps, key, std::move(artifact), bytes);
}

std::shared_ptr<const core::CoarsenArtifact> ArtifactCache::get_coarsen(
    const common::Digest& key) {
  return std::static_pointer_cast<const core::CoarsenArtifact>(
      get_any(Kind::kCoarsen, key));
}

void ArtifactCache::put_coarsen(
    const common::Digest& key,
    std::shared_ptr<const core::CoarsenArtifact> artifact) {
  const std::size_t bytes = artifact_bytes(*artifact);
  put_any(Kind::kCoarsen, key, std::move(artifact), bytes);
}

CacheStats ArtifactCache::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace focus::svc
