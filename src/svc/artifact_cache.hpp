// LRU stage-artifact cache.
//
// Implements core::StageCache (the interface the assembler consults) with a
// retention policy: shared immutable artifacts retained under a byte budget,
// least-recently-used eviction, and counters for the operator. Concurrent
// assemblies in one process may share one cache, so all operations are
// mutex-serialized; the artifacts themselves are immutable shared_ptrs, so a
// hit handed to one assembly stays valid even if the entry is evicted while
// that assembly still reads it.
//
// Sizing is approximate by design: artifact_bytes() counts the dominant heap
// blocks (read strings, overlap vectors, CSR arrays, the hybrid set's
// clusters and layouts, the assembly graph's contigs and edges) and ignores
// allocator slack. The budget is a *target* for resident artifact bytes, not
// an exact RSS bound.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>

#include "core/stage_cache.hpp"

namespace focus::svc {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  /// put() calls refused because the artifact alone exceeds the budget.
  std::uint64_t declined = 0;
  std::size_t resident_bytes = 0;
  std::size_t entries = 0;
};

/// Approximate retained heap bytes of each artifact kind (budget accounting).
std::size_t artifact_bytes(const core::PreprocessArtifact& artifact);
std::size_t artifact_bytes(const core::OverlapArtifact& artifact);
std::size_t artifact_bytes(const core::CoarsenArtifact& artifact);

class ArtifactCache final : public core::StageCache {
 public:
  /// `budget_bytes` bounds the resident artifact bytes; 0 means unlimited.
  explicit ArtifactCache(std::size_t budget_bytes = 0)
      : budget_(budget_bytes) {}

  std::shared_ptr<const core::PreprocessArtifact> get_preprocess(
      const common::Digest& key) override;
  void put_preprocess(
      const common::Digest& key,
      std::shared_ptr<const core::PreprocessArtifact> artifact) override;

  std::shared_ptr<const core::OverlapArtifact> get_overlaps(
      const common::Digest& key) override;
  void put_overlaps(
      const common::Digest& key,
      std::shared_ptr<const core::OverlapArtifact> artifact) override;

  std::shared_ptr<const core::CoarsenArtifact> get_coarsen(
      const common::Digest& key) override;
  void put_coarsen(
      const common::Digest& key,
      std::shared_ptr<const core::CoarsenArtifact> artifact) override;

  std::size_t budget_bytes() const { return budget_; }
  CacheStats stats() const;

 private:
  // The three stage keys are already domain-separated by their hash tags;
  // the kind byte keeps the map partitions disjoint even so.
  enum class Kind : std::uint8_t { kPreprocess = 1, kOverlaps = 2, kCoarsen = 3 };
  struct Key {
    Kind kind;
    common::Digest digest;
    bool operator<(const Key& o) const {
      if (kind != o.kind) return kind < o.kind;
      if (digest.hi != o.digest.hi) return digest.hi < o.digest.hi;
      return digest.lo < o.digest.lo;
    }
  };
  struct Entry {
    std::shared_ptr<const void> value;
    std::size_t bytes = 0;
    std::list<Key>::iterator lru_it;  // position in lru_ (front = most recent)
  };

  std::shared_ptr<const void> get_any(Kind kind, const common::Digest& key);
  void put_any(Kind kind, const common::Digest& key,
               std::shared_ptr<const void> value, std::size_t bytes);

  const std::size_t budget_;
  mutable std::mutex mu_;
  std::map<Key, Entry> entries_;
  std::list<Key> lru_;
  CacheStats stats_;
};

}  // namespace focus::svc
