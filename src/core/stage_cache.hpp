// Stage-artifact caching hooks for the assembly pipeline.
//
// The same dataset is often re-assembled with tweaked downstream knobs (the
// pipeline benchmark's `resweep` workload re-partitions one dataset at many
// k). The expensive early stages — preprocessing (packed reads), overlap
// discovery (the product of the k-mer index), and multilevel coarsening (the
// graph hierarchy) — are pure functions of (dataset, config), so their
// results can be cached and re-used across runs.
//
// This header defines the *mechanism* the assembler consults: immutable
// artifact value types, a digest-chained key schema, and an abstract
// StageCache interface. The *policy* (LRU under a byte budget, statistics)
// lives in svc::ArtifactCache, which implements the interface; the core
// library never depends on the service layer.
//
// Key schema (see stage_cache.cpp): every key chains the upstream artifact's
// key with this stage's config fingerprint AND the execution envelope
// (ranks, cost model, fault plan/config, wire protocol). Stage *outputs* are
// byte-identical across ranks and protocols, but the recorded RunStats
// (makespans, message counts, recovery counters) are not — and a cache hit
// must reproduce the exact AssemblyResult a fresh run would produce, stats
// included. Keying on the envelope keeps that property at the cost of some
// hit rate; determinism outranks reuse. Pool widths are not keyed: the
// stage-2 drivers' overlaps and RunStats are bit-identical at every
// `overlap.threads` width, and `coarsen.threads` has no effect.
//
// Note on the k-mer index: the overlap stage's indices (per-subset hashed
// postings) are transients of the stage — built once per reference subset
// per call and freed before it returns. What the cache stores is the
// stage's deterministic product, the deduped overlap set, which is what
// every repeat run actually needs.
#pragma once

#include <memory>
#include <vector>

#include "align/overlap.hpp"
#include "common/digest.hpp"
#include "graph/coarsen.hpp"
#include "graph/graph.hpp"
#include "io/preprocess.hpp"
#include "io/read.hpp"
#include "mpr/runtime.hpp"

namespace focus::core {

struct FocusConfig;

/// Stage-1 product: trimmed reads with reverse-complement twins, plus the
/// stats and runtime accounting a fresh run would have produced.
struct PreprocessArtifact {
  io::ReadSet reads;
  io::PreprocessStats stats;
  mpr::RunStats run;
};

/// Stage-2 product: the deduped overlap set, the RunStats of the driver that
/// produced it (AssemblyResult::align_run) and the stage's virtual-time
/// charge.
struct OverlapArtifact {
  std::vector<align::Overlap> overlaps;
  mpr::RunStats run;
  double vtime = 0.0;
};

/// Stage-3 product: the overlap graph and its multilevel coarsening
/// hierarchy, plus the stage's virtual-time charge.
struct CoarsenArtifact {
  graph::Graph overlap_graph;
  graph::GraphHierarchy multilevel;
  double vtime = 0.0;
};

/// Cache interface the assembler consults when one is supplied. Artifacts
/// are shared immutable values: get() returns a pointer the caller copies
/// from (the assembler's result owns its data), put() hands ownership of a
/// freshly built artifact to the cache. Implementations must be thread-safe
/// — concurrent assemblies may share one cache. A get() miss returns
/// nullptr; put() may decline to retain (budget) without signalling.
class StageCache {
 public:
  virtual ~StageCache() = default;

  virtual std::shared_ptr<const PreprocessArtifact> get_preprocess(
      const common::Digest& key) = 0;
  virtual void put_preprocess(
      const common::Digest& key,
      std::shared_ptr<const PreprocessArtifact> artifact) = 0;

  virtual std::shared_ptr<const OverlapArtifact> get_overlaps(
      const common::Digest& key) = 0;
  virtual void put_overlaps(const common::Digest& key,
                            std::shared_ptr<const OverlapArtifact> artifact) = 0;

  virtual std::shared_ptr<const CoarsenArtifact> get_coarsen(
      const common::Digest& key) = 0;
  virtual void put_coarsen(const common::Digest& key,
                           std::shared_ptr<const CoarsenArtifact> artifact) = 0;
};

/// Content digest of a read set (names, sequences, qualities, provenance).
/// The dataset half of every cache key.
common::Digest dataset_digest(const io::ReadSet& reads);

/// Stage keys, each chaining the upstream key with the stage fingerprint and
/// the execution envelope (see file comment).
common::Digest preprocess_key(const common::Digest& dataset,
                              const FocusConfig& config);
common::Digest overlap_key(const common::Digest& preprocess,
                           const FocusConfig& config);
common::Digest coarsen_key(const common::Digest& overlap,
                           const FocusConfig& config);

}  // namespace focus::core
