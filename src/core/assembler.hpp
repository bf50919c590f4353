// FocusAssembler: the end-to-end pipeline of paper §II —
//   preprocess → parallel read alignment → overlap graph → multilevel graph
//   set → hybrid graph set → graph partitioning → distributed simplification
//   → distributed traversal → contig construction.
//
// The façade exposes both one-call assembly and the intermediate products
// (hierarchies, partitionings, assembly graph), because the paper's
// experiments measure the stages individually.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "align/overlapper.hpp"
#include "common/env.hpp"
#include "core/asm_build.hpp"
#include "core/stage_cache.hpp"
#include "core/stats.hpp"
#include "dist/parallel.hpp"
#include "graph/coarsen.hpp"
#include "graph/graph_store.hpp"
#include "graph/hybrid.hpp"
#include "io/preprocess.hpp"
#include "mpr/cost_model.hpp"
#include "partition/mlpart.hpp"

namespace focus::core {

/// Largest partition count the assembler accepts: the partitioner's wave
/// driver builds 2^s region lists at step s, so memory grows with k whatever
/// the input.
inline constexpr PartId kMaxPartitions = 65536;

struct FocusConfig {
  /// Captures ONE EnvSnapshot and derives every env-defaulted knob from it —
  /// the environment is read once per FocusConfig, never per call inside the
  /// pipeline (OPERATIONS.md, "Environment snapshot").
  FocusConfig() : FocusConfig(EnvSnapshot::capture()) {}

  /// Derives the env-defaulted knobs (overlap.strategy, dist.protocol,
  /// graph_store, fault_plan, fault, the auto overlap.threads width) from an
  /// already-captured snapshot. Pass a default-constructed-from-fields
  /// snapshot (EnvSnapshot{}) for a fully environment-independent config.
  explicit FocusConfig(const EnvSnapshot& env);

  io::PreprocessConfig preprocess;
  align::OverlapperConfig overlap;
  graph::CoarsenConfig coarsen;
  partition::PartitionerConfig partitioner;
  dist::SimplifyConfig simplify;
  /// Number of graph partitions k (power of two, at most kMaxPartitions).
  PartId partitions = 16;
  /// Worker ranks for every parallel stage (at most mpr::kMaxRanks).
  int ranks = 4;
  mpr::CostModel cost;
  /// Partition the hybrid graph set (paper's contribution) instead of the
  /// fully-uncoarsened multilevel set (the naïve baseline).
  bool use_hybrid_partitioning = true;
  /// Collapse reverse-complement contig twins and drop short contigs.
  std::size_t min_contig_length = 100;
  /// Fault schedule for the parallel stages (preprocess, overlap under the
  /// distributed strategy, partition, simplify, traverse). Defaults to the
  /// FOCUS_FAULT_SEED environment plan. An empty plan injects nothing.
  /// Partition and traverse run their recovering driver for every plan;
  /// preprocess, overlap and simplify switch to a fault-free path for an
  /// empty plan (preprocess: the symmetric write-ahead log replicates the
  /// read set, +1.2% total vtime at 8 ranks; overlap: the all-pairs driver
  /// the default strategy runs; simplify: the owner-computes path is the
  /// Fig. 6 trim curve).
  mpr::FaultPlan fault_plan;
  /// Retry bound and receive deadline for fault recovery. Defaults honor
  /// FOCUS_FAULT_MAX_RETRIES / FOCUS_FAULT_RECV_TIMEOUT.
  mpr::FaultConfig fault;
  /// Wire protocol of the fault-tolerant stages (all of the above). Defaults
  /// to the FOCUS_DIST_PROTOCOL environment selection; see dist::DistProtocol.
  dist::DistConfig dist;
  /// Storage backend of the assembly-graph stages (6 and 7): always the
  /// in-memory AsmGraph. Resolved from FOCUS_GRAPH_BACKEND so that the
  /// removed 'csr-spill' value fails loudly (DESIGN.md §8).
  graph::GraphStoreConfig graph_store;
};

/// Virtual + wall time of one pipeline stage.
struct StageTiming {
  double vtime = 0.0;  // simulated cluster makespan (seconds)
  double wall = 0.0;   // host wall clock (seconds)
};

/// Which stage artifacts were served from a StageCache (all false when no
/// cache was supplied or every stage ran fresh). Not part of the assembly
/// output proper: a cached run is byte-identical to a fresh one in every
/// other field.
struct StageCacheHits {
  bool preprocess = false;
  bool overlaps = false;
  bool coarsen = false;
};

struct AssemblyResult {
  io::ReadSet reads;                         // preprocessed (with rc twins)
  io::PreprocessStats preprocess_stats;
  std::vector<align::Overlap> overlaps;
  graph::Graph overlap_graph;                // G0
  graph::GraphHierarchy multilevel;          // {G0 … Gn}
  graph::HybridGraphSet hybrid;              // {G'0 … G'n}
  partition::HierarchyPartitioning partitioning;  // on the chosen hierarchy
  std::vector<PartId> read_partition;        // per preprocessed read
  /// The simplified assembly graph (post §V cleaning) — exportable as GFA.
  dist::AsmGraph assembly_graph;
  dist::SimplifyStats simplify_stats;
  /// Full runtime stats of the distributed stages, including fault-recovery
  /// counters (retries, ranks_failed, recovery_vtime). `align_run` comes
  /// from whichever stage-2 driver ran (or the cached artifact); its
  /// makespan is timings["2-align"].vtime.
  mpr::RunStats preprocess_run;
  mpr::RunStats align_run;
  mpr::RunStats partition_run;
  mpr::RunStats simplify_run;
  mpr::RunStats traverse_run;
  std::vector<std::vector<NodeId>> paths;    // maximal assembly paths
  std::vector<std::string> contigs;          // deduped final contigs
  AssemblyStats stats;
  std::map<std::string, StageTiming> timings;
  StageCacheHits cache_hits;

  /// Sum of stage virtual times (the simulated end-to-end makespan).
  double total_vtime() const;
};

class FocusAssembler {
 public:
  /// Throws focus::Error unless partitions is a power of two in
  /// [1, kMaxPartitions] and ranks is in [1, mpr::kMaxRanks].
  explicit FocusAssembler(FocusConfig config);

  const FocusConfig& config() const { return config_; }

  /// Runs the full pipeline on raw reads.
  AssemblyResult assemble(const io::ReadSet& raw_reads) const {
    return assemble(raw_reads, nullptr);
  }

  /// Runs the full pipeline, consulting `cache` (may be null) for the
  /// stage-1..3 artifacts and depositing freshly built ones. Byte-identical
  /// to the uncached overload apart from AssemblyResult::cache_hits and
  /// wall-clock timings.
  AssemblyResult assemble(const io::ReadSet& raw_reads,
                          StageCache* cache) const;

 private:
  FocusConfig config_;
};

/// One-call convenience.
AssemblyResult assemble_reads(const io::ReadSet& raw_reads,
                              const FocusConfig& config = {});

}  // namespace focus::core
