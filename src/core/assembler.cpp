#include "core/assembler.hpp"

#include <algorithm>
#include <memory>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"

namespace focus::core {

double AssemblyResult::total_vtime() const {
  double total = 0.0;
  for (const auto& [stage, timing] : timings) total += timing.vtime;
  return total;
}

FocusConfig::FocusConfig(const EnvSnapshot& env)
    // Designated/aggregate initializers bypass the members' own env-reading
    // defaults, so this constructor performs zero getenv calls: every
    // env-defaulted knob comes from the one snapshot.
    : overlap{.strategy = align::seed_strategy_from_env(env)},
      fault_plan(mpr::FaultPlan::from_env(env)),
      fault(mpr::FaultConfig::from_env(env)),
      dist{dist::dist_protocol_from_env(env)},
      graph_store(graph::GraphStoreConfig::from_env(env)) {
  // Bake stage 2's auto pool width now so no pipeline stage consults the
  // environment later: a mid-run setenv("FOCUS_THREADS") has no effect on an
  // already-constructed config.
  if (overlap.threads == 0) overlap.threads = default_thread_count(env);
}

FocusAssembler::FocusAssembler(FocusConfig config)
    : config_(std::move(config)) {
  FOCUS_CHECK(config_.partitions >= 1 &&
                  (config_.partitions & (config_.partitions - 1)) == 0,
              "partition count must be a power of two");
  FOCUS_CHECK(config_.partitions <= kMaxPartitions,
              "partition count must be at most " +
                  std::to_string(kMaxPartitions));
  FOCUS_CHECK(config_.ranks >= 1, "need at least one rank");
  FOCUS_CHECK(config_.ranks <= mpr::kMaxRanks,
              "rank count must be at most " + std::to_string(mpr::kMaxRanks));
}

AssemblyResult FocusAssembler::assemble(const io::ReadSet& raw_reads,
                                        StageCache* cache) const {
  AssemblyResult result;
  Timer wall;

  // Digest-chained cache keys (stage_cache.hpp). Only computed when a cache
  // is wired in: the digest walks every read once.
  common::Digest pre_key, ov_key, co_key;
  if (cache != nullptr) {
    const common::Digest dataset = dataset_digest(raw_reads);
    pre_key = preprocess_key(dataset, config_);
    ov_key = overlap_key(pre_key, config_);
    co_key = coarsen_key(ov_key, config_);
  }

  // --- Stage 1: preprocessing (§II-A), parallel over read chunks. ---------
  {
    std::shared_ptr<const PreprocessArtifact> hit;
    if (cache != nullptr) hit = cache->get_preprocess(pre_key);
    if (hit != nullptr) {
      result.reads = hit->reads;
      result.preprocess_stats = hit->stats;
      result.preprocess_run = hit->run;
      result.cache_hits.preprocess = true;
    } else {
      auto preprocessed = io::preprocess_parallel(
          raw_reads, config_.preprocess, config_.ranks, config_.cost,
          config_.fault_plan, config_.fault,
          config_.dist.protocol == dist::DistProtocol::kSymmetric);
      result.reads = std::move(preprocessed.reads);
      result.preprocess_stats = preprocessed.stats;
      result.preprocess_run = preprocessed.run;
      if (cache != nullptr) {
        auto artifact = std::make_shared<PreprocessArtifact>();
        artifact->reads = result.reads;
        artifact->stats = result.preprocess_stats;
        artifact->run = result.preprocess_run;
        cache->put_preprocess(pre_key, std::move(artifact));
      }
    }
    FOCUS_CHECK(!result.reads.empty(),
                "no reads survive preprocessing; relax the trimming thresholds");
    StageTiming t;
    t.wall = wall.seconds();
    t.vtime = result.preprocess_run.makespan;
    result.timings["1-preprocess"] = t;
  }

  // --- Stage 2: parallel read alignment (§II-B). --------------------------
  wall.restart();
  {
    std::shared_ptr<const OverlapArtifact> hit;
    if (cache != nullptr) hit = cache->get_overlaps(ov_key);
    double align_vtime = 0.0;
    if (hit != nullptr) {
      result.overlaps = hit->overlaps;
      result.align_run = hit->run;
      align_vtime = hit->vtime;
      result.cache_hits.overlaps = true;
    } else if (config_.overlap.strategy ==
               align::SeedStrategy::kDistributedIndex) {
      // Stage 2 inside the fault envelope: an active fault plan covers the
      // subset pairs with the same replay recovery as the graph stages; an
      // empty plan runs find_overlaps_parallel.
      auto aligned = dist::overlap_parallel(
          result.reads, config_.overlap, config_.ranks, config_.cost,
          config_.fault_plan, config_.fault, config_.dist);
      result.overlaps = std::move(aligned.overlaps);
      result.align_run = aligned.run;
      align_vtime = aligned.run.makespan;
    } else {
      auto aligned = align::find_overlaps_parallel(
          result.reads, config_.overlap, config_.ranks, config_.cost);
      result.overlaps = std::move(aligned.overlaps);
      result.align_run = aligned.stats;
      align_vtime = aligned.stats.makespan;
    }
    if (cache != nullptr && hit == nullptr) {
      auto artifact = std::make_shared<OverlapArtifact>();
      artifact->overlaps = result.overlaps;
      artifact->run = result.align_run;
      artifact->vtime = align_vtime;
      cache->put_overlaps(ov_key, std::move(artifact));
    }
    StageTiming t;
    t.wall = wall.seconds();
    t.vtime = align_vtime;
    result.timings["2-align"] = t;
  }

  // --- Stage 3: overlap graph + multilevel graph set (§II-C). -------------
  wall.restart();
  {
    std::shared_ptr<const CoarsenArtifact> hit;
    if (cache != nullptr) hit = cache->get_coarsen(co_key);
    double coarsen_vtime = 0.0;
    if (hit != nullptr) {
      result.overlap_graph = hit->overlap_graph;
      result.multilevel = hit->multilevel;
      coarsen_vtime = hit->vtime;
      result.cache_hits.coarsen = true;
    } else {
      result.overlap_graph =
          graph::build_overlap_graph(result.reads.size(), result.overlaps);
      result.multilevel =
          graph::build_multilevel(result.overlap_graph, config_.coarsen);
      double edges = 0.0;
      for (const auto& level : result.multilevel.levels) {
        edges += static_cast<double>(level.edge_count());
      }
      coarsen_vtime = config_.cost.compute_cost(edges);
      if (cache != nullptr) {
        auto artifact = std::make_shared<CoarsenArtifact>();
        artifact->overlap_graph = result.overlap_graph;
        artifact->multilevel = result.multilevel;
        artifact->vtime = coarsen_vtime;
        cache->put_coarsen(co_key, std::move(artifact));
      }
    }
    StageTiming t;
    t.wall = wall.seconds();
    t.vtime = coarsen_vtime;
    result.timings["3-coarsen"] = t;
  }

  // --- Stage 4: hybrid graph set (§II-D). ----------------------------------
  wall.restart();
  graph::Digraph read_graph =
      graph::build_read_digraph(result.reads.size(), result.overlaps);
  {
    std::vector<std::uint32_t> lengths;
    lengths.reserve(result.reads.size());
    for (const auto& r : result.reads) {
      lengths.push_back(static_cast<std::uint32_t>(r.seq.size()));
    }
    result.hybrid =
        graph::build_hybrid(result.multilevel, read_graph, std::move(lengths));
    StageTiming t;
    t.wall = wall.seconds();
    t.vtime = config_.cost.compute_cost(result.hybrid.selection_work);
    result.timings["4-hybrid"] = t;
  }

  // --- Stage 5: graph partitioning (§IV). ----------------------------------
  wall.restart();
  const graph::GraphHierarchy& hierarchy = config_.use_hybrid_partitioning
                                               ? result.hybrid.hierarchy
                                               : result.multilevel;
  {
    auto parted = partition::partition_hierarchy_parallel(
        hierarchy, config_.partitions, config_.partitioner, config_.ranks,
        config_.cost, config_.fault_plan, config_.fault,
        config_.dist.protocol == dist::DistProtocol::kSymmetric);
    result.partitioning = std::move(parted.partitioning);
    result.partition_run = parted.stats;
    StageTiming t;
    t.wall = wall.seconds();
    t.vtime = parted.stats.makespan;
    result.timings["5-partition"] = t;
  }

  // Per-read partition: project through the hybrid clusters, or use the
  // multilevel finest level (== reads) directly.
  if (config_.use_hybrid_partitioning) {
    result.read_partition = result.hybrid.project_to_reads(
        result.partitioning.finest(), result.reads.size());
  } else {
    result.read_partition = result.partitioning.finest();
  }

  // --- Stage 6: assembly graph + distributed simplification (§V-A/B/C). ---
  wall.restart();
  // Partition of each assembly node (assembly node ids mirror hybrid node
  // ids): hybrid partition if partitioning the hybrid set; majority over
  // cluster reads otherwise.
  std::vector<PartId> node_part(result.hybrid.cluster_reads.size(), 0);
  if (config_.use_hybrid_partitioning) {
    node_part = result.partitioning.finest();
  } else {
    for (NodeId h = 0; h < result.hybrid.cluster_reads.size(); ++h) {
      std::map<PartId, std::size_t> votes;
      for (const NodeId read : result.hybrid.cluster_reads[h]) {
        ++votes[result.read_partition[read]];
      }
      node_part[h] = std::max_element(votes.begin(), votes.end(),
                                      [](const auto& a, const auto& b) {
                                        return a.second < b.second;
                                      })
                         ->first;
    }
  }

  AsmBuildResult built =
      build_assembly_graph(result.hybrid, read_graph, result.reads);
  {
    auto simplified = dist::simplify_parallel(
        built.graph, node_part, config_.partitions, config_.simplify,
        config_.ranks, config_.cost, /*threads (no effect)=*/1,
        config_.fault_plan, config_.fault, config_.dist);
    result.simplify_stats = simplified.stats;
    result.simplify_run = simplified.run;
    StageTiming t;
    t.wall = wall.seconds();
    t.vtime = simplified.run.makespan;
    result.timings["6-simplify"] = t;
  }

  // --- Stage 7: distributed traversal + contig construction (§V-D). -------
  wall.restart();
  {
    auto traversed = dist::traverse_parallel(
        built.graph, node_part, config_.partitions, config_.ranks,
        config_.cost, /*threads (no effect)=*/1, config_.fault_plan,
        config_.fault, config_.dist);
    result.paths = std::move(traversed.paths);
    result.traverse_run = traversed.run;
    std::vector<std::string> contigs;
    contigs.reserve(result.paths.size());
    for (const auto& path : result.paths) {
      contigs.push_back(built.graph.merge_path_contigs(path));
    }
    result.contigs =
        dedupe_contigs(std::move(contigs), config_.min_contig_length);
    result.stats = assembly_stats(result.contigs);
    StageTiming t;
    t.wall = wall.seconds();
    t.vtime = traversed.run.makespan;
    result.timings["7-traverse"] = t;
  }
  result.assembly_graph = std::move(built.graph);

  return result;
}

AssemblyResult assemble_reads(const io::ReadSet& raw_reads,
                              const FocusConfig& config) {
  return FocusAssembler(config).assemble(raw_reads);
}

}  // namespace focus::core
