// Quickstart: assemble a small simulated genome end to end with the Focus
// public API, and check the contigs against the known truth.
//
//   $ ./quickstart [genome_length] [coverage]
//
// Walks the full §II pipeline: simulate reads -> FocusAssembler::assemble()
// -> contigs + statistics, printing what each stage did.
#include <cstdio>
#include <cstdlib>

#include "common/dna.hpp"
#include "common/rng.hpp"
#include "core/assembler.hpp"
#include "sim/community.hpp"
#include "sim/sequencer.hpp"

int main(int argc, char** argv) {
  using namespace focus;

  const std::size_t genome_len =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 5000;
  const double coverage = argc > 2 ? std::atof(argv[2]) : 15.0;

  // 1. Make a genome and sequence it (in real use: io::load_fastx_file).
  Rng rng(2024);
  sim::PhylogenyConfig pc;
  pc.genome_length = genome_len;
  pc.repeat_copies = 1;
  pc.conserved_segments = 0;
  const sim::Community community =
      sim::build_community({{"Example", "Phylum", 1.0}}, pc, rng);
  sim::SequencerConfig sc;
  sc.read_length = 100;
  sc.coverage = coverage;
  // Error-free run so the final exact-substring check is meaningful; see
  // examples/metagenome_community.cpp for a noisy-data run.
  sc.error_rate_5p = 0.0;
  sc.error_rate_3p = 0.0;
  sc.bad_tail_fraction = 0.0;
  const auto sim_reads = sim::shotgun_sequence(community, sc, rng);
  std::printf("Simulated %zu reads of %zu bp at %.1fx coverage from a %zu bp genome\n",
              sim_reads.reads.size(), sc.read_length, coverage, genome_len);

  // 2. Configure and run the assembler. The virtual mpr ranks model the
  // paper's cluster; stage 2's work-stealing pool (overlap.threads = 0 ->
  // FOCUS_THREADS or hardware width) provides real wall-clock parallelism,
  // with byte-identical output at any width.
  core::FocusConfig config;
  config.partitions = 8;   // hybrid graph partitions (k)
  config.ranks = 4;        // worker ranks for every parallel stage
  config.overlap.min_overlap = 50;
  config.overlap.min_identity = 0.90;
  std::printf("Stage-2 pool width: %u threads\n", config.overlap.threads);
  const auto result = core::assemble_reads(sim_reads.reads, config);

  // 3. Inspect the pipeline products.
  std::printf("\nPipeline products:\n");
  std::printf("  preprocessed reads : %zu (reverse complements added)\n",
              result.reads.size());
  std::printf("  verified overlaps  : %zu\n", result.overlaps.size());
  std::printf("  overlap graph G0   : %zu nodes, %zu edges\n",
              result.overlap_graph.node_count(),
              result.overlap_graph.edge_count());
  std::printf("  multilevel set     : %zu levels (G0..Gn)\n",
              result.multilevel.depth());
  std::printf("  hybrid graph G'0   : %zu nodes (read clusters known to be contiguous)\n",
              result.hybrid.hybrid_graph().node_count());
  std::printf("  simplification     : %zu transitive, %zu false edges, "
              "%zu contained, %zu tips, %zu bubble nodes removed\n",
              result.simplify_stats.transitive_edges,
              result.simplify_stats.false_edges,
              result.simplify_stats.contained_nodes,
              result.simplify_stats.tip_nodes,
              result.simplify_stats.bubble_nodes);

  std::printf("\nStage timings (virtual cluster time / host wall time):\n");
  for (const auto& [stage, t] : result.timings) {
    std::printf("  %-14s %10.6f s  /  %8.3f s\n", stage.c_str(), t.vtime,
                t.wall);
  }

  // 4. Contigs and quality check against the known genome.
  std::printf("\nAssembly: %zu contigs, N50 = %llu bp, max = %llu bp\n",
              result.stats.contig_count,
              static_cast<unsigned long long>(result.stats.n50),
              static_cast<unsigned long long>(result.stats.max_contig));
  std::size_t matching = 0;
  for (const auto& contig : result.contigs) {
    const std::string rc = dna::reverse_complement(contig);
    if (community.genera[0].genome.find(contig) != std::string::npos ||
        community.genera[0].genome.find(rc) != std::string::npos) {
      ++matching;
    }
  }
  std::printf("Contigs exactly matching the true genome: %zu / %zu\n",
              matching, result.contigs.size());
  return 0;
}
