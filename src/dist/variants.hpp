// Variant detection on the (distributed) hybrid assembly graph — the
// extension the paper names as future work in §VI-D: "variant detection
// algorithms can be implemented to be run on the distributed hybrid graph".
//
// A simple bubble whose two branches align at high identity is not an error
// to pop but a *variant site*: two alleles of the same locus (strain-level
// SNPs or small indels in a metagenome). Workers scan their partitions for
// such bubbles and align the branch contigs; the master merges the reports.
// Unlike bubble popping (§V-C) this pass is read-only.
#pragma once

#include <span>
#include <vector>

#include "dist/asm_graph.hpp"
#include "dist/parallel.hpp"
#include "mpr/runtime.hpp"

namespace focus::dist {

struct VariantConfig {
  /// Branches are followed at most this many interior nodes; longer
  /// divergent regions spanning several contigs are still called.
  std::size_t max_branch_nodes = 6;
  /// Minimum identity of the aligned branch contigs for the pair to be a
  /// variant (below this the bubble is noise, not an allele pair).
  double min_identity = 0.80;
  /// Alignment band half-width.
  std::uint32_t band = 16;
  /// For closed bubbles: ignore branch pairs whose lengths differ more than
  /// this factor.
  double max_length_ratio = 1.3;
  /// Also pair *open* branches — chains that diverge from a shared anchor
  /// but never re-merge (haplotype-resolved strains assemble this way).
  /// Their common-length prefixes are aligned instead.
  bool allow_open_bubbles = true;
  /// Minimum compared prefix length for an open-branch pair.
  std::size_t min_open_prefix = 100;
};

/// One called variant site: two alternative branch chains between the same
/// pair of anchor nodes. Trivially copyable for mpr shipping.
struct Variant {
  NodeId branch_point = kInvalidNode;  // last shared node before the alleles
  /// First shared node after the alleles, or kInvalidNode for an open
  /// bubble (the branches never re-merge).
  NodeId merge_point = kInvalidNode;
  NodeId major_allele = kInvalidNode;  // first contig of the stronger branch
  NodeId minor_allele = kInvalidNode;
  Weight major_coverage = 0;           // mean reads per branch node
  Weight minor_coverage = 0;
  std::uint32_t major_nodes = 0;       // branch chain lengths (contigs)
  std::uint32_t minor_nodes = 0;
  std::uint32_t mismatch_sites = 0;    // SNP-like columns between the alleles
  std::uint32_t indel_sites = 0;       // gap columns between the alleles
  float identity = 0.0f;               // alignment identity of the alleles
};

/// Scans `scan` nodes for variant bubbles (read-only).
std::vector<Variant> find_variants(const AsmGraph& g,
                                   std::span<const NodeId> scan,
                                   const VariantConfig& config,
                                   double* work = nullptr);

/// Serial driver over all nodes, with deterministic ordering and
/// deduplication of sites discovered from multiple anchors.
std::vector<Variant> find_variants_serial(const AsmGraph& g,
                                          const VariantConfig& config = {},
                                          double* work = nullptr);

struct ParallelVariantResult {
  std::vector<Variant> variants;
  mpr::RunStats run;
};

/// Distributed driver: partitions round-robin over ranks, coordinator merge
/// + dedupe. The scan runs under the recovering phase engine
/// (mpr/ft_phase.hpp) for every fault plan (an empty plan injects nothing):
/// the coordinator is fixed at rank 0 under kMaster and rotates to a
/// survivor under kSymmetric. Either way a recovered run returns the
/// byte-identical fault-free variant list.
ParallelVariantResult find_variants_parallel(
    const AsmGraph& g, std::span<const PartId> part, PartId nparts,
    const VariantConfig& config, int nranks, mpr::CostModel cost = {},
    const mpr::FaultPlan& fault_plan = {}, const mpr::FaultConfig& fault = {},
    const DistConfig& dist = {});

}  // namespace focus::dist
