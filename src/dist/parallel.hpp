// mpr-parallel drivers for the distributed graph algorithms (paper §V, §VI-D).
//
// The hybrid graph is partitioned; two wire protocols drive the scans
// (DistConfig::protocol). kMaster is the paper's protocol: partitions are
// assigned round-robin, workers scan and ship recorded changes to the master
// (rank 0), which applies them between phases. kSymmetric has no
// irreplaceable rank (DESIGN.md §7b): its fault-free simplify is
// owner-computes, and its recovering drivers let a survivor take over the
// coordinator role. Both produce byte-identical output.
//
// Fault tolerance (DESIGN.md §7): each recovering driver has one coordinator
// body and one worker scan, run under both protocols by the engine in
// mpr/ft_phase.hpp. The coordinator sends each live worker a scan command
// naming its partitions, collects one record frame per worker with a timed
// receive, and on a worker timeout reassigns the dead worker's partitions
// to the survivors and replays the phase (bounded by
// FaultConfig::max_retries). Records are absorbed in a canonical partition
// order that is independent of which rank scanned them, so a recovered run
// applies the exact change sequence of a fault-free run. Each completed
// phase is committed to a log: replicated under kSymmetric, so a survivor
// can take over from it; kept on rank 0 under kMaster, whose coordinator is
// fixed. A run whose coordinator role dies with no successor (rank 0 under
// kMaster, every rank under kSymmetric) throws focus::Error.
//
// An empty plan injects nothing. traverse_parallel runs its recovering
// driver for every plan, as do partition and variants. Three stages keep a
// fault-free path for an empty plan: preprocess (its symmetric write-ahead
// log replicates the whole read set: +1.2% total vtime at 8 ranks),
// simplify_parallel (its owner-computes path is the Fig. 6 trim curve; the
// recovering driver's 8-rank speedups, 1.72x master and 1.21x symmetric,
// miss the DistParallelTiming floors of 2.0x and 1.5x) and overlap_parallel
// (its empty plan is align::find_overlaps_parallel, the driver the
// assembler's default all-pairs strategy calls without a plan).
#pragma once

#include <span>

#include "align/overlapper.hpp"
#include "dist/simplify.hpp"
#include "dist/traverse.hpp"
#include "mpr/runtime.hpp"

namespace focus {
struct EnvSnapshot;
}

namespace focus::dist {

/// Wire protocol of the distributed simplify/traverse drivers.
///
/// kMaster is the paper's protocol: workers scan and ship records to rank 0,
/// which applies them between phases — simple, but the master-side apply and
/// sub-path join serialize on rank 0's clock.
///
/// kSymmetric has no irreplaceable rank (DESIGN.md §7b). Its fault-free
/// simplify is owner-computes: partitions are LPT-assigned to ranks by
/// estimated scan cost, every rank applies the deltas for the nodes and
/// edges it owns, and cross-owner deltas travel in batched
/// mpr::exchange_deltas rounds. Every recovering driver replicates its
/// phase log under kSymmetric, so a survivor can take over the coordinator
/// role and any rank but the last may die.
/// Both protocols produce byte-identical graphs, stats and paths
/// (tests/dist_protocol_test.cpp).
enum class DistProtocol {
  kMaster,
  kSymmetric,
};

/// Reads FOCUS_DIST_PROTOCOL ('master' | 'symmetric'; unset/empty =
/// symmetric as of PR 9).
DistProtocol dist_protocol_from_env();

/// Same, resolved against an already-captured environment snapshot.
DistProtocol dist_protocol_from_env(const EnvSnapshot& env);

/// Knobs shared by the simplify/traverse drivers.
struct DistConfig {
  DistProtocol protocol = dist_protocol_from_env();
};

/// Nodes of each partition, in ascending node-id order. This is the host-side
/// gather the simplify, traverse and variants drivers run before entering the
/// mpr runtime. `threads` follows the PartitionerConfig::threads convention
/// (0 = auto via FOCUS_THREADS; 1 = serial): with more than one thread,
/// chunks of the part vector are scattered in parallel into per-chunk lists
/// that are merged in chunk order, so the result is identical at every width.
std::vector<std::vector<NodeId>> partition_node_lists(
    std::span<const PartId> part, PartId nparts, unsigned threads = 1);

struct ParallelSimplifyResult {
  SimplifyStats stats;
  mpr::RunStats run;
};

/// Distributed graph trimming: transitive reduction, containment removal and
/// edge verification, dead-end trimming, bubble popping — each as a
/// worker-record / coordinator-apply phase. `threads`
/// parallelizes the host-side partition gather only (see
/// partition_node_lists); the per-rank bodies stay single-threaded so the
/// virtual-time measurement is not confounded by host parallelism.
/// A non-empty `fault_plan` selects the recovering driver (see file
/// comment); `fault` bounds its retries and sets the receive deadline.
ParallelSimplifyResult simplify_parallel(AsmGraph& g,
                                         std::span<const PartId> part,
                                         PartId nparts,
                                         const SimplifyConfig& config,
                                         int nranks, mpr::CostModel cost = {},
                                         unsigned threads = 1,
                                         const mpr::FaultPlan& fault_plan = {},
                                         const mpr::FaultConfig& fault = {},
                                         const DistConfig& dist = {});

struct ParallelTraverseResult {
  std::vector<std::vector<NodeId>> paths;
  mpr::RunStats run;
};

/// Distributed maximal-path traversal: workers grow partition-local
/// sub-paths; the coordinator joins them across partition boundaries from
/// the logged sub-paths (rank 0 under kMaster; under kSymmetric whichever
/// rank holds the role). Runs the recovering driver for every plan.
/// `threads` and `fault` as in simplify_parallel.
ParallelTraverseResult traverse_parallel(const AsmGraph& g,
                                         std::span<const PartId> part,
                                         PartId nparts, int nranks,
                                         mpr::CostModel cost = {},
                                         unsigned threads = 1,
                                         const mpr::FaultPlan& fault_plan = {},
                                         const mpr::FaultConfig& fault = {},
                                         const DistConfig& dist = {});

struct ParallelOverlapResult {
  std::vector<align::Overlap> overlaps;
  mpr::RunStats run;
};

/// Stage-2 overlap discovery inside the drivers' fault envelope. An empty
/// plan runs align::find_overlaps_parallel, so its overlaps and RunStats are
/// exactly that driver's. A non-empty plan runs the recovering driver on the
/// same unit: partition p is subset pair p in find_overlaps_parallel's
/// j-major order, owned by rank p % nranks while that rank lives. Every
/// subset's index is built once per call on one pool of config.threads
/// workers and kept until the call ends, so a pair replayed on a survivor
/// finds its index; the replay is charged the build its rank would pay, and
/// the scan is pure in (reads, config, p), so a recovered run returns
/// find_overlaps_serial's bytes (tests/overlap_dist_test.cpp,
/// tests/mpr_fault_test.cpp). `dist` picks the recovery wire protocol:
/// master (the coordinator is fixed at rank 0, whose death throws) or
/// symmetric (a replicated log lets a survivor take over after any rank's
/// death, including rank 0's).
ParallelOverlapResult overlap_parallel(const io::ReadSet& reads,
                                       const align::OverlapperConfig& config,
                                       int nranks, mpr::CostModel cost = {},
                                       const mpr::FaultPlan& fault_plan = {},
                                       const mpr::FaultConfig& fault = {},
                                       const DistConfig& dist = {});

}  // namespace focus::dist
