// Read overlap detection (paper §II-B, "Parallel Read Alignment").
//
// The read set is split into subsets; for every ordered-pair-free combination
// of subsets (i, j), i <= j, the reference subset j is indexed and every
// query read of subset i is:
//   1. decomposed into k-mers,
//   2. matched against the index (reads with >= min_kmer_hits seed hits on a
//      consistent diagonal become candidates),
//   3. verified with the two-pass banded Needleman–Wunsch kernel over the
//      implied overlap region (score-only pass + conservative prefilter,
//      then traceback only for surviving candidates — see banded_nw.hpp),
//   4. accepted if the alignment length and identity meet the thresholds,
//      then classified as suffix/prefix overlap or containment.
//
// Two seed backends produce byte-identical overlap sets:
//   * SeedBackend::kKmerHash (default) — 2-bit packed reads + hashed k-mer
//     postings index (kmer_index.hpp), O(1) expected per seed lookup.
//   * SeedBackend::kSuffixArray — the paper's suffix array, O(k log n) per
//     lookup; kept as the reference oracle (tests/seed_equiv_test.cpp).
//
// Subset pairs are independent, which is the parallelism the paper exploits:
// find_overlaps_parallel() stripes the pairs over mpr ranks (pair p, in
// j-major order, goes to rank p % nranks) and gathers the results at rank 0.
// dist::overlap_parallel() runs the same pairs as the replay unit of the
// fault-tolerant drivers (dist/parallel.hpp). Both drivers run their host
// work on one ThreadPool of config.threads workers (stage2_pool), shared by
// every rank thread of a call: each non-empty subset's index is built once
// on it per call, and each pair's queries are scanned on it as fixed
// 16-query blocks (PairScanner).
//
// OverlapperConfig::strategy does not change how pairs are seeded: both
// values index the same subset pairs and return the same bytes. It only
// chooses which driver the assembler's stage 2 calls (SeedStrategy below).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "align/align_scratch.hpp"
#include "align/kmer_index.hpp"
#include "align/overlap.hpp"
#include "align/suffix_array.hpp"
#include "io/read.hpp"
#include "mpr/runtime.hpp"

namespace focus {
struct EnvSnapshot;
class ThreadPool;
}

namespace focus::align {

/// Which index structure backs k-mer seeding.
enum class SeedBackend {
  kKmerHash,     ///< hashed postings over 2-bit packed k-mers (fast path)
  kSuffixArray,  ///< the paper's suffix array (reference oracle)
};

/// Which stage-2 driver the assembler runs. Both seed the same subset pairs
/// and produce byte-identical overlaps; the value names are kept for the
/// FOCUS_SEED_STRATEGY spellings.
enum class SeedStrategy {
  kAllPairs,          ///< find_overlaps_parallel, outside the fault envelope
  kDistributedIndex,  ///< dist::overlap_parallel, under FocusConfig::fault_plan
};

/// FOCUS_SEED_STRATEGY env override: "all-pairs"/"allpairs" or
/// "distributed"/"distributed-index"; unset/empty keeps the default
/// (all-pairs). Any other value throws — a typo must not silently fall back.
SeedStrategy seed_strategy_from_env();

/// Same, resolved against an already-captured environment snapshot
/// (FocusConfig takes one snapshot and derives every env default from it).
SeedStrategy seed_strategy_from_env(const EnvSnapshot& env);

struct OverlapperConfig {
  /// Seed k-mer length.
  unsigned k = 16;
  /// Minimum seed hits on a consistent diagonal to trigger verification.
  std::size_t min_kmer_hits = 3;
  /// Diagonal clustering tolerance (accounts for small indels).
  std::int64_t diagonal_tolerance = 3;
  /// Seeds occurring more often than this in the index are skipped
  /// (repeat masking).
  std::size_t max_kmer_occurrences = 64;
  /// Paper thresholds: minimum overlap length and identity.
  std::uint32_t min_overlap = 50;
  double min_identity = 0.90;
  /// Banded-NW half band width.
  std::uint32_t band = 8;
  /// Number of read subsets for pairwise parallel alignment.
  std::size_t subsets = 4;
  /// Width of the stage-2 host pool (stage2_pool): the one ThreadPool a
  /// driver call builds its indexes and scans its query blocks on, shared by
  /// all of the call's ranks. 1 = no workers (every rank scans inline), 0 =
  /// auto (FOCUS_THREADS env var if set, else hardware concurrency).
  /// Overlaps and RunStats are bit-identical for every value.
  unsigned threads = 0;
  /// Seed index backend. Both backends produce byte-identical overlaps;
  /// the hash backend replaces each O(k log n) suffix-array lookup with an
  /// O(1) expected hash probe.
  SeedBackend seed_backend = SeedBackend::kKmerHash;
  /// Stage-2 driver of the assembler (see SeedStrategy); every function in
  /// this header ignores it. Defaults to the FOCUS_SEED_STRATEGY env
  /// override, else all-pairs.
  SeedStrategy strategy = seed_strategy_from_env();
};

/// Seed index over one reference subset, backed by either a hashed k-mer
/// postings index or a suffix array (config.seed_backend). For the suffix
/// array, reads are concatenated with a '\x01' separator, which cannot occur
/// inside an ACGT seed, so every seed hit lies within a single read. Text
/// offsets are 32-bit: a subset of 2^32 or more text bytes (reads plus
/// separators) throws focus::Error before anything is built.
class RefIndex {
 public:
  RefIndex(const io::ReadSet& reads, std::vector<ReadId> members,
           const OverlapperConfig& config = {});

  const std::vector<ReadId>& members() const { return members_; }

  SeedBackend backend() const { return backend_; }

  /// Seed length the index was built for (hash backend; the suffix array is
  /// k-agnostic and reports the construction-time config value).
  unsigned seed_k() const { return seed_k_; }

  /// (read-set id, offset within that read) of a concatenated-text position.
  std::pair<ReadId, std::uint32_t> resolve(std::uint32_t text_pos) const;

  /// (member index, offset within that read) of a concatenated-text position.
  std::pair<std::uint32_t, std::uint32_t> resolve_member(
      std::uint32_t text_pos) const;

  /// The suffix array (only when backend() == kSuffixArray).
  const SuffixArray& sa() const;

  /// The hashed k-mer index (only when backend() == kKmerHash).
  const KmerIndex& kmers() const;

  /// Work units spent building the active index.
  double build_work() const;

 private:
  std::vector<ReadId> members_;
  SeedBackend backend_;
  unsigned seed_k_;
  std::vector<std::uint32_t> starts_;  // text start offset per member
  std::optional<SuffixArray> sa_;
  std::optional<KmerIndex> kmers_;
};

/// Finds all accepted overlaps of `query` (with set-id `query_id`) against
/// the indexed reads. Self-matches (query_id == member id) are skipped.
/// `work` (if non-null) accumulates DP/search work units.
std::vector<Overlap> query_overlaps(const io::ReadSet& reads,
                                    const RefIndex& index, ReadId query_id,
                                    const OverlapperConfig& config,
                                    double* work = nullptr);

/// Allocation-lean variant: appends accepted overlaps to `out` and keeps all
/// intermediate state (hit counters, probe ranges, candidates, diagonals, DP
/// buffers) in `scratch`, so driving many queries through one scratch arena
/// performs no per-query heap allocation after warmup. Drivers call this;
/// the returning wrapper above is for one-off queries.
///
/// Seeding is count-then-gather: pass 1 counts each member's non-self hits
/// and records every unmasked probe's hit range; the members with at least
/// min_kmer_hits hits become candidates in ReadId order, each with a slice of
/// one flat diagonal array; pass 2 re-walks the recorded ranges and scatters
/// the candidates' diagonals; the consensus diagonal of each slice is
/// verified with verify_overlap(). Work is charged in pass 1 and by the
/// verification, in the same order as a per-member-list implementation.
void query_overlaps_into(const io::ReadSet& reads, const RefIndex& index,
                         ReadId query_id, const OverlapperConfig& config,
                         AlignScratch& scratch, std::vector<Overlap>& out,
                         double* work = nullptr);

/// Verifies the overlap of reads `query` and `ref` that a consensus seed
/// diagonal implies (query base i aligns ref base i - diagonal): the
/// two-pass banded NW over the implied window, the length and identity
/// thresholds, then the overlap kind. nullopt if the window is shorter than
/// min_overlap or the alignment fails a threshold. `work` (if non-null)
/// accumulates the DP work units.
std::optional<Overlap> verify_overlap(const io::ReadSet& reads, ReadId query,
                                      ReadId ref, std::int64_t diagonal,
                                      const OverlapperConfig& config,
                                      double* work = nullptr);

/// The input contract every stage-2 entry point checks before any work: at
/// least one subset and a seed length k in [8, 32]. Throws focus::Error.
void check_overlapper_config(const OverlapperConfig& config);

/// All-pairs overlap detection, single-threaded reference implementation.
std::vector<Overlap> find_overlaps_serial(const io::ReadSet& reads,
                                          const OverlapperConfig& config,
                                          double* work = nullptr);

/// One (query subset i, reference subset j) pair, i <= j.
struct SubsetPair {
  std::size_t i;
  std::size_t j;
};

/// The subset pairs in j-major order: j outer, i = 0..j inner. Pair p is the
/// unit both mpr drivers distribute: find_overlaps_parallel scans it on rank
/// p % nranks, and dist::overlap_parallel replays it as partition p.
std::vector<SubsetPair> subset_pairs(std::size_t subsets);

/// Queries per block of a pair scan. Fixed (never derived from the pool
/// width) so the block decomposition, and with it the order work units are
/// summed in, is the same at every width.
inline constexpr std::size_t kQueriesPerTask = 16;

/// Stage 2's host pool of `threads` workers (resolved with
/// resolve_thread_count): created by the first call that asks for that
/// width and kept for the life of the process, so every call and every
/// concurrent assembly at that width shares it (ThreadPool supports several
/// external callers). The workers outlive the calls on purpose: glibc gives
/// each thread that allocates its own malloc arena and keeps an arena's
/// free top resident, so a per-call pool's exiting workers would hand their
/// arenas to the ranks of later stages and spread their high-water marks
/// over three more arenas (measured: `resweep` peak RSS +26%, 144.5 ->
/// 182.7 MB). Persistent workers keep their arenas for stage-2 work.
ThreadPool& stage2_pool(unsigned threads);

/// The seed index of every subset, built once per driver call on `pool`
/// (one task per non-empty subset) and shared read-only by the call's ranks.
/// Entry j is null for an empty subset.
using SubsetIndexes = std::vector<std::unique_ptr<const RefIndex>>;

SubsetIndexes build_subset_indexes(
    const io::ReadSet& reads, const std::vector<std::vector<ReadId>>& subsets,
    const OverlapperConfig& config, ThreadPool& pool);

/// Scans subset pairs for one rank of a driver that stripes them with
/// `stride` (the rank count), against the call's shared indexes. A scan
/// splits pair p's queries into kQueriesPerTask blocks on `pool`; each block
/// returns its records and its work sum, and the merge appends the records
/// and adds the sums in block order. Every query charge is an integer
/// (probes, hits, band cells), so a block's sum is exact.
///
/// The work charge models a cluster rank that holds one reference index at
/// a time: it charges build_work() when that rank would build, i.e. when the
/// index it holds is not pair p's, and it lets the index go after pair p
/// when pair p + stride, the rank's next pair, uses another one. Pairs are
/// j-major, so a rank scanning its stripe in order is charged each index it
/// needs once; a pair scanned out of stripe (a replay) is charged the build
/// it would need. The records never depend on the charge. The scanner keeps
/// references to its arguments, which must outlive it.
class PairScanner {
 public:
  PairScanner(const io::ReadSet& reads,
              const std::vector<std::vector<ReadId>>& subsets,
              const std::vector<SubsetPair>& pairs,
              const SubsetIndexes& indexes, const OverlapperConfig& config,
              std::size_t stride, ThreadPool& pool);

  /// Appends pair p's accepted overlaps to `out`; `*work` accumulates the
  /// build charge (when one is due) and the query work units.
  void scan(std::size_t p, std::vector<Overlap>& out, double* work);

 private:
  const io::ReadSet& reads_;
  const std::vector<std::vector<ReadId>>& subsets_;
  const std::vector<SubsetPair>& pairs_;
  const SubsetIndexes& indexes_;
  const OverlapperConfig& config_;
  std::size_t stride_;
  ThreadPool& pool_;
  std::optional<std::size_t> held_j_;  // the index the modeled rank holds
};

struct ParallelOverlapResult {
  std::vector<Overlap> overlaps;
  mpr::RunStats stats;
};

/// Distributes the subset pairs across `nranks` mpr ranks (pair p on rank
/// p % nranks, scanned by a PairScanner); rank 0 gathers and deduplicates.
/// Produces the same overlap set as find_overlaps_serial. The host work runs
/// on stage2_pool(config.threads) (ranks + width - 1 threads in all); each
/// index is freed after the last pair that uses it, and the free heap is
/// returned to the system on entry and before the call returns.
ParallelOverlapResult find_overlaps_parallel(const io::ReadSet& reads,
                                             const OverlapperConfig& config,
                                             int nranks,
                                             mpr::CostModel cost = {});

/// Removes duplicate records of the same read pair, keeping the longest
/// (then highest-identity) overlap, all in canonical orientation.
std::vector<Overlap> dedupe_overlaps(std::vector<Overlap> overlaps);

}  // namespace focus::align
