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
// fault-tolerant drivers (dist/parallel.hpp).
//
// OverlapperConfig::strategy does not change how pairs are seeded: both
// values index the same subset pairs and return the same bytes. It only
// chooses which driver the assembler's stage 2 calls (SeedStrategy below).
#pragma once

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
  /// Real host threads for the pooled aligner (find_overlaps): 1 = serial,
  /// 0 = auto (FOCUS_THREADS env var if set, else hardware concurrency).
  /// Output is byte-identical for every value.
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
/// inside an ACGT seed, so every seed hit lies within a single read.
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
/// intermediate state (seed-hit lists, candidate lists, DP buffers) in
/// `scratch`, so driving many queries through one scratch arena performs no
/// per-query heap allocation after warmup. Drivers call this; the returning
/// wrapper above is for one-off queries.
void query_overlaps_into(const io::ReadSet& reads, const RefIndex& index,
                         ReadId query_id, const OverlapperConfig& config,
                         AlignScratch& scratch, std::vector<Overlap>& out,
                         double* work = nullptr);

/// The input contract every stage-2 entry point checks before any work: at
/// least one subset and a seed length k in [8, 32]. Throws focus::Error.
void check_overlapper_config(const OverlapperConfig& config);

/// All-pairs overlap detection, single-threaded reference implementation.
std::vector<Overlap> find_overlaps_serial(const io::ReadSet& reads,
                                          const OverlapperConfig& config,
                                          double* work = nullptr);

/// All-pairs overlap detection on the shared-memory work-stealing pool
/// (config.threads wide). Reference subsets are indexed once each in
/// parallel; (i, j) subset pairs are split into per-query-chunk tasks whose
/// results are merged in the serial driver's (j, i, read) order — so the
/// returned overlaps are byte-identical to find_overlaps_serial() for every
/// thread count. `work` accumulates the same work units as the serial
/// driver, summed in a thread-count-independent order.
std::vector<Overlap> find_overlaps(const io::ReadSet& reads,
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

/// Scans subset pairs for one rank of a driver that stripes them with
/// `stride` (the rank count). It holds at most one reference index: a pair
/// with another reference subset replaces it, and it is freed after pair p
/// when pair p + stride — the rank's next pair — does not use it. Pairs are
/// j-major, so a rank scanning its stripe in order builds each index it needs
/// once; a pair scanned out of stripe (a replay) rebuilds what it needs, and
/// its records are the same. The scanner keeps references to its arguments,
/// which must outlive it.
class PairScanner {
 public:
  PairScanner(const io::ReadSet& reads,
              const std::vector<std::vector<ReadId>>& subsets,
              const std::vector<SubsetPair>& pairs,
              const OverlapperConfig& config, std::size_t stride);

  /// Appends pair p's accepted overlaps to `out`; `work` accumulates the
  /// index build (when one is built) and the query work units.
  void scan(std::size_t p, std::vector<Overlap>& out, double* work);

 private:
  const io::ReadSet& reads_;
  const std::vector<std::vector<ReadId>>& subsets_;
  const std::vector<SubsetPair>& pairs_;
  const OverlapperConfig& config_;
  std::size_t stride_;
  std::optional<RefIndex> index_;
  std::size_t index_j_ = 0;
};

struct ParallelOverlapResult {
  std::vector<Overlap> overlaps;
  mpr::RunStats stats;
};

/// Distributes the subset pairs across `nranks` mpr ranks (pair p on rank
/// p % nranks, scanned by a PairScanner); rank 0 gathers and deduplicates.
/// Produces the same overlap set as find_overlaps_serial.
ParallelOverlapResult find_overlaps_parallel(const io::ReadSet& reads,
                                             const OverlapperConfig& config,
                                             int nranks,
                                             mpr::CostModel cost = {});

/// Removes duplicate records of the same read pair, keeping the longest
/// (then highest-identity) overlap, all in canonical orientation.
std::vector<Overlap> dedupe_overlaps(std::vector<Overlap> overlaps);

}  // namespace focus::align
