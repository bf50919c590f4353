// Read preprocessing (paper §II-A).
//
// Each read is processed individually:
//   1. fixed-length 5' and 3' trims (adapter/tag removal),
//   2. 3' quality trimming with a sliding window of length l moving from the
//      3' end toward the 5' end in steps of k: once the window's average
//      quality exceeds the threshold q, the read is cut at the right end of
//      that window,
//   3. the reverse complement of every surviving read is generated and added
//      to the read set,
//   4. the read set is split into a user-specified number of subsets for
//      parallel pairwise alignment.
#pragma once

#include <vector>

#include "io/read.hpp"
#include "mpr/runtime.hpp"

namespace focus::io {

struct PreprocessConfig {
  /// Bases removed unconditionally from the 5' end.
  std::size_t trim5 = 0;
  /// Bases removed unconditionally from the 3' end.
  std::size_t trim3 = 0;
  /// Sliding window length l for quality trimming (0 disables).
  std::size_t window_len = 10;
  /// Window step size k.
  std::size_t window_step = 1;
  /// Minimum average Phred quality q; trimming stops at the first window
  /// (from the 3' end) whose average quality exceeds this value.
  double min_quality = 20.0;
  /// Reads shorter than this after trimming are dropped.
  std::size_t min_length = 30;
  /// Add the reverse complement of every kept read (paper behaviour: true).
  bool add_reverse_complements = true;
};

struct PreprocessStats {
  std::size_t input_reads = 0;
  std::size_t dropped_short = 0;
  std::size_t output_reads = 0;
  std::uint64_t bases_trimmed = 0;
};

/// Average Phred score of qual[begin, begin+len); qual is Phred+33.
double window_average_quality(const std::string& qual, std::size_t begin,
                              std::size_t len);

/// Applies the §II-A trimming to a single read. Returns false (and leaves
/// `read` unspecified) if the read does not survive `min_length`.
bool trim_read(Read& read, const PreprocessConfig& config);

/// Full preprocessing pass: trim, drop, reverse-complement-augment. Output
/// reads carry origin = input index and reverse = true for the generated
/// complements (which get a "/rc" name suffix).
ReadSet preprocess(const ReadSet& input, const PreprocessConfig& config,
                   PreprocessStats* stats = nullptr);

/// Splits read ids 0..n-1 into `subsets` contiguous, near-equal ranges
/// (paper: subsets processed pairwise by the parallel aligner).
std::vector<std::vector<ReadId>> split_into_subsets(std::size_t read_count,
                                                    std::size_t subsets);

struct ParallelPreprocessResult {
  ReadSet reads;
  PreprocessStats stats;
  mpr::RunStats run;
};

/// mpr-parallel preprocessing: each rank trims and reverse-complements a
/// contiguous chunk of the input; rank 0 gathers the chunks in rank order,
/// so the output is identical to the serial preprocess().
///
/// With a non-empty fault plan the stage runs under the recovering phase
/// engine (mpr/ft_phase.hpp) over fixed 64-read blocks — the block
/// decomposition is a pure function of the read count, so replayed blocks
/// reproduce the serial output byte for byte regardless of which surviving
/// rank scans them. `symmetric` replicates the engine's phase log, so a
/// survivor takes over after a rank-0 crash; without it the coordinator is
/// fixed at rank 0, and its death throws focus::Error. It is a plain bool
/// rather than a dist::DistConfig because the io layer sits below dist.
ParallelPreprocessResult preprocess_parallel(
    const ReadSet& input, const PreprocessConfig& config, int nranks,
    mpr::CostModel cost = {}, const mpr::FaultPlan& fault_plan = {},
    const mpr::FaultConfig& fault = {}, bool symmetric = false);

}  // namespace focus::io
