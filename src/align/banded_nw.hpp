// Banded Needleman–Wunsch global alignment (paper §II-B: candidate overlaps
// found by k-mer seeding are verified "using banded Needleman-Wunsch
// alignment").
//
// The DP is restricted to a diagonal band of half-width `band`, so aligning
// two ~L-base overlap regions costs O(band * L) instead of O(L^2).
//
// The kernel is two-pass and allocation-free:
//
//   1. banded_score_only() computes the optimal score from buffers in the
//      thread-local scratch arena (align_scratch.hpp) — no move matrix, no
//      traceback, no allocation.
//   2. score_may_pass() turns that score into conservative upper bounds on
//      alignment columns and identity; candidates whose bounds already fail
//      the overlap thresholds are rejected without ever running pass 2.
//   3. banded_global_align() runs the full DP with the move matrix (also
//      from the scratch arena) and the traceback that yields the exact
//      column/match/gap counts for the paper's two acceptance criteria.
//
// Both passes compute the same recurrence, so banded_score_only().score ==
// banded_global_align().score exactly, and the prefilter never changes which
// overlaps are accepted — only how much work rejection costs.
//
// Each pass runs one of two kernels chosen at run time: an AVX2 kernel over
// anti-diagonals (16 int16 lanes) when the CPU has AVX2, the band is at most
// 32 cells wide and the scoring provably cannot saturate int16; otherwise the
// scalar row kernel. Every result field is identical either way, and the
// work charges below do not depend on the kernel (banded_nw_kernels.hpp,
// DESIGN.md §6a).
#pragma once

#include <cstdint>
#include <string_view>

namespace focus::align {

struct AlignmentResult {
  bool valid = false;        // false if the band could not connect the corners
  std::uint32_t columns = 0; // total alignment columns (matches+mismatches+gaps)
  std::uint32_t matches = 0;
  std::uint32_t mismatches = 0;
  std::uint32_t gaps = 0;
  /// Length of the gap runs at the alignment's two ends. When the aligned
  /// windows are slightly misregistered (an offset-estimate error), the true
  /// overlap is flanked by terminal gaps; end-trimmed statistics ignore them.
  std::uint32_t lead_gaps = 0;
  std::uint32_t tail_gaps = 0;
  std::int32_t score = 0;

  double identity() const {
    return columns == 0 ? 0.0
                        : static_cast<double>(matches) /
                              static_cast<double>(columns);
  }

  /// Columns excluding terminal gap runs.
  std::uint32_t core_columns() const {
    return columns - lead_gaps - tail_gaps;
  }

  /// Identity over the end-trimmed alignment.
  double core_identity() const {
    const std::uint32_t core = core_columns();
    return core == 0 ? 0.0
                     : static_cast<double>(matches) / static_cast<double>(core);
  }
};

struct AlignScoring {
  std::int32_t match = 1;
  std::int32_t mismatch = -2;
  std::int32_t gap = -3;
};

/// Outcome of the score-only first pass.
struct BandScore {
  bool valid = false;   // false if the band could not connect the corners
  std::int32_t score = 0;
};

/// Globally aligns a vs b within a band of half-width `band` around the skew
/// diagonal (the band is widened by |len(a) - len(b)| so both corners are
/// always inside it). DP buffers come from the thread-local scratch arena;
/// no heap allocation after warmup.
AlignmentResult banded_global_align(std::string_view a, std::string_view b,
                                    std::uint32_t band,
                                    const AlignScoring& scoring = {});

/// Score-only pass: identical band geometry and recurrence as
/// banded_global_align, two DP rows, no move matrix. `score` equals the full
/// pass's score exactly.
BandScore banded_score_only(std::string_view a, std::string_view b,
                            std::uint32_t band,
                            const AlignScoring& scoring = {});

/// Conservative prefilter: true if an optimal global alignment of sequences
/// of lengths len_a and len_b with this score COULD have >= min_columns
/// alignment columns and >= min_identity identity. A false return guarantees
/// the full traceback would be rejected by those thresholds, so callers may
/// skip pass 2; a true return promises nothing. Exact for the linear scoring
/// identities M+X+gaps_a = len_a, M+X+gaps_b = len_b; if the scoring does not
/// satisfy match >= mismatch >= 2*gap (needed for the bounds to be sound),
/// the filter abstains and returns true.
bool score_may_pass(std::int32_t score, std::size_t len_a, std::size_t len_b,
                    std::uint32_t min_columns, double min_identity,
                    const AlignScoring& scoring = {});

/// DP work units of the full pass (score + move matrix + traceback), for
/// virtual-time charging.
double banded_align_work(std::size_t len_a, std::size_t len_b,
                         std::uint32_t band);

/// DP work units of the score-only pass. Same cell count as the full pass
/// but charged separately so the two-pass cost model (score pass always,
/// traceback pass only for surviving candidates) stays explicit.
double banded_score_work(std::size_t len_a, std::size_t len_b,
                         std::uint32_t band);

}  // namespace focus::align
