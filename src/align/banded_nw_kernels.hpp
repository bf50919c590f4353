// Internal to focus_align: the kernels behind banded_score_only() and
// banded_global_align(), exposed for the equivalence test and the
// micro-benchmarks. Library callers use banded_nw.hpp.
//
// The public entry points run one of two kernels, chosen per call by
// select_nw_kernel() (DESIGN.md §6a):
//
//   * kScalar — the row-major int32 kernel: the fallback and the oracle.
//   * kAvx2   — an anti-diagonal int16 kernel, 16 lanes per register,
//     compiled with __attribute__((target("avx2"))). It fills the same band
//     with the same recurrence and the same diag > up > left tie order, so
//     every BandScore and AlignmentResult field equals the scalar kernel's.
//
// The choice depends only on CPU support, the band width and the input
// lengths together with the scoring; there is no knob to force either.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "align/banded_nw.hpp"

namespace focus::align::detail {

enum class NwKernel : std::uint8_t { kScalar, kAvx2 };

/// The kernel banded_score_only() and banded_global_align() run for these
/// inputs. kAvx2 requires all of:
///   * an x86 build on a CPU reporting AVX2;
///   * band width 2 * band + |len_a - len_b| + 1 <= 32, so each
///     anti-diagonal's in-band cells fit 16 lanes;
///   * (len_a + len_b + 1) * (P + Q) < 32768, with P and Q the largest
///     positive and negative score steps: no in-band score saturates int16,
///     and the out-of-band sentinel stays below every real score.
NwKernel select_nw_kernel(std::size_t len_a, std::size_t len_b,
                          std::uint32_t band, const AlignScoring& scoring);

/// The scalar kernels, run unconditionally.
BandScore banded_score_only_scalar(std::string_view a, std::string_view b,
                                   std::uint32_t band,
                                   const AlignScoring& scoring = {});
AlignmentResult banded_global_align_scalar(std::string_view a,
                                           std::string_view b,
                                           std::uint32_t band,
                                           const AlignScoring& scoring = {});

}  // namespace focus::align::detail
