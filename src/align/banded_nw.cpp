#include "align/banded_nw.hpp"

#include <algorithm>
#include <limits>

#include "align/align_scratch.hpp"
#include "align/banded_nw_kernels.hpp"
#include "common/error.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define FOCUS_NW_AVX2 1
#endif

namespace focus::align {

namespace {

constexpr std::int32_t kNegInf = std::numeric_limits<std::int32_t>::min() / 2;
// Cells whose only predecessors are out-of-band carry kNegInf plus a few
// row-local additions; anything below this threshold is unreachable. Real
// alignment scores are bounded below by gap * (len_a + len_b), far above it.
constexpr std::int32_t kUnreachable = kNegInf / 2;

enum Move : std::uint8_t { kStop = 0, kDiag = 1, kUp = 2, kLeft = 3 };

// Skew-adjusted diagonal band: j - i in [dlo, dhi], chosen so the (0,0) and
// (n,m) corners are always inside the band.
struct BandGeometry {
  std::int64_t n, m, dlo, dhi, width;
};

BandGeometry band_geometry(std::string_view a, std::string_view b,
                           std::uint32_t band) {
  BandGeometry g;
  g.n = static_cast<std::int64_t>(a.size());
  g.m = static_cast<std::int64_t>(b.size());
  const std::int64_t skew = g.m - g.n;
  g.dlo = std::min<std::int64_t>(0, skew) - band;
  g.dhi = std::max<std::int64_t>(0, skew) + band;
  g.width = g.dhi - g.dlo + 1;
  return g;
}

// Both row buffers carry one kNegInf sentinel on each side, so the three
// predecessor reads need no bounds or reachability branches:
//   diag (i-1, j-1) -> prev[idx],  up (i-1, j) -> prev[idx+1],
//   left (i, j-1)   -> cur[idx-1]
// with idx = j - (i + dlo). Out-of-band predecessors read the sentinel (or a
// cell left at kNegInf by the per-row fill) and lose every max() against a
// reachable path — scores of reachable cells are identical to the guarded
// formulation, which is what the traceback and callers observe.
struct Rows {
  std::int32_t* prev;  // points one past the leading sentinel
  std::int32_t* cur;
};

Rows prepare_rows(AlignScratch& scratch, std::int64_t width) {
  const auto padded = static_cast<std::size_t>(width) + 2;
  scratch.nw_prev.assign(padded, kNegInf);
  scratch.nw_cur.assign(padded, kNegInf);
  return {scratch.nw_prev.data() + 1, scratch.nw_cur.data() + 1};
}

// Traceback from (n, m) to (0, 0) over the move matrix; `move_at(i, j)`
// returns the move recorded for in-band cell (i, j), whatever the kernel's
// storage layout.
template <typename MoveAt>
void traceback(std::string_view a, std::string_view b, MoveAt move_at,
               AlignmentResult& result) {
  bool in_tail_run = true;
  std::uint32_t last_gap_run = 0;
  auto i = static_cast<std::int64_t>(a.size());
  auto j = static_cast<std::int64_t>(b.size());
  while (i != 0 || j != 0) {
    const std::uint8_t move = move_at(i, j);
    switch (move) {
      case kDiag:
        if (a[static_cast<std::size_t>(i - 1)] ==
            b[static_cast<std::size_t>(j - 1)]) {
          ++result.matches;
        } else {
          ++result.mismatches;
        }
        --i;
        --j;
        in_tail_run = false;
        last_gap_run = 0;
        break;
      case kUp:
      case kLeft:
        ++result.gaps;
        if (in_tail_run) {
          ++result.tail_gaps;
        } else {
          ++last_gap_run;
        }
        if (move == kUp) {
          --i;
        } else {
          --j;
        }
        break;
      case kStop:
      default:
        FOCUS_ASSERT(false, "broken traceback in banded alignment");
    }
    ++result.columns;
  }
  // Whatever gap run was still open when traceback reached (0,0) sits at the
  // alignment's start.
  result.lead_gaps = in_tail_run ? 0 : last_gap_run;
}

#ifdef FOCUS_NW_AVX2

// --- AVX2 anti-diagonal kernel ---------------------------------------------
//
// Cell (i, j) lies on anti-diagonal d = i + j at band offset k = j - i, and
// k has the parity of d. So anti-diagonal d holds at most ceil(width / 2)
// in-band cells, k = dlo + p + 2l for lane l with p = (d - dlo) & 1; with
// width <= 32 they fit the 16 int16 lanes of one register. Moving along a
// register, i falls and j rises by one per lane. The predecessors are
//   diag (i-1, j-1): anti-diagonal d-2, same k   -> same lane;
//   up   (i-1, j)  : anti-diagonal d-1, k+1      -> lane l (p=0) / l+1 (p=1);
//   left (i, j-1)  : anti-diagonal d-1, k-1      -> lane l-1 (p=0) / l (p=1);
// so every step needs one lane shift of the previous anti-diagonal.
//
// Lanes that are not real cells start at (or are clamped to) the int16
// minimum S and only ever gain the positive score steps; select_nw_kernel()
// admits an input only when d * (P + Q) < -S on every anti-diagonal, so they
// stay below every real candidate and no real score saturates. Real cells
// therefore see exactly the scalar kernel's values and tie decisions. The
// lanes at i > n or j > m hold junk, but no real cell reads them.

constexpr std::int64_t kLanes = 16;
constexpr std::int64_t kMaxVectorWidth = 2 * kLanes;
// Bytes of padding around each sequence copy: lane loads reach at most 16
// bytes before the first and 16 bytes past the last base.
constexpr std::int64_t kSeqPad = 32;

bool cpu_has_avx2() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return has;
}

struct Avx2Band {
  __m256i neg, match, mismatch, gap;
  __m256i cap[2];  // per parity: INT16_MAX on in-band lanes, S beyond
  __m128i reverse;  // byte shuffle reversing 16 bytes
  const char* a;
  const char* b;
  std::int64_t dlo;
  std::uint8_t* moves;  // kLanes bytes per anti-diagonal, or null
};

// Lane l <- lane l-1; lane 0 <- fill.
__attribute__((target("avx2"), always_inline)) inline __m256i lanes_up(
    __m256i v, __m256i fill) {
  return _mm256_alignr_epi8(v, _mm256_permute2x128_si256(v, fill, 0x02), 14);
}

// Lane l <- lane l+1; lane 15 <- fill.
__attribute__((target("avx2"), always_inline)) inline __m256i lanes_down(
    __m256i v, __m256i fill) {
  return _mm256_alignr_epi8(_mm256_permute2x128_si256(v, fill, 0x21), v, 2);
}

// Fills anti-diagonal d (parity kParity) from d-1 and d-2.
template <int kParity, bool kMoves>
__attribute__((target("avx2"), always_inline)) inline __m256i
avx2_antidiagonal(const Avx2Band& k, std::int64_t d, __m256i prev2,
                  __m256i prev1) {
  const std::int64_t kb = k.dlo + kParity;  // band offset of lane 0
  const std::int64_t i0 = (d - kb) / 2;     // lane 0's cell is (i0, j0)
  const std::int64_t j0 = (d + kb) / 2;
  // Lane l reads a[i0 - 1 - l]: the 16 bytes ending at a[i0 - 1], reversed.
  const __m128i ca = _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(k.a + (i0 - 16))),
      k.reverse);
  const __m128i cb =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(k.b + (j0 - 1)));
  const __m256i same = _mm256_cvtepi8_epi16(_mm_cmpeq_epi8(ca, cb));
  const __m256i diag = _mm256_adds_epi16(
      prev2, _mm256_blendv_epi8(k.mismatch, k.match, same));
  const __m256i gapped = _mm256_adds_epi16(prev1, k.gap);
  __m256i up, left;
  if constexpr (kParity == 0) {
    up = gapped;
    left = lanes_up(gapped, k.neg);
  } else {
    up = lanes_down(gapped, k.neg);
    left = gapped;
  }
  const __m256i diag_up = _mm256_max_epi16(diag, up);
  if constexpr (kMoves) {
    // Tie priority diag > up > left: kDiag + 1 where up wins, kLeft where
    // left beats both.
    const __m256i up_wins = _mm256_cmpgt_epi16(up, diag);
    const __m256i left_wins = _mm256_cmpgt_epi16(left, diag_up);
    const __m256i move = _mm256_blendv_epi8(
        _mm256_sub_epi16(_mm256_set1_epi16(kDiag), up_wins),
        _mm256_set1_epi16(kLeft), left_wins);
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(k.moves + d * kLanes),
        _mm_packus_epi16(_mm256_castsi256_si128(move),
                         _mm256_extracti128_si256(move, 1)));
  }
  return _mm256_min_epi16(_mm256_max_epi16(diag_up, left), k.cap[kParity]);
}

// Runs the band over every anti-diagonal; returns the score of (n, m). With
// kMoves, scratch.nw_moves receives the moves of cell (i, j) at
// (i + j) * kLanes + ((j - i - dlo) >> 1).
template <bool kMoves>
__attribute__((target("avx2"))) std::int32_t banded_fill_avx2(
    std::string_view a, std::string_view b, const BandGeometry& g,
    const AlignScoring& scoring, AlignScratch& scratch) {
  const std::int64_t n = g.n, m = g.m, dlo = g.dlo;
  const auto seq_bytes = static_cast<std::size_t>(n + m + 3 * kSeqPad);
  if (scratch.nw_seqs.size() < seq_bytes) scratch.nw_seqs.resize(seq_bytes);
  char* a_copy = scratch.nw_seqs.data() + kSeqPad;
  char* b_copy = a_copy + n + kSeqPad;
  std::copy(a.begin(), a.end(), a_copy);
  std::copy(b.begin(), b.end(), b_copy);

  Avx2Band k;
  k.neg = _mm256_set1_epi16(std::numeric_limits<std::int16_t>::min());
  k.match = _mm256_set1_epi16(static_cast<std::int16_t>(scoring.match));
  k.mismatch = _mm256_set1_epi16(static_cast<std::int16_t>(scoring.mismatch));
  k.gap = _mm256_set1_epi16(static_cast<std::int16_t>(scoring.gap));
  const __m256i lane = _mm256_setr_epi16(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                         12, 13, 14, 15);
  // Parity 0 holds k = dlo, dlo+2, ...: ceil(width / 2) in-band lanes;
  // parity 1 holds k = dlo+1, ...: floor(width / 2).
  for (int p = 0; p < 2; ++p) {
    const auto in_band = static_cast<std::int16_t>((g.width + 1 - p) / 2);
    k.cap[p] = _mm256_xor_si256(
        _mm256_cmpgt_epi16(_mm256_set1_epi16(in_band), lane), k.neg);
  }
  k.reverse = _mm_setr_epi8(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2,
                            1, 0);
  k.a = a_copy;
  k.b = b_copy;
  k.dlo = dlo;
  k.moves = nullptr;
  if constexpr (kMoves) {
    const auto move_bytes = static_cast<std::size_t>((n + m + 1) * kLanes);
    if (scratch.nw_moves.size() < move_bytes) {
      scratch.nw_moves.resize(move_bytes);
    }
    k.moves = scratch.nw_moves.data();
  }

  // Anti-diagonal -1 is all sentinel; anti-diagonal 0 holds only (0, 0).
  __m256i prev2 = k.neg;
  __m256i prev1 = _mm256_andnot_si256(
      _mm256_cmpeq_epi16(lane, _mm256_set1_epi16(
                                   static_cast<std::int16_t>((-dlo) >> 1))),
      k.neg);
  const std::int64_t last = n + m;
  std::int64_t d = 1;
  if (d <= last && ((d - dlo) & 1) != 0) {
    const __m256i cur = avx2_antidiagonal<1, kMoves>(k, d, prev2, prev1);
    prev2 = prev1;
    prev1 = cur;
    ++d;
  }
  for (; d + 1 <= last; d += 2) {
    const __m256i even = avx2_antidiagonal<0, kMoves>(k, d, prev2, prev1);
    const __m256i odd = avx2_antidiagonal<1, kMoves>(k, d + 1, prev1, even);
    prev2 = even;
    prev1 = odd;
  }
  if (d <= last) {
    prev1 = avx2_antidiagonal<0, kMoves>(k, d, prev2, prev1);
  }

  alignas(32) std::int16_t final_lanes[kLanes];
  _mm256_store_si256(reinterpret_cast<__m256i*>(final_lanes), prev1);
  return final_lanes[(m - n - dlo) >> 1];
}

#endif  // FOCUS_NW_AVX2

}  // namespace

namespace detail {

NwKernel select_nw_kernel(std::size_t len_a, std::size_t len_b,
                          std::uint32_t band, const AlignScoring& scoring) {
#ifdef FOCUS_NW_AVX2
  if (!cpu_has_avx2()) return NwKernel::kScalar;
  const std::uint64_t diff = len_a > len_b ? len_a - len_b : len_b - len_a;
  if (2 * static_cast<std::uint64_t>(band) + diff + 1 >
      static_cast<std::uint64_t>(kMaxVectorWidth)) {
    return NwKernel::kScalar;
  }
  const std::int64_t match = scoring.match, mismatch = scoring.mismatch,
                     gap = scoring.gap;
  const std::int64_t rise = std::max({std::int64_t{0}, match, mismatch, gap});
  const std::int64_t fall =
      std::max({std::int64_t{0}, -match, -mismatch, -gap});
  constexpr std::uint64_t kInt16Span = 32768;
  const std::uint64_t steps = static_cast<std::uint64_t>(len_a) + len_b + 1;
  if (steps >= kInt16Span ||
      steps * static_cast<std::uint64_t>(rise + fall) >= kInt16Span) {
    return NwKernel::kScalar;
  }
  return NwKernel::kAvx2;
#else
  (void)len_a;
  (void)len_b;
  (void)band;
  (void)scoring;
  return NwKernel::kScalar;
#endif
}

BandScore banded_score_only_scalar(std::string_view a, std::string_view b,
                                   std::uint32_t band,
                                   const AlignScoring& scoring) {
  const BandGeometry g = band_geometry(a, b, band);
  const std::int64_t n = g.n, m = g.m, dlo = g.dlo, width = g.width;
  AlignScratch& scratch = tls_align_scratch();
  auto [pp, cp] = prepare_rows(scratch, width);

  // Row 0: only left-gap moves are possible.
  const std::int64_t jhi0 = std::min<std::int64_t>(m, g.dhi);
  for (std::int64_t j = 0; j <= jhi0; ++j) {
    pp[j - dlo] = static_cast<std::int32_t>(j) * scoring.gap;
  }

  for (std::int64_t i = 1; i <= n; ++i) {
    std::fill(cp, cp + width, kNegInf);
    const std::int64_t base = i + dlo;  // j = base + idx
    std::int64_t jlo = std::max<std::int64_t>(0, base);
    const std::int64_t jhi = std::min<std::int64_t>(m, i + g.dhi);
    if (jlo == 0) {
      // j = 0 has no diagonal or left predecessor (b[-1] does not exist).
      cp[-base] = pp[-base + 1] + scoring.gap;
      jlo = 1;
    }
    const char ai = a[static_cast<std::size_t>(i - 1)];
    for (std::int64_t j = jlo; j <= jhi; ++j) {
      const std::int64_t idx = j - base;
      const std::int32_t diag =
          pp[idx] + (ai == b[static_cast<std::size_t>(j - 1)]
                         ? scoring.match
                         : scoring.mismatch);
      const std::int32_t up = pp[idx + 1] + scoring.gap;
      const std::int32_t left = cp[idx - 1] + scoring.gap;
      std::int32_t best = diag;
      if (up > best) best = up;
      if (left > best) best = left;
      cp[idx] = best;
    }
    std::swap(pp, cp);
  }

  BandScore result;
  const std::int64_t final_idx = m - (n + dlo);
  FOCUS_ASSERT(final_idx >= 0 && final_idx < width,
               "band does not contain the terminal corner");
  const std::int32_t final_score = pp[final_idx];
  if (final_score < kUnreachable) return result;  // unreachable within band
  result.valid = true;
  result.score = final_score;
  return result;
}

AlignmentResult banded_global_align_scalar(std::string_view a,
                                           std::string_view b,
                                           std::uint32_t band,
                                           const AlignScoring& scoring) {
  const BandGeometry g = band_geometry(a, b, band);
  const std::int64_t n = g.n, m = g.m, dlo = g.dlo, width = g.width;

  AlignScratch& scratch = tls_align_scratch();
  auto [pp, cp] = prepare_rows(scratch, width);
  auto& moves = scratch.nw_moves;
  // moves[(i * width) + (j - (i + dlo))]. Stale contents from earlier calls
  // are harmless: the row loop writes every in-band cell before the
  // traceback (which only visits in-band cells) reads it.
  if (moves.size() < static_cast<std::size_t>((n + 1) * width)) {
    moves.resize(static_cast<std::size_t>((n + 1) * width));
  }

  // Row 0: only left-gap moves are possible.
  const std::int64_t jhi0 = std::min<std::int64_t>(m, g.dhi);
  for (std::int64_t j = 0; j <= jhi0; ++j) {
    pp[j - dlo] = static_cast<std::int32_t>(j) * scoring.gap;
    moves[static_cast<std::size_t>(j - dlo)] = j == 0 ? kStop : kLeft;
  }

  for (std::int64_t i = 1; i <= n; ++i) {
    std::fill(cp, cp + width, kNegInf);
    const std::int64_t base = i + dlo;  // j = base + idx
    std::int64_t jlo = std::max<std::int64_t>(0, base);
    const std::int64_t jhi = std::min<std::int64_t>(m, i + g.dhi);
    std::uint8_t* mrow = moves.data() + static_cast<std::size_t>(i * width);
    if (jlo == 0) {
      // j = 0 has no diagonal or left predecessor (b[-1] does not exist).
      cp[-base] = pp[-base + 1] + scoring.gap;
      mrow[-base] = kUp;
      jlo = 1;
    }
    const char ai = a[static_cast<std::size_t>(i - 1)];
    for (std::int64_t j = jlo; j <= jhi; ++j) {
      const std::int64_t idx = j - base;
      const std::int32_t diag =
          pp[idx] + (ai == b[static_cast<std::size_t>(j - 1)]
                         ? scoring.match
                         : scoring.mismatch);
      const std::int32_t up = pp[idx + 1] + scoring.gap;
      const std::int32_t left = cp[idx - 1] + scoring.gap;
      // Tie priority diag > up > left, matching the guarded formulation.
      std::int32_t best = diag;
      std::uint8_t move = kDiag;
      if (up > best) {
        best = up;
        move = kUp;
      }
      if (left > best) {
        best = left;
        move = kLeft;
      }
      cp[idx] = best;
      mrow[idx] = move;
    }
    std::swap(pp, cp);
  }

  AlignmentResult result;
  const std::int64_t final_idx = m - (n + dlo);
  FOCUS_ASSERT(final_idx >= 0 && final_idx < width,
               "band does not contain the terminal corner");
  const std::int32_t final_score = pp[final_idx];
  if (final_score < kUnreachable) return result;  // unreachable within band

  result.valid = true;
  result.score = final_score;
  const std::uint8_t* mv = moves.data();
  traceback(
      a, b,
      [mv, width, dlo](std::int64_t i, std::int64_t j) {
        return mv[static_cast<std::size_t>(i * width + (j - i - dlo))];
      },
      result);
  return result;
}

}  // namespace detail

double banded_align_work(std::size_t len_a, std::size_t len_b,
                         std::uint32_t band) {
  const std::size_t diff =
      len_a > len_b ? len_a - len_b : len_b - len_a;
  return static_cast<double>((len_a + 1)) *
         static_cast<double>(2 * band + diff + 1);
}

double banded_score_work(std::size_t len_a, std::size_t len_b,
                         std::uint32_t band) {
  // Same cell count as the full pass; the score pass fills every band cell
  // once (without recording moves).
  return banded_align_work(len_a, len_b, band);
}

BandScore banded_score_only(std::string_view a, std::string_view b,
                            std::uint32_t band, const AlignScoring& scoring) {
#ifdef FOCUS_NW_AVX2
  if (detail::select_nw_kernel(a.size(), b.size(), band, scoring) ==
      detail::NwKernel::kAvx2) {
    // Every in-band cell is reachable from (0, 0), so the corner always is.
    BandScore result;
    result.valid = true;
    result.score = banded_fill_avx2<false>(a, b, band_geometry(a, b, band),
                                           scoring, tls_align_scratch());
    return result;
  }
#endif
  return detail::banded_score_only_scalar(a, b, band, scoring);
}

bool score_may_pass(std::int32_t score, std::size_t len_a, std::size_t len_b,
                    std::uint32_t min_columns, double min_identity,
                    const AlignScoring& scoring) {
  // For a global alignment with M matches, X mismatches, and G gap columns:
  //   M + X + gaps_into_a = len_a,  M + X + gaps_into_b = len_b
  //   => G = T - 2M - 2X  with  T = len_a + len_b
  //   => score = A*M + B*X + gap*T  with  A = match - 2*gap, B = mismatch -
  //      2*gap
  // so U := score - gap*T = A*M + B*X, and columns = T - M - X. With
  // A >= B >= 0 every alignment achieving this score satisfies
  // M + X >= U / A, hence columns <= T - U/A; and when U <= B*T the ratio
  // M / columns is maximized at X = 0, giving identity <= U / (A*T - U).
  const auto T = static_cast<std::int64_t>(len_a + len_b);
  const std::int64_t A = static_cast<std::int64_t>(scoring.match) -
                         2 * static_cast<std::int64_t>(scoring.gap);
  const std::int64_t B = static_cast<std::int64_t>(scoring.mismatch) -
                         2 * static_cast<std::int64_t>(scoring.gap);
  if (A <= 0 || B < 0 || scoring.mismatch > scoring.match) {
    return true;  // bounds unsound for this scoring; abstain
  }
  const std::int64_t U =
      static_cast<std::int64_t>(score) -
      static_cast<std::int64_t>(scoring.gap) * T;
  if (U < 0) return true;  // impossible for a real alignment; abstain

  // columns <= T - U/A < min_columns  <=>  A*(T - min_columns) < U.
  if (A * (T - static_cast<std::int64_t>(min_columns)) < U) return false;

  if (U <= B * T) {
    // identity <= U / (A*T - U).
    const std::int64_t denom = A * T - U;
    if (denom <= 0) return false;  // columns bound <= 0
    // Tiny slack keeps float rounding from rejecting a boundary candidate.
    if (static_cast<double>(U) / static_cast<double>(denom) + 1e-9 <
        min_identity) {
      return false;
    }
  }
  return true;
}

AlignmentResult banded_global_align(std::string_view a, std::string_view b,
                                    std::uint32_t band,
                                    const AlignScoring& scoring) {
#ifdef FOCUS_NW_AVX2
  if (detail::select_nw_kernel(a.size(), b.size(), band, scoring) ==
      detail::NwKernel::kAvx2) {
    const BandGeometry g = band_geometry(a, b, band);
    AlignScratch& scratch = tls_align_scratch();
    AlignmentResult result;
    result.valid = true;  // see banded_score_only()
    result.score = banded_fill_avx2<true>(a, b, g, scoring, scratch);
    const std::uint8_t* mv = scratch.nw_moves.data();
    const std::int64_t dlo = g.dlo;
    traceback(
        a, b,
        [mv, dlo](std::int64_t i, std::int64_t j) {
          return mv[static_cast<std::size_t>((i + j) * kLanes +
                                             ((j - i - dlo) >> 1))];
        },
        result);
    return result;
  }
#endif
  return detail::banded_global_align_scalar(a, b, band, scoring);
}

}  // namespace focus::align
