// Equivalence of the dispatched banded-NW kernels with the scalar oracle
// (DESIGN.md §6a): every BandScore and AlignmentResult field of
// banded_score_only() / banded_global_align() must equal the scalar kernel's,
// across bands 0-16, unequal and empty inputs, non-ACGT bytes, lengths at the
// int16 admission bound and non-default scorings. The dispatch itself is
// checked too, so on an AVX2 host the comparisons provably exercise the
// vector kernel rather than the scalar one twice.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "align/banded_nw.hpp"
#include "align/banded_nw_kernels.hpp"
#include "common/rng.hpp"

namespace focus::align {
namespace {

using detail::NwKernel;
using detail::select_nw_kernel;

bool host_has_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

std::string describe(std::string_view a, std::string_view b,
                     std::uint32_t band, const AlignScoring& s) {
  return "len_a=" + std::to_string(a.size()) +
         " len_b=" + std::to_string(b.size()) +
         " band=" + std::to_string(band) + " scoring=(" +
         std::to_string(s.match) + "," + std::to_string(s.mismatch) + "," +
         std::to_string(s.gap) + ")";
}

// Runs both passes through the dispatcher and the scalar oracle and compares
// every field; returns the kernel the dispatcher chose.
NwKernel expect_equivalent(std::string_view a, std::string_view b,
                           std::uint32_t band, const AlignScoring& scoring) {
  const std::string ctx = describe(a, b, band, scoring);

  const BandScore want_score =
      detail::banded_score_only_scalar(a, b, band, scoring);
  const BandScore got_score = banded_score_only(a, b, band, scoring);
  EXPECT_EQ(got_score.valid, want_score.valid) << ctx;
  EXPECT_EQ(got_score.score, want_score.score) << ctx;

  const AlignmentResult want =
      detail::banded_global_align_scalar(a, b, band, scoring);
  const AlignmentResult got = banded_global_align(a, b, band, scoring);
  EXPECT_EQ(got.valid, want.valid) << ctx;
  EXPECT_EQ(got.score, want.score) << ctx;
  EXPECT_EQ(got.columns, want.columns) << ctx;
  EXPECT_EQ(got.matches, want.matches) << ctx;
  EXPECT_EQ(got.mismatches, want.mismatches) << ctx;
  EXPECT_EQ(got.gaps, want.gaps) << ctx;
  EXPECT_EQ(got.lead_gaps, want.lead_gaps) << ctx;
  EXPECT_EQ(got.tail_gaps, want.tail_gaps) << ctx;

  return select_nw_kernel(a.size(), b.size(), band, scoring);
}

std::string random_seq(Rng& rng, std::size_t len, std::string_view alphabet) {
  std::string s(len, 'A');
  for (auto& c : s) c = alphabet[rng.next_below(alphabet.size())];
  return s;
}

// b = a with substitutions, insertions and deletions at `rate` per base.
std::string mutate(Rng& rng, const std::string& a, double rate,
                   std::string_view alphabet) {
  std::string b;
  for (const char c : a) {
    const double u = static_cast<double>(rng.next_below(1u << 20)) /
                     static_cast<double>(1u << 20);
    if (u < rate / 3) {
      b.push_back(alphabet[rng.next_below(alphabet.size())]);  // substitute
    } else if (u < 2 * rate / 3) {
      b.push_back(c);  // insert after
      b.push_back(alphabet[rng.next_below(alphabet.size())]);
    } else if (u < rate) {
      // delete
    } else {
      b.push_back(c);
    }
  }
  return b;
}

constexpr std::string_view kAcgt = "ACGT";

TEST(BandedNwSimd, VectorPathRunsOnThisHost) {
  if (!host_has_avx2()) {
    GTEST_SKIP() << "host has no AVX2; only the scalar kernel runs here";
  }
  // The overlapper's geometry: equal-length windows at band 8.
  EXPECT_EQ(select_nw_kernel(100, 100, 8, {}), NwKernel::kAvx2);
  EXPECT_EQ(select_nw_kernel(0, 0, 0, {}), NwKernel::kAvx2);
  // simplify and variants align at band 16: 33 lanes of band, scalar.
  EXPECT_EQ(select_nw_kernel(100, 100, 16, {}), NwKernel::kScalar);
}

TEST(BandedNwSimd, RandomPairsAtBands0To16) {
  Rng rng(0x51adu);
  const AlignScoring scoring;
  std::size_t vector_calls = 0;
  for (std::uint32_t band = 0; band <= 16; ++band) {
    for (int t = 0; t < 120; ++t) {
      const std::size_t len = rng.next_below(260);
      const std::string a = random_seq(rng, len, kAcgt);
      // Mostly related pairs (the overlapper's case), some unrelated ones.
      const std::string b = t % 4 == 3
                                ? random_seq(rng, len, kAcgt)
                                : mutate(rng, a, 0.02 * (t % 8), kAcgt);
      if (expect_equivalent(a, b, band, scoring) == NwKernel::kAvx2) {
        ++vector_calls;
      }
      if (HasFailure()) return;
    }
  }
  if (host_has_avx2()) {
    EXPECT_GT(vector_calls, 1000u);
  }
}

TEST(BandedNwSimd, WidthAtTheFallbackEdge) {
  Rng rng(0xed9eu);
  const AlignScoring scoring;
  for (int t = 0; t < 40; ++t) {
    const std::string a = random_seq(rng, 80 + rng.next_below(60), kAcgt);
    const std::string b = mutate(rng, a, 0.05, kAcgt);
    // width = 2 * band + |len_a - len_b| + 1. band_max gives width 31 or 32,
    // the widest the 16-lane kernel takes; one more band falls back.
    const std::size_t diff = b.size() > a.size() ? b.size() - a.size()
                                                 : a.size() - b.size();
    if (diff > 31) continue;
    const auto band_max = static_cast<std::uint32_t>((31 - diff) / 2);
    const NwKernel widest = expect_equivalent(a, b, band_max, scoring);
    const NwKernel past = expect_equivalent(a, b, band_max + 1, scoring);
    if (host_has_avx2()) {
      EXPECT_EQ(widest, NwKernel::kAvx2);
    }
    EXPECT_EQ(past, NwKernel::kScalar);
  }
  if (host_has_avx2()) {
    EXPECT_EQ(select_nw_kernel(100, 101, 15, {}), NwKernel::kAvx2);   // 32
    EXPECT_EQ(select_nw_kernel(100, 102, 15, {}), NwKernel::kScalar); // 33
    EXPECT_EQ(select_nw_kernel(131, 100, 0, {}), NwKernel::kAvx2);    // 32
    EXPECT_EQ(select_nw_kernel(132, 100, 0, {}), NwKernel::kScalar);  // 33
  }
}

TEST(BandedNwSimd, UnequalLengthsAndEmptyInputs) {
  Rng rng(0x0e0du);
  const AlignScoring scoring;
  for (std::uint32_t band = 0; band <= 16; ++band) {
    expect_equivalent("", "", band, scoring);
    expect_equivalent("", "A", band, scoring);
    expect_equivalent("ACGT", "", band, scoring);
    expect_equivalent("", random_seq(rng, 20, kAcgt), band, scoring);
    expect_equivalent(random_seq(rng, 25, kAcgt), "", band, scoring);
    expect_equivalent("A", "A", band, scoring);
    expect_equivalent("A", "C", band, scoring);
    for (int t = 0; t < 30; ++t) {
      const std::string a = random_seq(rng, rng.next_below(120), kAcgt);
      const std::string b = random_seq(rng, rng.next_below(120), kAcgt);
      expect_equivalent(a, b, band, scoring);
      // Prefix / suffix pairs: large skew with a perfect diagonal inside.
      expect_equivalent(a, a.substr(0, a.size() / 2), band, scoring);
      expect_equivalent(a.substr(a.size() / 3), a, band, scoring);
      if (HasFailure()) return;
    }
  }
}

TEST(BandedNwSimd, NonAcgtBytesCompareRaw) {
  // The scalar kernel compares raw bytes: N/N and a/a are matches, a/A is a
  // mismatch. NUL and high-bit bytes must behave the same in byte lanes.
  Rng rng(0xba5eu);
  const std::string alphabet = std::string("ACGTNacgtn-*") + '\0' + '\xff' +
                               '\x80' + '\x7f';
  const AlignScoring scoring;
  for (std::uint32_t band = 0; band <= 16; band += 2) {
    for (int t = 0; t < 40; ++t) {
      const std::string a = random_seq(rng, rng.next_below(150), alphabet);
      const std::string b = mutate(rng, a, 0.1, alphabet);
      expect_equivalent(a, b, band, scoring);
    }
  }
  // All-N windows align as all matches, exactly like the scalar kernel.
  const std::string ns(90, 'N');
  const AlignmentResult r = banded_global_align(ns, ns, 8);
  EXPECT_EQ(r.matches, 90u);
  EXPECT_EQ(r.score, 90);
  expect_equivalent(ns, ns, 8, scoring);
  expect_equivalent(std::string(60, 'a'), std::string(60, 'A'), 8, scoring);
}

TEST(BandedNwSimd, LengthsAtTheInt16Bound) {
  // (len_a + len_b + 1) * (P + Q) < 32768 admits the vector kernel. Check the
  // last admitted and first rejected lengths with scores pushed toward the
  // int16 range: all-mismatch and all-match inputs under steep scorings.
  struct Case {
    AlignScoring scoring;
    std::size_t longest;  // n = m = longest is the last admitted square
  };
  const Case cases[] = {
      {{1, -2, -3}, 4095},   // P + Q = 4: 8191 * 4 = 32764
      {{1, -7, -7}, 2047},   // P + Q = 8
      {{7, -1, -1}, 2047},   // P + Q = 8, large positive scores
      {{0, -16, -8}, 1023},  // P + Q = 16, mismatch vs gap-pair ties
  };
  for (const auto& c : cases) {
    const std::size_t n = c.longest;
    if (host_has_avx2()) {
      EXPECT_EQ(select_nw_kernel(n, n, 8, c.scoring), NwKernel::kAvx2);
      EXPECT_EQ(select_nw_kernel(n + 1, n, 8, c.scoring), NwKernel::kScalar);
      EXPECT_EQ(select_nw_kernel(n, n + 1, 8, c.scoring), NwKernel::kScalar);
    }
    const std::string as(n, 'A'), cs(n, 'C'), as1(n + 1, 'A');
    expect_equivalent(as, cs, 8, c.scoring);
    expect_equivalent(as, as, 8, c.scoring);
    expect_equivalent(as1, cs, 8, c.scoring);
    expect_equivalent(cs, as1, 0, c.scoring);
    Rng rng(n);
    const std::string r = random_seq(rng, n, kAcgt);
    expect_equivalent(r, mutate(rng, r, 0.03, kAcgt).substr(0, n), 8,
                      c.scoring);
  }
}

TEST(BandedNwSimd, NonDefaultScorings) {
  const AlignScoring scorings[] = {
      {2, -3, -5},   {5, -4, -2},  {1, -1, -1}, {0, 0, 0},
      {3, 1, -1},    {1, -3, 2},   {-1, -2, -3}, {1, 1, 1},
      {4, -4, -4},   {1000, -2000, -3000},
      {40000, -1, -1},  // does not fit int16: always scalar
  };
  Rng rng(0x5c0eu);
  for (const auto& scoring : scorings) {
    for (std::uint32_t band = 0; band <= 16; band += 4) {
      for (int t = 0; t < 25; ++t) {
        const std::string a = random_seq(rng, rng.next_below(140), kAcgt);
        const std::string b = mutate(rng, a, 0.08, kAcgt);
        expect_equivalent(a, b, band, scoring);
      }
    }
  }
  EXPECT_EQ(select_nw_kernel(1, 1, 8, {40000, -1, -1}), NwKernel::kScalar);
  EXPECT_EQ(select_nw_kernel(3, 3, 8, {1000, -2000, -3000}),
            host_has_avx2() ? NwKernel::kAvx2 : NwKernel::kScalar);
}

}  // namespace
}  // namespace focus::align
