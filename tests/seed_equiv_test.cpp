// Seed-backend equivalence suite: the hashed k-mer index (2-bit packed
// reads, open-addressing postings table) must produce byte-identical overlap
// sets to the suffix-array oracle — on the simulated benchmark datasets,
// across k / band / max_kmer_occurrences settings, and at every thread
// width. This is the acceptance gate for replacing the paper's suffix-array
// seeding on the hot path (§II-B).
//
// Two kernels are pinned against the implementations they replaced, kept
// here only as oracles: the counting KmerIndex build against a sort-built
// index (same posting range for every key, same counts and build_work
// bits), and count-then-gather seeding against per-member diagonal lists
// (same records and the same per-query work, on both backends).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "align/banded_nw.hpp"
#include "align/kmer_index.hpp"
#include "align/overlapper.hpp"
#include "align/suffix_array.hpp"
#include "common/dna.hpp"
#include "common/error.hpp"
#include "common/packed_seq.hpp"
#include "common/rng.hpp"
#include "io/preprocess.hpp"
#include "sim/datasets.hpp"
#include "sim/genome.hpp"

namespace focus::align {
namespace {

// Small but non-trivial dataset slices: ~35 kbp of genomes at 6x coverage
// gives a few hundred preprocessed reads per dataset — enough to exercise
// repeats, reverse complements, and containments without slowing the suite.
io::ReadSet dataset_reads(int index) {
  const sim::Dataset d = sim::make_dataset(index, /*scale=*/0.3,
                                           /*coverage=*/6.0);
  return io::preprocess(d.data.reads, {});
}

bool identical(const std::vector<Overlap>& a, const std::vector<Overlap>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].query != b[i].query || a[i].ref != b[i].ref ||
        a[i].length != b[i].length || a[i].identity != b[i].identity ||
        a[i].kind != b[i].kind) {
      return false;
    }
  }
  return true;
}

std::vector<Overlap> run_with_backend(const io::ReadSet& reads,
                                      OverlapperConfig cfg,
                                      SeedBackend backend) {
  cfg.seed_backend = backend;
  cfg.threads = 1;
  return find_overlaps_serial(reads, cfg);
}

// ---------------------------------------------------------------------------
// KmerIndex vs SuffixArray: raw seed hits
// ---------------------------------------------------------------------------

TEST(KmerIndexOracle, PostingsMatchSuffixArrayOccurrenceCounts) {
  const io::ReadSet reads = dataset_reads(1);
  std::vector<ReadId> members;
  for (ReadId id = 0; id < reads.size() && id < 120; ++id) {
    members.push_back(id);
  }
  const unsigned k = 14;
  const KmerIndex index(reads, members, k);

  // Oracle: concatenated text + suffix array, as RefIndex builds it.
  std::string text;
  for (const ReadId id : members) {
    text += reads[id].seq;
    text += '\x01';
  }
  const SuffixArray sa(text);

  // Every clean k-mer of every member must have identical occurrence counts
  // in both structures.
  std::size_t checked = 0;
  for (std::size_t m = 0; m < members.size(); m += 7) {
    const std::string& seq = reads[members[m]].seq;
    dna::PackedSeq packed(seq);
    for (std::size_t pos = 0; pos + k <= seq.size(); pos += 11) {
      std::uint64_t key;
      if (!packed.kmer_at(pos, k, key)) continue;
      const auto sa_count = sa.count(std::string_view(seq).substr(pos, k));
      ASSERT_EQ(index.count(key), sa_count)
          << "member " << m << " pos " << pos;
      ++checked;
    }
  }
  EXPECT_GT(checked, 100u);
}

TEST(KmerIndexOracle, PostingsSortedByMemberThenPosition) {
  const io::ReadSet reads = dataset_reads(2);
  std::vector<ReadId> members;
  for (ReadId id = 0; id < reads.size() && id < 60; ++id) members.push_back(id);
  const unsigned k = 12;
  const KmerIndex index(reads, members, k);

  dna::PackedSeq packed(reads[members[0]].seq);
  std::uint64_t key;
  std::size_t buckets_checked = 0;
  for (std::size_t pos = 0; pos + k <= reads[members[0]].seq.size(); ++pos) {
    if (!packed.kmer_at(pos, k, key)) continue;
    const auto [first, last] = index.find(key);
    ASSERT_NE(first, last);  // the k-mer itself must be indexed
    for (const KmerIndex::Posting* p = first; p + 1 < last; ++p) {
      const bool ordered = p->member < (p + 1)->member ||
                           (p->member == (p + 1)->member &&
                            p->pos < (p + 1)->pos);
      ASSERT_TRUE(ordered) << "posting order violated";
    }
    ++buckets_checked;
  }
  EXPECT_GT(buckets_checked, 50u);
}

TEST(KmerIndexOracle, AbsentAndEmpty) {
  io::ReadSet reads;
  reads.add(io::Read{"r0", "ACGTACGTACGTACGT", "", kInvalidRead, false});
  const KmerIndex index(reads, {0}, 8);
  // A key built from a sequence not present in the read.
  dna::PackedSeq probe("TTTTTTTT");
  std::uint64_t key;
  ASSERT_TRUE(probe.kmer_at(0, 8, key));
  EXPECT_EQ(index.count(key), 0u);

  const KmerIndex empty(reads, {}, 8);
  EXPECT_EQ(empty.posting_count(), 0u);
  EXPECT_EQ(empty.count(key), 0u);
}

// ---------------------------------------------------------------------------
// Counting KmerIndex build vs the sort-built index it replaced
// ---------------------------------------------------------------------------

// The sort-built index: one (key, member, pos) entry per clean window, sorted,
// with the build charge computed the same way.
struct SortedIndex {
  struct Entry {
    std::uint64_t key;
    std::uint32_t member;
    std::uint32_t pos;
  };
  std::vector<Entry> entries;
  std::size_t distinct = 0;
  double build_work = 0.0;

  SortedIndex(const io::ReadSet& reads, const std::vector<ReadId>& members,
              unsigned k) {
    std::size_t total_bases = 0;
    for (const ReadId id : members) total_bases += reads[id].seq.size();
    dna::PackedSeq packed;
    for (std::size_t m = 0; m < members.size(); ++m) {
      const std::string& seq = reads[members[m]].seq;
      if (seq.size() < k) continue;
      packed.assign(seq);
      std::uint64_t key;
      for (std::size_t pos = 0; pos + k <= seq.size(); ++pos) {
        if (!packed.kmer_at(pos, k, key)) continue;
        entries.push_back({key, static_cast<std::uint32_t>(m),
                           static_cast<std::uint32_t>(pos)});
      }
    }
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) {
                if (a.key != b.key) return a.key < b.key;
                if (a.member != b.member) return a.member < b.member;
                return a.pos < b.pos;
              });
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (i == 0 || entries[i].key != entries[i - 1].key) ++distinct;
    }
    const double n = static_cast<double>(entries.size());
    build_work = n * std::log2(n + 2.0) + static_cast<double>(distinct);
    build_work += static_cast<double>(total_bases);
  }

  /// The postings of `key`, in index order.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> postings(
      std::uint64_t key) const {
    auto it = std::lower_bound(
        entries.begin(), entries.end(), key,
        [](const Entry& e, std::uint64_t k) { return e.key < k; });
    std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
    for (; it != entries.end() && it->key == key; ++it) {
      out.emplace_back(it->member, it->pos);
    }
    return out;
  }
};

// Expects the counting build of `members` to match the sort-built index:
// the posting range of every indexed key and of keys absent from the index,
// the distinct-key and posting counts, and build_work to the bit.
void expect_index_matches_oracle(const io::ReadSet& reads,
                                 const std::vector<ReadId>& members,
                                 unsigned k, const std::string& ctx) {
  const KmerIndex index(reads, members, k);
  const SortedIndex oracle(reads, members, k);
  EXPECT_EQ(index.posting_count(), oracle.entries.size()) << ctx;
  EXPECT_EQ(index.distinct_keys(), oracle.distinct) << ctx;
  EXPECT_EQ(index.build_work(), oracle.build_work) << ctx;

  std::vector<std::uint64_t> keys;
  for (std::size_t i = 0; i < oracle.entries.size(); ++i) {
    if (i == 0 || oracle.entries[i].key != oracle.entries[i - 1].key) {
      keys.push_back(oracle.entries[i].key);
    }
  }
  // Keys next to indexed ones are mostly absent: both sides must agree on
  // those too (empty ranges).
  Rng rng(k * 7919 + members.size());
  const std::size_t indexed = keys.size();
  const std::uint64_t mask =
      k == 32 ? ~std::uint64_t{0} : (std::uint64_t{1} << (2 * k)) - 1;
  for (std::size_t i = 0; i < indexed && i < 500; ++i) {
    keys.push_back((keys[i] + 1) & mask);
    keys.push_back(rng.next_u64() & mask);
  }
  std::size_t mismatched = 0;
  for (const std::uint64_t key : keys) {
    const auto [first, last] = index.find(key);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> got;
    for (const KmerIndex::Posting* p = first; p != last; ++p) {
      got.emplace_back(p->member, p->pos);
    }
    if (got != oracle.postings(key)) ++mismatched;
  }
  EXPECT_EQ(mismatched, 0u) << ctx << ": " << keys.size() << " keys checked";
}

TEST(KmerIndexOracle, CountingBuildMatchesSortBuildOnD1ToD3) {
  for (int d = 1; d <= 3; ++d) {
    const auto ds = sim::make_dataset(d, /*scale=*/0.25);
    const io::ReadSet reads = io::preprocess(ds.data.reads, {});
    const auto subsets = io::split_into_subsets(reads.size(), 4);
    for (std::size_t j = 0; j < subsets.size(); ++j) {
      expect_index_matches_oracle(reads, subsets[j], 14,
                                  "D" + std::to_string(d) + " subset " +
                                      std::to_string(j));
    }
  }
}

TEST(KmerIndexOracle, CountingBuildMatchesSortBuildOnRandomReads) {
  // Seeded random reads with runs of N (windows through them are skipped),
  // reads shorter than k, a repeated read and a poly-A read (one key with
  // many postings), at k = 8, 14, 16 and 32.
  Rng rng(20261019);
  io::ReadSet reads;
  const std::string repeat = sim::random_genome(120, rng);
  for (int r = 0; r < 300; ++r) {
    std::string seq = sim::random_genome(5 + rng.next_below(150), rng);
    if (rng.next_bool(0.3)) {
      const std::size_t at = rng.next_below(seq.size());
      const std::size_t run = 1 + rng.next_below(6);
      for (std::size_t i = at; i < seq.size() && i < at + run; ++i) {
        seq[i] = 'N';
      }
    }
    if (r % 50 == 0) seq = repeat;
    if (r == 7) seq = std::string(90, 'A');
    reads.add(io::Read{"r" + std::to_string(r), seq, "", kInvalidRead, false});
  }
  std::vector<ReadId> members;
  for (ReadId id = 0; id < reads.size(); ++id) members.push_back(id);
  for (const unsigned k : {8u, 14u, 16u, 32u}) {
    expect_index_matches_oracle(reads, members, k, "k=" + std::to_string(k));
  }
  expect_index_matches_oracle(reads, {}, 14, "no members");
  expect_index_matches_oracle(reads, {1, 0, 7}, 14, "three members");
}

TEST(KmerIndexLimits, OffsetsPastThirtyTwoBitsAreTypedErrors) {
  // Posting ranges and text offsets are 32-bit. The indexes narrow their
  // window and text-byte totals through checked_u32_extent before they
  // allocate, so a subset past 2^32 is a focus::Error, never a silent wrap.
  const std::uint64_t max = std::numeric_limits<std::uint32_t>::max();
  EXPECT_EQ(checked_u32_extent(max, "k-mer windows"), max);
  EXPECT_EQ(checked_u32_extent(0, "k-mer windows"), 0u);
  for (const std::uint64_t n : {max + 1, std::uint64_t{1} << 40,
                                ~std::uint64_t{0}}) {
    try {
      checked_u32_extent(n, "reference text bytes");
      ADD_FAILURE() << n << " did not throw";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("reference text bytes"),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(std::to_string(n)),
                std::string::npos)
          << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// Count-then-gather seeding vs the per-member diagonal lists it replaced
// ---------------------------------------------------------------------------

// The per-member-list query: every non-self hit's diagonal appended to its
// member's list, candidates (lists of at least min_kmer_hits) in ReadId
// order, the densest-cluster median verified. Charges the same work in the
// same order.
void per_member_list_query(const io::ReadSet& reads, const RefIndex& index,
                           ReadId query_id, const OverlapperConfig& config,
                           std::vector<Overlap>& out, double* work) {
  const std::string& qs = reads[query_id].seq;
  if (qs.size() < config.k) return;
  std::map<std::uint32_t, std::vector<std::int64_t>> diags_of;
  const auto push_hit = [&](std::uint32_t m, std::size_t qpos,
                            std::uint32_t rpos) {
    if (index.members()[m] == query_id) return;
    diags_of[m].push_back(static_cast<std::int64_t>(qpos) -
                              static_cast<std::int64_t>(rpos));
    if (work != nullptr) *work += 1.0;
  };
  if (index.backend() == SeedBackend::kSuffixArray) {
    const double log_n =
        std::log2(static_cast<double>(index.sa().size()) + 2.0);
    for (std::size_t qpos = 0; qpos + config.k <= qs.size(); ++qpos) {
      const std::string_view seed =
          std::string_view(qs).substr(qpos, config.k);
      if (!dna::is_clean(seed)) continue;
      if (work != nullptr) *work += static_cast<double>(config.k) * log_n;
      const auto [lo, hi] = index.sa().find(seed);
      if (hi == lo || hi - lo > config.max_kmer_occurrences) continue;
      for (std::size_t i = lo; i < hi; ++i) {
        const auto [m, rpos] = index.resolve_member(index.sa().at(i));
        push_hit(m, qpos, rpos);
      }
    }
  } else {
    dna::PackedSeq packed(qs);
    std::uint64_t key;
    for (std::size_t qpos = 0; qpos + config.k <= qs.size(); ++qpos) {
      if (!packed.kmer_at(qpos, config.k, key)) continue;
      if (work != nullptr) *work += 1.0;
      const auto [first, last] = index.kmers().find(key);
      const auto occurrences = static_cast<std::size_t>(last - first);
      if (occurrences == 0 || occurrences > config.max_kmer_occurrences) {
        continue;
      }
      for (const KmerIndex::Posting* p = first; p != last; ++p) {
        push_hit(p->member, qpos, p->pos);
      }
    }
  }
  std::vector<std::pair<ReadId, std::uint32_t>> candidates;
  for (const auto& [m, diags] : diags_of) {
    if (diags.size() >= config.min_kmer_hits) {
      candidates.emplace_back(index.members()[m], m);
    }
  }
  std::sort(candidates.begin(), candidates.end());
  for (const auto& [ref_id, m] : candidates) {
    std::vector<std::int64_t>& diags = diags_of[m];
    std::sort(diags.begin(), diags.end());
    std::size_t best_begin = 0, best_len = 0, lo = 0;
    for (std::size_t hi = 0; hi < diags.size(); ++hi) {
      while (diags[hi] - diags[lo] > config.diagonal_tolerance) ++lo;
      if (hi - lo + 1 > best_len) {
        best_len = hi - lo + 1;
        best_begin = lo;
      }
    }
    if (best_len < config.min_kmer_hits) continue;
    if (auto o = verify_overlap(reads, query_id, ref_id,
                                diags[best_begin + best_len / 2], config,
                                work)) {
      out.push_back(*o);
    }
  }
}

// Runs every query of every subset against every subset's index through
// query_overlaps_into (one scratch arena for all of them, as a pool thread
// uses it) and through the per-member-list oracle, on both backends, and
// expects the same records and the same per-query work bits.
void expect_seeding_matches_oracle(const io::ReadSet& reads,
                                   OverlapperConfig cfg,
                                   const std::string& ctx) {
  const auto subsets = io::split_into_subsets(reads.size(), cfg.subsets);
  AlignScratch scratch;
  for (const SeedBackend backend :
       {SeedBackend::kKmerHash, SeedBackend::kSuffixArray}) {
    cfg.seed_backend = backend;
    const std::string bctx =
        ctx + (backend == SeedBackend::kKmerHash ? " hash" : " suffix array");
    std::size_t records = 0, mismatched = 0;
    for (const auto& ref : subsets) {
      if (ref.empty()) continue;
      const RefIndex index(reads, ref, cfg);
      for (const auto& queries : subsets) {
        for (const ReadId q : queries) {
          std::vector<Overlap> got, want;
          double got_work = 0.0, want_work = 0.0;
          query_overlaps_into(reads, index, q, cfg, scratch, got, &got_work);
          per_member_list_query(reads, index, q, cfg, want, &want_work);
          records += want.size();
          bool same = got.size() == want.size() && got_work == want_work;
          for (std::size_t i = 0; same && i < got.size(); ++i) {
            same = got[i].query == want[i].query &&
                   got[i].ref == want[i].ref &&
                   got[i].length == want[i].length &&
                   got[i].identity == want[i].identity &&
                   got[i].kind == want[i].kind;
          }
          if (!same) ++mismatched;
        }
      }
    }
    EXPECT_EQ(mismatched, 0u) << bctx;
    EXPECT_GT(records, 0u) << bctx;
  }
}

TEST(SeedOracle, CountThenGatherMatchesPerMemberListsOnD1ToD3) {
  for (int d = 1; d <= 3; ++d) {
    OverlapperConfig cfg;
    cfg.k = 14;
    cfg.subsets = 3;
    expect_seeding_matches_oracle(dataset_reads(d), cfg,
                                  "D" + std::to_string(d));
  }
}

TEST(SeedOracle, CountThenGatherMatchesAcrossMaskAndHitThresholds) {
  // A tight repeat mask drops probes between the passes' bookkeeping, one
  // seed hit makes every touched member a candidate, and a wide tolerance
  // merges clusters; Ns and reads shorter than k come from the slice below.
  io::ReadSet base = dataset_reads(1);
  Rng rng(31);
  io::ReadSet reads;
  for (ReadId id = 0; id < base.size() && id < 200; ++id) {
    io::Read r = base[id];
    if (rng.next_bool(0.2)) r.seq[rng.next_below(r.seq.size())] = 'N';
    if (id % 40 == 0) r.seq = r.seq.substr(0, 10);
    reads.add(std::move(r));
  }
  for (const std::size_t max_occ : {std::size_t{2}, std::size_t{64}}) {
    for (const std::size_t min_hits : {std::size_t{1}, std::size_t{3}}) {
      OverlapperConfig cfg;
      cfg.k = 12;
      cfg.subsets = 2;
      cfg.min_overlap = 40;
      cfg.max_kmer_occurrences = max_occ;
      cfg.min_kmer_hits = min_hits;
      cfg.diagonal_tolerance = min_hits == 1 ? 8 : 3;
      expect_seeding_matches_oracle(
          reads, cfg,
          "max_occ=" + std::to_string(max_occ) +
              " min_hits=" + std::to_string(min_hits));
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end equivalence on the simulated datasets
// ---------------------------------------------------------------------------

TEST(SeedBackendEquivalence, SweepKBandAndMaskingOnDataset1) {
  const io::ReadSet reads = dataset_reads(1);
  ASSERT_GT(reads.size(), 100u);
  for (const unsigned k : {12u, 16u}) {
    for (const std::uint32_t band : {4u, 8u}) {
      for (const std::size_t max_occ : {std::size_t{16}, std::size_t{64}}) {
        SCOPED_TRACE("k=" + std::to_string(k) + " band=" +
                     std::to_string(band) + " max_occ=" +
                     std::to_string(max_occ));
        OverlapperConfig cfg;
        cfg.k = k;
        cfg.band = band;
        cfg.max_kmer_occurrences = max_occ;
        cfg.min_overlap = 40;
        cfg.subsets = 3;
        const auto hashed =
            run_with_backend(reads, cfg, SeedBackend::kKmerHash);
        const auto oracle =
            run_with_backend(reads, cfg, SeedBackend::kSuffixArray);
        EXPECT_TRUE(identical(hashed, oracle))
            << "hashed=" << hashed.size() << " oracle=" << oracle.size();
      }
    }
  }
}

TEST(SeedBackendEquivalence, AllDatasetsDefaultConfig) {
  for (int d = 1; d <= 3; ++d) {
    SCOPED_TRACE("dataset D" + std::to_string(d));
    const io::ReadSet reads = dataset_reads(d);
    OverlapperConfig cfg;
    cfg.k = 14;
    cfg.subsets = 4;
    const auto hashed = run_with_backend(reads, cfg, SeedBackend::kKmerHash);
    const auto oracle =
        run_with_backend(reads, cfg, SeedBackend::kSuffixArray);
    ASSERT_GT(oracle.size(), 0u);
    EXPECT_TRUE(identical(hashed, oracle))
        << "hashed=" << hashed.size() << " oracle=" << oracle.size();
  }
}

TEST(SeedBackendEquivalence, ReadsWithAmbiguousBases) {
  // Sprinkle Ns over a dataset slice: windows touching an N must be skipped
  // identically by the packed extraction and the literal suffix-array match.
  io::ReadSet base = dataset_reads(1);
  Rng rng(99);
  io::ReadSet reads;
  for (ReadId id = 0; id < base.size() && id < 150; ++id) {
    io::Read r = base[id];
    if (rng.next_bool(0.5)) {
      r.seq[rng.next_below(r.seq.size())] = 'N';
    }
    reads.add(std::move(r));
  }
  OverlapperConfig cfg;
  cfg.k = 12;
  cfg.subsets = 2;
  cfg.min_overlap = 40;
  const auto hashed = run_with_backend(reads, cfg, SeedBackend::kKmerHash);
  const auto oracle = run_with_backend(reads, cfg, SeedBackend::kSuffixArray);
  EXPECT_TRUE(identical(hashed, oracle))
      << "hashed=" << hashed.size() << " oracle=" << oracle.size();
}

class SeedBackendThreadWidths : public ::testing::TestWithParam<unsigned> {};

TEST_P(SeedBackendThreadWidths, HashedPoolMatchesSuffixArraySerial) {
  const io::ReadSet reads = dataset_reads(2);
  OverlapperConfig cfg;
  cfg.k = 14;
  cfg.subsets = 3;
  cfg.seed_backend = SeedBackend::kSuffixArray;
  cfg.threads = 1;
  const auto oracle = find_overlaps_serial(reads, cfg);
  ASSERT_GT(oracle.size(), 0u);

  cfg.seed_backend = SeedBackend::kKmerHash;
  cfg.threads = GetParam();
  const auto hashed = find_overlaps_parallel(reads, cfg, 1).overlaps;
  EXPECT_TRUE(identical(hashed, oracle))
      << "hashed=" << hashed.size() << " oracle=" << oracle.size();
}

INSTANTIATE_TEST_SUITE_P(Widths, SeedBackendThreadWidths,
                         ::testing::Values(1, 2, 4, 8));

TEST(SeedBackendEquivalence, MprRanksMatchOracle) {
  const io::ReadSet reads = dataset_reads(3);
  OverlapperConfig cfg;
  cfg.k = 14;
  cfg.subsets = 3;
  cfg.seed_backend = SeedBackend::kSuffixArray;
  const auto oracle = find_overlaps_serial(reads, cfg);

  cfg.seed_backend = SeedBackend::kKmerHash;
  const auto parallel = find_overlaps_parallel(reads, cfg, 3);
  EXPECT_TRUE(identical(parallel.overlaps, oracle))
      << "mpr=" << parallel.overlaps.size() << " oracle=" << oracle.size();
  EXPECT_GT(parallel.stats.makespan, 0.0);
}

// ---------------------------------------------------------------------------
// Two-pass banded NW: score pass and prefilter soundness
// ---------------------------------------------------------------------------

TEST(TwoPassNw, ScoreOnlyMatchesFullPassOnRandomPairs) {
  Rng rng(4242);
  for (int trial = 0; trial < 200; ++trial) {
    std::string a;
    const auto len = 30 + rng.next_below(120);
    for (std::uint64_t i = 0; i < len; ++i) {
      a.push_back("ACGT"[rng.next_below(4)]);
    }
    std::string b;
    for (const char c : a) {
      if (rng.next_bool(0.03)) continue;                 // deletion
      b.push_back(rng.next_bool(0.06) ? "ACGT"[rng.next_below(4)] : c);
      if (rng.next_bool(0.03)) b.push_back("ACGT"[rng.next_below(4)]);
    }
    const auto band = static_cast<std::uint32_t>(2 + rng.next_below(14));
    const BandScore pre = banded_score_only(a, b, band);
    const AlignmentResult full = banded_global_align(a, b, band);
    ASSERT_EQ(pre.valid, full.valid) << "trial " << trial;
    if (full.valid) {
      ASSERT_EQ(pre.score, full.score) << "trial " << trial;
    }
  }
}

TEST(TwoPassNw, PrefilterNeverRejectsAnAcceptableAlignment) {
  // Soundness: whenever score_may_pass() says no, the full traceback must
  // indeed fail the (min_columns, min_identity) thresholds.
  Rng rng(777);
  int rejections = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::string a, b;
    const auto len = 20 + rng.next_below(100);
    for (std::uint64_t i = 0; i < len; ++i) {
      a.push_back("ACGT"[rng.next_below(4)]);
    }
    // Mix of related and unrelated partners to cover both filter outcomes.
    if (rng.next_bool(0.5)) {
      for (const char c : a) {
        b.push_back(rng.next_bool(0.25) ? "ACGT"[rng.next_below(4)] : c);
      }
    } else {
      for (std::uint64_t i = 0; i < len; ++i) {
        b.push_back("ACGT"[rng.next_below(4)]);
      }
    }
    const std::uint32_t band = 8;
    const std::uint32_t min_columns = 30 + rng.next_below(40);
    const double min_identity = 0.80 + 0.15 * rng.next_real();
    const BandScore pre = banded_score_only(a, b, band);
    ASSERT_TRUE(pre.valid);
    const bool may_pass =
        score_may_pass(pre.score, a.size(), b.size(), min_columns,
                       min_identity);
    const AlignmentResult full = banded_global_align(a, b, band);
    const bool accepted = full.valid && full.columns >= min_columns &&
                          full.identity() >= min_identity;
    if (!may_pass) {
      ++rejections;
      EXPECT_FALSE(accepted)
          << "prefilter rejected an acceptable alignment: score=" << pre.score
          << " columns=" << full.columns << " identity=" << full.identity();
    }
  }
  EXPECT_GT(rejections, 0) << "sweep never exercised the reject path";
}

TEST(TwoPassNw, PrefilterAbstainsForUnsoundScoring) {
  // A scoring where mismatch < 2*gap breaks the bound derivation; the filter
  // must abstain (return true) rather than guess.
  AlignScoring odd;
  odd.match = 1;
  odd.mismatch = -9;
  odd.gap = -1;
  EXPECT_TRUE(score_may_pass(0, 100, 100, 1000, 1.0, odd));
}

// ---------------------------------------------------------------------------
// RefIndex backend plumbing
// ---------------------------------------------------------------------------

TEST(RefIndexBackend, SuffixArrayBackendStillServesSa) {
  io::ReadSet reads;
  reads.add(io::Read{"a", "ACGTACGTAC", "", kInvalidRead, false});
  reads.add(io::Read{"b", "TTGGCCAATT", "", kInvalidRead, false});
  OverlapperConfig cfg;
  cfg.seed_backend = SeedBackend::kSuffixArray;
  RefIndex index(reads, {0, 1}, cfg);
  EXPECT_EQ(index.backend(), SeedBackend::kSuffixArray);
  EXPECT_EQ(index.sa().count("ACGT"), 2u);
  EXPECT_EQ(index.resolve(0).first, 0u);
  EXPECT_EQ(index.resolve(11).first, 1u);
  EXPECT_EQ(index.resolve(11).second, 0u);
  EXPECT_GT(index.build_work(), 0.0);
}

TEST(RefIndexBackend, HashBackendServesKmersAndResolve) {
  io::ReadSet reads;
  reads.add(io::Read{"a", "ACGTACGTACGTACGT", "", kInvalidRead, false});
  OverlapperConfig cfg;
  cfg.k = 8;
  RefIndex index(reads, {0}, cfg);
  EXPECT_EQ(index.backend(), SeedBackend::kKmerHash);
  EXPECT_EQ(index.seed_k(), 8u);
  EXPECT_GT(index.kmers().posting_count(), 0u);
  EXPECT_GT(index.build_work(), 0.0);
  // resolve() works regardless of backend (it only needs member offsets).
  EXPECT_EQ(index.resolve(3).first, 0u);
  EXPECT_EQ(index.resolve(3).second, 3u);
}

}  // namespace
}  // namespace focus::align
