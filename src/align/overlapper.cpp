#include "align/overlapper.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "align/banded_nw.hpp"
#include "common/dna.hpp"
#include "common/env.hpp"
#include "common/error.hpp"
#include "common/heap.hpp"
#include "common/thread_pool.hpp"
#include "io/preprocess.hpp"

namespace focus::align {

namespace {

constexpr char kSeparator = '\x01';

}  // namespace

SeedStrategy seed_strategy_from_env() {
  return seed_strategy_from_env(EnvSnapshot::capture());
}

SeedStrategy seed_strategy_from_env(const EnvSnapshot& env) {
  if (!env.seed_strategy.has_value() || env.seed_strategy->empty()) {
    return SeedStrategy::kAllPairs;
  }
  const std::string_view v(*env.seed_strategy);
  if (v == "all-pairs" || v == "allpairs") return SeedStrategy::kAllPairs;
  if (v == "distributed" || v == "distributed-index") {
    return SeedStrategy::kDistributedIndex;
  }
  FOCUS_THROW("FOCUS_SEED_STRATEGY must be 'all-pairs' or 'distributed', got '" +
              std::string(v) + "'");
}

RefIndex::RefIndex(const io::ReadSet& reads, std::vector<ReadId> members,
                   const OverlapperConfig& config)
    : members_(std::move(members)),
      backend_(config.seed_backend),
      seed_k_(config.k) {
  std::uint64_t text_bytes = 0;
  for (const ReadId id : members_) text_bytes += reads[id].seq.size() + 1;
  checked_u32_extent(text_bytes, "reference text bytes");
  starts_.reserve(members_.size());
  std::uint32_t offset = 0;
  for (const ReadId id : members_) {
    starts_.push_back(offset);
    offset += static_cast<std::uint32_t>(reads[id].seq.size()) + 1;
  }
  if (backend_ == SeedBackend::kSuffixArray) {
    std::string text;
    text.reserve(offset);
    for (const ReadId id : members_) {
      text += reads[id].seq;
      text += kSeparator;
    }
    sa_.emplace(std::move(text));
  } else {
    kmers_.emplace(reads, members_, config.k);
  }
}

std::pair<std::uint32_t, std::uint32_t> RefIndex::resolve_member(
    std::uint32_t text_pos) const {
  FOCUS_ASSERT(!starts_.empty(), "resolve on empty index");
  const auto it =
      std::upper_bound(starts_.begin(), starts_.end(), text_pos) - 1;
  const auto member_idx = static_cast<std::uint32_t>(it - starts_.begin());
  return {member_idx, text_pos - *it};
}

std::pair<ReadId, std::uint32_t> RefIndex::resolve(
    std::uint32_t text_pos) const {
  const auto [member_idx, offset] = resolve_member(text_pos);
  return {members_[member_idx], offset};
}

const SuffixArray& RefIndex::sa() const {
  FOCUS_ASSERT(sa_.has_value(), "suffix array not built for this backend");
  return *sa_;
}

const KmerIndex& RefIndex::kmers() const {
  FOCUS_ASSERT(kmers_.has_value(), "k-mer index not built for this backend");
  return *kmers_;
}

double RefIndex::build_work() const {
  return sa_.has_value() ? sa_->build_work() : kmers_->build_work();
}

namespace {

// Finds the densest diagonal cluster within `tolerance` and returns its
// median diagonal, or nullopt if the best cluster is smaller than min_hits.
// Sorts `diags` in place.
std::optional<std::int64_t> consensus_diagonal(std::span<std::int64_t> diags,
                                               std::size_t min_hits,
                                               std::int64_t tolerance) {
  if (diags.size() < min_hits) return std::nullopt;
  std::sort(diags.begin(), diags.end());
  std::size_t best_begin = 0, best_len = 0;
  std::size_t lo = 0;
  for (std::size_t hi = 0; hi < diags.size(); ++hi) {
    while (diags[hi] - diags[lo] > tolerance) ++lo;
    if (hi - lo + 1 > best_len) {
      best_len = hi - lo + 1;
      best_begin = lo;
    }
  }
  if (best_len < min_hits) return std::nullopt;
  return diags[best_begin + best_len / 2];
}

}  // namespace

// Verification is two-pass: a score-only banded pass (two DP rows, no
// traceback) always runs; the full pass with the move matrix runs only when
// the score's conservative column/identity bounds could still meet the
// thresholds. Both passes draw their buffers from the thread-local scratch
// arena, so the verify path performs no heap allocation after warmup.
std::optional<Overlap> verify_overlap(const io::ReadSet& reads, ReadId q,
                                      ReadId r, std::int64_t diagonal,
                                      const OverlapperConfig& config,
                                      double* work) {
  const std::string& qs = reads[q].seq;
  const std::string& rs = reads[r].seq;
  const auto lq = static_cast<std::int64_t>(qs.size());
  const auto lr = static_cast<std::int64_t>(rs.size());

  // q[i] aligns r[i - diagonal]; compute the implied overlap window.
  const std::int64_t q_begin = std::max<std::int64_t>(0, diagonal);
  const std::int64_t q_end = std::min<std::int64_t>(lq, lr + diagonal);
  if (q_end - q_begin < static_cast<std::int64_t>(config.min_overlap)) {
    return std::nullopt;
  }
  const std::int64_t r_begin = q_begin - diagonal;
  const std::int64_t r_end = q_end - diagonal;
  FOCUS_ASSERT(r_begin >= 0 && r_end <= lr, "overlap window out of range");

  const std::string_view qa =
      std::string_view(qs).substr(static_cast<std::size_t>(q_begin),
                                  static_cast<std::size_t>(q_end - q_begin));
  const std::string_view rb =
      std::string_view(rs).substr(static_cast<std::size_t>(r_begin),
                                  static_cast<std::size_t>(r_end - r_begin));

  // Pass 1: score only.
  if (work != nullptr) {
    *work += banded_score_work(qa.size(), rb.size(), config.band);
  }
  const BandScore pre = banded_score_only(qa, rb, config.band);
  if (!pre.valid) return std::nullopt;
  if (!score_may_pass(pre.score, qa.size(), rb.size(), config.min_overlap,
                      config.min_identity)) {
    return std::nullopt;  // traceback could not be accepted; skip pass 2
  }

  // Pass 2: full DP + traceback for exact column/match/gap counts.
  if (work != nullptr) {
    *work += banded_align_work(qa.size(), rb.size(), config.band);
  }
  const AlignmentResult aln = banded_global_align(qa, rb, config.band);
  FOCUS_ASSERT(aln.valid && aln.score == pre.score,
               "two-pass banded NW score mismatch");
  if (aln.columns < config.min_overlap) return std::nullopt;
  if (aln.identity() < config.min_identity) return std::nullopt;

  Overlap o;
  o.query = q;
  o.ref = r;
  o.length = aln.columns;
  o.identity = static_cast<float>(aln.identity());

  const bool covers_q = q_begin == 0 && q_end == lq;
  const bool covers_r = r_begin == 0 && r_end == lr;
  if (covers_q && covers_r) {
    // Equal-extent overlap: call the shorter read contained for determinism.
    o.kind = lq <= lr ? OverlapKind::kQueryContained
                      : OverlapKind::kRefContained;
  } else if (covers_q) {
    o.kind = OverlapKind::kQueryContained;
  } else if (covers_r) {
    o.kind = OverlapKind::kRefContained;
  } else if (diagonal > 0) {
    o.kind = OverlapKind::kSuffixPrefix;  // q's suffix meets r's prefix
  } else {
    o.kind = OverlapKind::kPrefixSuffix;  // r's suffix meets q's prefix
  }
  return o;
}

void query_overlaps_into(const io::ReadSet& reads, const RefIndex& index,
                         ReadId query_id, const OverlapperConfig& config,
                         AlignScratch& scratch, std::vector<Overlap>& out,
                         double* work) {
  const std::string& qs = reads[query_id].seq;
  if (qs.size() < config.k) return;

  const std::vector<ReadId>& members = index.members();
  std::vector<std::uint32_t>& hits = scratch.member_hits;
  if (hits.size() < members.size()) hits.resize(members.size(), 0);
  scratch.touched.clear();
  scratch.probes.clear();
  scratch.candidates.clear();

  // Pass 1: count each member's seed hits (the query's own read excluded)
  // and record every unmasked probe's hit range. Both backends produce the
  // same (member -> diagonal multiset) mapping — the suffix array enumerates
  // hits in suffix rank order, the hash index in (member, pos) order, and
  // consensus_diagonal() sorts — so everything downstream is
  // backend-independent.
  const auto count_hit = [&](std::uint32_t m) {
    if (hits[m]++ == 0) scratch.touched.push_back(m);
    if (work != nullptr) *work += 1.0;
  };
  const bool suffix_array = index.backend() == SeedBackend::kSuffixArray;
  if (suffix_array) {
    const double log_n =
        std::log2(static_cast<double>(index.sa().size()) + 2.0);
    for (std::size_t qpos = 0; qpos + config.k <= qs.size(); ++qpos) {
      const std::string_view seed =
          std::string_view(qs).substr(qpos, config.k);
      if (!dna::is_clean(seed)) continue;
      if (work != nullptr) *work += static_cast<double>(config.k) * log_n;
      const auto [lo, hi] = index.sa().find(seed);
      const std::size_t occurrences = hi - lo;
      if (occurrences == 0 || occurrences > config.max_kmer_occurrences) {
        continue;  // absent, or repeat-masked
      }
      scratch.probes.push_back({static_cast<std::uint32_t>(qpos),
                                static_cast<std::uint32_t>(lo),
                                static_cast<std::uint32_t>(hi)});
      for (std::size_t i = lo; i < hi; ++i) {
        const std::uint32_t m = index.resolve_member(index.sa().at(i)).first;
        if (members[m] != query_id) count_hit(m);
      }
    }
  } else {
    const KmerIndex& ki = index.kmers();
    FOCUS_CHECK(ki.k() == config.k,
                "k-mer index seed length does not match query config");
    const KmerIndex::Posting* const base = ki.postings().data();
    scratch.query_packed.assign(qs);
    std::uint64_t key;
    for (std::size_t qpos = 0; qpos + config.k <= qs.size(); ++qpos) {
      if (!scratch.query_packed.kmer_at(qpos, config.k, key)) continue;
      // O(1) expected: one hash probe, no per-character comparisons.
      if (work != nullptr) *work += 1.0;
      const auto [first, last] = ki.find(key);
      const auto occurrences = static_cast<std::size_t>(last - first);
      if (occurrences == 0 || occurrences > config.max_kmer_occurrences) {
        continue;  // absent, or repeat-masked
      }
      scratch.probes.push_back({static_cast<std::uint32_t>(qpos),
                                static_cast<std::uint32_t>(first - base),
                                static_cast<std::uint32_t>(last - base)});
      for (const KmerIndex::Posting* p = first; p != last; ++p) {
        if (members[p->member] != query_id) count_hit(p->member);
      }
    }
  }

  // Candidates in ReadId order (deterministic output). Each gets the next
  // slice of the flat diagonal array, and its counter becomes the slice's
  // write cursor, biased by one so that zero still means "skip": pass 2
  // skips the hits of non-candidates and of the query's own read.
  for (const std::uint32_t m : scratch.touched) {
    if (hits[m] >= config.min_kmer_hits) {
      scratch.candidates.push_back({members[m], m, 0, 0});
    } else {
      hits[m] = 0;
    }
  }
  std::sort(scratch.candidates.begin(), scratch.candidates.end(),
            [](const SeedCandidate& a, const SeedCandidate& b) {
              return a.id != b.id ? a.id < b.id : a.member < b.member;
            });
  std::uint32_t offset = 0;
  for (SeedCandidate& c : scratch.candidates) {
    c.begin = offset;
    offset += hits[c.member];
    c.end = offset;
    hits[c.member] = c.begin + 1;
  }

  // Pass 2: re-walk the recorded ranges and scatter each candidate hit's
  // diagonal into its slice.
  scratch.diags.resize(offset);
  const auto scatter = [&](std::uint32_t m, std::uint32_t qpos,
                           std::uint32_t rpos) {
    const std::uint32_t cursor = hits[m];
    if (cursor == 0) return;
    scratch.diags[cursor - 1] =
        static_cast<std::int64_t>(qpos) - static_cast<std::int64_t>(rpos);
    hits[m] = cursor + 1;
  };
  if (suffix_array) {
    for (const SeedProbe& probe : scratch.probes) {
      for (std::uint32_t i = probe.first; i < probe.last; ++i) {
        const auto [m, rpos] = index.resolve_member(index.sa().at(i));
        scatter(m, probe.qpos, rpos);
      }
    }
  } else {
    const KmerIndex::Posting* const base = index.kmers().postings().data();
    for (const SeedProbe& probe : scratch.probes) {
      for (std::uint32_t i = probe.first; i < probe.last; ++i) {
        scatter(base[i].member, probe.qpos, base[i].pos);
      }
    }
  }
  for (const SeedCandidate& c : scratch.candidates) hits[c.member] = 0;

  for (const SeedCandidate& c : scratch.candidates) {
    const auto diagonal = consensus_diagonal(
        std::span(scratch.diags).subspan(c.begin, c.end - c.begin),
        config.min_kmer_hits, config.diagonal_tolerance);
    if (diagonal) {
      if (auto o = verify_overlap(reads, query_id, c.id, *diagonal, config,
                                  work)) {
        out.push_back(*o);
      }
    }
  }
}

std::vector<Overlap> query_overlaps(const io::ReadSet& reads,
                                    const RefIndex& index, ReadId query_id,
                                    const OverlapperConfig& config,
                                    double* work) {
  std::vector<Overlap> out;
  query_overlaps_into(reads, index, query_id, config, tls_align_scratch(), out,
                      work);
  return out;
}

std::vector<Overlap> dedupe_overlaps(std::vector<Overlap> overlaps) {
  for (auto& o : overlaps) o = canonicalized(o);
  std::sort(overlaps.begin(), overlaps.end(),
            [](const Overlap& a, const Overlap& b) {
              if (a.query != b.query) return a.query < b.query;
              if (a.ref != b.ref) return a.ref < b.ref;
              if (a.length != b.length) return a.length > b.length;
              if (a.identity != b.identity) return a.identity > b.identity;
              // Total order: without this, which duplicate survives unique()
              // depends on gather order, so serial and mpr outputs could
              // disagree on the kind of tied records.
              return a.kind < b.kind;
            });
  overlaps.erase(std::unique(overlaps.begin(), overlaps.end(),
                             [](const Overlap& a, const Overlap& b) {
                               return a.query == b.query && a.ref == b.ref;
                             }),
                 overlaps.end());
  return overlaps;
}

void check_overlapper_config(const OverlapperConfig& config) {
  FOCUS_CHECK(config.subsets > 0, "subset count must be positive");
  FOCUS_CHECK(config.k >= 8 && config.k <= 32, "seed k must be in [8, 32]");
}

std::vector<Overlap> find_overlaps_serial(const io::ReadSet& reads,
                                          const OverlapperConfig& config,
                                          double* work) {
  check_overlapper_config(config);
  const auto subsets = io::split_into_subsets(reads.size(), config.subsets);

  AlignScratch& scratch = tls_align_scratch();
  std::vector<Overlap> all;
  for (std::size_t j = 0; j < subsets.size(); ++j) {
    if (subsets[j].empty()) continue;
    RefIndex index(reads, subsets[j], config);
    if (work != nullptr) *work += index.build_work();
    for (std::size_t i = 0; i <= j; ++i) {
      for (const ReadId q : subsets[i]) {
        query_overlaps_into(reads, index, q, config, scratch, all, work);
      }
    }
  }
  return dedupe_overlaps(std::move(all));
}

std::vector<SubsetPair> subset_pairs(std::size_t subsets) {
  std::vector<SubsetPair> pairs;
  pairs.reserve(subsets * (subsets + 1) / 2);
  for (std::size_t j = 0; j < subsets; ++j) {
    for (std::size_t i = 0; i <= j; ++i) pairs.push_back({i, j});
  }
  return pairs;
}

ThreadPool& stage2_pool(unsigned threads) {
  static std::mutex mu;
  static std::map<unsigned, std::unique_ptr<ThreadPool>> pools;
  const unsigned width = resolve_thread_count(threads);
  std::lock_guard<std::mutex> lock(mu);
  std::unique_ptr<ThreadPool>& pool = pools[width];
  if (!pool) pool = std::make_unique<ThreadPool>(width);
  return *pool;
}

SubsetIndexes build_subset_indexes(
    const io::ReadSet& reads, const std::vector<std::vector<ReadId>>& subsets,
    const OverlapperConfig& config, ThreadPool& pool) {
  SubsetIndexes indexes(subsets.size());
  pool.parallel_for(subsets.size(), 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t j = b; j < e; ++j) {
      if (!subsets[j].empty()) {
        indexes[j] = std::make_unique<const RefIndex>(reads, subsets[j],
                                                      config);
      }
    }
  });
  return indexes;
}

PairScanner::PairScanner(const io::ReadSet& reads,
                         const std::vector<std::vector<ReadId>>& subsets,
                         const std::vector<SubsetPair>& pairs,
                         const SubsetIndexes& indexes,
                         const OverlapperConfig& config, std::size_t stride,
                         ThreadPool& pool)
    : reads_(reads),
      subsets_(subsets),
      pairs_(pairs),
      indexes_(indexes),
      config_(config),
      stride_(stride),
      pool_(pool) {}

void PairScanner::scan(std::size_t p, std::vector<Overlap>& out,
                       double* work) {
  const auto [i, j] = pairs_[p];
  if (subsets_[j].empty()) return;
  const RefIndex& index = *indexes_[j];
  if (held_j_ != j) {
    *work += index.build_work();
    held_j_ = j;
  }

  struct Block {
    std::vector<Overlap> overlaps;
    double work = 0.0;
  };
  const std::vector<ReadId>& queries = subsets_[i];
  const std::size_t blocks =
      (queries.size() + kQueriesPerTask - 1) / kQueriesPerTask;
  auto done = pool_.parallel_transform<Block>(blocks, 1, [&](std::size_t b) {
    Block block;
    AlignScratch& scratch = tls_align_scratch();
    const std::size_t end = std::min(queries.size(), (b + 1) * kQueriesPerTask);
    for (std::size_t q = b * kQueriesPerTask; q < end; ++q) {
      query_overlaps_into(reads_, index, queries[q], config_, scratch,
                          block.overlaps, &block.work);
    }
    return block;
  });
  for (const Block& block : done) {
    out.insert(out.end(), block.overlaps.begin(), block.overlaps.end());
    *work += block.work;
  }

  const std::size_t next = p + stride_;
  if (next >= pairs_.size() || pairs_[next].j != j) held_j_.reset();
}

ParallelOverlapResult find_overlaps_parallel(const io::ReadSet& reads,
                                             const OverlapperConfig& config,
                                             int nranks, mpr::CostModel cost) {
  FOCUS_CHECK(nranks >= 1, "need at least one rank");
  check_overlapper_config(config);
  const auto subsets = io::split_into_subsets(reads.size(), config.subsets);
  const auto pairs = subset_pairs(subsets.size());

  ParallelOverlapResult result;
  release_free_heap();
  {
    ThreadPool& pool = stage2_pool(config.threads);
    SubsetIndexes indexes = build_subset_indexes(reads, subsets, config, pool);
    // Pairs left to scan per reference subset: the rank that scans an
    // index's last pair frees it.
    std::vector<std::atomic<std::size_t>> pending(subsets.size());
    for (const SubsetPair& pair : pairs) ++pending[pair.j];

    result.stats = mpr::Runtime::execute(
        nranks,
        [&](mpr::Comm& comm) {
          const auto stride = static_cast<std::size_t>(comm.size());
          PairScanner scanner(reads, subsets, pairs, indexes, config, stride,
                              pool);
          std::vector<Overlap> mine;
          double work = 0.0;
          for (auto p = static_cast<std::size_t>(comm.rank());
               p < pairs.size(); p += stride) {
            scanner.scan(p, mine, &work);
            if (--pending[pairs[p].j] == 0) indexes[pairs[p].j].reset();
          }
          comm.charge(work);

          // Gather at rank 0.
          mpr::Message local;
          local.pack_vector(mine);
          auto gathered = comm.gather(std::move(local), 0);
          if (comm.rank() == 0) {
            std::vector<Overlap> all;
            for (auto& msg : gathered) {
              auto part = msg.unpack_vector<Overlap>();
              FOCUS_CHECK(msg.fully_consumed(),
                          "trailing bytes in gathered frame");
              all.insert(all.end(), part.begin(), part.end());
            }
            comm.charge(static_cast<double>(all.size()) *
                        std::log2(static_cast<double>(all.size()) + 2.0));
            result.overlaps = dedupe_overlaps(std::move(all));
          }
        },
        cost);
  }
  release_free_heap();
  return result;
}

}  // namespace focus::align
