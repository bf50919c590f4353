#include "align/overlapper.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "align/banded_nw.hpp"
#include "common/dna.hpp"
#include "common/env.hpp"
#include "common/error.hpp"
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
std::optional<std::int64_t> consensus_diagonal(std::vector<std::int64_t>& diags,
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

// Classifies and verifies the overlap implied by a diagonal; returns nullopt
// if the overlap region is too short or fails verification thresholds.
//
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

// Appends `diag` to member m's diagonal list, registering m as touched on
// first contact. Lists are empty between queries (reset below), so emptiness
// doubles as the "not yet touched" flag.
inline void push_hit(AlignScratch& scratch, std::uint32_t m,
                     std::int64_t diag) {
  auto& diags = scratch.member_diags[m];
  if (diags.empty()) scratch.touched.push_back(m);
  diags.push_back(diag);
}

}  // namespace

void query_overlaps_into(const io::ReadSet& reads, const RefIndex& index,
                         ReadId query_id, const OverlapperConfig& config,
                         AlignScratch& scratch, std::vector<Overlap>& out,
                         double* work) {
  const std::string& qs = reads[query_id].seq;
  if (qs.size() < config.k) return;

  const std::size_t member_count = index.members().size();
  if (scratch.member_diags.size() < member_count) {
    scratch.member_diags.resize(member_count);
  }
  scratch.touched.clear();
  scratch.candidates.clear();

  // Collect seed diagonals per reference member. Both backends produce the
  // same (member -> diagonal multiset) mapping — the suffix array enumerates
  // hits in suffix rank order, the hash index in (member, pos) order, and
  // consensus_diagonal() sorts — so everything downstream is
  // backend-independent.
  if (index.backend() == SeedBackend::kSuffixArray) {
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
      for (std::size_t i = lo; i < hi; ++i) {
        const auto [m, rpos] = index.resolve_member(index.sa().at(i));
        if (index.members()[m] == query_id) continue;
        push_hit(scratch, m,
                 static_cast<std::int64_t>(qpos) -
                     static_cast<std::int64_t>(rpos));
        if (work != nullptr) *work += 1.0;
      }
    }
  } else {
    const KmerIndex& ki = index.kmers();
    FOCUS_CHECK(ki.k() == config.k,
                "k-mer index seed length does not match query config");
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
      for (const KmerIndex::Posting* p = first; p != last; ++p) {
        if (index.members()[p->member] == query_id) continue;
        push_hit(scratch, p->member,
                 static_cast<std::int64_t>(qpos) -
                     static_cast<std::int64_t>(p->pos));
        if (work != nullptr) *work += 1.0;
      }
    }
  }

  // Order candidates by read id for deterministic output.
  for (const std::uint32_t m : scratch.touched) {
    if (scratch.member_diags[m].size() >= config.min_kmer_hits) {
      scratch.candidates.emplace_back(index.members()[m], m);
    }
  }
  std::sort(scratch.candidates.begin(), scratch.candidates.end());

  for (const auto& [ref_id, m] : scratch.candidates) {
    auto& diags = scratch.member_diags[m];
    const auto diagonal = consensus_diagonal(diags, config.min_kmer_hits,
                                             config.diagonal_tolerance);
    if (diagonal) {
      if (auto o = verify_overlap(reads, query_id, ref_id, *diagonal, config,
                                  work)) {
        out.push_back(*o);
      }
    }
  }

  // Reset for the next query; capacities are retained.
  for (const std::uint32_t m : scratch.touched) {
    scratch.member_diags[m].clear();
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

namespace {

// Processes one subset pair against a prebuilt index of subset j.
void process_pair(const io::ReadSet& reads,
                  const std::vector<std::vector<ReadId>>& subsets,
                  std::size_t i, const RefIndex& index_j,
                  const OverlapperConfig& config, double* work,
                  std::vector<Overlap>& out) {
  AlignScratch& scratch = tls_align_scratch();
  for (const ReadId q : subsets[i]) {
    query_overlaps_into(reads, index_j, q, config, scratch, out, work);
  }
}

}  // namespace

void check_overlapper_config(const OverlapperConfig& config) {
  FOCUS_CHECK(config.subsets > 0, "subset count must be positive");
  FOCUS_CHECK(config.k >= 8 && config.k <= 32, "seed k must be in [8, 32]");
}

std::vector<Overlap> find_overlaps_serial(const io::ReadSet& reads,
                                          const OverlapperConfig& config,
                                          double* work) {
  check_overlapper_config(config);
  const auto subsets = io::split_into_subsets(reads.size(), config.subsets);

  std::vector<Overlap> all;
  for (std::size_t j = 0; j < subsets.size(); ++j) {
    if (subsets[j].empty()) continue;
    RefIndex index(reads, subsets[j], config);
    if (work != nullptr) *work += index.build_work();
    for (std::size_t i = 0; i <= j; ++i) {
      process_pair(reads, subsets, i, index, config, work, all);
    }
  }
  return dedupe_overlaps(std::move(all));
}

namespace {

/// Queries per pool task. Fixed (never derived from the thread count) so the
/// task decomposition — and therefore the order work units are summed in —
/// is identical for every pool width.
constexpr std::size_t kQueriesPerTask = 16;

}  // namespace

std::vector<Overlap> find_overlaps(const io::ReadSet& reads,
                                   const OverlapperConfig& config,
                                   double* work) {
  const unsigned threads = resolve_thread_count(config.threads);
  if (threads <= 1) return find_overlaps_serial(reads, config, work);

  check_overlapper_config(config);
  const auto subsets = io::split_into_subsets(reads.size(), config.subsets);

  ThreadPool pool(threads);

  // Index every non-empty reference subset exactly once, in parallel.
  std::vector<std::unique_ptr<RefIndex>> indexes(subsets.size());
  pool.parallel_for(subsets.size(), 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t j = b; j < e; ++j) {
      if (!subsets[j].empty()) {
        indexes[j] = std::make_unique<RefIndex>(reads, subsets[j], config);
      }
    }
  });

  // Flatten the (i, j) subset pairs into per-query-chunk tasks, enumerated
  // in the serial driver's traversal order (j outer, i inner, reads in
  // subset order). Chunking below the pair level keeps the pool busy even
  // when there are fewer pairs than threads.
  struct QueryTask {
    std::size_t i, j;
    std::size_t q_begin, q_end;  // range within subsets[i]
  };
  std::vector<QueryTask> tasks;
  for (std::size_t j = 0; j < subsets.size(); ++j) {
    if (subsets[j].empty()) continue;
    for (std::size_t i = 0; i <= j; ++i) {
      for (std::size_t q = 0; q < subsets[i].size(); q += kQueriesPerTask) {
        tasks.push_back(
            {i, j, q, std::min(subsets[i].size(), q + kQueriesPerTask)});
      }
    }
  }

  struct TaskResult {
    std::vector<Overlap> overlaps;
    double work = 0.0;
  };
  auto results = pool.parallel_transform<TaskResult>(
      tasks.size(), 1, [&](std::size_t t) {
        const QueryTask& task = tasks[t];
        TaskResult r;
        double* task_work = work != nullptr ? &r.work : nullptr;
        AlignScratch& scratch = tls_align_scratch();
        for (std::size_t q = task.q_begin; q < task.q_end; ++q) {
          query_overlaps_into(reads, *indexes[task.j], subsets[task.i][q],
                              config, scratch, r.overlaps, task_work);
        }
        return r;
      });

  // Deterministic merge: index build work in j order, then task results in
  // task order (== the serial traversal order).
  std::vector<Overlap> all;
  if (work != nullptr) {
    for (const auto& index : indexes) {
      if (index) *work += index->build_work();
    }
  }
  for (auto& r : results) {
    all.insert(all.end(), r.overlaps.begin(), r.overlaps.end());
    if (work != nullptr) *work += r.work;
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

PairScanner::PairScanner(const io::ReadSet& reads,
                         const std::vector<std::vector<ReadId>>& subsets,
                         const std::vector<SubsetPair>& pairs,
                         const OverlapperConfig& config, std::size_t stride)
    : reads_(reads),
      subsets_(subsets),
      pairs_(pairs),
      config_(config),
      stride_(stride) {}

void PairScanner::scan(std::size_t p, std::vector<Overlap>& out,
                       double* work) {
  const auto [i, j] = pairs_[p];
  if (subsets_[j].empty()) return;
  if (!index_ || index_j_ != j) {
    index_.reset();
    index_.emplace(reads_, subsets_[j], config_);
    index_j_ = j;
    *work += index_->build_work();
  }
  process_pair(reads_, subsets_, i, *index_, config_, work, out);
  const std::size_t next = p + stride_;
  if (next >= pairs_.size() || pairs_[next].j != j) index_.reset();
}

ParallelOverlapResult find_overlaps_parallel(const io::ReadSet& reads,
                                             const OverlapperConfig& config,
                                             int nranks, mpr::CostModel cost) {
  FOCUS_CHECK(nranks >= 1, "need at least one rank");
  check_overlapper_config(config);
  const auto subsets = io::split_into_subsets(reads.size(), config.subsets);
  const auto pairs = subset_pairs(subsets.size());

  ParallelOverlapResult result;
  result.stats = mpr::Runtime::execute(
      nranks,
      [&](mpr::Comm& comm) {
        const auto stride = static_cast<std::size_t>(comm.size());
        PairScanner scanner(reads, subsets, pairs, config, stride);
        std::vector<Overlap> mine;
        double work = 0.0;
        for (auto p = static_cast<std::size_t>(comm.rank()); p < pairs.size();
             p += stride) {
          scanner.scan(p, mine, &work);
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
            FOCUS_CHECK(msg.fully_consumed(), "trailing bytes in gathered frame");
            all.insert(all.end(), part.begin(), part.end());
          }
          comm.charge(static_cast<double>(all.size()) *
                      std::log2(static_cast<double>(all.size()) + 2.0));
          result.overlaps = dedupe_overlaps(std::move(all));
        }
      },
      cost);
  return result;
}

}  // namespace focus::align
