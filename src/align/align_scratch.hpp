// Thread-local scratch arena for the alignment hot path.
//
// Every buffer the seed-and-verify loop needs — banded-NW DP rows, the move
// matrix, per-member seed-diagonal lists, candidate lists, and the packed
// query — lives here, grows monotonically, and is reused across calls. After
// warmup (once each buffer has reached the largest size the workload
// demands), neither banded_global_align() nor the query loop performs any
// heap allocation; bench/bench_align verifies the zero-allocation property
// with a counting operator new.
//
// One arena exists per thread (work-stealing pool workers and mpr rank
// threads each get their own), so no synchronization is needed and TSan
// stays clean. Scratch contents never influence results: every user fully
// overwrites or clears the ranges it reads.
//
// Lifetime across jobs: arenas warm to the largest workload a thread has
// ever seen and would otherwise persist for the thread's lifetime — a
// hazard for the multi-tenant job runtime, where one huge job would pin its
// high-water arenas on every lane thread forever and leak its sizing into
// every later job. reset(soft_cap) is the job-boundary hook: the scheduler
// calls it on the lane thread after each job, releasing the arena only when
// its footprint exceeds the cap (so same-sized consecutive jobs keep the
// zero-alloc-after-warmup property that bench_align proves).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/packed_seq.hpp"
#include "common/types.hpp"

namespace focus::align {

struct AlignScratch {
  // Banded-NW rows (score-only and full pass, scalar kernel), the move
  // matrix (full pass; row-major for the scalar kernel, 16 bytes per
  // anti-diagonal for the AVX2 kernel), and the AVX2 kernel's padded
  // sequence copies (a, then b).
  std::vector<std::int32_t> nw_prev;
  std::vector<std::int32_t> nw_cur;
  std::vector<std::uint8_t> nw_moves;
  std::vector<char> nw_seqs;

  // Seed-hit collection: diagonal lists indexed by reference member index,
  // the member indices touched by the current query (whose lists are
  // non-empty), and the candidate (ReadId, member) pairs that reached
  // min_kmer_hits.
  std::vector<std::vector<std::int64_t>> member_diags;
  std::vector<std::uint32_t> touched;
  std::vector<std::pair<ReadId, std::uint32_t>> candidates;

  // 2-bit packed copy of the current query read.
  dna::PackedSeq query_packed;

  /// Retained heap bytes across every buffer (capacities, not sizes).
  std::size_t footprint_bytes() const {
    std::size_t total = 0;
    total += nw_prev.capacity() * sizeof(std::int32_t);
    total += nw_cur.capacity() * sizeof(std::int32_t);
    total += nw_moves.capacity() * sizeof(std::uint8_t);
    total += nw_seqs.capacity();
    total += member_diags.capacity() * sizeof(std::vector<std::int64_t>);
    for (const auto& diags : member_diags) {
      total += diags.capacity() * sizeof(std::int64_t);
    }
    total += touched.capacity() * sizeof(std::uint32_t);
    total +=
        candidates.capacity() * sizeof(std::pair<ReadId, std::uint32_t>);
    total += query_packed.base_words().capacity() * sizeof(std::uint64_t);
    total += query_packed.mask_words().capacity() * sizeof(std::uint64_t);
    return total;
  }

  /// Job-boundary soft cap: releases every buffer when the retained
  /// footprint exceeds `soft_cap_bytes` (0 = always release). Under the cap
  /// the arena is kept warm, so a following job of similar size still runs
  /// allocation-free after its first query.
  void reset(std::size_t soft_cap_bytes) {
    if (soft_cap_bytes > 0 && footprint_bytes() <= soft_cap_bytes) return;
    *this = AlignScratch{};
  }
};

/// The calling thread's scratch arena.
inline AlignScratch& tls_align_scratch() {
  thread_local AlignScratch scratch;
  return scratch;
}

}  // namespace focus::align
