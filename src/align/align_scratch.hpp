// Thread-local scratch arena for the alignment hot path.
//
// Every buffer the seed-and-verify loop needs — banded-NW DP rows, the move
// matrix, the seed-hit counters, probe ranges, candidates and diagonals, and
// the packed query — lives here, grows monotonically, and is reused across
// calls. After warmup (once each buffer has reached the largest size the
// workload demands), neither banded_global_align() nor the query loop
// performs any heap allocation; bench/bench_align verifies the
// zero-allocation property of both with a counting operator new.
//
// One arena exists per thread (stage-2 pool workers and mpr rank threads
// each get their own), so no synchronization is needed and TSan stays clean.
// Scratch contents never influence results: every user fully overwrites or
// clears the ranges it reads.
//
// The seed buffers are bounded by one query's hits (probes × the repeat
// mask), not by the reference subset; only the hit counters hold one
// 4-byte entry per reference member. Arenas are freed when their thread
// exits: mpr rank threads are per-call, and the stage-2 pool's workers
// (align::stage2_pool) live as long as the process, keeping these few
// buffers warm between calls.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/packed_seq.hpp"
#include "common/types.hpp"

namespace focus::align {

/// One unmasked seed probe: the query offset and the half-open range of its
/// hits in the backend's hit list (posting indices of the hashed index,
/// suffix-array indices of the suffix array).
struct SeedProbe {
  std::uint32_t qpos;
  std::uint32_t first;
  std::uint32_t last;
};

/// A reference member with at least min_kmer_hits seed hits, and its slice
/// [begin, end) of AlignScratch::diags.
struct SeedCandidate {
  ReadId id;
  std::uint32_t member;
  std::uint32_t begin;
  std::uint32_t end;
};

struct AlignScratch {
  // Banded-NW rows (score-only and full pass, scalar kernel), the move
  // matrix (full pass; row-major for the scalar kernel, 16 bytes per
  // anti-diagonal for the AVX2 kernel), and the AVX2 kernel's padded
  // sequence copies (a, then b).
  std::vector<std::int32_t> nw_prev;
  std::vector<std::int32_t> nw_cur;
  std::vector<std::uint8_t> nw_moves;
  std::vector<char> nw_seqs;

  // Count-then-gather seeding (overlapper.cpp): per-member hit counters,
  // all zero between queries and reset through `touched` (the members the
  // current query hit); the current query's unmasked probes; its candidates
  // in ReadId order; and their seed diagonals, one slice per candidate.
  std::vector<std::uint32_t> member_hits;
  std::vector<std::uint32_t> touched;
  std::vector<SeedProbe> probes;
  std::vector<SeedCandidate> candidates;
  std::vector<std::int64_t> diags;

  // 2-bit packed copy of the current query read.
  dna::PackedSeq query_packed;
};

/// The calling thread's scratch arena.
inline AlignScratch& tls_align_scratch() {
  thread_local AlignScratch scratch;
  return scratch;
}

}  // namespace focus::align
