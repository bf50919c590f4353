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
// Arenas warm to the largest workload their thread has seen and are freed
// when the thread exits. Pool workers and mpr rank threads are per-call, so
// a finished stage releases theirs.
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
};

/// The calling thread's scratch arena.
inline AlignScratch& tls_align_scratch() {
  thread_local AlignScratch scratch;
  return scratch;
}

}  // namespace focus::align
