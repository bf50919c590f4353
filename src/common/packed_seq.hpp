// 2-bit packed DNA sequence with an ambiguity mask.
//
// A/C/G/T pack into 2 bits each (A=0, C=1, G=2, T=3, matching
// dna::encode_base), 32 bases per 64-bit word, base i in bits [2*(i%32),
// 2*(i%32)+2) of word i/32. Every position that is not an upper-case ACGT
// character (N, lowercase, separators, ...) is recorded in a parallel
// 1-bit-per-base ambiguity mask and decodes back to 'N'.
//
// The payoff on the alignment hot path (paper §II-B) is k-mer extraction:
// once a read is packed, any k <= 32 window that is free of ambiguous bases
// becomes a single uint64_t key in O(1) word operations — no per-character
// scanning, validation, or hashing of string data. The key orders bases
// LSB-first (base at `pos` in the low bits); keys are only compared for
// equality, so any injective encoding is equivalent.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace focus::dna {

class PackedSeq {
 public:
  PackedSeq() = default;
  explicit PackedSeq(std::string_view seq) { assign(seq); }

  /// Re-packs `seq` into this object, reusing existing buffer capacity
  /// (no heap allocation once grown to the largest sequence seen).
  void assign(std::string_view seq);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// 2-bit code of base i; meaningful only when !ambiguous_at(i).
  std::uint8_t code_at(std::size_t i) const {
    return static_cast<std::uint8_t>((words_[i >> 5] >> ((i & 31u) * 2)) & 3u);
  }

  /// True iff position i was not an upper-case ACGT character.
  bool ambiguous_at(std::size_t i) const {
    return ((mask_[i >> 6] >> (i & 63u)) & 1u) != 0;
  }

  /// Decoded character at i ('N' for ambiguous positions).
  char char_at(std::size_t i) const;

  /// Decodes the whole sequence (ambiguous positions become 'N').
  std::string unpack() const;

  /// Packs the k-mer window [pos, pos+k) into `out` (base `pos` in the low
  /// 2 bits). Returns false if the window is out of range or contains an
  /// ambiguous base. O(1): at most two words are touched. Requires k <= 32.
  bool kmer_at(std::size_t pos, unsigned k, std::uint64_t& out) const;

  /// True iff [pos, pos+len) is in range and free of ambiguous bases.
  bool clean_window(std::size_t pos, std::size_t len) const;

  /// Number of ambiguous positions.
  std::size_t ambiguous_count() const;

 private:
  std::vector<std::uint64_t> words_;  // 2-bit codes, 32 bases/word
  std::vector<std::uint64_t> mask_;   // 1 = ambiguous, 64 bases/word
  std::size_t size_ = 0;
};

}  // namespace focus::dna
