// Hashed k-mer seed index over one reference read subset — the O(1)-lookup
// replacement for suffix-array seeding on the overlap hot path (paper §II-B).
//
// Layout: every clean (ambiguity-free) k-mer window of every member read
// becomes a posting {member, pos}. Postings are stored in one flat array,
// grouped by key; within a key they run in member order, then position
// order, so bucket iteration order is deterministic and independent of
// hash-table geometry. An open-addressing table (power-of-two size, load
// factor <= 0.5, linear probing, splitmix64-finalized hashes) maps a packed
// k-mer key to its posting range in O(1) expected time.
//
// Build: two passes over the members, no sort and no per-window entry
// array. Pass 1 counts each key's occurrences in the table, doubling it
// whenever a new key would take the load past 1/2, so the final size is
// next_pow2(2 * distinct) slots. Prefix sums over the counts give each key
// its range; pass 2 scatters {member, pos} into the ranges in member order,
// then position order.
//
// Equivalence with the suffix-array oracle: a clean seed matches the
// concatenated reference text exactly at the (member, pos) windows whose
// packed key equals the seed's key (seeds cannot span the '\x01' separator
// or an ambiguous base, and packing is injective on clean windows), so for
// any seed the posting multiset equals the suffix-array hit multiset —
// including hits inside the query read itself when the query belongs to the
// indexed subset, which keeps repeat masking byte-compatible.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/heap.hpp"
#include "common/types.hpp"
#include "io/read.hpp"

namespace focus::align {

/// Narrows a subset index's offset total (k-mer windows, text bytes) to the
/// 32 bits the index stores. Throws focus::Error naming `what` when `n` is
/// 2^32 or more; the indexes call it before they allocate anything that big.
std::uint32_t checked_u32_extent(std::uint64_t n, const char* what);

class KmerIndex {
 public:
  /// One k-mer occurrence: member index (position of the read in the
  /// `members` vector, NOT the ReadId) and base offset within that read.
  struct Posting {
    std::uint32_t member;
    std::uint32_t pos;
  };

  /// Indexes every clean k-mer of `reads[members[i]]` for all i.
  /// Requires 1 <= k <= 32 and fewer than 2^32 k-mer windows.
  KmerIndex(const io::ReadSet& reads, const std::vector<ReadId>& members,
            unsigned k);

  unsigned k() const { return k_; }

  /// Posting range [first, last) for a packed k-mer key (PackedSeq::kmer_at
  /// encoding); empty range if the key is absent. O(1) expected.
  std::pair<const Posting*, const Posting*> find(std::uint64_t key) const;

  /// Number of occurrences of `key` (range length of find()).
  std::size_t count(std::uint64_t key) const {
    const auto [first, last] = find(key);
    return static_cast<std::size_t>(last - first);
  }

  /// Every posting; find() ranges point into this array.
  std::span<const Posting> postings() const { return postings_; }

  std::size_t posting_count() const { return postings_.size(); }
  std::size_t distinct_keys() const { return distinct_; }

  /// Work units charged for the build, for virtual-time charging:
  /// n log2(n + 2) for n postings, plus one per distinct key and one per
  /// member base. The n log n term is the posting sort of the cluster build
  /// the model stands for; this host build counts instead of sorting, but
  /// the charge keeps the term so stage-2 vtime does not move.
  double build_work() const { return build_work_; }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t begin = 0;
    std::uint32_t count = 0;  // 0 = empty slot
  };

  /// Slot holding `key`, or the empty slot where it would go.
  std::size_t probe(std::uint64_t key) const;
  /// Counts one occurrence of `key`, inserting it (and doubling the table
  /// first if the load would pass 1/2) when it is new.
  void count_occurrence(std::uint64_t key);

  // Both arrays are mapped (MappedAllocator): a pool worker builds an
  // index that a rank thread frees, and the pages must leave with it.
  template <typename T>
  using Array = std::vector<T, MappedAllocator<T>>;

  unsigned k_;
  Array<Posting> postings_;  // grouped by key; (member, pos) order
  Array<Slot> table_;        // open addressing, power-of-two size
  std::uint64_t table_mask_ = 0;
  std::size_t distinct_ = 0;
  double build_work_ = 0.0;
};

}  // namespace focus::align
