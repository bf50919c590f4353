// Hashed k-mer seed index over one reference read subset — the O(1)-lookup
// replacement for suffix-array seeding on the overlap hot path (paper §II-B).
//
// Layout: every clean (ambiguity-free) k-mer window of every member read
// becomes a posting {member, pos}. Postings are stored in one flat array
// sorted by (key, member, pos) — member order, then position — so bucket
// iteration order is deterministic and independent of hash-table geometry.
// An open-addressing table (power-of-two size, load factor <= 0.5, linear
// probing, splitmix64-finalized hashes) maps a packed k-mer key to its
// posting range in O(1) expected time.
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
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "io/read.hpp"

namespace focus::align {

class KmerIndex {
 public:
  /// One k-mer occurrence: member index (position of the read in the
  /// `members` vector, NOT the ReadId) and base offset within that read.
  struct Posting {
    std::uint32_t member;
    std::uint32_t pos;
  };

  /// Indexes every clean k-mer of `reads[members[i]]` for all i.
  /// Requires 1 <= k <= 32.
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

  std::size_t posting_count() const { return postings_.size(); }
  std::size_t distinct_keys() const { return distinct_; }

  /// Work units spent building (packing + sort + table fill), for
  /// virtual-time charging.
  double build_work() const { return build_work_; }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t begin = 0;
    std::uint32_t count = 0;  // 0 = empty slot
  };

  unsigned k_;
  std::vector<Posting> postings_;  // sorted by (key, member, pos)
  std::vector<Slot> table_;        // open addressing, power-of-two size
  std::uint64_t table_mask_ = 0;
  std::size_t distinct_ = 0;
  double build_work_ = 0.0;
};

}  // namespace focus::align
