#include "align/kmer_index.hpp"

#include <cmath>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/packed_seq.hpp"

namespace focus::align {

namespace {

// splitmix64 finalizer: a cheap, well-mixed hash for packed k-mer keys.
std::uint64_t kmer_hash(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Calls fn(member, pos, key) for every clean k-mer window, in member order,
// then position order.
template <typename Fn>
void for_each_kmer(const io::ReadSet& reads,
                   const std::vector<ReadId>& members, unsigned k,
                   dna::PackedSeq& packed, Fn&& fn) {
  for (std::size_t m = 0; m < members.size(); ++m) {
    const std::string& seq = reads[members[m]].seq;
    if (seq.size() < k) continue;
    packed.assign(seq);
    std::uint64_t key;
    for (std::size_t pos = 0; pos + k <= seq.size(); ++pos) {
      if (packed.kmer_at(pos, k, key)) {
        fn(static_cast<std::uint32_t>(m), static_cast<std::uint32_t>(pos),
           key);
      }
    }
  }
}

}  // namespace

std::uint32_t checked_u32_extent(std::uint64_t n, const char* what) {
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    FOCUS_THROW(std::string(what) + " (" + std::to_string(n) +
                ") exceed the subset index's 32-bit offsets");
  }
  return static_cast<std::uint32_t>(n);
}

KmerIndex::KmerIndex(const io::ReadSet& reads,
                     const std::vector<ReadId>& members, unsigned k)
    : k_(k) {
  FOCUS_CHECK(k >= 1 && k <= 32, "KmerIndex requires 1 <= k <= 32");
  checked_u32_extent(members.size(), "members");
  std::uint64_t total_bases = 0;
  std::uint64_t windows = 0;
  for (const ReadId id : members) {
    const std::size_t len = reads[id].seq.size();
    total_bases += len;
    if (len >= k) windows += len - k + 1;
  }
  checked_u32_extent(windows, "k-mer windows");

  // Pass 1: count every key's occurrences.
  dna::PackedSeq packed;
  std::size_t n = 0;
  for_each_kmer(reads, members, k, packed,
                [&](std::uint32_t, std::uint32_t, std::uint64_t key) {
                  count_occurrence(key);
                  ++n;
                });

  // Each key's range starts where the previous slot's ends; `begin` then
  // serves as the key's write cursor for pass 2.
  std::uint32_t offset = 0;
  for (Slot& slot : table_) {
    slot.begin = offset;
    offset += slot.count;
  }

  // Pass 2: scatter the postings, member order then position order within
  // each key.
  postings_.resize(n);
  for_each_kmer(reads, members, k, packed,
                [&](std::uint32_t m, std::uint32_t pos, std::uint64_t key) {
                  postings_[table_[probe(key)].begin++] = {m, pos};
                });
  for (Slot& slot : table_) slot.begin -= slot.count;

  const double postings = static_cast<double>(n);
  build_work_ = postings * std::log2(postings + 2.0) +
                static_cast<double>(distinct_);
  build_work_ += static_cast<double>(total_bases);
}

std::size_t KmerIndex::probe(std::uint64_t key) const {
  std::size_t slot = kmer_hash(key) & table_mask_;
  while (table_[slot].count != 0 && table_[slot].key != key) {
    slot = (slot + 1) & table_mask_;
  }
  return slot;
}

void KmerIndex::count_occurrence(std::uint64_t key) {
  if (!table_.empty()) {
    Slot& slot = table_[probe(key)];
    if (slot.count != 0) {
      ++slot.count;
      return;
    }
  }
  if (2 * (distinct_ + 1) > table_.size()) {
    Array<Slot> old(table_.empty() ? 2 : 2 * table_.size());
    old.swap(table_);
    table_mask_ = table_.size() - 1;
    for (const Slot& s : old) {
      if (s.count != 0) table_[probe(s.key)] = s;
    }
  }
  Slot& slot = table_[probe(key)];
  slot.key = key;
  slot.count = 1;
  ++distinct_;
}

std::pair<const KmerIndex::Posting*, const KmerIndex::Posting*> KmerIndex::find(
    std::uint64_t key) const {
  if (table_.empty()) return {nullptr, nullptr};
  const Slot& slot = table_[probe(key)];
  if (slot.count == 0) return {nullptr, nullptr};
  const Posting* first = postings_.data() + slot.begin;
  return {first, first + slot.count};
}

}  // namespace focus::align
