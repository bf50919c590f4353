#include "align/kmer_index.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

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

// One keyed occurrence, before the postings are sorted and flattened.
struct Entry {
  std::uint64_t key;
  std::uint32_t member;
  std::uint32_t pos;
};

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

KmerIndex::KmerIndex(const io::ReadSet& reads,
                     const std::vector<ReadId>& members, unsigned k)
    : k_(k) {
  FOCUS_CHECK(k >= 1 && k <= 32, "KmerIndex requires 1 <= k <= 32");
  FOCUS_CHECK(members.size() <= std::numeric_limits<std::uint32_t>::max(),
              "too many members for 32-bit posting indices");

  std::vector<Entry> entries;
  std::size_t total_bases = 0;
  for (const ReadId id : members) total_bases += reads[id].seq.size();
  entries.reserve(total_bases);

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

  // (key, member, pos) order: deterministic bucket iteration, postings within
  // a bucket in member order then position order.
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              if (a.key != b.key) return a.key < b.key;
              if (a.member != b.member) return a.member < b.member;
              return a.pos < b.pos;
            });

  postings_.resize(entries.size());
  distinct_ = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    postings_[i] = {entries[i].member, entries[i].pos};
    if (i == 0 || entries[i].key != entries[i - 1].key) ++distinct_;
  }

  if (distinct_ > 0) {
    table_.assign(std::max<std::size_t>(2, next_pow2(distinct_ * 2)), Slot{});
    table_mask_ = table_.size() - 1;
    std::size_t bucket_begin = 0;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const bool last_of_key =
          i + 1 == entries.size() || entries[i + 1].key != entries[i].key;
      if (!last_of_key) continue;
      std::size_t slot = kmer_hash(entries[i].key) & table_mask_;
      while (table_[slot].count != 0) slot = (slot + 1) & table_mask_;
      table_[slot].key = entries[i].key;
      table_[slot].begin = static_cast<std::uint32_t>(bucket_begin);
      table_[slot].count = static_cast<std::uint32_t>(i + 1 - bucket_begin);
      bucket_begin = i + 1;
    }
  }

  // Build cost: O(n log n) posting sort + O(d) table fill — the terms a real
  // implementation pays — plus the packing and extraction scan.
  const double n = static_cast<double>(entries.size());
  build_work_ = n * std::log2(n + 2.0) + static_cast<double>(distinct_);
  build_work_ += static_cast<double>(total_bases);
}

std::pair<const KmerIndex::Posting*, const KmerIndex::Posting*> KmerIndex::find(
    std::uint64_t key) const {
  if (table_.empty()) return {nullptr, nullptr};
  std::size_t slot = kmer_hash(key) & table_mask_;
  while (table_[slot].count != 0) {
    if (table_[slot].key == key) {
      const Posting* first = postings_.data() + table_[slot].begin;
      return {first, first + table_[slot].count};
    }
    slot = (slot + 1) & table_mask_;
  }
  return {nullptr, nullptr};
}

}  // namespace focus::align
