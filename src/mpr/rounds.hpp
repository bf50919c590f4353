// Batched communication rounds for symmetric (non-master/worker) protocols.
//
// The symmetric owner-computes simplify (DESIGN.md §7b) routes each phase's
// cross-owner deltas — contained, tip and bubble node kills — to the rank
// that owns them. exchange_deltas() is that round, and alltoall_round() is
// the collective it runs on: every rank contributes one message per
// destination and receives one message per source, with a deterministic
// delivery order (ascending source rank) so downstream processing is a pure
// function of the inputs. exchange_deltas is alltoall_round's only caller.
//
// Framing: callers pack homogeneous trivially-copyable record vectors with
// Message::pack_vector. The round itself adds no framing bytes — each
// (round, src, dst) slot is exactly one Message — so the CRC32 frame checksum
// of the runtime covers the records directly.
#pragma once

#include <vector>

#include "mpr/message.hpp"
#include "mpr/runtime.hpp"

namespace focus::mpr {

/// One batched exchange round: rank r's `outgoing[d]` is delivered to rank d;
/// the returned vector holds one message per source rank (index = source).
/// The self slot is moved across without touching the network, mirroring an
/// MPI_Alltoall local copy. All sends are posted eagerly before any receive,
/// so the round cannot deadlock; receives drain in ascending source-rank
/// order, which fixes the merge order for every caller. Every live rank must
/// call this with the same `tag`, exactly once per round.
std::vector<Message> alltoall_round(Comm& comm, std::vector<Message> outgoing,
                                    int tag);

/// Delta-frame exchange for the symmetric owner-computes drivers: rank r's
/// `buckets[d]` (records destined for rank d, e.g. node removals routed to
/// the node's owner) are shipped in one alltoall round; the return value is
/// the arrived records concatenated in ascending source-rank order — a total
/// order independent of scheduling, so owner-side applies are deterministic.
template <typename Rec>
std::vector<Rec> exchange_deltas(Comm& comm,
                                 const std::vector<std::vector<Rec>>& buckets,
                                 int tag) {
  FOCUS_CHECK(buckets.size() == static_cast<std::size_t>(comm.size()),
              "one delta bucket per rank required");
  std::vector<Message> outgoing(buckets.size());
  for (std::size_t d = 0; d < buckets.size(); ++d) {
    outgoing[d].pack_vector(buckets[d]);
  }
  auto incoming = alltoall_round(comm, std::move(outgoing), tag);
  std::vector<Rec> merged;
  for (auto& msg : incoming) {
    auto recs = msg.unpack_vector<Rec>();
    FOCUS_CHECK(msg.fully_consumed(), "trailing bytes in delta frame");
    merged.insert(merged.end(), recs.begin(), recs.end());
  }
  return merged;
}

}  // namespace focus::mpr
