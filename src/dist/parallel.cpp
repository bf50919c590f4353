#include "dist/parallel.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "align/banded_nw.hpp"
#include "common/env.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "io/preprocess.hpp"
#include "mpr/ft_phase.hpp"
#include "mpr/rounds.hpp"

namespace focus::dist {

DistProtocol dist_protocol_from_env() {
  return dist_protocol_from_env(EnvSnapshot::capture());
}

DistProtocol dist_protocol_from_env(const EnvSnapshot& env) {
  // Symmetric is the default as of PR 9: it is makespan-balanced (LPT over
  // measured scan estimates) and survives coordinator death, at the price of
  // the WAL replication charge. `master` remains selectable as the §V paper
  // baseline and fallback.
  if (!env.dist_protocol.has_value() || env.dist_protocol->empty()) {
    return DistProtocol::kSymmetric;
  }
  const std::string_view v(*env.dist_protocol);
  if (v == "master") return DistProtocol::kMaster;
  if (v == "symmetric") return DistProtocol::kSymmetric;
  FOCUS_THROW("FOCUS_DIST_PROTOCOL must be 'master' or 'symmetric', got '" +
              std::string(v) + "'");
}

namespace {

/// Below this the chunked gather costs more than the serial scan.
constexpr std::size_t kParallelGatherMinNodes = 4096;
constexpr std::size_t kGatherGrain = 4096;

bool mine(std::size_t partition, const mpr::Comm& comm) {
  return static_cast<int>(partition %
                          static_cast<std::size_t>(comm.size())) ==
         comm.rank();
}

// ---------------------------------------------------------------------------
// Symmetric owner-computes protocol: partition ownership.
//
// The master protocol assigns partition p to rank p % nranks, which balances
// partition *counts* but not scan *work* — measured per-partition scan costs
// vary by an order of magnitude, so the makespan is set by whichever rank
// drew the heaviest partitions. The symmetric drivers instead LPT-schedule
// partitions onto ranks by an estimated scan cost: sort partitions by
// estimate descending and greedily give each to the least-loaded rank. The
// assignment only moves *scans*; record routing and apply order are keyed by
// node/edge ownership, so the outputs are placement-independent.
// ---------------------------------------------------------------------------

/// Host-side estimate of each partition's simplify scan cost, mirroring the
/// dominant work terms the kernels charge: the phase-0 (mid, far) pair count
/// and the phase-1 banded-alignment work per out-edge. Accumulates the
/// estimator's own cost into `estimator_work` (each rank is charged for it:
/// in a real deployment every rank computes the schedule redundantly from
/// replicated partition metadata).
std::vector<double> simplify_scan_estimates(
    const AsmGraph& g, const std::vector<std::vector<NodeId>>& nodes,
    const SimplifyConfig& config, double* estimator_work) {
  std::vector<double> est(nodes.size(), 0.0);
  for (std::size_t p = 0; p < nodes.size(); ++p) {
    for (const NodeId v : nodes[p]) {
      if (!g.node_live(v)) continue;
      const auto out = g.live_out(v);
      est[p] += 1.0;
      if (estimator_work != nullptr) {
        *estimator_work += 1.0 + static_cast<double>(out.size());
      }
      const std::size_t cv_size = g.node(v).contig.size();
      for (const EdgeId e : out) {
        if (out.size() >= 2) {
          est[p] += static_cast<double>(g.live_out_degree(g.edge(e).to));
        }
        const std::size_t offset = g.edge(e).offset;
        if (offset < cv_size) {
          const std::size_t window =
              std::min(cv_size - offset, g.node(g.edge(e).to).contig.size());
          est[p] += align::banded_align_work(window, window, config.band);
        }
      }
    }
  }
  return est;
}

/// Traverse scans charge ~1 unit per visited node, so node counts are the
/// right LPT weight there.
std::vector<double> traverse_scan_estimates(
    const std::vector<std::vector<NodeId>>& nodes) {
  std::vector<double> est(nodes.size(), 0.0);
  for (std::size_t p = 0; p < nodes.size(); ++p) {
    est[p] = 1.0 + static_cast<double>(nodes[p].size());
  }
  return est;
}

/// Longest-processing-time-first assignment: owner[p] = rank that scans
/// partition p. Deterministic: ties broken by (estimate, partition id) on the
/// job side and (load, rank) on the machine side.
std::vector<int> lpt_assign(const std::vector<double>& est, int nranks) {
  std::vector<std::size_t> order(est.size());
  for (std::size_t p = 0; p < order.size(); ++p) order[p] = p;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (est[a] != est[b]) return est[a] > est[b];
    return a < b;
  });
  std::vector<double> load(static_cast<std::size_t>(nranks), 0.0);
  std::vector<int> owner(est.size(), 0);
  for (const std::size_t p : order) {
    int best = 0;
    for (int r = 1; r < nranks; ++r) {
      if (load[static_cast<std::size_t>(r)] <
          load[static_cast<std::size_t>(best)]) {
        best = r;
      }
    }
    owner[p] = best;
    load[static_cast<std::size_t>(best)] += est[p];
  }
  return owner;
}

/// Partitions owned by each rank, ascending — the symmetric scan order.
std::vector<std::vector<std::uint32_t>> owned_partitions(
    const std::vector<int>& owner, int nranks) {
  std::vector<std::vector<std::uint32_t>> owned(
      static_cast<std::size_t>(nranks));
  for (std::size_t p = 0; p < owner.size(); ++p) {
    owned[static_cast<std::size_t>(owner[p])].push_back(
        static_cast<std::uint32_t>(p));
  }
  return owned;
}

}  // namespace

std::vector<std::vector<NodeId>> partition_node_lists(
    std::span<const PartId> part, PartId nparts, unsigned threads) {
  std::vector<std::vector<NodeId>> nodes(static_cast<std::size_t>(nparts));
  const std::size_t n = part.size();
  const auto gather = [&](std::size_t begin, std::size_t end,
                          std::vector<std::vector<NodeId>>& out) {
    for (NodeId v = static_cast<NodeId>(begin); v < end; ++v) {
      FOCUS_CHECK(part[v] >= 0 && part[v] < nparts,
                  "node with invalid partition id");
      out[static_cast<std::size_t>(part[v])].push_back(v);
    }
  };
  const unsigned resolved = resolve_thread_count(threads);
  if (resolved <= 1 || n < kParallelGatherMinNodes) {
    gather(0, n, nodes);
    return nodes;
  }
  ThreadPool pool(resolved);
  // parallel_reduce merges the per-chunk buckets in chunk order, so each
  // per-part list stays in ascending node order and the result equals the
  // serial scan at every width.
  using Buckets = std::vector<std::vector<NodeId>>;
  nodes = pool.parallel_reduce(
      n, kGatherGrain, std::move(nodes),
      [&](std::size_t b, std::size_t e) {
        Buckets local(static_cast<std::size_t>(nparts));
        gather(b, e, local);
        return local;
      },
      [](Buckets acc, Buckets chunk) {
        for (std::size_t p = 0; p < acc.size(); ++p) {
          acc[p].insert(acc[p].end(), chunk[p].begin(), chunk[p].end());
        }
        return acc;
      });
  return nodes;
}

// ---------------------------------------------------------------------------
// Fault-tolerant master/worker protocol (DESIGN.md §7). The phase machinery
// — command/record framing, dead-rank reassignment, round replay, the
// symmetric rotating-coordinator WAL — lives in mpr/ft_phase.hpp, shared by
// every covered pipeline stage; the graph drivers here supply only the
// per-phase scan/unpack/apply bodies.
// ---------------------------------------------------------------------------

namespace {

using mpr::FtMasterState;
using mpr::SymWal;
using mpr::ft_collect_phase;
using mpr::ft_shutdown_workers;
using mpr::ft_sym_drive;
using mpr::ft_worker_loop;
using mpr::sym_collect_phase;
using mpr::sym_wal_commit;

void ft_simplify_master(mpr::Comm& comm, AsmGraph& g,
                        const std::vector<std::vector<NodeId>>& nodes,
                        const SimplifyConfig& config, PartId nparts,
                        const mpr::FaultConfig& fault, SimplifyStats* stats) {
  FtMasterState st;
  st.live.assign(static_cast<std::size_t>(comm.size()), 1);
  // Checkpoint between phases: the applied graph plus the stats so far.
  // Applies happen strictly after a round's records are complete, so a
  // replay restarts the current phase against exactly this state — no
  // partial mutation can leak into a retry.
  struct Checkpoint {
    std::uint32_t phases_done = 0;
    SimplifyStats stats;
  } ckpt;

  {  // Phase 0: transitive reduction (§V-A).
    TransitiveScratch scratch;
    auto recs = ft_collect_phase<std::vector<EdgeId>>(
        comm, st, nparts, ckpt.phases_done, fault,
        [&](std::uint32_t p, double* work) {
          return find_transitive_edges(g, nodes[p], scratch, work);
        },
        [](mpr::Message& m) { return m.unpack_vector<EdgeId>(); });
    std::vector<EdgeId> all;
    for (auto& r : recs) all.insert(all.end(), r.begin(), r.end());
    comm.charge(static_cast<double>(all.size()));
    ckpt.stats.transitive_edges = apply_edge_removals(g, std::move(all));
    ckpt.phases_done = 1;
  }

  {  // Phase 1: containment removal + edge verification (§V-B).
    auto recs = ft_collect_phase<ContainmentFindings>(
        comm, st, nparts, ckpt.phases_done, fault,
        [&](std::uint32_t p, double* work) {
          return find_containments(g, nodes[p], config, work);
        },
        [](mpr::Message& m) {
          ContainmentFindings f;
          f.verified = m.unpack_vector<EdgeVerification>();
          f.false_edges = m.unpack_vector<EdgeId>();
          f.contained_nodes = m.unpack_vector<NodeId>();
          return f;
        });
    ContainmentFindings all;
    for (auto& r : recs) {
      all.verified.insert(all.verified.end(), r.verified.begin(),
                          r.verified.end());
      all.false_edges.insert(all.false_edges.end(), r.false_edges.begin(),
                             r.false_edges.end());
      all.contained_nodes.insert(all.contained_nodes.end(),
                                 r.contained_nodes.begin(),
                                 r.contained_nodes.end());
    }
    comm.charge(static_cast<double>(all.verified.size() +
                                    all.false_edges.size() +
                                    all.contained_nodes.size()));
    ckpt.stats.verified_edges = apply_verifications(g, all.verified);
    ckpt.stats.false_edges =
        apply_edge_removals(g, std::move(all.false_edges));
    ckpt.stats.contained_nodes =
        apply_node_removals(g, std::move(all.contained_nodes));
    ckpt.phases_done = 2;
  }

  {  // Phase 2: dead-end trimming (§V-C).
    auto recs = ft_collect_phase<std::vector<NodeId>>(
        comm, st, nparts, ckpt.phases_done, fault,
        [&](std::uint32_t p, double* work) {
          return find_tips(g, nodes[p], config, work);
        },
        [](mpr::Message& m) { return m.unpack_vector<NodeId>(); });
    std::vector<NodeId> all;
    for (auto& r : recs) all.insert(all.end(), r.begin(), r.end());
    comm.charge(static_cast<double>(all.size()));
    ckpt.stats.tip_nodes = apply_node_removals(g, std::move(all));
    ckpt.phases_done = 3;
  }

  {  // Phase 3: bubble popping (§V-C).
    auto recs = ft_collect_phase<std::vector<NodeId>>(
        comm, st, nparts, ckpt.phases_done, fault,
        [&](std::uint32_t p, double* work) {
          return find_bubbles(g, nodes[p], config, work);
        },
        [](mpr::Message& m) { return m.unpack_vector<NodeId>(); });
    std::vector<NodeId> all;
    for (auto& r : recs) all.insert(all.end(), r.begin(), r.end());
    comm.charge(static_cast<double>(all.size()));
    ckpt.stats.bubble_nodes = apply_node_removals(g, std::move(all));
    ckpt.phases_done = 4;
  }

  ft_shutdown_workers(comm, st);
  *stats = ckpt.stats;
}

void ft_simplify_worker(mpr::Comm& comm, const AsmGraph& g,
                        const std::vector<std::vector<NodeId>>& nodes,
                        const SimplifyConfig& config) {
  TransitiveScratch scratch;
  ft_worker_loop(comm, [&](std::uint32_t phase, std::uint32_t p,
                           mpr::Message& frame, double* work) {
    switch (phase) {
      case 0:
        frame.pack_vector(find_transitive_edges(g, nodes[p], scratch, work));
        break;
      case 1: {
        const auto f = find_containments(g, nodes[p], config, work);
        frame.pack_vector(f.verified);
        frame.pack_vector(f.false_edges);
        frame.pack_vector(f.contained_nodes);
        break;
      }
      case 2:
        frame.pack_vector(find_tips(g, nodes[p], config, work));
        break;
      case 3:
        frame.pack_vector(find_bubbles(g, nodes[p], config, work));
        break;
      default:
        FOCUS_THROW("unknown simplify phase in scan command");
    }
  });
}

// ---------------------------------------------------------------------------
// Symmetric owner-computes protocol, fault-free fast path (DESIGN.md §7b).
//
// No rank is special: every rank scans the partitions LPT-assigned to it and
// applies deltas for the nodes and edges it *owns* (a node belongs to the
// owner of its partition; a recorded edge belongs to the rank that scanned
// its source node — partitions are disjoint, so each edge record has exactly
// one recorder). Cross-owner deltas — containment absorptions, tip and
// bubble node kills landing in another rank's partition — travel in one
// batched mpr::exchange_deltas round per phase and are applied by their
// owner in ascending source-rank order after a sort-unique, which is the
// same dedup the master performs globally: ownership classes are disjoint,
// so per-owner sorted-unique apply produces the identical graph and counts.
// ---------------------------------------------------------------------------

constexpr int kTagSymContained = 215;
constexpr int kTagSymTips = 216;
constexpr int kTagSymBubbles = 217;

void simplify_symmetric_rank(mpr::Comm& comm, AsmGraph& g,
                             const std::vector<std::vector<NodeId>>& nodes,
                             std::span<const PartId> part,
                             const SimplifyConfig& config,
                             const std::vector<int>& owner,
                             const std::vector<std::vector<std::uint32_t>>& owned,
                             double estimator_work, SimplifyStats* stats) {
  const int size = comm.size();
  const auto& own = owned[static_cast<std::size_t>(comm.rank())];
  // Every rank computes the LPT schedule redundantly from replicated
  // partition metadata; charge that once up front.
  comm.charge(estimator_work);
  SimplifyStats my;

  const auto owner_of_node = [&](NodeId v) {
    return static_cast<std::size_t>(owner[static_cast<std::size_t>(part[v])]);
  };

  {  // Phase 0: transitive reduction. Every record's edge leaves a scanned
     // node, so deltas are self-owned and no exchange is needed — the
     // barrier pair orders all scans before any apply and all applies
     // before the next phase's scans.
    TransitiveScratch scratch;
    std::vector<EdgeId> records;
    double work = 0.0;
    for (const std::uint32_t p : own) {
      auto found = find_transitive_edges(g, nodes[p], scratch, &work);
      records.insert(records.end(), found.begin(), found.end());
    }
    comm.charge(work);
    comm.barrier();
    comm.charge(static_cast<double>(records.size()));
    my.transitive_edges = apply_edge_removals(g, std::move(records));
    comm.barrier();
  }

  {  // Phase 1: containment removal + edge verification. Verified and false
     // edges are self-owned (they leave a scanned node); contained nodes can
     // land in another rank's partition and are routed to their owner.
    ContainmentFindings records;
    double work = 0.0;
    for (const std::uint32_t p : own) {
      auto found = find_containments(g, nodes[p], config, &work);
      records.verified.insert(records.verified.end(), found.verified.begin(),
                              found.verified.end());
      records.false_edges.insert(records.false_edges.end(),
                                 found.false_edges.begin(),
                                 found.false_edges.end());
      records.contained_nodes.insert(records.contained_nodes.end(),
                                     found.contained_nodes.begin(),
                                     found.contained_nodes.end());
    }
    comm.charge(work);
    std::vector<std::vector<NodeId>> buckets(static_cast<std::size_t>(size));
    for (const NodeId w : records.contained_nodes) {
      buckets[owner_of_node(w)].push_back(w);
    }
    auto contained =
        mpr::exchange_deltas<NodeId>(comm, buckets, kTagSymContained);
    comm.charge(static_cast<double>(records.verified.size() +
                                    records.false_edges.size() +
                                    contained.size()));
    my.verified_edges = apply_verifications(g, records.verified);
    my.false_edges = apply_edge_removals(g, std::move(records.false_edges));
    my.contained_nodes = apply_node_removals(g, std::move(contained));
    comm.barrier();
  }

  {  // Phase 2: dead-end trimming. Chains may cross partitions, so every
     // node kill is routed to its owner.
    std::vector<NodeId> records;
    double work = 0.0;
    for (const std::uint32_t p : own) {
      auto found = find_tips(g, nodes[p], config, &work);
      records.insert(records.end(), found.begin(), found.end());
    }
    comm.charge(work);
    std::vector<std::vector<NodeId>> buckets(static_cast<std::size_t>(size));
    for (const NodeId v : records) buckets[owner_of_node(v)].push_back(v);
    auto arrived = mpr::exchange_deltas<NodeId>(comm, buckets, kTagSymTips);
    comm.charge(static_cast<double>(arrived.size()));
    my.tip_nodes = apply_node_removals(g, std::move(arrived));
    comm.barrier();
  }

  {  // Phase 3: bubble popping — same routing as tips.
    std::vector<NodeId> records;
    double work = 0.0;
    for (const std::uint32_t p : own) {
      auto found = find_bubbles(g, nodes[p], config, &work);
      records.insert(records.end(), found.begin(), found.end());
    }
    comm.charge(work);
    std::vector<std::vector<NodeId>> buckets(static_cast<std::size_t>(size));
    for (const NodeId v : records) buckets[owner_of_node(v)].push_back(v);
    auto arrived = mpr::exchange_deltas<NodeId>(comm, buckets, kTagSymBubbles);
    comm.charge(static_cast<double>(arrived.size()));
    my.bubble_nodes = apply_node_removals(g, std::move(arrived));
    comm.barrier();
  }

  // Counter reduction: ownership classes are disjoint, so the global counts
  // are the plain sums of the per-rank counts.
  mpr::Message msg;
  msg.pack(static_cast<std::uint64_t>(my.transitive_edges));
  msg.pack(static_cast<std::uint64_t>(my.false_edges));
  msg.pack(static_cast<std::uint64_t>(my.contained_nodes));
  msg.pack(static_cast<std::uint64_t>(my.verified_edges));
  msg.pack(static_cast<std::uint64_t>(my.tip_nodes));
  msg.pack(static_cast<std::uint64_t>(my.bubble_nodes));
  auto gathered = comm.gather(std::move(msg), 0);
  if (comm.rank() == 0) {
    SimplifyStats total;
    for (auto& m : gathered) {
      total.transitive_edges += m.unpack<std::uint64_t>();
      total.false_edges += m.unpack<std::uint64_t>();
      total.contained_nodes += m.unpack<std::uint64_t>();
      total.verified_edges += m.unpack<std::uint64_t>();
      total.tip_nodes += m.unpack<std::uint64_t>();
      total.bubble_nodes += m.unpack<std::uint64_t>();
      FOCUS_CHECK(m.fully_consumed(), "trailing bytes in stats frame");
    }
    *stats = total;
  }
  comm.barrier();
}

// ---------------------------------------------------------------------------
// Symmetric fault-tolerant protocol (DESIGN.md §7b): rotating coordinator
// over a replicated write-ahead log.
//
// The master protocol survives any worker death but rank 0 is irreplaceable.
// Here coordination is a *role*, not a rank: whichever live rank currently
// coordinates runs the same collect/apply loop the master would, but commits
// each completed phase — the canonical record payload plus the resulting
// counters — to a write-ahead log that models replicated stable storage
// (appends charge the writer one per-live-replica message). When the
// coordinator dies, every surviving rank walks the succession order
// (ascending rank, skipping ranks it has proven dead) and the lowest live
// rank takes over: it fast-forwards through the log's completed phases and
// resumes collection at the first uncommitted phase. Applies sit strictly
// between communication operations, so a crash can never leave a phase
// half-applied: the graph state always equals exactly the committed log.
// ---------------------------------------------------------------------------

/// Coordinator body of the fault-tolerant symmetric simplify: the
/// master-protocol phases, but each phase ends with a durable log commit and
/// the loop starts wherever the inherited log ends. The final counters are a
/// pure function of the log, so any coordinator — original, successor, or a
/// late orphan finding a complete log — reports the same stats.
void sym_simplify_coordinate(mpr::Comm& comm, SymWal& wal, AsmGraph& g,
                             const std::vector<std::vector<NodeId>>& nodes,
                             const SimplifyConfig& config, PartId nparts,
                             const mpr::FaultConfig& fault,
                             std::uint32_t phase_start, SimplifyStats* stats) {
  TransitiveScratch scratch;
  for (std::uint32_t phase = phase_start; phase < 4; ++phase) {
    SymWal::Entry entry;
    entry.counts.assign(6, 0);  // SimplifyStats field order
    switch (phase) {
      case 0: {  // Transitive reduction (§V-A).
        auto recs = sym_collect_phase<std::vector<EdgeId>>(
            comm, wal, nparts, phase, fault,
            [&](std::uint32_t p, double* work) {
              return find_transitive_edges(g, nodes[p], scratch, work);
            },
            [](mpr::Message& m) { return m.unpack_vector<EdgeId>(); });
        std::vector<EdgeId> all;
        for (auto& r : recs) all.insert(all.end(), r.begin(), r.end());
        comm.charge(static_cast<double>(all.size()));
        entry.payload.pack_vector(all);
        entry.counts[0] = apply_edge_removals(g, std::move(all));
        break;
      }
      case 1: {  // Containment removal + edge verification (§V-B).
        auto recs = sym_collect_phase<ContainmentFindings>(
            comm, wal, nparts, phase, fault,
            [&](std::uint32_t p, double* work) {
              return find_containments(g, nodes[p], config, work);
            },
            [](mpr::Message& m) {
              ContainmentFindings f;
              f.verified = m.unpack_vector<EdgeVerification>();
              f.false_edges = m.unpack_vector<EdgeId>();
              f.contained_nodes = m.unpack_vector<NodeId>();
              return f;
            });
        ContainmentFindings all;
        for (auto& r : recs) {
          all.verified.insert(all.verified.end(), r.verified.begin(),
                              r.verified.end());
          all.false_edges.insert(all.false_edges.end(), r.false_edges.begin(),
                                 r.false_edges.end());
          all.contained_nodes.insert(all.contained_nodes.end(),
                                     r.contained_nodes.begin(),
                                     r.contained_nodes.end());
        }
        comm.charge(static_cast<double>(all.verified.size() +
                                        all.false_edges.size() +
                                        all.contained_nodes.size()));
        entry.payload.pack_vector(all.verified);
        entry.payload.pack_vector(all.false_edges);
        entry.payload.pack_vector(all.contained_nodes);
        entry.counts[3] = apply_verifications(g, all.verified);
        entry.counts[1] = apply_edge_removals(g, std::move(all.false_edges));
        entry.counts[2] =
            apply_node_removals(g, std::move(all.contained_nodes));
        break;
      }
      case 2: {  // Dead-end trimming (§V-C).
        auto recs = sym_collect_phase<std::vector<NodeId>>(
            comm, wal, nparts, phase, fault,
            [&](std::uint32_t p, double* work) {
              return find_tips(g, nodes[p], config, work);
            },
            [](mpr::Message& m) { return m.unpack_vector<NodeId>(); });
        std::vector<NodeId> all;
        for (auto& r : recs) all.insert(all.end(), r.begin(), r.end());
        comm.charge(static_cast<double>(all.size()));
        entry.payload.pack_vector(all);
        entry.counts[4] = apply_node_removals(g, std::move(all));
        break;
      }
      default: {  // Phase 3: bubble popping (§V-C).
        auto recs = sym_collect_phase<std::vector<NodeId>>(
            comm, wal, nparts, phase, fault,
            [&](std::uint32_t p, double* work) {
              return find_bubbles(g, nodes[p], config, work);
            },
            [](mpr::Message& m) { return m.unpack_vector<NodeId>(); });
        std::vector<NodeId> all;
        for (auto& r : recs) all.insert(all.end(), r.begin(), r.end());
        comm.charge(static_cast<double>(all.size()));
        entry.payload.pack_vector(all);
        entry.counts[5] = apply_node_removals(g, std::move(all));
        break;
      }
    }
    sym_wal_commit(comm, wal, std::move(entry));
  }

  SimplifyStats total;
  {
    std::lock_guard<std::mutex> lock(wal.mu);
    for (const auto& e : wal.entries) {
      total.transitive_edges += e.counts[0];
      total.false_edges += e.counts[1];
      total.contained_nodes += e.counts[2];
      total.verified_edges += e.counts[3];
      total.tip_nodes += e.counts[4];
      total.bubble_nodes += e.counts[5];
    }
  }
  *stats = total;
}

ParallelSimplifyResult ft_sym_simplify(
    AsmGraph& g, const std::vector<std::vector<NodeId>>& nodes, PartId nparts,
    const SimplifyConfig& config, int nranks, mpr::CostModel cost,
    const mpr::FaultPlan& fault_plan, const mpr::FaultConfig& fault) {
  ParallelSimplifyResult out;
  SymWal wal;
  wal.live.assign(static_cast<std::size_t>(nranks), 1);
  out.run = mpr::Runtime::execute(
      nranks,
      [&](mpr::Comm& comm) {
        TransitiveScratch scratch;
        ft_sym_drive(
            comm, wal, fault,
            [&](std::uint32_t phase, std::uint32_t p, mpr::Message& frame,
                double* work) {
              switch (phase) {
                case 0:
                  frame.pack_vector(
                      find_transitive_edges(g, nodes[p], scratch, work));
                  break;
                case 1: {
                  const auto f = find_containments(g, nodes[p], config, work);
                  frame.pack_vector(f.verified);
                  frame.pack_vector(f.false_edges);
                  frame.pack_vector(f.contained_nodes);
                  break;
                }
                case 2:
                  frame.pack_vector(find_tips(g, nodes[p], config, work));
                  break;
                case 3:
                  frame.pack_vector(find_bubbles(g, nodes[p], config, work));
                  break;
                default:
                  FOCUS_THROW("unknown simplify phase in scan command");
              }
            },
            [&](std::uint32_t phase_start) {
              sym_simplify_coordinate(comm, wal, g, nodes, config, nparts,
                                      fault, phase_start, &out.stats);
            });
      },
      cost, fault_plan);
  return out;
}

}  // namespace

ParallelSimplifyResult simplify_parallel(AsmGraph& g,
                                         std::span<const PartId> part,
                                         PartId nparts,
                                         const SimplifyConfig& config,
                                         int nranks, mpr::CostModel cost,
                                         unsigned threads,
                                         const mpr::FaultPlan& fault_plan,
                                         const mpr::FaultConfig& fault,
                                         const DistConfig& dist) {
  FOCUS_CHECK(part.size() == g.node_count(), "partition size mismatch");
  const auto nodes = partition_node_lists(part, nparts, threads);

  ParallelSimplifyResult out;
  if (!fault_plan.empty()) {
    if (dist.protocol == DistProtocol::kSymmetric) {
      return ft_sym_simplify(g, nodes, nparts, config, nranks, cost,
                             fault_plan, fault);
    }
    out.run = mpr::Runtime::execute(
        nranks,
        [&](mpr::Comm& comm) {
          if (comm.rank() == 0) {
            ft_simplify_master(comm, g, nodes, config, nparts, fault,
                               &out.stats);
          } else {
            ft_simplify_worker(comm, g, nodes, config);
          }
        },
        cost, fault_plan);
    return out;
  }

  if (dist.protocol == DistProtocol::kSymmetric) {
    double estimator_work = 0.0;
    const auto est = simplify_scan_estimates(g, nodes, config, &estimator_work);
    const auto owner = lpt_assign(est, nranks);
    const auto owned = owned_partitions(owner, nranks);
    out.run = mpr::Runtime::execute(
        nranks,
        [&](mpr::Comm& comm) {
          simplify_symmetric_rank(comm, g, nodes, part, config, owner, owned,
                                  estimator_work, &out.stats);
        },
        cost);
    return out;
  }

  out.run = mpr::Runtime::execute(
      nranks,
      [&](mpr::Comm& comm) {
        // --- Phase 1: transitive reduction (§V-A). -------------------------
        {
          std::vector<EdgeId> records;
          TransitiveScratch scratch;
          double work = 0.0;
          for (std::size_t p = 0; p < nodes.size(); ++p) {
            if (!mine(p, comm)) continue;
            auto found = find_transitive_edges(g, nodes[p], scratch, &work);
            records.insert(records.end(), found.begin(), found.end());
          }
          comm.charge(work);
          mpr::Message msg;
          msg.pack_vector(records);
          auto gathered = comm.gather(std::move(msg), 0);
          if (comm.rank() == 0) {
            std::vector<EdgeId> all;
            for (auto& m : gathered) {
              auto v = m.unpack_vector<EdgeId>();
              FOCUS_CHECK(m.fully_consumed(), "trailing bytes in phase frame");
              all.insert(all.end(), v.begin(), v.end());
            }
            comm.charge(static_cast<double>(all.size()));
            out.stats.transitive_edges = apply_edge_removals(g, std::move(all));
          }
          comm.barrier();
        }

        // --- Phase 2: containment removal + edge verification (§V-B). ------
        {
          ContainmentFindings records;
          double work = 0.0;
          for (std::size_t p = 0; p < nodes.size(); ++p) {
            if (!mine(p, comm)) continue;
            auto found = find_containments(g, nodes[p], config, &work);
            records.verified.insert(records.verified.end(),
                                    found.verified.begin(),
                                    found.verified.end());
            records.false_edges.insert(records.false_edges.end(),
                                       found.false_edges.begin(),
                                       found.false_edges.end());
            records.contained_nodes.insert(records.contained_nodes.end(),
                                           found.contained_nodes.begin(),
                                           found.contained_nodes.end());
          }
          comm.charge(work);
          mpr::Message msg;
          msg.pack_vector(records.verified);
          msg.pack_vector(records.false_edges);
          msg.pack_vector(records.contained_nodes);
          auto gathered = comm.gather(std::move(msg), 0);
          if (comm.rank() == 0) {
            ContainmentFindings all;
            for (auto& m : gathered) {
              auto verified = m.unpack_vector<EdgeVerification>();
              auto false_edges = m.unpack_vector<EdgeId>();
              auto contained = m.unpack_vector<NodeId>();
              FOCUS_CHECK(m.fully_consumed(), "trailing bytes in phase frame");
              all.verified.insert(all.verified.end(), verified.begin(),
                                  verified.end());
              all.false_edges.insert(all.false_edges.end(),
                                     false_edges.begin(), false_edges.end());
              all.contained_nodes.insert(all.contained_nodes.end(),
                                         contained.begin(), contained.end());
            }
            comm.charge(static_cast<double>(
                all.verified.size() + all.false_edges.size() +
                all.contained_nodes.size()));
            out.stats.verified_edges = apply_verifications(g, all.verified);
            out.stats.false_edges =
                apply_edge_removals(g, std::move(all.false_edges));
            out.stats.contained_nodes =
                apply_node_removals(g, std::move(all.contained_nodes));
          }
          comm.barrier();
        }

        // --- Phase 3: dead-end trimming (§V-C). -----------------------------
        {
          std::vector<NodeId> records;
          double work = 0.0;
          for (std::size_t p = 0; p < nodes.size(); ++p) {
            if (!mine(p, comm)) continue;
            auto found = find_tips(g, nodes[p], config, &work);
            records.insert(records.end(), found.begin(), found.end());
          }
          comm.charge(work);
          mpr::Message msg;
          msg.pack_vector(records);
          auto gathered = comm.gather(std::move(msg), 0);
          if (comm.rank() == 0) {
            std::vector<NodeId> all;
            for (auto& m : gathered) {
              auto v = m.unpack_vector<NodeId>();
              FOCUS_CHECK(m.fully_consumed(), "trailing bytes in phase frame");
              all.insert(all.end(), v.begin(), v.end());
            }
            comm.charge(static_cast<double>(all.size()));
            out.stats.tip_nodes = apply_node_removals(g, std::move(all));
          }
          comm.barrier();
        }

        // --- Phase 4: bubble popping (§V-C). --------------------------------
        {
          std::vector<NodeId> records;
          double work = 0.0;
          for (std::size_t p = 0; p < nodes.size(); ++p) {
            if (!mine(p, comm)) continue;
            auto found = find_bubbles(g, nodes[p], config, &work);
            records.insert(records.end(), found.begin(), found.end());
          }
          comm.charge(work);
          mpr::Message msg;
          msg.pack_vector(records);
          auto gathered = comm.gather(std::move(msg), 0);
          if (comm.rank() == 0) {
            std::vector<NodeId> all;
            for (auto& m : gathered) {
              auto v = m.unpack_vector<NodeId>();
              FOCUS_CHECK(m.fully_consumed(), "trailing bytes in phase frame");
              all.insert(all.end(), v.begin(), v.end());
            }
            comm.charge(static_cast<double>(all.size()));
            out.stats.bubble_nodes = apply_node_removals(g, std::move(all));
          }
          comm.barrier();
        }
      },
      cost);
  return out;
}

namespace {

using Subpaths = std::vector<std::vector<NodeId>>;

void ft_traverse_master(mpr::Comm& comm, const AsmGraph& g,
                        const std::vector<std::vector<NodeId>>& nodes,
                        std::span<const PartId> part, PartId nparts,
                        const mpr::FaultConfig& fault, Subpaths* paths) {
  FtMasterState st;
  st.live.assign(static_cast<std::size_t>(comm.size()), 1);
  std::vector<bool> visited(g.node_count(), false);
  auto recs = ft_collect_phase<Subpaths>(
      comm, st, nparts, 0, fault,
      [&](std::uint32_t p, double* work) {
        // Partitions are disjoint and sub-paths never cross a partition
        // boundary, so clearing only the extracted nodes between partitions
        // extracts the same sub-paths as a fresh visited set per partition —
        // and keeps a replayed partition (fault recovery) starting clean
        // without re-zeroing node_count() bits each scan.
        auto found = extract_subpaths(g, nodes[p], part, visited, work);
        clear_visited(found, visited);
        return found;
      },
      [](mpr::Message& m) {
        Subpaths s(m.unpack<std::uint32_t>());
        for (auto& path : s) path = m.unpack_vector<NodeId>();
        return s;
      });
  Subpaths all;
  for (auto& r : recs) {
    for (auto& path : r) all.push_back(std::move(path));
  }
  double join_work = 0.0;
  *paths = join_subpaths(g, std::move(all), &join_work);
  comm.charge(join_work);
  ft_shutdown_workers(comm, st);
}

void ft_traverse_worker(mpr::Comm& comm, const AsmGraph& g,
                        const std::vector<std::vector<NodeId>>& nodes,
                        std::span<const PartId> part) {
  std::vector<bool> visited(g.node_count(), false);
  ft_worker_loop(comm, [&](std::uint32_t phase, std::uint32_t p,
                           mpr::Message& frame, double* work) {
    FOCUS_CHECK(phase == 0, "unknown traverse phase in scan command");
    const auto found = extract_subpaths(g, nodes[p], part, visited, work);
    clear_visited(found, visited);
    frame.pack(static_cast<std::uint32_t>(found.size()));
    for (const auto& path : found) frame.pack_vector(path);
  });
}

// ---------------------------------------------------------------------------
// Symmetric traverse: distributed sub-path stitching by pointer jumping.
//
// Sub-paths are the vertices of a functional graph: next(i) = the sub-path
// that unambiguously continues i (join_subpaths' next[] scan, here computed
// by each sub-path's owner and routed to the successor, so every sub-path
// learns its unique *predecessor* instead). Components are chains — rooted
// at the sub-path with no predecessor (the head) — or cycles. Each owner
// then runs pointer jumping over the predecessor pointers: per round every
// unsettled sub-path asks the owner of its current ancestor for that
// ancestor's (pointer, exact distance, minimum sub-path id on the covered
// walk, distance to that minimum's first occurrence), and splices the answer
// onto its own state, doubling the covered distance — O(log S) rounds.
//
// A chain member settles when its walk reaches the head: its emission key is
// (0, head id, distance). A cycle member settles when its covered distance
// reaches the total sub-path count S (the walk provably wrapped): the
// minimum id m on the wrapped walk is the cycle's canonical break point and
// the distance to m's first occurrence along the *predecessor* walk equals
// the member's forward offset from m, so its key is (1, m, that distance).
// Sorting all keys reproduces join_subpaths' emission order exactly: chains
// in ascending head id — heads are precisely the non-continuations its first
// loop starts from — each in walk order, then cycles in ascending minimum id
// broken at the minimum, because canonical sub-path ids are assigned in the
// master protocol's gather order.
// ---------------------------------------------------------------------------

constexpr int kTagSymMeta = 220;
constexpr int kTagSymPred = 221;
constexpr int kTagSymJumpQuery = 222;
constexpr int kTagSymJumpReply = 223;
constexpr int kTagSymPieces = 224;

struct PredLink {
  std::uint32_t sub;   // the continuation sub-path (routed to its owner)
  std::uint32_t pred;  // the sub-path it continues
};

struct JumpQuery {
  std::uint32_t target;  // current ancestor (owned by the queried rank)
  std::uint32_t asker;
};

struct JumpReply {  // all-u32 so the frame has no padding bytes under CRC
  std::uint32_t asker;
  std::uint32_t anc;
  std::uint32_t dist;
  std::uint32_t min_id;
  std::uint32_t min_dist;
  std::uint32_t flags;  // bit 0: target settled; bit 1: target is a cycle
};

void traverse_symmetric_rank(
    mpr::Comm& comm, const AsmGraph& g,
    const std::vector<std::vector<NodeId>>& nodes,
    std::span<const PartId> part, const std::vector<int>& owner,
    const std::vector<std::vector<std::uint32_t>>& owned, Subpaths* paths) {
  const int size = comm.size();
  const auto& own = owned[static_cast<std::size_t>(comm.rank())];
  const std::size_t nparts = nodes.size();
  // Every rank computes the LPT schedule redundantly from replicated
  // partition metadata.
  comm.charge(static_cast<double>(nparts));

  // Local extraction over owned partitions. One shared visited vector is
  // safe across partitions: extraction never marks outside the scanned
  // partition, so each partition's sub-paths are independent of scan
  // placement — the same lists a master-protocol worker would produce.
  std::vector<bool> visited(g.node_count(), false);
  std::vector<Subpaths> mine_subpaths;
  mine_subpaths.reserve(own.size());
  double work = 0.0;
  for (const std::uint32_t p : own) {
    mine_subpaths.push_back(
        extract_subpaths(g, nodes[p], part, visited, &work));
  }
  comm.charge(work);

  // Round 1: replicate per-partition left endpoints so every rank can build
  // the canonical sub-path id space — ids in the master protocol's gather
  // order, partitions sorted by (p % size, p), which keeps the two protocols
  // byte-identical at every rank count — plus the global left-endpoint index
  // and each sub-path's owner.
  mpr::Message meta;
  meta.pack(static_cast<std::uint32_t>(own.size()));
  for (std::size_t k = 0; k < own.size(); ++k) {
    meta.pack(own[k]);
    std::vector<NodeId> lefts;
    lefts.reserve(mine_subpaths[k].size());
    for (const auto& path : mine_subpaths[k]) lefts.push_back(path.front());
    meta.pack_vector(lefts);
  }
  std::vector<mpr::Message> outgoing(static_cast<std::size_t>(size), meta);
  auto frames = mpr::alltoall_round(comm, std::move(outgoing), kTagSymMeta);

  std::vector<std::vector<NodeId>> part_lefts(nparts);
  std::vector<std::uint8_t> seen(nparts, 0);
  for (auto& frame : frames) {
    const auto nowned = frame.unpack<std::uint32_t>();
    for (std::uint32_t k = 0; k < nowned; ++k) {
      const auto p = frame.unpack<std::uint32_t>();
      FOCUS_CHECK(p < nparts && !seen[p],
                  "partition metadata duplicated or invalid");
      seen[p] = 1;
      part_lefts[p] = frame.unpack_vector<NodeId>();
    }
    FOCUS_CHECK(frame.fully_consumed(), "trailing bytes in metadata frame");
  }
  for (std::size_t p = 0; p < nparts; ++p) {
    FOCUS_CHECK(seen[p], "partition missing from metadata round");
  }

  std::vector<std::uint32_t> base(nparts, 0);
  std::uint32_t total = 0;
  for (int r = 0; r < size; ++r) {
    for (std::size_t p = static_cast<std::size_t>(r); p < nparts;
         p += static_cast<std::size_t>(size)) {
      base[p] = total;
      total += static_cast<std::uint32_t>(part_lefts[p].size());
    }
  }
  const std::uint32_t S = total;

  std::vector<int> sub_owner(S, 0);
  std::unordered_map<NodeId, std::uint32_t> left_of;
  left_of.reserve(S);
  for (std::size_t p = 0; p < nparts; ++p) {
    for (std::size_t k = 0; k < part_lefts[p].size(); ++k) {
      const std::uint32_t id = base[p] + static_cast<std::uint32_t>(k);
      sub_owner[id] = owner[p];
      const auto [it, inserted] = left_of.emplace(part_lefts[p][k], id);
      FOCUS_CHECK(inserted, "two sub-paths share a left endpoint");
    }
  }
  comm.charge(static_cast<double>(S));  // replicated id-space build

  std::vector<std::uint32_t> ids;  // global ids of owned sub-paths
  std::vector<const std::vector<NodeId>*> path_of;
  for (std::size_t k = 0; k < own.size(); ++k) {
    for (std::size_t j = 0; j < mine_subpaths[k].size(); ++j) {
      ids.push_back(base[own[k]] + static_cast<std::uint32_t>(j));
      path_of.push_back(&mine_subpaths[k][j]);
    }
  }
  const auto n = static_cast<std::uint32_t>(ids.size());
  std::unordered_map<std::uint32_t, std::uint32_t> local_of;
  local_of.reserve(ids.size());
  for (std::uint32_t j = 0; j < n; ++j) local_of.emplace(ids[j], j);

  // Round 2: each owner computes its sub-paths' unambiguous continuations
  // and routes each link to the successor's owner, which records its unique
  // predecessor (in-degree 1 at the junction guarantees uniqueness).
  std::vector<std::vector<PredLink>> pbuckets(static_cast<std::size_t>(size));
  double next_work = 0.0;
  for (std::uint32_t j = 0; j < n; ++j) {
    const NodeId right = path_of[j]->back();
    const auto out = g.live_out(right);
    next_work += 1.0 + static_cast<double>(out.size());
    if (out.size() != 1) continue;
    const NodeId target = g.edge(out[0]).to;
    if (g.live_in_degree(target) != 1) continue;  // other in-edges: ambiguous
    const auto it = left_of.find(target);
    if (it == left_of.end() || it->second == ids[j]) continue;
    pbuckets[static_cast<std::size_t>(sub_owner[it->second])].push_back(
        {it->second, ids[j]});
  }
  comm.charge(next_work);
  const auto links = mpr::exchange_deltas<PredLink>(comm, pbuckets,
                                                    kTagSymPred);

  // Jump state per owned sub-path: anc = current ancestor on the predecessor
  // walk, dist = exact steps to anc, min_id/min_dist = minimum id on the
  // covered walk and the steps to its first occurrence. Sub-paths without a
  // predecessor are settled chain heads from the start.
  std::vector<std::uint32_t> anc(n), dist(n, 0), min_id(n), min_dist(n, 0);
  std::vector<std::uint8_t> done(n, 1), cyc(n, 0);
  for (std::uint32_t j = 0; j < n; ++j) {
    anc[j] = ids[j];
    min_id[j] = ids[j];
  }
  for (const auto& link : links) {
    const auto it = local_of.find(link.sub);
    FOCUS_CHECK(it != local_of.end(), "predecessor link routed to wrong owner");
    const std::uint32_t j = it->second;
    anc[j] = link.pred;
    dist[j] = 1;
    done[j] = 0;
    if (link.pred < min_id[j]) {
      min_id[j] = link.pred;
      min_dist[j] = 1;
    }
  }

  for (std::uint32_t round = 0;; ++round) {
    std::int64_t active = 0;
    for (std::uint32_t j = 0; j < n; ++j) active += done[j] ? 0 : 1;
    if (comm.allreduce_sum(active) == 0) break;
    // Covered distance at least doubles per round, so 32-bit ids bound the
    // round count long before this trips.
    FOCUS_CHECK(round < 40, "pointer jumping failed to converge");

    std::vector<std::vector<JumpQuery>> qbuckets(
        static_cast<std::size_t>(size));
    for (std::uint32_t j = 0; j < n; ++j) {
      if (done[j]) continue;
      qbuckets[static_cast<std::size_t>(sub_owner[anc[j]])].push_back(
          {anc[j], ids[j]});
    }
    const auto queries =
        mpr::exchange_deltas<JumpQuery>(comm, qbuckets, kTagSymJumpQuery);
    comm.charge(static_cast<double>(queries.size()));
    // Replies are served from this round's pre-update state on every rank:
    // updates happen only after the reply exchange below, and ranks read
    // each other's state through messages alone.
    std::vector<std::vector<JumpReply>> rbuckets(
        static_cast<std::size_t>(size));
    for (const auto& q : queries) {
      const auto it = local_of.find(q.target);
      FOCUS_CHECK(it != local_of.end(), "jump query routed to wrong owner");
      const std::uint32_t t = it->second;
      const std::uint32_t flags =
          (done[t] ? 1u : 0u) | (cyc[t] ? 2u : 0u);
      rbuckets[static_cast<std::size_t>(sub_owner[q.asker])].push_back(
          {q.asker, anc[t], dist[t], min_id[t], min_dist[t], flags});
    }
    const auto replies =
        mpr::exchange_deltas<JumpReply>(comm, rbuckets, kTagSymJumpReply);
    comm.charge(static_cast<double>(replies.size()));
    for (const auto& rep : replies) {
      const std::uint32_t j = local_of.at(rep.asker);
      // Splice the ancestor's covered segment onto ours. A strictly smaller
      // minimum cannot have occurred on our prefix, so its first occurrence
      // is our prefix length plus the ancestor's first-occurrence distance;
      // an equal minimum already occurred on our prefix, keep ours.
      if (rep.min_id < min_id[j]) {
        min_id[j] = rep.min_id;
        min_dist[j] = dist[j] + rep.min_dist;
      }
      dist[j] += rep.dist;
      anc[j] = rep.anc;
      if ((rep.flags & 1u) != 0u) {
        done[j] = 1;
        cyc[j] = (rep.flags & 2u) != 0u ? 1 : 0;
      } else if (dist[j] >= S) {
        // A chain walk never exceeds S - 1 exact steps, so the walk wrapped:
        // every cycle member is covered and min_id is the true minimum.
        done[j] = 1;
        cyc[j] = 1;
      }
    }
  }

  // Emission (fully symmetric — no rank ever sorts the global piece-key
  // set): each settled piece is routed to the owner of its group anchor —
  // the chain's head sub-path or the cycle's minimum-id sub-path — so a
  // group's pieces land wholly on one rank. That owner sorts only its own
  // pieces by (kind, group, pos) and concatenates each group's run into a
  // joined path; rank 0 then k-way merges the per-owner lists, which arrive
  // pre-sorted by (kind, group). The merged order — chains by ascending
  // head id, then cycles by ascending minimum id — is exactly the order the
  // old rank-0 global sort produced.
  std::vector<mpr::Message> route(static_cast<std::size_t>(size));
  {
    std::vector<std::uint32_t> counts(static_cast<std::size_t>(size), 0);
    for (std::uint32_t j = 0; j < n; ++j) {
      FOCUS_CHECK(done[j], "unsettled sub-path after pointer jumping");
      counts[static_cast<std::size_t>(
          sub_owner[cyc[j] ? min_id[j] : anc[j]])] += 1;
    }
    for (int r = 0; r < size; ++r) {
      route[static_cast<std::size_t>(r)].pack(
          counts[static_cast<std::size_t>(r)]);
    }
    for (std::uint32_t j = 0; j < n; ++j) {
      const std::uint32_t group = cyc[j] ? min_id[j] : anc[j];
      mpr::Message& m = route[static_cast<std::size_t>(sub_owner[group])];
      m.pack(static_cast<std::uint32_t>(cyc[j]));
      m.pack(group);
      m.pack(cyc[j] ? min_dist[j] : dist[j]);
      m.pack_vector(*path_of[j]);
    }
  }
  auto piece_frames =
      mpr::alltoall_round(comm, std::move(route), kTagSymPieces);

  struct Piece {
    std::uint32_t kind, group, pos;
    std::vector<NodeId> nodes;
  };
  std::vector<Piece> pieces;
  for (auto& m : piece_frames) {
    const auto count = m.unpack<std::uint32_t>();
    for (std::uint32_t i = 0; i < count; ++i) {
      Piece piece;
      piece.kind = m.unpack<std::uint32_t>();
      piece.group = m.unpack<std::uint32_t>();
      piece.pos = m.unpack<std::uint32_t>();
      piece.nodes = m.unpack_vector<NodeId>();
      pieces.push_back(std::move(piece));
    }
    FOCUS_CHECK(m.fully_consumed(), "trailing bytes in sub-path frame");
  }
  std::int64_t piece_count = static_cast<std::int64_t>(pieces.size());
  FOCUS_CHECK(comm.allreduce_sum(piece_count) == static_cast<std::int64_t>(S),
              "sub-path lost in stitching");
  std::sort(pieces.begin(), pieces.end(),
            [](const Piece& a, const Piece& b) {
              if (a.kind != b.kind) return a.kind < b.kind;
              if (a.group != b.group) return a.group < b.group;
              return a.pos < b.pos;
            });
  comm.charge(static_cast<double>(pieces.size()) *
              std::log2(static_cast<double>(pieces.size()) + 2.0));

  // Join each group's run. Positions are the exact distances pointer
  // jumping produced, so within a group they must tile 0..len-1 — a gap
  // means a piece was lost in routing.
  Subpaths joined_local;
  std::vector<std::uint64_t> joined_keys;  // kind << 32 | group
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (i == 0 || pieces[i].kind != pieces[i - 1].kind ||
        pieces[i].group != pieces[i - 1].group) {
      FOCUS_CHECK(pieces[i].pos == 0, "sub-path group missing its anchor");
      joined_local.emplace_back();
      joined_keys.push_back(
          (static_cast<std::uint64_t>(pieces[i].kind) << 32) |
          pieces[i].group);
    } else {
      FOCUS_CHECK(pieces[i].pos == pieces[i - 1].pos + 1,
                  "sub-path group has a gap");
    }
    auto& path = joined_local.back();
    path.insert(path.end(), pieces[i].nodes.begin(), pieces[i].nodes.end());
  }

  // Final round: rank 0 merges the per-owner runs — O(J log size), not
  // O(S log S) — and never touches piece keys again.
  mpr::Message out_frame;
  out_frame.pack(static_cast<std::uint32_t>(joined_local.size()));
  for (std::size_t i = 0; i < joined_local.size(); ++i) {
    out_frame.pack(joined_keys[i]);
    out_frame.pack_vector(joined_local[i]);
  }
  auto gathered = comm.gather(std::move(out_frame), 0);
  if (comm.rank() == 0) {
    std::vector<std::vector<std::pair<std::uint64_t, std::vector<NodeId>>>>
        runs(gathered.size());
    std::size_t total_joined = 0;
    for (std::size_t r = 0; r < gathered.size(); ++r) {
      auto& m = gathered[r];
      const auto count = m.unpack<std::uint32_t>();
      runs[r].reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        const auto key = m.unpack<std::uint64_t>();
        auto run_path = m.unpack_vector<NodeId>();
        FOCUS_CHECK(runs[r].empty() || runs[r].back().first < key,
                    "per-owner emission not sorted");
        runs[r].emplace_back(key, std::move(run_path));
      }
      FOCUS_CHECK(m.fully_consumed(), "trailing bytes in emission frame");
      total_joined += runs[r].size();
    }
    Subpaths joined;
    joined.reserve(total_joined);
    std::vector<std::size_t> head(runs.size(), 0);
    for (;;) {
      std::size_t best = runs.size();
      for (std::size_t r = 0; r < runs.size(); ++r) {
        if (head[r] >= runs[r].size()) continue;
        if (best == runs.size() ||
            runs[r][head[r]].first < runs[best][head[best]].first) {
          best = r;
        }
      }
      if (best == runs.size()) break;
      joined.push_back(std::move(runs[best][head[best]].second));
      ++head[best];
    }
    comm.charge(static_cast<double>(total_joined) *
                std::log2(static_cast<double>(size) + 2.0));
    *paths = std::move(joined);
  }
  comm.barrier();
}

/// Coordinator body of the fault-tolerant symmetric traverse: one collected
/// phase committed to the log, then joining from the durable record — which
/// is identical whether this rank collected the sub-paths itself or
/// inherited them from a crashed predecessor.
void sym_traverse_coordinate(mpr::Comm& comm, SymWal& wal, const AsmGraph& g,
                             const std::vector<std::vector<NodeId>>& nodes,
                             std::span<const PartId> part, PartId nparts,
                             const mpr::FaultConfig& fault,
                             std::uint32_t phase_start, Subpaths* paths) {
  if (phase_start == 0) {
    std::vector<bool> visited(g.node_count(), false);
    auto recs = sym_collect_phase<Subpaths>(
        comm, wal, nparts, 0, fault,
        [&](std::uint32_t p, double* work) {
          auto found = extract_subpaths(g, nodes[p], part, visited, work);
          clear_visited(found, visited);
          return found;
        },
        [](mpr::Message& m) {
          Subpaths s(m.unpack<std::uint32_t>());
          for (auto& path : s) path = m.unpack_vector<NodeId>();
          return s;
        });
    SymWal::Entry entry;
    std::uint32_t count = 0;
    for (const auto& r : recs) count += static_cast<std::uint32_t>(r.size());
    entry.payload.pack(count);
    for (const auto& r : recs) {
      for (const auto& path : r) entry.payload.pack_vector(path);
    }
    sym_wal_commit(comm, wal, std::move(entry));
  }

  mpr::Message payload;
  {
    std::lock_guard<std::mutex> lock(wal.mu);
    payload = wal.entries.front().payload;
  }
  Subpaths all(payload.unpack<std::uint32_t>());
  for (auto& path : all) path = payload.unpack_vector<NodeId>();
  FOCUS_CHECK(payload.fully_consumed(), "trailing bytes in sub-path log");
  double join_work = 0.0;
  *paths = join_subpaths(g, std::move(all), &join_work);
  comm.charge(join_work);
}

ParallelTraverseResult ft_sym_traverse(
    const AsmGraph& g, const std::vector<std::vector<NodeId>>& nodes,
    std::span<const PartId> part, PartId nparts, int nranks,
    mpr::CostModel cost, const mpr::FaultPlan& fault_plan,
    const mpr::FaultConfig& fault) {
  ParallelTraverseResult out;
  SymWal wal;
  wal.live.assign(static_cast<std::size_t>(nranks), 1);
  out.run = mpr::Runtime::execute(
      nranks,
      [&](mpr::Comm& comm) {
        std::vector<bool> visited(g.node_count(), false);
        ft_sym_drive(
            comm, wal, fault,
            [&](std::uint32_t phase, std::uint32_t p, mpr::Message& frame,
                double* work) {
              FOCUS_CHECK(phase == 0, "unknown traverse phase in scan command");
              const auto found =
                  extract_subpaths(g, nodes[p], part, visited, work);
              clear_visited(found, visited);
              frame.pack(static_cast<std::uint32_t>(found.size()));
              for (const auto& path : found) frame.pack_vector(path);
            },
            [&](std::uint32_t phase_start) {
              sym_traverse_coordinate(comm, wal, g, nodes, part, nparts,
                                      fault, phase_start, &out.paths);
            });
      },
      cost, fault_plan);
  return out;
}

}  // namespace

ParallelTraverseResult traverse_parallel(const AsmGraph& g,
                                         std::span<const PartId> part,
                                         PartId nparts, int nranks,
                                         mpr::CostModel cost,
                                         unsigned threads,
                                         const mpr::FaultPlan& fault_plan,
                                         const mpr::FaultConfig& fault,
                                         const DistConfig& dist) {
  FOCUS_CHECK(part.size() == g.node_count(), "partition size mismatch");
  const auto nodes = partition_node_lists(part, nparts, threads);

  ParallelTraverseResult out;
  if (!fault_plan.empty()) {
    if (dist.protocol == DistProtocol::kSymmetric) {
      return ft_sym_traverse(g, nodes, part, nparts, nranks, cost, fault_plan,
                             fault);
    }
    out.run = mpr::Runtime::execute(
        nranks,
        [&](mpr::Comm& comm) {
          if (comm.rank() == 0) {
            ft_traverse_master(comm, g, nodes, part, nparts, fault,
                               &out.paths);
          } else {
            ft_traverse_worker(comm, g, nodes, part);
          }
        },
        cost, fault_plan);
    return out;
  }

  if (dist.protocol == DistProtocol::kSymmetric) {
    const auto est = traverse_scan_estimates(nodes);
    const auto owner = lpt_assign(est, nranks);
    const auto owned = owned_partitions(owner, nranks);
    out.run = mpr::Runtime::execute(
        nranks,
        [&](mpr::Comm& comm) {
          traverse_symmetric_rank(comm, g, nodes, part, owner, owned,
                                  &out.paths);
        },
        cost);
    return out;
  }

  out.run = mpr::Runtime::execute(
      nranks,
      [&](mpr::Comm& comm) {
        std::vector<bool> visited(g.node_count(), false);
        std::vector<std::vector<NodeId>> subpaths;
        double work = 0.0;
        for (std::size_t p = 0; p < nodes.size(); ++p) {
          if (!mine(p, comm)) continue;
          auto found = extract_subpaths(g, nodes[p], part, visited, &work);
          for (auto& path : found) subpaths.push_back(std::move(path));
        }
        comm.charge(work);

        mpr::Message msg;
        msg.pack(static_cast<std::uint32_t>(subpaths.size()));
        for (const auto& path : subpaths) msg.pack_vector(path);
        auto gathered = comm.gather(std::move(msg), 0);
        if (comm.rank() == 0) {
          std::vector<std::vector<NodeId>> all;
          for (auto& m : gathered) {
            const auto count = m.unpack<std::uint32_t>();
            for (std::uint32_t i = 0; i < count; ++i) {
              all.push_back(m.unpack_vector<NodeId>());
            }
            FOCUS_CHECK(m.fully_consumed(), "trailing bytes in phase frame");
          }
          double join_work = 0.0;
          out.paths = join_subpaths(g, std::move(all), &join_work);
          comm.charge(join_work);
        }
        comm.barrier();
      },
      cost);
  return out;
}

namespace {

/// Query reads per fault-tolerant overlap partition. Fixed so the block
/// decomposition — and therefore the canonical record order — is a pure
/// function of the read count, independent of rank count and faults.
constexpr std::size_t kFtQueryBlock = 64;

std::vector<align::Overlap> ft_overlap_scan_block(
    const io::ReadSet& reads, const align::KmerShard& shard,
    const align::SubsetRanges& subsets, const align::OverlapperConfig& config,
    std::uint32_t p, double* work) {
  std::vector<align::Overlap> out;
  const std::size_t n = reads.size();
  const std::size_t begin = p * kFtQueryBlock;
  const std::size_t end = std::min(n, begin + kFtQueryBlock);
  align::distributed_block_overlaps(reads, shard, subsets,
                                    static_cast<ReadId>(begin),
                                    static_cast<ReadId>(end), config, out,
                                    work);
  return out;
}

std::vector<align::Overlap> ft_overlap_merge(
    mpr::Comm& comm, std::vector<std::vector<align::Overlap>> recs) {
  std::vector<align::Overlap> all;
  for (auto& r : recs) all.insert(all.end(), r.begin(), r.end());
  comm.charge(static_cast<double>(all.size()) *
              std::log2(static_cast<double>(all.size()) + 2.0));
  return align::dedupe_overlaps(std::move(all));
}

void ft_overlap_master(mpr::Comm& comm, const io::ReadSet& reads,
                       const align::KmerShard& shard,
                       const align::SubsetRanges& subsets,
                       const align::OverlapperConfig& config, PartId nparts,
                       const mpr::FaultConfig& fault,
                       std::vector<align::Overlap>* overlaps) {
  FtMasterState st;
  st.live.assign(static_cast<std::size_t>(comm.size()), 1);
  auto recs = ft_collect_phase<std::vector<align::Overlap>>(
      comm, st, nparts, 0, fault,
      [&](std::uint32_t p, double* work) {
        return ft_overlap_scan_block(reads, shard, subsets, config, p, work);
      },
      [](mpr::Message& m) { return m.unpack_vector<align::Overlap>(); });
  *overlaps = ft_overlap_merge(comm, std::move(recs));
  ft_shutdown_workers(comm, st);
}

void ft_overlap_worker(mpr::Comm& comm, const io::ReadSet& reads,
                       const align::KmerShard& shard,
                       const align::SubsetRanges& subsets,
                       const align::OverlapperConfig& config) {
  ft_worker_loop(comm, [&](std::uint32_t phase, std::uint32_t p,
                           mpr::Message& frame, double* work) {
    FOCUS_CHECK(phase == 0, "unknown overlap phase in scan command");
    frame.pack_vector(
        ft_overlap_scan_block(reads, shard, subsets, config, p, work));
  });
}

void ft_overlap_symmetric(mpr::Comm& comm, const io::ReadSet& reads,
                          const align::KmerShard& shard,
                          const align::SubsetRanges& subsets,
                          const align::OverlapperConfig& config, PartId nparts,
                          const mpr::FaultConfig& fault, SymWal& wal,
                          std::vector<align::Overlap>* overlaps) {
  ft_sym_drive(
      comm, wal, fault,
      [&](std::uint32_t phase, std::uint32_t p, mpr::Message& frame,
          double* work) {
        FOCUS_CHECK(phase == 0, "unknown overlap phase in scan command");
        frame.pack_vector(
            ft_overlap_scan_block(reads, shard, subsets, config, p, work));
      },
      [&](std::uint32_t phase_start) {
        if (phase_start == 0) {
          auto recs = sym_collect_phase<std::vector<align::Overlap>>(
              comm, wal, nparts, 0, fault,
              [&](std::uint32_t p, double* work) {
                return ft_overlap_scan_block(reads, shard, subsets, config, p,
                                             work);
              },
              [](mpr::Message& m) {
                return m.unpack_vector<align::Overlap>();
              });
          SymWal::Entry entry;
          entry.payload.pack_vector(ft_overlap_merge(comm, std::move(recs)));
          sym_wal_commit(comm, wal, std::move(entry));
        }
        // Publish from the durable record — identical whether this rank
        // merged the blocks itself or inherited the committed entry.
        mpr::Message payload;
        {
          std::lock_guard<std::mutex> lock(wal.mu);
          payload = wal.entries.front().payload;
        }
        *overlaps = payload.unpack_vector<align::Overlap>();
        FOCUS_CHECK(payload.fully_consumed(), "trailing bytes in overlap log");
      });
}

}  // namespace

ParallelOverlapResult overlap_parallel(const io::ReadSet& reads,
                                       const align::OverlapperConfig& config,
                                       int nranks, mpr::CostModel cost,
                                       const mpr::FaultPlan& fault_plan,
                                       const mpr::FaultConfig& fault,
                                       const DistConfig& dist) {
  if (fault_plan.empty()) {
    auto r = align::find_overlaps_sharded(reads, config, nranks, cost);
    return {std::move(r.overlaps), r.stats};
  }

  FOCUS_CHECK(nranks >= 1, "need at least one rank");
  FOCUS_CHECK(config.subsets > 0, "subset count must be positive");
  FOCUS_CHECK(config.k >= 8 && config.k <= 32, "seed k must be in [8, 32]");
  const std::size_t n = reads.size();
  const auto nparts =
      static_cast<PartId>((n + kFtQueryBlock - 1) / kFtQueryBlock);
  const bool symmetric = dist.protocol == DistProtocol::kSymmetric;

  SymWal wal;
  wal.live.assign(static_cast<std::size_t>(nranks), 1);
  ParallelOverlapResult out;
  out.run = mpr::Runtime::execute(
      nranks,
      [&](mpr::Comm& comm) {
        // Replicated single-shard layout: under faults any surviving rank
        // may be asked to replay any query block, so every rank holds the
        // full index — trading memory for the ability to reassign blocks
        // without a shard-recovery round.
        double build_work = 0.0;
        auto postings = align::extract_shard_postings(
            reads, 0, static_cast<ReadId>(n), config.k, 1, &build_work);
        const align::KmerShard shard(std::move(postings[0]), config.k);
        build_work += shard.build_work();
        comm.charge(build_work);
        const align::SubsetRanges subsets(
            io::split_into_subsets(n, config.subsets));

        if (symmetric) {
          ft_overlap_symmetric(comm, reads, shard, subsets, config, nparts,
                               fault, wal, &out.overlaps);
        } else if (comm.rank() == 0) {
          ft_overlap_master(comm, reads, shard, subsets, config, nparts,
                            fault, &out.overlaps);
        } else {
          ft_overlap_worker(comm, reads, shard, subsets, config);
        }
      },
      cost, fault_plan);
  return out;
}

}  // namespace focus::dist
