#include "dist/parallel.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <string_view>

#include "align/banded_nw.hpp"
#include "common/env.hpp"
#include "common/error.hpp"
#include "common/heap.hpp"
#include "common/thread_pool.hpp"
#include "io/preprocess.hpp"
#include "mpr/ft_phase.hpp"
#include "mpr/rounds.hpp"

namespace focus::dist {

DistProtocol dist_protocol_from_env() {
  return dist_protocol_from_env(EnvSnapshot::capture());
}

DistProtocol dist_protocol_from_env(const EnvSnapshot& env) {
  // Symmetric is the default: it is makespan-balanced (LPT over measured
  // scan estimates) and survives coordinator death, at the price of the
  // phase log's replication charge. `master` remains selectable as the §V
  // paper baseline.
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
// Symmetric owner-computes simplify: partition ownership.
//
// The master protocol assigns partition p to rank p % nranks, which balances
// partition *counts* but not scan *work* — measured per-partition scan costs
// vary by an order of magnitude, so the makespan is set by whichever rank
// drew the heaviest partitions. The fault-free symmetric simplify instead
// LPT-schedules partitions onto ranks by an estimated scan cost: sort
// partitions by estimate descending and greedily give each to the
// least-loaded rank. The assignment only moves *scans*; record routing and
// apply order are keyed by node/edge ownership, so the outputs are
// placement-independent.
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

namespace {

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
// Recovering drivers (DESIGN.md §7 / §7b). The phase machinery — command and
// record framing, dead-rank reassignment, round replay, the phase log and
// the coordinator role — lives in mpr/ft_phase.hpp and runs both protocols:
// symmetric replicates the log and lets a survivor take the coordinator
// role, master keeps the log local and the role fixed at rank 0. Each driver
// here supplies one coordinator body and one worker scan.
//
// A coordinator body commits each completed phase — the canonical record
// payload plus the resulting counters — and starts wherever the log it
// inherits ends. Applies sit strictly between communication operations, so a
// crash can never leave a phase half-applied: the graph state always equals
// exactly the committed log. Simplify runs this driver only under a
// non-empty plan; traverse runs it for every plan.
// ---------------------------------------------------------------------------

using mpr::PhaseLog;
using mpr::ft_collect;
using mpr::ft_commit;
using mpr::ft_drive;

/// Coordinator body of the recovering simplify. The final counters are a
/// pure function of the log, so any coordinator — original, successor, or a
/// late orphan finding a complete log — reports the same stats.
void simplify_coordinate(mpr::Comm& comm, PhaseLog& log, AsmGraph& g,
                         const std::vector<std::vector<NodeId>>& nodes,
                         const SimplifyConfig& config, PartId nparts,
                         const mpr::FaultConfig& fault,
                         std::uint32_t phase_start, SimplifyStats* stats) {
  TransitiveScratch scratch;
  for (std::uint32_t phase = phase_start; phase < 4; ++phase) {
    PhaseLog::Entry entry;
    entry.counts.assign(6, 0);  // SimplifyStats field order
    switch (phase) {
      case 0: {  // Transitive reduction (§V-A).
        auto recs = ft_collect<std::vector<EdgeId>>(
            comm, log, nparts, phase, fault,
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
        auto recs = ft_collect<ContainmentFindings>(
            comm, log, nparts, phase, fault,
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
        auto recs = ft_collect<std::vector<NodeId>>(
            comm, log, nparts, phase, fault,
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
        auto recs = ft_collect<std::vector<NodeId>>(
            comm, log, nparts, phase, fault,
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
    ft_commit(comm, log, std::move(entry));
  }

  SimplifyStats total;
  {
    std::lock_guard<std::mutex> lock(log.mu);
    for (const auto& e : log.entries) {
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
    out.run = mpr::ft_execute(
        nranks, dist.protocol == DistProtocol::kSymmetric, cost, fault_plan,
        [&](mpr::Comm& comm, PhaseLog& log) {
          TransitiveScratch scratch;
          ft_drive(
              comm, log, fault,
              [&](std::uint32_t phase, std::uint32_t p, mpr::Message& frame,
                  double* work) {
                switch (phase) {
                  case 0:
                    frame.pack_vector(
                        find_transitive_edges(g, nodes[p], scratch, work));
                    break;
                  case 1: {
                    const auto f =
                        find_containments(g, nodes[p], config, work);
                    frame.pack_vector(f.verified);
                    frame.pack_vector(f.false_edges);
                    frame.pack_vector(f.contained_nodes);
                    break;
                  }
                  case 2:
                    frame.pack_vector(find_tips(g, nodes[p], config, work));
                    break;
                  case 3:
                    frame.pack_vector(
                        find_bubbles(g, nodes[p], config, work));
                    break;
                  default:
                    FOCUS_THROW("unknown simplify phase in scan command");
                }
              },
              [&](std::uint32_t phase_start) {
                simplify_coordinate(comm, log, g, nodes, config, nparts,
                                    fault, phase_start, &out.stats);
              });
        });
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

/// Decodes one partition's sub-paths: a u32 count, then one vector each. The
/// count is bounded by the frame before anything is allocated.
Subpaths unpack_subpaths(mpr::Message& m) {
  Subpaths s(m.unpack_count(sizeof(std::uint64_t)));
  for (auto& path : s) path = m.unpack_vector<NodeId>();
  return s;
}

/// Coordinator body of the recovering traverse: one collected phase
/// committed to the log, then joining from the durable record — which is
/// identical whether this rank collected the sub-paths itself or inherited
/// them from a crashed predecessor.
void traverse_coordinate(mpr::Comm& comm, PhaseLog& log, const AsmGraph& g,
                         const std::vector<std::vector<NodeId>>& nodes,
                         std::span<const PartId> part, PartId nparts,
                         const mpr::FaultConfig& fault,
                         std::uint32_t phase_start, Subpaths* paths) {
  if (phase_start == 0) {
    std::vector<bool> visited(g.node_count(), false);
    auto recs = ft_collect<Subpaths>(
        comm, log, nparts, 0, fault,
        [&](std::uint32_t p, double* work) {
          // Partitions are disjoint and sub-paths never cross a partition
          // boundary, so clearing only the extracted nodes between
          // partitions extracts the same sub-paths as a fresh visited set
          // per partition — and keeps a replayed partition starting clean
          // without re-zeroing node_count() bits each scan.
          auto found = extract_subpaths(g, nodes[p], part, visited, work);
          clear_visited(found, visited);
          return found;
        },
        unpack_subpaths);
    PhaseLog::Entry entry;
    std::uint32_t count = 0;
    for (const auto& r : recs) count += static_cast<std::uint32_t>(r.size());
    entry.payload.pack(count);
    for (const auto& r : recs) {
      for (const auto& path : r) entry.payload.pack_vector(path);
    }
    ft_commit(comm, log, std::move(entry));
  }

  Subpaths all = mpr::ft_read_entry(log, 0, "sub-path log", unpack_subpaths);
  double join_work = 0.0;
  *paths = join_subpaths(g, std::move(all), &join_work);
  comm.charge(join_work);
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

  // The recovering driver, for every plan. An empty plan injects nothing,
  // so it runs fault-free (DESIGN.md §7).
  ParallelTraverseResult out;
  out.run = mpr::ft_execute(
      nranks, dist.protocol == DistProtocol::kSymmetric, cost, fault_plan,
      [&](mpr::Comm& comm, PhaseLog& log) {
        std::vector<bool> visited(g.node_count(), false);
        ft_drive(
            comm, log, fault,
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
              traverse_coordinate(comm, log, g, nodes, part, nparts, fault,
                                  phase_start, &out.paths);
            });
      });
  return out;
}

namespace {

// ---------------------------------------------------------------------------
// Recovering stage-2 driver. Its replay partition is find_overlaps_parallel's
// own unit: partition p is subset pair p (align::subset_pairs), so
// ft_assign's fault-free owner p % size is the rank find_overlaps_parallel
// scans the pair on, and each rank's align::PairScanner charges the same
// work in the same order. Like find_overlaps_parallel it builds every index
// once on one pool shared by the ranks, but keeps all of them for the whole
// call: a replay may scan any pair on any survivor.
// ---------------------------------------------------------------------------

std::vector<align::Overlap> scan_pair(align::PairScanner& scanner,
                                      std::uint32_t p, double* work) {
  std::vector<align::Overlap> out;
  scanner.scan(p, out, work);
  return out;
}

/// Concatenates the per-pair records, freeing each as it is consumed, and
/// dedupes with find_overlaps_parallel's rank-0 charge.
std::vector<align::Overlap> ft_overlap_merge(
    mpr::Comm& comm, std::vector<std::vector<align::Overlap>> recs) {
  std::size_t total = 0;
  for (const auto& r : recs) total += r.size();
  std::vector<align::Overlap> all;
  all.reserve(total);
  for (auto& r : recs) {
    all.insert(all.end(), r.begin(), r.end());
    std::vector<align::Overlap>().swap(r);
  }
  comm.charge(static_cast<double>(all.size()) *
              std::log2(static_cast<double>(all.size()) + 2.0));
  return align::dedupe_overlaps(std::move(all));
}

}  // namespace

ParallelOverlapResult overlap_parallel(const io::ReadSet& reads,
                                       const align::OverlapperConfig& config,
                                       int nranks, mpr::CostModel cost,
                                       const mpr::FaultPlan& fault_plan,
                                       const mpr::FaultConfig& fault,
                                       const DistConfig& dist) {
  if (fault_plan.empty()) {
    auto r = align::find_overlaps_parallel(reads, config, nranks, cost);
    return {std::move(r.overlaps), r.stats};
  }

  FOCUS_CHECK(nranks >= 1, "need at least one rank");
  align::check_overlapper_config(config);
  const auto subsets = io::split_into_subsets(reads.size(), config.subsets);
  const auto pairs = align::subset_pairs(subsets.size());
  const auto nparts = static_cast<PartId>(pairs.size());

  ParallelOverlapResult out;
  release_free_heap();
  {
    ThreadPool& pool = align::stage2_pool(config.threads);
    const align::SubsetIndexes indexes =
        align::build_subset_indexes(reads, subsets, config, pool);
    out.run = mpr::ft_execute(
        nranks, dist.protocol == DistProtocol::kSymmetric, cost, fault_plan,
        [&](mpr::Comm& comm, PhaseLog& log) {
          align::PairScanner scanner(reads, subsets, pairs, indexes, config,
                                     static_cast<std::size_t>(nranks), pool);
          ft_drive(
              comm, log, fault,
              [&](std::uint32_t phase, std::uint32_t p, mpr::Message& frame,
                  double* work) {
                FOCUS_CHECK(phase == 0,
                            "unknown overlap phase in scan command");
                frame.pack_vector(scan_pair(scanner, p, work));
              },
              [&](std::uint32_t phase_start) {
                if (phase_start == 0) {
                  auto recs = ft_collect<std::vector<align::Overlap>>(
                      comm, log, nparts, 0, fault,
                      [&](std::uint32_t p, double* work) {
                        return scan_pair(scanner, p, work);
                      },
                      [](mpr::Message& m) {
                        return m.unpack_vector<align::Overlap>();
                      });
                  PhaseLog::Entry entry;
                  entry.payload.pack_vector(
                      ft_overlap_merge(comm, std::move(recs)));
                  ft_commit(comm, log, std::move(entry));
                }
                // Publish from the durable record — identical whether this
                // rank merged the pairs itself or inherited the committed
                // entry.
                out.overlaps = mpr::ft_read_entry(
                    log, 0, "overlap log", [](mpr::Message& m) {
                      return m.unpack_vector<align::Overlap>();
                    });
              });
        });
  }
  release_free_heap();
  return out;
}

}  // namespace focus::dist
