#include "partition/mlpart.hpp"

#include <algorithm>
#include <mutex>
#include <numeric>
#include <optional>
#include <unordered_map>

#include "common/error.hpp"
#include "mpr/ft_phase.hpp"
#include "partition/partition.hpp"

namespace focus::partition {

using graph::Graph;
using graph::GraphBuilder;
using graph::GraphHierarchy;

namespace {

/// Below these, the pooled variants of the projection / lift loops cost more
/// than they save (same rationale as coarsen's kParallelHemMinNodes).
constexpr std::size_t kParallelProjectMinNodes = 512;
constexpr std::size_t kParallelLiftMinNodes = 512;

// Induced subgraph over `region`; local ids follow region order.
Graph induced_subgraph(const Graph& g, const std::vector<NodeId>& region,
                       double* work) {
  std::unordered_map<NodeId, NodeId> local;
  local.reserve(region.size());
  for (NodeId i = 0; i < region.size(); ++i) {
    local.emplace(region[i], i);
  }
  GraphBuilder builder(region.size());
  for (NodeId i = 0; i < region.size(); ++i) {
    builder.set_node_weight(i, g.node_weight(region[i]));
    for (const graph::Edge& e : g.neighbors(region[i])) {
      if (work != nullptr) *work += 1.0;
      if (e.to <= region[i]) continue;  // each edge once
      const auto it = local.find(e.to);
      if (it == local.end()) continue;
      builder.add_edge(i, it->second, e.weight);
    }
  }
  return builder.build();
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = seed ^ (a * 0x9e3779b97f4a7c15ULL) ^
                    (b * 0xc2b2ae3d27d4eb4fULL);
  return splitmix64(s);
}

}  // namespace

std::vector<std::uint8_t> bisect_region(const Graph& g,
                                        const std::vector<NodeId>& region,
                                        const PartitionerConfig& config,
                                        std::uint64_t region_seed,
                                        Weight region_weight, double* work,
                                        ThreadPool* pool,
                                        BisectRegionAccounting* acct) {
  std::vector<std::uint8_t> side(region.size(), 0);
  if (region.size() < 2) return side;

  const Graph sub = induced_subgraph(g, region, work);
  // The caller accounts node-weight totals once, at the split point; the
  // induced subgraph copies node weights verbatim, so they must agree.
  FOCUS_ASSERT(sub.total_node_weight() == region_weight,
               "region weight drifted from induced subgraph");

  // Coarsen the region. Coarse-node weight is capped (Karypis & Kumar's
  // maxvwgt) so the coarsest graph always admits a balanced bisection even
  // when the input nodes (hybrid read clusters) have very uneven weights.
  graph::CoarsenConfig cc = config.coarsen;
  cc.seed = region_seed;
  cc.max_node_weight = std::max<Weight>(
      1, 3 * region_weight /
             (2 * static_cast<Weight>(std::max<std::size_t>(cc.min_nodes, 1))));
  const GraphHierarchy mini = graph::build_multilevel(sub, cc);
  if (work != nullptr) {
    for (const Graph& level : mini.levels) {
      *work += static_cast<double>(level.edge_count());
    }
  }

  // Multi-trial initial bisection on the coarsest graph (Karypis & Kumar:
  // grow several randomly seeded bisections, keep the best). Trial t draws
  // its Rng purely from (seed, region, t); the winner is the total-order
  // argmin of (coarsest cut, trial), so the choice is independent of
  // evaluation order. Trials run concurrently on the pool — each charges a
  // private work slot, merged in trial order — which turns the serial root
  // bisection into pool-wide work. trials == 1 keeps the original direct
  // charging so the single-trial accounting stays bit-identical to the
  // pre-trials partitioner.
  double* pooled_work = acct != nullptr ? &acct->pooled_work : nullptr;
  const std::size_t trials = std::max<unsigned>(config.trials, 1);
  std::vector<PartId> part;
  if (trials == 1) {
    Rng rng(mix_seed(region_seed, 0x600d, 0x5eed));
    part = greedy_graph_growing(mini.coarsest(), rng, config.ggg, work);
    kl_bisection_refine(mini.coarsest(), part, config.kl, work, pool,
                        pooled_work);
  } else {
    struct Trial {
      std::vector<PartId> part;
      Weight cut = 0;
      double work = 0.0;
    };
    std::vector<Trial> runs(trials);
    const auto run_trial = [&](std::size_t t) {
      // Trial KL instances stay single-threaded: the trials themselves are
      // the parallelism here, and their pooled-eligible work is already
      // covered by the per-trial slots (no double counting in acct).
      Rng rng(mix_seed(region_seed, 0x600d, 0x5eed + t));
      Trial& r = runs[t];
      r.part = greedy_graph_growing(mini.coarsest(), rng, config.ggg, &r.work);
      r.cut = kl_bisection_refine(mini.coarsest(), r.part, config.kl, &r.work,
                                  nullptr);
    };
    if (pool != nullptr && pool->thread_count() > 1) {
      pool->parallel_for(trials, 1, [&](std::size_t b, std::size_t e) {
        for (std::size_t t = b; t < e; ++t) run_trial(t);
      });
    } else {
      for (std::size_t t = 0; t < trials; ++t) run_trial(t);
    }
    std::size_t winner = 0;
    for (std::size_t t = 1; t < trials; ++t) {
      if (runs[t].cut < runs[winner].cut) winner = t;  // ties keep earliest
    }
    if (acct != nullptr) acct->trial_work.resize(trials);
    for (std::size_t t = 0; t < trials; ++t) {
      if (work != nullptr) *work += runs[t].work;
      if (acct != nullptr) acct->trial_work[t] = runs[t].work;
    }
    part = std::move(runs[winner].part);
  }

  // Project and refine down to the region's finest level. Each fine node
  // reads only its own parent's label, so the projection is a parallel
  // scoring pass with disjoint writes.
  for (std::size_t l = mini.depth() - 1; l-- > 0;) {
    const auto& parent = mini.parent[l];
    std::vector<PartId> fine(mini.levels[l].node_count());
    if (pool != nullptr && pool->thread_count() > 1 &&
        fine.size() >= kParallelProjectMinNodes) {
      pool->parallel_for(fine.size(), 2048, [&](std::size_t b, std::size_t e) {
        for (std::size_t v = b; v < e; ++v) fine[v] = part[parent[v]];
      });
    } else {
      for (NodeId v = 0; v < fine.size(); ++v) {
        fine[v] = part[parent[v]];
      }
    }
    part = std::move(fine);
    kl_bisection_refine(mini.levels[l], part, config.kl, work, pool,
                        pooled_work);
  }

  for (std::size_t i = 0; i < region.size(); ++i) {
    side[i] = static_cast<std::uint8_t>(part[i]);
  }
  return side;
}

std::vector<std::vector<PartId>> lift_partition(const GraphHierarchy& h,
                                                const std::vector<PartId>& finest,
                                                PartId parts, ThreadPool* pool) {
  const std::size_t depth = h.depth();
  std::vector<std::vector<PartId>> levels(depth);
  levels[0] = finest;
  for (std::size_t l = 1; l < depth; ++l) {
    const std::size_t n = h.levels[l].node_count();
    // Majority node-weight vote of the children's parts. The tally scatters
    // into per-parent buckets and stays serial; the winner selection reads
    // one bucket and writes one slot per coarse node, so it parallelizes.
    std::vector<std::unordered_map<PartId, Weight>> votes(n);
    const Graph& fine = h.levels[l - 1];
    for (NodeId v = 0; v < fine.node_count(); ++v) {
      votes[h.parent[l - 1][v]][levels[l - 1][v]] += fine.node_weight(v);
    }
    levels[l].assign(n, kNoPart);
    const auto pick_winners = [&](std::size_t begin, std::size_t end) {
      for (std::size_t v = begin; v < end; ++v) {
        FOCUS_ASSERT(!votes[v].empty(), "coarse node with no children");
        PartId best = kNoPart;
        Weight best_weight = -1;
        for (PartId p = 0; p < parts; ++p) {
          const auto it = votes[v].find(p);
          if (it == votes[v].end()) continue;
          if (it->second > best_weight) {
            best = p;
            best_weight = it->second;
          }
        }
        levels[l][v] = best;
      }
    };
    if (pool != nullptr && pool->thread_count() > 1 &&
        n >= kParallelLiftMinNodes) {
      pool->parallel_for(n, 512, [&](std::size_t b, std::size_t e) {
        pick_winners(b, e);
      });
    } else {
      pick_winners(0, n);
    }
  }
  return levels;
}

namespace {

void check_k(PartId k) {
  FOCUS_CHECK(k >= 1 && (k & (k - 1)) == 0,
              "partition count must be a power of two (recursive bisection)");
}

// Shared state of one recursion-tree walk (bisect_subtree).
struct BisectTreeCtx {
  const Graph* g;
  const PartitionerConfig* config;
  PartId k;
  std::vector<PartId>* part;                    // final labels; disjoint writes
  std::vector<std::vector<double>>* step_work;  // [step][label] work slots
  // [step][label] intra-bisection accounting slots (per-trial / pooled work).
  std::vector<std::vector<std::vector<double>>>* step_trial_work;
  std::vector<std::vector<double>>* step_pooled_work;
  ThreadPool* pool;                             // nullptr => serial
};

// Recursion-tree driver used by partition_hierarchy. Equivalence with the
// mpr driver's wave model (step_regions / apply_sides below), by induction
// over steps:
//  * a node's wave label after step s equals the label its recursion-tree
//    region carries at depth s (the root starts at label 0; a side-1 node
//    gains `label + 2^s`, exactly the wave's relabeling `r + current_parts`
//    with r == label);
//  * the wave gathers region r by scanning nodes in ascending id, and the
//    recursion's splits preserve ascending order from an ascending root, so
//    region node lists are identical;
//  * seeds are mix_seed(seed, step, label) on both sides.
// Hence every bisect_region call sees identical inputs, and since sibling
// subtrees touch disjoint node sets and disjoint work slots, the two halves
// of each split can run concurrently (fork_join) without changing a byte.
void bisect_subtree(const BisectTreeCtx& ctx, std::vector<NodeId>& region,
                    Weight region_weight, std::size_t step, PartId label) {
  if ((static_cast<PartId>(1) << step) >= ctx.k) {
    for (const NodeId v : region) (*ctx.part)[v] = label;
    return;
  }
  double* work = &(*ctx.step_work)[step][static_cast<std::size_t>(label)];
  BisectRegionAccounting acct;
  const std::vector<std::uint8_t> side = bisect_region(
      *ctx.g, region, *ctx.config,
      mix_seed(ctx.config->seed, step, static_cast<std::uint64_t>(label)),
      region_weight, work, ctx.pool, &acct);
  (*ctx.step_trial_work)[step][static_cast<std::size_t>(label)] =
      std::move(acct.trial_work);
  (*ctx.step_pooled_work)[step][static_cast<std::size_t>(label)] =
      acct.pooled_work;

  // Split, totalling the child weights here so the children inherit their
  // node-weight accounting from the split point.
  std::vector<NodeId> child0, child1;
  child0.reserve(region.size());
  child1.reserve(region.size() / 2 + 1);
  Weight w0 = 0, w1 = 0;
  for (std::size_t i = 0; i < region.size(); ++i) {
    const NodeId v = region[i];
    if (side[i] != 0) {
      child1.push_back(v);
      w1 += ctx.g->node_weight(v);
    } else {
      child0.push_back(v);
      w0 += ctx.g->node_weight(v);
    }
  }
  FOCUS_ASSERT(w0 + w1 == region_weight, "split halves do not sum to region");
  region.clear();
  region.shrink_to_fit();  // drop the parent list before recursing

  const PartId label1 =
      static_cast<PartId>(label + (static_cast<PartId>(1) << step));
  if (ctx.pool != nullptr && ctx.pool->thread_count() > 1) {
    ctx.pool->fork_join(
        [&] { bisect_subtree(ctx, child0, w0, step + 1, label); },
        [&] { bisect_subtree(ctx, child1, w1, step + 1, label1); });
  } else {
    bisect_subtree(ctx, child0, w0, step + 1, label);
    bisect_subtree(ctx, child1, w1, step + 1, label1);
  }
}

}  // namespace

HierarchyPartitioning partition_hierarchy(const GraphHierarchy& h, PartId k,
                                          const PartitionerConfig& config) {
  check_k(k);
  const Graph& finest = h.finest();

  std::size_t steps = 0;
  while ((static_cast<PartId>(1) << steps) < k) ++steps;

  const unsigned threads = resolve_thread_count(config.threads);
  std::optional<ThreadPool> pool_storage;
  ThreadPool* pool = nullptr;
  if (threads > 1) {
    pool_storage.emplace(threads);
    pool = &*pool_storage;
  }

  HierarchyPartitioning result;
  result.parts = k;
  result.step_work.resize(steps);
  result.step_trial_work.resize(steps);
  result.step_pooled_work.resize(steps);
  for (std::size_t s = 0; s < steps; ++s) {
    const std::size_t regions = static_cast<std::size_t>(1) << s;
    result.step_work[s].assign(regions, 0.0);
    result.step_trial_work[s].assign(regions, {});
    result.step_pooled_work[s].assign(regions, 0.0);
  }

  // Phase 1: recursive bisection over the recursion tree; sibling subtrees
  // run concurrently on the pool.
  std::vector<PartId> part(finest.node_count(), 0);
  {
    std::vector<NodeId> root(finest.node_count());
    std::iota(root.begin(), root.end(), NodeId{0});
    const BisectTreeCtx ctx{&finest,
                            &config,
                            k,
                            &part,
                            &result.step_work,
                            &result.step_trial_work,
                            &result.step_pooled_work,
                            pool};
    bisect_subtree(ctx, root, finest.total_node_weight(), 0, 0);
  }

  // Phase 2: lift to all hierarchy levels.
  result.levels = lift_partition(h, part, k, pool);

  // Phase 3: per-level global k-way refinement. Levels are independent
  // (disjoint part vectors, disjoint work slots), so they run concurrently;
  // each refinement also uses the pool internally for its scoring sweeps.
  result.kway_work.assign(h.depth(), 0.0);
  if (config.kway_refinement) {
    const auto refine_level = [&](std::size_t l) {
      kway_kl_refine(h.levels[l], result.levels[l], k, config.kway,
                     &result.kway_work[l], pool);
    };
    if (pool != nullptr && pool->thread_count() > 1 && h.depth() > 1) {
      pool->parallel_for(h.depth(), 1, [&](std::size_t b, std::size_t e) {
        for (std::size_t l = b; l < e; ++l) refine_level(l);
      });
    } else {
      for (std::size_t l = 0; l < h.depth(); ++l) refine_level(l);
    }
  }

  result.finest_cut = edge_cut(finest, result.levels[0], pool);
  // Fixed-order reduction of the work grid: identical at every pool width.
  double total = 0.0;
  for (const auto& step : result.step_work) {
    for (const double w : step) total += w;
  }
  for (const double w : result.kway_work) total += w;
  result.work = total;
  return result;
}

namespace {

// --- mpr driver (DESIGN.md §7 / §7b) ---------------------------------------
//
// The mpr driver runs the partitioner's three phases as ft_phase.hpp phases,
// for every fault plan (an empty plan injects nothing):
//  * bisection step s (phase s, partitions = the 2^s regions of that step):
//    the coordinator rebuilds the regions from its evolving labels and ships
//    each region's node list + weight inside the scan command (pack_state),
//    so workers are stateless and a replayed scan is a pure function of the
//    command payload plus the replicated finest graph. Applying the side
//    vectors to the labels happens between comm ops, so it is crash-atomic.
//  * lift: recomputed locally by whichever rank coordinates (deterministic
//    from the labels), charged as one replicated pass over the levels.
//  * refinement (phase log2(k), partitions = hierarchy levels): commands
//    carry the lifted level labels; records are the refined labels.
// Seeds are mix_seed(seed, phase, region) — identical to the serial
// driver's (step, label) — so the partitioning, recovered or not, is
// byte-identical to partition_hierarchy's. Region bodies stay
// single-threaded (no host pool): rank-level concurrency is what this driver
// measures, and a pool under every virtual rank would oversubscribe the host.

std::uint32_t bisection_steps(PartId k) {
  std::uint32_t s = 0;
  while ((static_cast<PartId>(1) << s) < k) ++s;
  return s;
}

// Regions and node weights of one bisection step, gathered from the evolving
// labels in ascending node order. Node weights are totalled here, at the
// split point, so bisect_region need not recompute them.
struct StepRegions {
  std::vector<std::vector<NodeId>> regions;
  std::vector<Weight> weights;
};

StepRegions step_regions(const Graph& g, const std::vector<PartId>& part,
                         PartId current_parts) {
  StepRegions s;
  s.regions.resize(static_cast<std::size_t>(current_parts));
  s.weights.assign(static_cast<std::size_t>(current_parts), 0);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    s.regions[static_cast<std::size_t>(part[v])].push_back(v);
    s.weights[static_cast<std::size_t>(part[v])] += g.node_weight(v);
  }
  return s;
}

// Applies one step's side vectors to the labels. The side vectors crossed
// the wire, so the size match is a CHECK, not an assert.
void apply_sides(const StepRegions& s,
                 const std::vector<std::vector<std::uint8_t>>& sides,
                 PartId current_parts, std::vector<PartId>& part) {
  FOCUS_CHECK(sides.size() == s.regions.size(),
              "bisection step record count mismatch");
  for (std::size_t r = 0; r < s.regions.size(); ++r) {
    FOCUS_CHECK(sides[r].size() == s.regions[r].size(),
                "bisection side vector does not match its region");
    for (std::size_t i = 0; i < s.regions[r].size(); ++i) {
      if (sides[r][i] != 0) {
        part[s.regions[r][i]] =
            static_cast<PartId>(static_cast<PartId>(r) + current_parts);
      }
    }
  }
}

// Worker-side cache of shipped scan inputs, keyed by (phase, partition).
// Overwritten on every (re)delivered command, so replayed rounds always
// scan the state the coordinator just shipped.
struct FtScanState {
  struct RegionCmd {
    std::vector<NodeId> nodes;
    Weight weight = 0;
  };
  std::unordered_map<std::uint64_t, RegionCmd> regions;          // bisection
  std::unordered_map<std::uint64_t, std::vector<PartId>> levels;  // refinement

  static std::uint64_t key(std::uint32_t phase, std::uint32_t p) {
    return (static_cast<std::uint64_t>(phase) << 32) | p;
  }
};

}  // namespace

ParallelPartitionResult partition_hierarchy_parallel(
    const GraphHierarchy& h, PartId k, const PartitionerConfig& config,
    int nranks, mpr::CostModel cost, const mpr::FaultPlan& fault_plan,
    const mpr::FaultConfig& fault, bool symmetric) {
  check_k(k);
  FOCUS_CHECK(nranks >= 1, "need at least one rank");
  const Graph& finest = h.finest();
  const std::uint32_t nsteps = bisection_steps(k);
  const auto depth = static_cast<std::uint32_t>(h.depth());

  ParallelPartitionResult out;
  out.partitioning.parts = k;

  // A level record arriving off the wire must be a complete labeling.
  const auto validate_level = [&](std::uint32_t l,
                                  const std::vector<PartId>& labels) {
    FOCUS_CHECK(l < depth, "refinement record names an invalid level");
    FOCUS_CHECK(labels.size() == h.levels[l].node_count(),
                "refinement level record size mismatch");
    for (const PartId x : labels) {
      FOCUS_CHECK(x >= 0 && x < k, "refinement label out of range");
    }
  };

  // Worker-side hooks: consume shipped state, then scan from it.
  const auto make_unpack_state = [&](FtScanState& state) {
    return [&, nsteps](std::uint32_t phase, std::uint32_t p,
                       mpr::Message& cmd) {
      if (phase < nsteps) {
        FtScanState::RegionCmd rc;
        rc.nodes = cmd.unpack_vector<NodeId>();
        rc.weight = cmd.unpack<Weight>();
        for (const NodeId v : rc.nodes) {
          FOCUS_CHECK(v < finest.node_count(),
                      "region command names an invalid node");
        }
        state.regions[FtScanState::key(phase, p)] = std::move(rc);
      } else {
        FOCUS_CHECK(phase == nsteps, "unknown partition phase in command");
        auto labels = cmd.unpack_vector<PartId>();
        validate_level(p, labels);
        state.levels[FtScanState::key(phase, p)] = std::move(labels);
      }
    };
  };
  const auto make_scan_and_pack = [&](FtScanState& state) {
    return [&, nsteps](std::uint32_t phase, std::uint32_t p,
                       mpr::Message& frame, double* work) {
      if (phase < nsteps) {
        const auto it = state.regions.find(FtScanState::key(phase, p));
        FOCUS_CHECK(it != state.regions.end(),
                    "scan command carried no state for its region");
        frame.pack_vector(bisect_region(
            finest, it->second.nodes, config,
            mix_seed(config.seed, phase, p), it->second.weight, work,
            /*pool=*/nullptr));
      } else {
        const auto it = state.levels.find(FtScanState::key(phase, p));
        FOCUS_CHECK(it != state.levels.end(),
                    "scan command carried no state for its level");
        std::vector<PartId> refined = it->second;
        kway_kl_refine(h.levels[p], refined, k, config.kway, work);
        frame.pack_vector(refined);
      }
    };
  };

  // Coordinator-side per-phase pieces.
  const auto bisect_scan_one = [&](const StepRegions& regs, std::uint32_t s) {
    return [&, s](std::uint32_t p, double* work) {
      return bisect_region(finest, regs.regions[p], config,
                           mix_seed(config.seed, s, p), regs.weights[p], work,
                           /*pool=*/nullptr);
    };
  };
  const auto bisect_pack_state = [&](const StepRegions& regs) {
    return [&](std::uint32_t p, mpr::Message& cmd) {
      cmd.pack_vector(regs.regions[p]);
      cmd.pack(regs.weights[p]);
    };
  };
  const auto unpack_side = [](mpr::Message& m) {
    auto side = m.unpack_vector<std::uint8_t>();
    for (const std::uint8_t v : side) {
      FOCUS_CHECK(v <= 1, "bisection side record is not a 0/1 vector");
    }
    return side;
  };
  const auto refine_scan_one =
      [&](const std::vector<std::vector<PartId>>& levels) {
        return [&](std::uint32_t l, double* work) {
          std::vector<PartId> refined = levels[l];
          kway_kl_refine(h.levels[l], refined, k, config.kway, work);
          return refined;
        };
      };
  const auto refine_pack_state =
      [&](const std::vector<std::vector<PartId>>& levels) {
        return [&](std::uint32_t l, mpr::Message& cmd) {
          cmd.pack_vector(levels[l]);
        };
      };
  const auto unpack_level = [](mpr::Message& m) {
    return m.unpack_vector<PartId>();
  };
  const auto charge_lift = [&](mpr::Comm& comm) {
    double lift_work = 0.0;
    for (std::size_t l = 0; l + 1 < h.depth(); ++l) {
      lift_work += static_cast<double>(h.levels[l].node_count());
    }
    comm.charge(lift_work);
  };

  out.stats = mpr::ft_execute(
      nranks, symmetric, cost, fault_plan,
      [&](mpr::Comm& comm, mpr::PhaseLog& log) {
        FtScanState state;
        mpr::ft_drive(
            comm, log, fault, make_scan_and_pack(state),
            [&](std::uint32_t phase_start) {
              // Rebuild the labels: committed bisection steps are replayed
              // from the log (a successor inherits them), the rest are
              // collected live and committed one entry per step.
              std::vector<PartId> part(finest.node_count(), 0);
              PartId current_parts = 1;
              const std::uint32_t done = std::min(phase_start, nsteps);
              for (std::uint32_t s = 0; s < nsteps; ++s) {
                const StepRegions regs =
                    step_regions(finest, part, current_parts);
                std::vector<std::vector<std::uint8_t>> sides;
                if (s < done) {
                  mpr::Message payload;
                  {
                    std::lock_guard<std::mutex> lock(log.mu);
                    payload = log.entries[s].payload;
                  }
                  sides.resize(static_cast<std::size_t>(current_parts));
                  for (auto& side : sides) side = unpack_side(payload);
                  FOCUS_CHECK(payload.fully_consumed(),
                              "trailing bytes in bisection log entry");
                } else {
                  sides = mpr::ft_collect<std::vector<std::uint8_t>>(
                      comm, log, static_cast<std::uint32_t>(current_parts),
                      s, fault, bisect_scan_one(regs, s), unpack_side,
                      mpr::FtOrder::kAscending, bisect_pack_state(regs));
                  mpr::PhaseLog::Entry entry;
                  for (const auto& side : sides) {
                    entry.payload.pack_vector(side);
                  }
                  entry.counts.assign(1, sides.size());
                  mpr::ft_commit(comm, log, std::move(entry));
                }
                apply_sides(regs, sides, current_parts, part);
                current_parts *= 2;
              }

              // Lift is recomputed deterministically by whichever rank
              // coordinates — cheaper than logging every level.
              charge_lift(comm);
              auto levels = lift_partition(h, part, k);

              if (config.kway_refinement) {
                bool committed = false;
                {
                  std::lock_guard<std::mutex> lock(log.mu);
                  committed = log.entries.size() > nsteps;
                }
                if (!committed) {
                  auto refined = mpr::ft_collect<std::vector<PartId>>(
                      comm, log, depth, nsteps, fault,
                      refine_scan_one(levels), unpack_level,
                      mpr::FtOrder::kAscending, refine_pack_state(levels));
                  mpr::PhaseLog::Entry entry;
                  for (const auto& labels : refined) {
                    entry.payload.pack_vector(labels);
                  }
                  entry.counts.assign(1, refined.size());
                  mpr::ft_commit(comm, log, std::move(entry));
                }
                // Publish from the durable record — identical whether this
                // rank refined the levels itself or inherited them.
                mpr::Message payload;
                {
                  std::lock_guard<std::mutex> lock(log.mu);
                  payload = log.entries[nsteps].payload;
                }
                for (std::uint32_t l = 0; l < depth; ++l) {
                  levels[l] = payload.unpack_vector<PartId>();
                  validate_level(l, levels[l]);
                }
                FOCUS_CHECK(payload.fully_consumed(),
                            "trailing bytes in refinement log entry");
              }

              out.partitioning.levels = std::move(levels);
              out.partitioning.finest_cut =
                  edge_cut(finest, out.partitioning.levels[0]);
            },
            make_unpack_state(state));
      });
  return out;
}

}  // namespace focus::partition
