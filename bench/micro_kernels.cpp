// google-benchmark microbenches for the computational kernels: suffix-array
// construction, banded NW, k-mer overlap query, HEM coarsening, greedy graph
// growing, KL refinement, and mpr messaging.
#include <benchmark/benchmark.h>

#include <unordered_set>

#include "align/banded_nw.hpp"
#include "align/banded_nw_kernels.hpp"
#include "align/overlapper.hpp"
#include "align/suffix_array.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "dist/asm_graph.hpp"
#include "dist/simplify.hpp"
#include "graph/coarsen.hpp"
#include "mpr/runtime.hpp"
#include "partition/ggg.hpp"
#include "partition/kl.hpp"
#include "sim/genome.hpp"

namespace {

using namespace focus;

std::string random_dna(std::uint64_t seed, std::size_t len) {
  Rng rng(seed);
  return sim::random_genome(len, rng);
}

graph::Graph random_graph(std::uint64_t seed, std::size_t n, std::size_t extra) {
  Rng rng(seed);
  graph::GraphBuilder b(n);
  for (NodeId v = 1; v < n; ++v) {
    b.add_edge(v, static_cast<NodeId>(rng.next_below(v)),
               1 + static_cast<Weight>(rng.next_below(50)));
  }
  for (std::size_t i = 0; i < extra; ++i) {
    const auto u = static_cast<NodeId>(rng.next_below(n));
    const auto v = static_cast<NodeId>(rng.next_below(n));
    if (u != v) b.add_edge(u, v, 1 + static_cast<Weight>(rng.next_below(50)));
  }
  return b.build();
}

void BM_SuffixArrayBuild(benchmark::State& state) {
  const auto text = random_dna(1, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    align::SuffixArray sa(text);
    benchmark::DoNotOptimize(sa.size());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SuffixArrayBuild)->Arg(10000)->Arg(100000)->Arg(400000);

void BM_SuffixArrayQuery(benchmark::State& state) {
  const auto text = random_dna(2, 200000);
  align::SuffixArray sa(text);
  Rng rng(3);
  for (auto _ : state) {
    const auto pos = rng.next_below(text.size() - 16);
    benchmark::DoNotOptimize(
        sa.count(std::string_view(text).substr(pos, 16)));
  }
}
BENCHMARK(BM_SuffixArrayQuery);

void BM_BandedNw(benchmark::State& state) {
  const auto band = static_cast<std::uint32_t>(state.range(0));
  const auto a = random_dna(4, 100);
  auto b = a;
  b[10] = b[10] == 'A' ? 'C' : 'A';
  b[50] = b[50] == 'G' ? 'T' : 'G';
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::banded_global_align(a, b, band));
  }
}
BENCHMARK(BM_BandedNw)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

// The scalar oracle on the same pair; BM_BandedNw runs the dispatched kernel
// (AVX2 at band 8 on hosts that have it, scalar at band 16 either way).
void BM_BandedNwScalar(benchmark::State& state) {
  const auto band = static_cast<std::uint32_t>(state.range(0));
  const auto a = random_dna(4, 100);
  auto b = a;
  b[10] = b[10] == 'A' ? 'C' : 'A';
  b[50] = b[50] == 'G' ? 'T' : 'G';
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        align::detail::banded_global_align_scalar(a, b, band));
  }
}
BENCHMARK(BM_BandedNwScalar)->Arg(8)->Arg(16);

void BM_OverlapQuery(benchmark::State& state) {
  // Index 500 reads from a genome, query one read against it.
  Rng rng(5);
  const auto genome = random_dna(6, 20000);
  io::ReadSet reads;
  std::vector<ReadId> members;
  for (int i = 0; i < 500; ++i) {
    const auto pos = rng.next_below(genome.size() - 100);
    reads.add(io::Read{"r" + std::to_string(i), genome.substr(pos, 100), "",
                       kInvalidRead, false});
    members.push_back(static_cast<ReadId>(i));
  }
  align::OverlapperConfig cfg;
  cfg.k = 14;
  cfg.seed_backend = state.range(0) == 0 ? align::SeedBackend::kKmerHash
                                         : align::SeedBackend::kSuffixArray;
  const align::RefIndex index(reads, members, cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::query_overlaps(reads, index, 0, cfg));
  }
}
BENCHMARK(BM_OverlapQuery)->Arg(0)->Arg(1);

void BM_KmerIndexBuild(benchmark::State& state) {
  Rng rng(18);
  const auto genome = random_dna(19, 20000);
  io::ReadSet reads;
  std::vector<ReadId> members;
  for (int i = 0; i < 500; ++i) {
    const auto pos = rng.next_below(genome.size() - 100);
    reads.add(io::Read{"r" + std::to_string(i), genome.substr(pos, 100), "",
                       kInvalidRead, false});
    members.push_back(static_cast<ReadId>(i));
  }
  for (auto _ : state) {
    align::KmerIndex index(reads, members, 14);
    benchmark::DoNotOptimize(index.posting_count());
  }
}
BENCHMARK(BM_KmerIndexBuild);

void BM_BandedNwScoreOnly(benchmark::State& state) {
  const auto band = static_cast<std::uint32_t>(state.range(0));
  const auto a = random_dna(4, 100);
  auto b = a;
  b[10] = b[10] == 'A' ? 'C' : 'A';
  b[50] = b[50] == 'G' ? 'T' : 'G';
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::banded_score_only(a, b, band));
  }
}
BENCHMARK(BM_BandedNwScoreOnly)->Arg(8)->Arg(16);

void BM_BandedNwScoreOnlyScalar(benchmark::State& state) {
  const auto band = static_cast<std::uint32_t>(state.range(0));
  const auto a = random_dna(4, 100);
  auto b = a;
  b[10] = b[10] == 'A' ? 'C' : 'A';
  b[50] = b[50] == 'G' ? 'T' : 'G';
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        align::detail::banded_score_only_scalar(a, b, band));
  }
}
BENCHMARK(BM_BandedNwScoreOnlyScalar)->Arg(8)->Arg(16);

void BM_ThreadPoolDispatch(benchmark::State& state) {
  // Pure pool overhead: scatter + steal + join of trivially small chunks.
  ThreadPool pool(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    std::size_t sink = 0;
    pool.parallel_for(1024, 16, [&](std::size_t b, std::size_t e) {
      benchmark::DoNotOptimize(b + e);
      (void)sink;
    });
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_ThreadPoolDispatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_FindOverlapsPool(benchmark::State& state) {
  // The §II-B hot path end to end: the rank driver at one rank on a stage-2
  // pool of the given width.
  Rng rng(14);
  const auto genome = random_dna(15, 40000);
  io::ReadSet reads;
  for (int i = 0; i < 800; ++i) {
    const auto pos = rng.next_below(genome.size() - 100);
    reads.add(io::Read{"r" + std::to_string(i), genome.substr(pos, 100), "",
                       kInvalidRead, false});
  }
  align::OverlapperConfig cfg;
  cfg.k = 14;
  cfg.threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        align::find_overlaps_parallel(reads, cfg, 1).overlaps.size());
  }
}
BENCHMARK(BM_FindOverlapsPool)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_HeavyEdgeMatchingPool(benchmark::State& state) {
  const auto g = random_graph(16, 20000, 60000);
  ThreadPool pool(static_cast<unsigned>(state.range(0)));
  Rng rng(17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::heavy_edge_matching(g, rng, 0, &pool));
  }
}
BENCHMARK(BM_HeavyEdgeMatchingPool)->Arg(1)->Arg(2)->Arg(4);

void BM_HeavyEdgeMatching(benchmark::State& state) {
  const auto g = random_graph(7, static_cast<std::size_t>(state.range(0)),
                              3 * static_cast<std::size_t>(state.range(0)));
  Rng rng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::heavy_edge_matching(g, rng));
  }
}
BENCHMARK(BM_HeavyEdgeMatching)->Arg(1000)->Arg(10000);

void BM_CoarsenFull(benchmark::State& state) {
  const auto g = random_graph(9, static_cast<std::size_t>(state.range(0)),
                              3 * static_cast<std::size_t>(state.range(0)));
  graph::CoarsenConfig cfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::build_multilevel(g, cfg).depth());
  }
}
BENCHMARK(BM_CoarsenFull)->Arg(1000)->Arg(10000);

void BM_GreedyGraphGrowing(benchmark::State& state) {
  const auto g = random_graph(10, static_cast<std::size_t>(state.range(0)),
                              3 * static_cast<std::size_t>(state.range(0)));
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(partition::greedy_graph_growing(g, rng));
  }
}
BENCHMARK(BM_GreedyGraphGrowing)->Arg(1000)->Arg(10000);

void BM_KlRefine(benchmark::State& state) {
  const auto g = random_graph(12, static_cast<std::size_t>(state.range(0)),
                              3 * static_cast<std::size_t>(state.range(0)));
  Rng rng(13);
  const auto initial = partition::greedy_graph_growing(g, rng);
  for (auto _ : state) {
    auto part = initial;
    benchmark::DoNotOptimize(partition::kl_bisection_refine(g, part));
  }
}
BENCHMARK(BM_KlRefine)->Arg(200)->Arg(800);

// Branchy assembly graph for the transitive-reduction scan: a backbone chain
// with shortcut edges (the transitive candidates) plus random cross edges so
// most nodes clear the out-degree >= 2 gate.
dist::AsmGraph random_asm_graph(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  dist::AsmGraph g;
  for (std::size_t v = 0; v < n; ++v) {
    g.add_node(random_dna(seed + v, 60), 2);
  }
  for (std::size_t v = 0; v + 1 < n; ++v) {
    g.add_edge(static_cast<NodeId>(v), static_cast<NodeId>(v + 1), 30);
  }
  for (std::size_t v = 0; v + 2 < n; v += 2) {
    g.add_edge(static_cast<NodeId>(v), static_cast<NodeId>(v + 2), 10);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto u = static_cast<NodeId>(rng.next_below(n));
    const auto v = static_cast<NodeId>(rng.next_below(n));
    if (u != v && !g.find_edge(u, v).has_value()) g.add_edge(u, v, 5);
  }
  return g;
}

// The pre-epoch kernel: a fresh unordered_set of direct successors per
// scanned node. Kept inline here as the baseline the epoch-stamped scratch
// in find_transitive_edges is measured against.
std::vector<dist::EdgeId> transitive_with_set(const dist::AsmGraph& g,
                                        std::span<const NodeId> scan) {
  std::vector<dist::EdgeId> found;
  for (const NodeId v : scan) {
    if (!g.node_live(v)) continue;
    const auto out = g.live_out(v);
    if (out.size() < 2) continue;
    std::unordered_set<NodeId> direct;
    direct.reserve(out.size());
    for (const dist::EdgeId e : out) direct.insert(g.edge(e).to);
    for (const dist::EdgeId mid : out) {
      const NodeId w = g.edge(mid).to;
      for (const dist::EdgeId far : g.live_out(w)) {
        const NodeId x = g.edge(far).to;
        if (x == v || direct.find(x) == direct.end()) continue;
        const auto vx = g.find_edge(v, x);
        if (vx.has_value()) found.push_back(*vx);
      }
    }
  }
  return found;
}

void BM_TransitiveScanSetBaseline(benchmark::State& state) {
  const auto g =
      random_asm_graph(20, static_cast<std::size_t>(state.range(0)));
  std::vector<NodeId> all(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) all[v] = v;
  for (auto _ : state) {
    benchmark::DoNotOptimize(transitive_with_set(g, all).size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TransitiveScanSetBaseline)->Arg(1000)->Arg(10000);

void BM_TransitiveScanEpochMarks(benchmark::State& state) {
  const auto g =
      random_asm_graph(20, static_cast<std::size_t>(state.range(0)));
  std::vector<NodeId> all(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) all[v] = v;
  dist::TransitiveScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dist::find_transitive_edges(g, all, scratch, nullptr).size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TransitiveScanEpochMarks)->Arg(1000)->Arg(10000);

void BM_MprPingPong(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto stats = mpr::Runtime::execute(2, [&](mpr::Comm& comm) {
      if (comm.rank() == 0) {
        mpr::Message m;
        m.pack_vector(std::vector<std::uint8_t>(bytes, 1));
        comm.send(1, 0, std::move(m));
        comm.recv(1, 1);
      } else {
        comm.recv(0, 0);
        mpr::Message m;
        m.pack<std::uint8_t>(1);
        comm.send(0, 1, std::move(m));
      }
    });
    benchmark::DoNotOptimize(stats.makespan);
  }
}
BENCHMARK(BM_MprPingPong)->Arg(64)->Arg(65536);

void BM_MprAllreduce(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const auto stats = mpr::Runtime::execute(ranks, [](mpr::Comm& comm) {
      benchmark::DoNotOptimize(comm.allreduce_sum(comm.rank()));
    });
    benchmark::DoNotOptimize(stats.makespan);
  }
}
BENCHMARK(BM_MprAllreduce)->Arg(2)->Arg(8)->Arg(16);

}  // namespace

BENCHMARK_MAIN();
