// Ablation — Kernighan–Lin pair-search strategies (paper §IV-B).
//
// The paper motivates the sorted-array + diagonal-scanning pair search
// (O(n² log n)) over the naive all-pairs search (O(n³)), plus the
// 50-idle-swap early stop. This ablation measures the heap diagonal scan,
// the chunked bounded scan (forced via KlConfig::pair_chunk_min_nodes = 0),
// and the naive all-pairs search, plus the effect of the idle cutoff on
// work and cut quality. All
// strategies select the same total-order argmax pair every swap, so cuts
// must agree exactly; only work and wall time differ.
#include "bench_common.hpp"

#include <cstdint>

#include "common/rng.hpp"
#include "partition/ggg.hpp"
#include "partition/kl.hpp"
#include "partition/partition.hpp"

namespace {

focus::graph::Graph random_graph(std::uint64_t seed, std::size_t n,
                                 std::size_t extra) {
  focus::Rng rng(seed);
  focus::graph::GraphBuilder b(n);
  for (focus::NodeId v = 1; v < n; ++v) {
    b.add_edge(v, static_cast<focus::NodeId>(rng.next_below(v)),
               1 + static_cast<focus::Weight>(rng.next_below(50)));
  }
  for (std::size_t i = 0; i < extra; ++i) {
    const auto u = static_cast<focus::NodeId>(rng.next_below(n));
    const auto v = static_cast<focus::NodeId>(rng.next_below(n));
    if (u != v) {
      b.add_edge(u, v, 1 + static_cast<focus::Weight>(rng.next_below(50)));
    }
  }
  return b.build();
}

}  // namespace

int main() {
  using namespace focus;
  using namespace focus::bench;

  print_header("ABLATION — KL pair-search strategy and idle-swap cutoff");

  const std::vector<int> widths{8, 26, 14, 16, 12};
  print_row({"n", "Strategy", "Cut", "Work units", "Wall (ms)"}, widths);

  for (const std::size_t n : {64, 128, 256, 512, 2048}) {
    const auto g = random_graph(0xab1 + n, n, 3 * n);

    struct Variant {
      const char* name;
      partition::KlConfig cfg;
    };
    partition::KlConfig heap;
    heap.pair_chunk_min_nodes = SIZE_MAX;  // never switch to chunks
    partition::KlConfig chunked;
    chunked.pair_chunk_min_nodes = 0;  // always chunk
    partition::KlConfig naive;
    naive.diagonal_scanning = false;
    partition::KlConfig no_idle_stop;
    no_idle_stop.pair_chunk_min_nodes = SIZE_MAX;
    no_idle_stop.idle_swap_limit = 100000;  // effectively disabled

    const Variant variants[] = {
        {"heap diagonal-scan (paper)", heap},
        {"chunked bounded scan", chunked},
        {"naive all-pairs", naive},
        {"heap, no idle stop", no_idle_stop},
    };

    for (const auto& variant : variants) {
      Rng rng(9);
      auto part = partition::greedy_graph_growing(g, rng);
      double work = 0.0;
      Timer timer;
      const Weight cut =
          partition::kl_bisection_refine(g, part, variant.cfg, &work);
      print_row({std::to_string(n), variant.name, std::to_string(cut),
                 fmt(work, 0), fmt(timer.seconds() * 1e3, 1)},
                widths);
    }
    std::printf("\n");
  }

  std::printf(
      "Expected: every strategy lands on the same cut (same argmax pair "
      "every\nswap). The diagonal/chunked scans need far less work than the "
      "naive search\n(the gap grows with n, reflecting O(n^2 log n) vs "
      "O(n^3)); the chunked scan\ncharges work comparable to the heap scan "
      "(both prune via the sorted-D bound,\nwith different charging: per "
      "evaluated pair vs per heap operation);\ndisabling the idle cutoff "
      "adds work without improving the cut.\n");
  return 0;
}
