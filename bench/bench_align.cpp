// Alignment-kernel benchmark: hashed k-mer seeding + two-pass banded NW vs
// the suffix-array reference backend, recorded as a BENCH json.
//
//   $ ./bench_align [--smoke] [output.json]
//
// Reports, on the D1 simulated dataset (FOCUS_BENCH_SCALE /
// FOCUS_BENCH_COVERAGE apply in full mode):
//   * allocations per banded_global_align() / banded_score_only() call and
//     per query_overlaps_into() query (both seed backends) after warmup,
//     counted by a global operator-new override — must be zero;
//   * single-thread end-to-end overlap detection for both seed backends
//     (reads/s and verified-overlaps/s), with the hash-vs-suffix-array
//     speedup — the suffix-array path is the pre-overhaul kernel;
//   * the hashed backend through the rank driver at one rank
//     (find_overlaps_parallel) on stage 2's host pool at 1/2/4/8 threads,
//     with RunStats checked bit-identical across the widths;
//   * modeled overlap-stage scaling at 1/2/4/8 mpr ranks: virtual-time
//     makespans of the all-pairs pair-striping driver vs the recovering
//     driver (dist::overlap_parallel) on the same subset pairs under a plan
//     whose only crash point never fires, in both wire protocols. These come
//     from the vtime task model, not the host's cores, and every driver's
//     output is identity-checked against the reference first;
//   * heavy-edge-matching coarsening (build_multilevel) serial vs the pool
//     at 1/2/4/8 threads, on the overlap graph of the reference overlaps.
// Every timed run is checked byte-identical against its serial reference
// (the suffix-array overlap set, the serial coarsening hierarchy) before its
// timing is reported. The json's "provenance" object labels each field as
// measured (host wall clock or counter) or modeled (virtual time). Exit
// status is nonzero if any equivalence or zero-allocation check fails, so
// the smoke invocation doubles as a ctest (label: perf-smoke). Default
// output: BENCH_align.json.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "align/banded_nw.hpp"
#include "align/overlapper.hpp"
#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "dist/parallel.hpp"
#include "graph/coarsen.hpp"
#include "graph/graph.hpp"
#include "io/preprocess.hpp"
#include "sim/datasets.hpp"
#include "sim/genome.hpp"

// --- Global allocation counter ----------------------------------------------
// Counts every operator-new in the process; the kernel loops below snapshot
// it to prove the two-pass NW performs no heap allocation after warmup.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(a),
                                   (n + static_cast<std::size_t>(a) - 1) &
                                       ~(static_cast<std::size_t>(a) - 1))) {
    return p;
  }
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return ::operator new(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace focus;

constexpr unsigned kWidths[] = {1, 2, 4, 8};

double best_of(int repeats, const std::function<double()>& run_once) {
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    const double t = run_once();
    if (r == 0 || t < best) best = t;
  }
  return best;
}

bool same_overlaps(const std::vector<align::Overlap>& a,
                   const std::vector<align::Overlap>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].query != b[i].query || a[i].ref != b[i].ref ||
        a[i].length != b[i].length || a[i].identity != b[i].identity ||
        a[i].kind != b[i].kind) {
      return false;
    }
  }
  return true;
}

// Zero-allocation proof for the two-pass kernel: warm the thread-local
// scratch with the largest geometry used, then count allocations across many
// calls of both passes. Band 8 runs the AVX2 kernel where the host has it and
// band 16 the scalar one, so the calls alternate between them.
struct AllocProbe {
  std::uint64_t full_pass_allocs = 0;
  std::uint64_t score_pass_allocs = 0;
  std::uint64_t calls = 0;
};

AllocProbe probe_kernel_allocations() {
  Rng rng(20250806);
  const std::string a = sim::random_genome(400, rng);
  std::string b = a;
  for (int i = 0; i < 12; ++i) b[rng.next_below(b.size())] = 'T';
  constexpr std::uint32_t kBands[] = {8, 16};

  // Warmup: grows the scratch rows/moves/sequence copies to their
  // high-water mark under both kernels.
  for (const std::uint32_t band : kBands) {
    (void)align::banded_global_align(a, b, band);
    (void)align::banded_score_only(a, b, band);
  }

  AllocProbe probe;
  probe.calls = 2000;
  const auto before_full = g_allocations.load();
  for (std::uint64_t i = 0; i < probe.calls; ++i) {
    const auto r = align::banded_global_align(a, b, kBands[i % 2]);
    if (!r.valid) std::abort();
  }
  probe.full_pass_allocs = g_allocations.load() - before_full;

  const auto before_score = g_allocations.load();
  for (std::uint64_t i = 0; i < probe.calls; ++i) {
    const auto s = align::banded_score_only(a, b, kBands[i % 2]);
    if (!s.valid) std::abort();
  }
  probe.score_pass_allocs = g_allocations.load() - before_score;
  return probe;
}

// Zero-allocation proof for the seed-and-verify loop: warm the calling
// thread's scratch by querying every read of subset 0 against subset 0's
// index, then count allocations across a second pass over the same queries
// (records go to a vector that already has room for them). Returns the
// allocations of the second pass.
std::uint64_t probe_query_allocations(const io::ReadSet& reads,
                                      const align::OverlapperConfig& cfg,
                                      std::uint64_t& queries) {
  const auto subsets = io::split_into_subsets(reads.size(), cfg.subsets);
  const align::RefIndex index(reads, subsets[0], cfg);
  align::AlignScratch& scratch = align::tls_align_scratch();
  std::vector<align::Overlap> out;
  for (const ReadId q : subsets[0]) {
    align::query_overlaps_into(reads, index, q, cfg, scratch, out);
  }
  const std::size_t warm = out.size();
  out.clear();
  const auto before = g_allocations.load();
  for (const ReadId q : subsets[0]) {
    align::query_overlaps_into(reads, index, q, cfg, scratch, out);
  }
  const std::uint64_t allocs = g_allocations.load() - before;
  if (out.size() != warm) std::abort();
  queries = subsets[0].size();
  return allocs;
}

struct BackendRun {
  double seconds = 0.0;
  double reads_per_s = 0.0;
  double overlaps_per_s = 0.0;
};

BackendRun timed_run(const io::ReadSet& reads, align::OverlapperConfig cfg,
                     int repeats, std::size_t overlap_count) {
  BackendRun out;
  out.seconds = best_of(repeats, [&] {
    Timer t;
    const auto found = align::find_overlaps_parallel(reads, cfg, 1).overlaps;
    if (found.size() != overlap_count) std::abort();
    return t.seconds();
  });
  out.reads_per_s = static_cast<double>(reads.size()) / out.seconds;
  out.overlaps_per_s = static_cast<double>(overlap_count) / out.seconds;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_align.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }

  // Smoke mode pins a tiny deterministic dataset (finishes in well under two
  // seconds) so the perf-smoke ctest exercises every code path cheaply.
  const double scale = smoke ? 0.15 : bench::bench_scale();
  const double coverage = smoke ? 3.0 : bench::bench_coverage();
  const int repeats = smoke ? 1 : 3;

  std::fprintf(stderr, "[bench_align] dataset D1 scale=%.2f coverage=%.1f\n",
               scale, coverage);
  const sim::Dataset dataset = sim::make_dataset(1, scale, coverage);
  const io::ReadSet reads = io::preprocess(dataset.data.reads, {});

  align::OverlapperConfig cfg = bench::bench_config().overlap;
  cfg.threads = 1;

  // Reference: suffix-array backend, serial — the pre-overhaul kernel.
  cfg.seed_backend = align::SeedBackend::kSuffixArray;
  const auto reference = align::find_overlaps_serial(reads, cfg);
  std::fprintf(stderr, "[bench_align] %zu reads, %zu overlaps\n", reads.size(),
               reference.size());

  bool all_identical = true;

  // 1 — zero-allocation proofs: the NW kernel, then the query loop on both
  // seed backends (this thread's scratch, one rank, no pool).
  const AllocProbe probe = probe_kernel_allocations();
  std::uint64_t probe_queries = 0;
  std::uint64_t query_allocs = probe_query_allocations(reads, cfg,
                                                       probe_queries);
  cfg.seed_backend = align::SeedBackend::kKmerHash;
  query_allocs += probe_query_allocations(reads, cfg, probe_queries);
  probe_queries *= 2;

  // 2 — backend comparison at one thread: the rank driver at one rank on a
  // width-1 pool.
  cfg.seed_backend = align::SeedBackend::kSuffixArray;
  {
    const auto check = align::find_overlaps_parallel(reads, cfg, 1);
    all_identical &= same_overlaps(check.overlaps, reference);
  }
  const BackendRun sa_run = timed_run(reads, cfg, repeats, reference.size());
  cfg.seed_backend = align::SeedBackend::kKmerHash;
  {
    const auto check = align::find_overlaps_parallel(reads, cfg, 1);
    all_identical &= same_overlaps(check.overlaps, reference);
  }
  const BackendRun hash_run = timed_run(reads, cfg, repeats, reference.size());
  const double kernel_speedup = sa_run.seconds / hash_run.seconds;

  // 3 — hashed backend on stage 2's host pool: the rank driver at one rank,
  // across pool widths. Overlaps and RunStats must not depend on the width.
  std::vector<BackendRun> pool_runs;
  mpr::RunStats width_one;
  for (const unsigned width : kWidths) {
    cfg.threads = width;
    const auto check = align::find_overlaps_parallel(reads, cfg, 1);
    all_identical &= same_overlaps(check.overlaps, reference);
    if (width == 1) width_one = check.stats;
    all_identical &= check.stats.makespan == width_one.makespan &&
                     check.stats.rank_vtime == width_one.rank_vtime;
    pool_runs.push_back(timed_run(reads, cfg, repeats, reference.size()));
  }

  // 4 — modeled overlap-stage scaling over mpr ranks. Every makespan comes
  // from the same virtual-time cost model, so the comparison is
  // driver-vs-driver, not confounded by host parallelism. The recovering
  // driver runs under a plan whose only crash point never fires: nothing is
  // injected, so it pays only its protocol's messages (and, symmetric, the
  // write-ahead-log replication of the merged set).
  struct ModeledRun {
    int ranks = 0;
    double all_pairs_makespan = 0.0;
    double recovering_master_makespan = 0.0;
    double recovering_symmetric_makespan = 0.0;
  };
  std::vector<ModeledRun> modeled_runs;
  mpr::FaultPlan never_firing;
  never_firing.crashes.push_back({1, std::uint64_t{1} << 62});
  cfg.threads = 1;
  for (const unsigned width : kWidths) {
    ModeledRun m;
    m.ranks = static_cast<int>(width);
    {
      const auto r = align::find_overlaps_parallel(reads, cfg, m.ranks);
      all_identical &= same_overlaps(r.overlaps, reference);
      m.all_pairs_makespan = r.stats.makespan;
    }
    for (const auto protocol :
         {dist::DistProtocol::kMaster, dist::DistProtocol::kSymmetric}) {
      const auto r = dist::overlap_parallel(reads, cfg, m.ranks, {},
                                            never_firing, {}, {protocol});
      all_identical &= same_overlaps(r.overlaps, reference);
      (protocol == dist::DistProtocol::kMaster
           ? m.recovering_master_makespan
           : m.recovering_symmetric_makespan) = r.run.makespan;
    }
    modeled_runs.push_back(m);
  }

  // 5 — heavy-edge-matching coarsening, serial vs the pool. Graphs below
  // the pooled-matching size threshold run serially at every width.
  const graph::Graph g0 = graph::build_overlap_graph(reads.size(), reference);
  graph::CoarsenConfig ccfg = bench::bench_config().coarsen;
  ccfg.threads = 1;
  graph::GraphHierarchy serial_hierarchy;
  const double coarsen_serial_seconds = best_of(repeats, [&] {
    Timer t;
    serial_hierarchy = graph::build_multilevel(g0, ccfg);
    return t.seconds();
  });
  std::vector<double> coarsen_pool_seconds;
  for (const unsigned width : kWidths) {
    ccfg.threads = width;
    graph::GraphHierarchy pooled;
    coarsen_pool_seconds.push_back(best_of(repeats, [&] {
      Timer t;
      pooled = graph::build_multilevel(g0, ccfg);
      return t.seconds();
    }));
    all_identical &= pooled.parent == serial_hierarchy.parent &&
                     pooled.depth() == serial_hierarchy.depth();
  }

  const bool zero_alloc = probe.full_pass_allocs == 0 &&
                          probe.score_pass_allocs == 0 && query_allocs == 0;

  std::printf("\nalignment kernel (D1, %zu reads, %zu overlaps)\n",
              reads.size(), reference.size());
  std::printf("  allocations per banded_global_align after warmup: %.4f\n",
              static_cast<double>(probe.full_pass_allocs) /
                  static_cast<double>(probe.calls));
  std::printf("  allocations per banded_score_only after warmup:   %.4f\n",
              static_cast<double>(probe.score_pass_allocs) /
                  static_cast<double>(probe.calls));
  std::printf("  allocations per query_overlaps_into after warmup: %.4f\n",
              static_cast<double>(query_allocs) /
                  static_cast<double>(probe_queries));
  std::printf("  %-22s %10s %12s %16s\n", "kernel", "seconds", "reads/s",
              "overlaps/s");
  std::printf("  %-22s %10.3f %12.0f %16.0f\n", "suffix-array (pre-PR)",
              sa_run.seconds, sa_run.reads_per_s, sa_run.overlaps_per_s);
  std::printf("  %-22s %10.3f %12.0f %16.0f\n", "kmer-hash (this PR)",
              hash_run.seconds, hash_run.reads_per_s, hash_run.overlaps_per_s);
  std::printf("  single-thread speedup: %.2fx\n", kernel_speedup);
  std::printf("  kmer-hash, rank driver at 1 rank on the stage-2 pool:\n");
  for (std::size_t w = 0; w < pool_runs.size(); ++w) {
    std::printf("    %u threads: %10.3f s %12.0f reads/s\n", kWidths[w],
                pool_runs[w].seconds, pool_runs[w].reads_per_s);
  }
  std::printf("  modeled overlap-stage scaling (vtime makespan):\n");
  std::printf("    %6s %14s %10s %16s %19s\n", "ranks", "all-pairs", "spdup",
              "recovering/master", "recovering/symmetric");
  for (const auto& m : modeled_runs) {
    std::printf("    %6d %14.6f %9.2fx %16.6f %19.6f\n", m.ranks,
                m.all_pairs_makespan,
                modeled_runs[0].all_pairs_makespan / m.all_pairs_makespan,
                m.recovering_master_makespan,
                m.recovering_symmetric_makespan);
  }
  std::printf("  HEM coarsening (%zu levels): serial %.3f s\n",
              serial_hierarchy.depth(), coarsen_serial_seconds);
  for (std::size_t w = 0; w < coarsen_pool_seconds.size(); ++w) {
    std::printf("    %u threads: %10.3f s %9.2fx\n", kWidths[w],
                coarsen_pool_seconds[w],
                coarsen_serial_seconds / coarsen_pool_seconds[w]);
  }
  std::printf("  output identical across backends/widths/drivers: %s\n",
              all_identical ? "yes" : "NO (BUG)");

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[bench_align] cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"align_kernel\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f,
               "  \"provenance\": {\"measured\": [\"allocs_per_full_pass\", "
               "\"allocs_per_score_pass\", \"allocs_per_query\", "
               "\"suffix_array\", "
               "\"kmer_hash\", \"single_thread_speedup\", "
               "\"kmer_hash_pool\", \"coarsen_hem\"], \"modeled\": "
               "[\"modeled_overlap_scaling\"]},\n");
  std::fprintf(f, "  \"dataset\": \"D1\",\n");
  std::fprintf(f, "  \"scale\": %.3f,\n", scale);
  std::fprintf(f, "  \"coverage\": %.3f,\n", coverage);
  std::fprintf(f, "  \"reads\": %zu,\n", reads.size());
  std::fprintf(f, "  \"overlaps\": %zu,\n", reference.size());
  std::fprintf(f, "  \"identical_output\": %s,\n",
               all_identical ? "true" : "false");
  std::fprintf(f, "  \"allocs_per_full_pass\": %.6f,\n",
               static_cast<double>(probe.full_pass_allocs) /
                   static_cast<double>(probe.calls));
  std::fprintf(f, "  \"allocs_per_score_pass\": %.6f,\n",
               static_cast<double>(probe.score_pass_allocs) /
                   static_cast<double>(probe.calls));
  std::fprintf(f, "  \"allocs_per_query\": %.6f,\n",
               static_cast<double>(query_allocs) /
                   static_cast<double>(probe_queries));
  std::fprintf(f,
               "  \"suffix_array\": {\"seconds\": %.6f, \"reads_per_s\": %.1f,"
               " \"overlaps_per_s\": %.1f},\n",
               sa_run.seconds, sa_run.reads_per_s, sa_run.overlaps_per_s);
  std::fprintf(f,
               "  \"kmer_hash\": {\"seconds\": %.6f, \"reads_per_s\": %.1f,"
               " \"overlaps_per_s\": %.1f},\n",
               hash_run.seconds, hash_run.reads_per_s, hash_run.overlaps_per_s);
  std::fprintf(f, "  \"single_thread_speedup\": %.3f,\n", kernel_speedup);
  std::fprintf(f, "  \"kmer_hash_pool\": [\n");
  for (std::size_t w = 0; w < pool_runs.size(); ++w) {
    std::fprintf(f,
                 "    {\"threads\": %u, \"seconds\": %.6f, "
                 "\"reads_per_s\": %.1f}%s\n",
                 kWidths[w], pool_runs[w].seconds, pool_runs[w].reads_per_s,
                 w + 1 < pool_runs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"coarsen_hem\": {\"levels\": %zu, "
               "\"serial_seconds\": %.6f, \"pool\": [\n",
               serial_hierarchy.depth(), coarsen_serial_seconds);
  for (std::size_t w = 0; w < coarsen_pool_seconds.size(); ++w) {
    std::fprintf(f,
                 "    {\"threads\": %u, \"seconds\": %.6f, "
                 "\"speedup\": %.3f}%s\n",
                 kWidths[w], coarsen_pool_seconds[w],
                 coarsen_serial_seconds / coarsen_pool_seconds[w],
                 w + 1 < coarsen_pool_seconds.size() ? "," : "");
  }
  std::fprintf(f, "  ]},\n");
  std::fprintf(f, "  \"modeled_overlap_scaling\": [\n");
  for (std::size_t w = 0; w < modeled_runs.size(); ++w) {
    const auto& m = modeled_runs[w];
    std::fprintf(
        f,
        "    {\"ranks\": %d, \"all_pairs_makespan\": %.9f, "
        "\"all_pairs_speedup\": %.3f, "
        "\"recovering_master_makespan\": %.9f, "
        "\"recovering_symmetric_makespan\": %.9f}%s\n",
        m.ranks, m.all_pairs_makespan,
        modeled_runs[0].all_pairs_makespan / m.all_pairs_makespan,
        m.recovering_master_makespan, m.recovering_symmetric_makespan,
        w + 1 < modeled_runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "[bench_align] wrote %s\n", out_path.c_str());

  if (!all_identical) return 1;
  if (!zero_alloc) return 1;
  return 0;
}
