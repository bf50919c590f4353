// Fig. 4 — Graph partitioning speedup.
//
//   $ ./fig4_partition_speedup [--smoke] [output.json]
//
// Paper: speedup curve for partitioning the hybrid graph sets of the three
// read datasets into 16 partitions with 1..12 processors, three runs per
// point (random GGG seeds), mean ± sd; gains level off around 8–10
// processors because 2^(log2 16 − 1) = 8 bisection tasks and ~10 graph
// levels bound the available parallelism.
//
// Per dataset, recorded in the BENCH json:
//  A. the paper's experiment in deterministic virtual time: the mpr driver's
//     makespan at ranks 1..12. Every mpr run's partition (every level) and
//     finest cut is checked against the single-threaded recursion-tree
//     driver at the same seed; the bench exits nonzero on a mismatch.
//  B. multi-trial initial bisections: the serial driver's finest cut and
//     wall time with trials = 8 against trials = 1.
//
// --smoke shrinks the workload (dataset 1 only, scale 0.15, coverage 3,
// ranks 1..4, one run) so the run doubles as the perf-smoke ctest: a
// byte-identity gate between the two partitioning drivers.
#include "bench_common.hpp"

#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/stats.hpp"
#include "partition/mlpart.hpp"

int main(int argc, char** argv) {
  using namespace focus;
  using namespace focus::bench;

  bool smoke = false;
  std::string out_path = "BENCH_partition.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }
  if (smoke) {
    // prepare_dataset reads these; the smoke workload must stay ctest-sized.
    setenv("FOCUS_BENCH_SCALE", "0.15", 1);
    setenv("FOCUS_BENCH_COVERAGE", "3.0", 1);
  }

  constexpr PartId kParts = 16;
  constexpr unsigned kTrials = 8;
  const int max_ranks = smoke ? 4 : 12;
  const int runs = smoke ? 1 : 3;
  const int datasets = smoke ? 1 : sim::dataset_count();

  print_header(
      "FIG. 4 — Partitioning speedup on the hybrid graph sets "
      "(k = 16, 3 runs averaged)");

  std::vector<DatasetBundle> bundles;
  for (int d = 1; d <= datasets; ++d) {
    bundles.push_back(prepare_dataset(d));
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"partition\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"k\": %d,\n", static_cast<int>(kParts));
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  // Measured: host wall clock, or a result of the run itself. Modeled: mpr
  // virtual time.
  std::fprintf(f,
               "  \"provenance\": {\"measured\": [\"identical_output\", "
               "\"trials.finest_cut\", \"trials.finest_cut_single_trial\", "
               "\"trials.seconds\", \"trials.seconds_single_trial\"], "
               "\"modeled\": [\"fig4_vtime\"]},\n");
  std::fprintf(f, "  \"datasets\": [\n");

  bool all_identical = true;

  for (std::size_t d = 0; d < bundles.size(); ++d) {
    const graph::GraphHierarchy& h = bundles[d].hybrid.hierarchy;
    std::fprintf(f, "    {\n      \"name\": \"%s\",\n",
                 bundles[d].dataset.name.c_str());

    // Serial reference per run seed; run 0 (seed 1000) also serves as the
    // single-trial side of B.
    std::vector<partition::HierarchyPartitioning> references;
    double single_trial_seconds = 0.0;
    for (int run = 0; run < runs; ++run) {
      partition::PartitionerConfig cfg;
      cfg.seed = 1000ull + static_cast<std::uint64_t>(run);
      Timer t;
      references.push_back(partition::partition_hierarchy(h, kParts, cfg));
      if (run == 0) single_trial_seconds = t.seconds();
    }

    // --- A: virtual-time rank sweep (the paper's Fig. 4). -----------------
    const std::vector<int> widths{8, 10, 16, 16, 12, 12, 10};
    print_row({"Ranks", "Dataset", "vtime mean (s)", "vtime sd", "Speedup",
               "Wall (s)", "= serial"},
              widths);
    std::fprintf(f, "      \"fig4_vtime\": [\n");
    std::vector<double> base_runs;
    bool identical = true;
    for (int p = 1; p <= max_ranks; ++p) {
      std::vector<double> vtimes;
      double wall = 0.0;
      bool same = true;
      for (int run = 0; run < runs; ++run) {
        partition::PartitionerConfig cfg;
        cfg.seed = 1000ull + static_cast<std::uint64_t>(run);
        const auto result =
            partition::partition_hierarchy_parallel(h, kParts, cfg, p);
        vtimes.push_back(result.stats.makespan);
        wall += result.stats.wall_seconds;
        const auto& ref = references[static_cast<std::size_t>(run)];
        same = same && result.partitioning.levels == ref.levels &&
               result.partitioning.finest_cut == ref.finest_cut;
      }
      identical = identical && same;
      if (p == 1) base_runs = vtimes;
      const double speedup = mean(base_runs) / mean(vtimes);
      print_row({std::to_string(p), bundles[d].dataset.name,
                 fmt(mean(vtimes), 4), fmt(stddev(vtimes), 4),
                 fmt(speedup, 2), fmt(wall, 2), same ? "yes" : "NO (BUG)"},
                widths);
      std::fprintf(f,
                   "        {\"ranks\": %d, \"vtime_mean\": %.6f, "
                   "\"vtime_sd\": %.6f, \"speedup\": %.3f}%s\n",
                   p, mean(vtimes), stddev(vtimes), speedup,
                   p < max_ranks ? "," : "");
    }
    all_identical = all_identical && identical;
    std::fprintf(f, "      ],\n");
    std::fprintf(f, "      \"identical_output\": %s,\n",
                 identical ? "true" : "false");
    std::printf("\n");

    // --- B: multi-trial initial bisection (trials = 8 vs 1). ---------------
    partition::PartitionerConfig tcfg;
    tcfg.seed = 1000;
    tcfg.trials = kTrials;
    Timer tt;
    const auto multi = partition::partition_hierarchy(h, kParts, tcfg);
    const double multi_seconds = tt.seconds();
    const auto& single = references.front();
    std::printf("multi-trial root bisection, serial driver\n");
    std::printf("  %-10s %12s %12s\n", "trials", "finest cut", "seconds");
    std::printf("  %-10u %12lld %12.3f\n", 1u,
                static_cast<long long>(single.finest_cut),
                single_trial_seconds);
    std::printf("  %-10u %12lld %12.3f\n", kTrials,
                static_cast<long long>(multi.finest_cut), multi_seconds);
    std::fprintf(f, "      \"trials\": {\n");
    std::fprintf(f, "        \"trials\": %u,\n", kTrials);
    std::fprintf(f, "        \"finest_cut\": %lld,\n",
                 static_cast<long long>(multi.finest_cut));
    std::fprintf(f, "        \"finest_cut_single_trial\": %lld,\n",
                 static_cast<long long>(single.finest_cut));
    std::fprintf(f, "        \"seconds\": %.6f,\n", multi_seconds);
    std::fprintf(f, "        \"seconds_single_trial\": %.6f\n",
                 single_trial_seconds);
    std::fprintf(f, "      }\n    }%s\n", d + 1 < bundles.size() ? "," : "");
    std::printf("\n");
  }

  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  std::printf(
      "Expected shape (paper): speedup rises with ranks and levels off at "
      "~8-10\nbecause bisection offers 2^(log2 k - 1) = 8 concurrent tasks "
      "and k-way\nrefinement one task per graph level (~10 levels). Every "
      "mpr run must equal\nthe serial driver's partition.\n");
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: the mpr partitioning diverged from the serial "
                 "driver\n");
    return 1;
  }
  return 0;
}
