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
// Three measurements per dataset, all recorded in the BENCH json:
//  A. the paper's experiment in deterministic virtual time (mpr makespan,
//     ranks 1..12) — answers the cluster-scaling question;
//  B. wall-clock of the pooled host driver (PartitionerConfig::threads in
//     {1,2,4,8}); every pooled run is checked byte-identical — part vectors
//     at every level, cut, and work accounting — against the width-1
//     reference, and the bench exits nonzero on a mismatch;
//  C. a modeled pool speedup: greedy list-scheduling of the measured
//     per-region work grid (HierarchyPartitioning::step_work/kway_work) over
//     w workers, respecting the recursion-tree dependencies. This isolates
//     the algorithmic parallelism from the host's core count, so the curve
//     is meaningful even on a single-core machine (where B cannot win).
//     Two task models are reported: the monolithic one (each region task is
//     an indivisible block of step_work[s][r] units — the historical curve,
//     which plateaus near 1.5x because the root bisection is one serial
//     task) and a split one that uses the intra-bisection accounting
//     (step_trial_work/step_pooled_work): a region task at width w takes
//     serial_rest + max(sum(trials)/w, max(trial)) + pooled/w units, since
//     the initial-bisection trials and the KL scoring/pair-search loops run
//     on the pool.
//  D. the same wall-clock + modeled sweep with trials = 8 multi-trial
//     initial bisections, the configuration that actually feeds the pool
//     inside the root bisection and lifts the plateau.
//
// --smoke shrinks the workload (dataset 1 only, scale 0.15, coverage 3) so
// the run doubles as the perf-smoke ctest.
#include "bench_common.hpp"

#include <cstdlib>
#include <cstring>
#include <queue>
#include <string>
#include <thread>

#include "common/stats.hpp"
#include "partition/mlpart.hpp"

namespace {

using namespace focus;

// Greedy list scheduling of the measured work grid on `workers` identical
// workers. Bisection tasks obey the recursion-tree precedence (region (s,r)
// unlocks (s+1,r) and (s+1,r+2^s)); the k-way level refinements all start
// after the tree completes (the driver's phase barrier). Returns the modeled
// makespan in work units.
double modeled_makespan(const partition::HierarchyPartitioning& p,
                        unsigned workers, bool split_tasks) {
  // Worker free times.
  std::priority_queue<double, std::vector<double>, std::greater<>> free_at;
  for (unsigned w = 0; w < workers; ++w) free_at.push(0.0);

  const auto run_task = [&](double ready, double work) {
    double start = free_at.top();
    free_at.pop();
    start = std::max(start, ready);
    const double finish = start + work;
    free_at.push(finish);
    return finish;
  };

  // Effective duration of the region task (s, r). The monolithic model
  // charges the whole block; the split model lets the pool absorb the
  // intra-bisection parallel parts — the initial-bisection trials (bounded
  // below by the longest single trial, a chain) and the pooled KL scoring /
  // pair-search loops (embarrassingly parallel) — while the rest of the
  // task stays a serial chain.
  const auto task_duration = [&](std::size_t s, std::size_t r) {
    const double total = p.step_work[s][r];
    if (!split_tasks || workers <= 1) return total;
    double trial_sum = 0.0;
    double trial_max = 0.0;
    if (s < p.step_trial_work.size() && r < p.step_trial_work[s].size()) {
      for (const double t : p.step_trial_work[s][r]) {
        trial_sum += t;
        trial_max = std::max(trial_max, t);
      }
    }
    double pooled = 0.0;
    if (s < p.step_pooled_work.size() && r < p.step_pooled_work[s].size()) {
      pooled = p.step_pooled_work[s][r];
    }
    const double serial_rest = total - trial_sum - pooled;
    const double w = static_cast<double>(workers);
    return serial_rest + std::max(trial_sum / w, trial_max) + pooled / w;
  };

  // Walk the tree step by step; finish[r] is the finish time of region r's
  // bisection in the current step (== ready time of its two children).
  std::vector<double> finish{0.0};
  double tree_done = 0.0;
  for (std::size_t s = 0; s < p.step_work.size(); ++s) {
    const auto& step = p.step_work[s];
    std::vector<double> next(step.size() * 2, 0.0);
    for (std::size_t r = 0; r < step.size(); ++r) {
      const double f = run_task(finish[r], task_duration(s, r));
      next[r] = f;
      next[r + step.size()] = f;
      tree_done = std::max(tree_done, f);
    }
    finish = std::move(next);
  }

  // Phase barrier, then the per-level k-way refinements in level order.
  while (!free_at.empty()) free_at.pop();
  for (unsigned w = 0; w < workers; ++w) free_at.push(tree_done);
  double done = tree_done;
  for (const double work : p.kway_work) {
    done = std::max(done, run_task(tree_done, work));
  }
  return done;
}

bool same_partitioning(const partition::HierarchyPartitioning& a,
                       const partition::HierarchyPartitioning& b) {
  return a.levels == b.levels && a.finest_cut == b.finest_cut &&
         std::memcmp(&a.work, &b.work, sizeof(double)) == 0 &&
         a.step_work == b.step_work && a.kway_work == b.kway_work &&
         a.step_trial_work == b.step_trial_work &&
         a.step_pooled_work == b.step_pooled_work;
}

}  // namespace

int main(int argc, char** argv) {
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
  const int max_ranks = smoke ? 4 : 12;
  const int runs = smoke ? 1 : 3;
  const int datasets = smoke ? 1 : sim::dataset_count();
  const std::vector<unsigned> pool_widths{1, 2, 4, 8};

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
  // Measured: host wall clock, or a result of the run itself. Modeled:
  // mpr virtual time, or list scheduling of the measured work grids.
  std::fprintf(f,
               "  \"provenance\": {\"measured\": [\"pool_wall\", "
               "\"trials_pool.finest_cut\", "
               "\"trials_pool.finest_cut_single_trial\", "
               "\"trials_pool.serial_seconds\", \"trials_pool.pool\", "
               "\"trials_pool.identical_output\"], \"modeled\": "
               "[\"fig4_vtime\", \"modeled_pool\", "
               "\"trials_pool.modeled\"]},\n");
  std::fprintf(f, "  \"datasets\": [\n");

  bool all_identical = true;

  for (std::size_t d = 0; d < bundles.size(); ++d) {
    const graph::GraphHierarchy& h = bundles[d].hybrid.hierarchy;
    std::fprintf(f, "    {\n      \"name\": \"%s\",\n",
                 bundles[d].dataset.name.c_str());

    // --- A: virtual-time rank sweep (the paper's Fig. 4). -----------------
    const std::vector<int> widths{8, 10, 16, 16, 12, 12};
    print_row({"Ranks", "Dataset", "vtime mean (s)", "vtime sd", "Speedup",
               "Wall (s)"},
              widths);
    std::fprintf(f, "      \"fig4_vtime\": [\n");
    std::vector<double> base_runs;
    for (int p = 1; p <= max_ranks; ++p) {
      std::vector<double> vtimes;
      double wall = 0.0;
      for (int run = 0; run < runs; ++run) {
        partition::PartitionerConfig cfg;
        cfg.seed = 1000ull + static_cast<std::uint64_t>(run);
        const auto result =
            partition::partition_hierarchy_parallel(h, kParts, cfg, p);
        vtimes.push_back(result.stats.makespan);
        wall += result.stats.wall_seconds;
      }
      if (p == 1) base_runs = vtimes;
      const double speedup = mean(base_runs) / mean(vtimes);
      print_row({std::to_string(p), bundles[d].dataset.name,
                 fmt(mean(vtimes), 4), fmt(stddev(vtimes), 4),
                 fmt(speedup, 2), fmt(wall, 2)},
                widths);
      std::fprintf(f,
                   "        {\"ranks\": %d, \"vtime_mean\": %.6f, "
                   "\"vtime_sd\": %.6f, \"speedup\": %.3f}%s\n",
                   p, mean(vtimes), stddev(vtimes), speedup,
                   p < max_ranks ? "," : "");
    }
    std::fprintf(f, "      ],\n");
    std::printf("\n");

    // --- B: wall-clock pooled host driver, identity-checked. --------------
    partition::PartitionerConfig cfg;
    cfg.seed = 1000;
    cfg.threads = 1;
    Timer t;
    const auto reference = partition::partition_hierarchy(h, kParts, cfg);
    const double serial_seconds = t.seconds();
    std::printf("pooled host driver (threads sweep, wall-clock)\n");
    std::printf("  %-10s %12s %10s %10s\n", "threads", "seconds", "speedup",
                "identical");
    std::printf("  %-10u %12.3f %10s %10s\n", 1u, serial_seconds, "1.00x",
                "ref");
    std::fprintf(f, "      \"pool_wall\": {\n");
    std::fprintf(f, "        \"serial_seconds\": %.6f,\n", serial_seconds);
    std::fprintf(f, "        \"pool\": [\n");
    bool identical = true;
    for (std::size_t w = 1; w < pool_widths.size(); ++w) {
      cfg.threads = pool_widths[w];
      Timer tw;
      const auto pooled = partition::partition_hierarchy(h, kParts, cfg);
      const double seconds = tw.seconds();
      const bool same = same_partitioning(reference, pooled);
      identical = identical && same;
      std::printf("  %-10u %12.3f %9.2fx %10s\n", pool_widths[w], seconds,
                  serial_seconds / seconds, same ? "yes" : "NO (BUG)");
      std::fprintf(f,
                   "          {\"threads\": %u, \"seconds\": %.6f, "
                   "\"speedup\": %.3f}%s\n",
                   pool_widths[w], seconds, serial_seconds / seconds,
                   w + 1 < pool_widths.size() ? "," : "");
    }
    all_identical = all_identical && identical;
    std::fprintf(f, "        ],\n");
    std::fprintf(f, "        \"identical_output\": %s\n      },\n",
                 identical ? "true" : "false");

    // --- C: modeled pool speedup from the measured work grid. -------------
    const double total_work = modeled_makespan(reference, 1, false);
    std::printf("\nmodeled pool speedup (list-scheduled work grid, "
                "total %.0f units)\n", total_work);
    std::printf("  %-10s %12s %10s\n", "threads", "monolithic", "split");
    std::fprintf(f, "      \"modeled_pool\": [\n");
    for (std::size_t w = 0; w < pool_widths.size(); ++w) {
      const double mono =
          total_work / modeled_makespan(reference, pool_widths[w], false);
      const double split =
          total_work / modeled_makespan(reference, pool_widths[w], true);
      std::printf("  %-10u %11.2fx %9.2fx\n", pool_widths[w], mono, split);
      std::fprintf(f,
                   "        {\"threads\": %u, \"speedup\": %.3f, "
                   "\"speedup_split\": %.3f}%s\n",
                   pool_widths[w], mono, split,
                   w + 1 < pool_widths.size() ? "," : "");
    }
    std::fprintf(f, "      ],\n");

    // --- D: multi-trial initial bisection (trials = 8), identity-checked. --
    partition::PartitionerConfig tcfg;
    tcfg.seed = 1000;
    tcfg.trials = 8;
    tcfg.threads = 1;
    Timer tt;
    const auto trials_ref = partition::partition_hierarchy(h, kParts, tcfg);
    const double trials_serial = tt.seconds();
    std::printf("\nmulti-trial root bisection (trials = %u)\n", tcfg.trials);
    std::printf("  %-10s %12s %10s %10s\n", "threads", "seconds", "speedup",
                "identical");
    std::printf("  %-10u %12.3f %10s %10s\n", 1u, trials_serial, "1.00x",
                "ref");
    std::fprintf(f, "      \"trials_pool\": {\n");
    std::fprintf(f, "        \"trials\": %u,\n", tcfg.trials);
    std::fprintf(f, "        \"finest_cut\": %lld,\n",
                 static_cast<long long>(trials_ref.finest_cut));
    std::fprintf(f, "        \"finest_cut_single_trial\": %lld,\n",
                 static_cast<long long>(reference.finest_cut));
    std::fprintf(f, "        \"serial_seconds\": %.6f,\n", trials_serial);
    std::fprintf(f, "        \"pool\": [\n");
    bool trials_identical = true;
    for (std::size_t w = 1; w < pool_widths.size(); ++w) {
      tcfg.threads = pool_widths[w];
      Timer tw;
      const auto pooled = partition::partition_hierarchy(h, kParts, tcfg);
      const double seconds = tw.seconds();
      const bool same = same_partitioning(trials_ref, pooled);
      trials_identical = trials_identical && same;
      std::printf("  %-10u %12.3f %9.2fx %10s\n", pool_widths[w], seconds,
                  trials_serial / seconds, same ? "yes" : "NO (BUG)");
      std::fprintf(f,
                   "          {\"threads\": %u, \"seconds\": %.6f, "
                   "\"speedup\": %.3f}%s\n",
                   pool_widths[w], seconds, trials_serial / seconds,
                   w + 1 < pool_widths.size() ? "," : "");
    }
    all_identical = all_identical && trials_identical;
    std::fprintf(f, "        ],\n");
    std::fprintf(f, "        \"identical_output\": %s,\n",
                 trials_identical ? "true" : "false");
    const double trials_total = modeled_makespan(trials_ref, 1, false);
    std::printf("  modeled (split model, total %.0f units)\n", trials_total);
    std::printf("  %-10s %10s\n", "threads", "speedup");
    std::fprintf(f, "        \"modeled\": [\n");
    for (std::size_t w = 0; w < pool_widths.size(); ++w) {
      const double speedup =
          trials_total / modeled_makespan(trials_ref, pool_widths[w], true);
      std::printf("  %-10u %9.2fx\n", pool_widths[w], speedup);
      std::fprintf(f, "          {\"threads\": %u, \"speedup\": %.3f}%s\n",
                   pool_widths[w], speedup,
                   w + 1 < pool_widths.size() ? "," : "");
    }
    std::fprintf(f, "        ]\n      }\n    }%s\n",
                 d + 1 < bundles.size() ? "," : "");
    std::printf("\n");
  }

  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  std::printf(
      "Expected shape (paper): speedup rises with ranks and levels off at "
      "~8-10\nbecause bisection offers 2^(log2 k - 1) = 8 concurrent tasks "
      "and k-way\nrefinement one task per graph level (~10 levels). The "
      "pool curves plateau\nnear 1.5x under the monolithic task model (the "
      "root bisection is one serial\ntask); the split model with trials = 8 "
      "feeds the pool inside the root\nbisection and lifts the plateau.\n");
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: pooled partitioning diverged from the serial "
                 "reference\n");
    return 1;
  }
  return 0;
}
