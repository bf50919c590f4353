// Whole-pipeline chaos soak — the full FocusAssembler (plus the variant
// caller on its output graph) driven through crash-at-every-op sweeps and
// seeded mixed-fault storms (crash / drop / duplicate / corrupt / delay),
// across rank counts and wire protocols.
//
//   $ ./bench_fault_soak [--smoke] [output.json]
//
// Every faulted run is checked byte-identical to the fault-free oracle of
// its dataset: contigs, assembly stats, partition cut, variant list and the
// GFA bytes of the recovered graph. Per-stage fault-recovery counters
// (retries, ranks_failed, recovery_vtime) are recorded per run into the JSON
// report; the summary counts unrecovered runs, which must be zero — exit
// status is nonzero otherwise, so the smoke invocation doubles as a ctest
// (label: perf-smoke). Default output: BENCH_fault_soak.json.
//
// Scale: the soak favors many runs over big runs, so the default workload
// is deliberately small (FOCUS_BENCH_SCALE defaults to 0.3 here, not the
// 1.0 of the table/figure drivers; FOCUS_BENCH_COVERAGE to 6).
#include "bench_common.hpp"

#include <cstring>
#include <map>
#include <sstream>

#include "dist/gfa.hpp"
#include "dist/parallel.hpp"
#include "dist/variants.hpp"

namespace {

using namespace focus;

constexpr PartId kGraphParts = 4;

double soak_scale() { return bench::bench_scale(0.3); }
double soak_coverage() { return bench::bench_coverage(6.0); }

core::FocusConfig soak_config(int ranks, dist::DistProtocol protocol) {
  core::FocusConfig cfg;
  // Stage 2 under the fault plan: the recovering subset-pair driver.
  cfg.overlap.strategy = align::SeedStrategy::kDistributedIndex;
  cfg.overlap.k = 14;
  cfg.overlap.min_kmer_hits = 3;
  cfg.overlap.min_overlap = 40;
  cfg.overlap.subsets = 2;
  cfg.coarsen.min_nodes = 32;
  cfg.coarsen.max_levels = 8;
  cfg.partitions = kGraphParts;
  cfg.ranks = ranks;
  cfg.min_contig_length = 150;
  cfg.fault_plan = mpr::FaultPlan{};
  cfg.fault = mpr::FaultConfig{};
  cfg.fault.max_retries = 32;
  cfg.dist.protocol = protocol;
  return cfg;
}

/// Node partition for the post-pipeline variant driver: striped over
/// the assembly graph, the same layout the driver fault tests use.
std::vector<PartId> striped_partition(std::size_t nodes) {
  std::vector<PartId> part(nodes);
  for (std::size_t v = 0; v < nodes; ++v) {
    part[v] = static_cast<PartId>(v % kGraphParts);
  }
  return part;
}

/// Everything a faulted run must reproduce byte-for-byte.
struct Expected {
  std::vector<std::string> contigs;
  std::uint64_t n50 = 0;
  std::uint64_t total_bases = 0;
  Weight finest_cut = 0;
  std::vector<dist::Variant> variants;
  std::string gfa;
};

/// Fault-free reference at one rank count. Traversal output is a function
/// of the rank count (subpath gather order feeds the greedy join), so each
/// rank count gets its own oracle; protocols remain output-equivalent at a
/// fixed rank count.
Expected make_oracle(const io::ReadSet& raw, int ranks) {
  const auto result = core::assemble_reads(
      raw, soak_config(ranks, dist::DistProtocol::kMaster));
  Expected e;
  e.contigs = result.contigs;
  e.n50 = result.stats.n50;
  e.total_bases = result.stats.total_bases;
  e.finest_cut = result.partitioning.finest_cut;
  double work = 0.0;
  e.variants = dist::find_variants_serial(result.assembly_graph, {}, &work);
  std::ostringstream gfa;
  dist::write_gfa(gfa, result.assembly_graph);
  e.gfa = gfa.str();
  return e;
}

bool same_variants(const std::vector<dist::Variant>& a,
                   const std::vector<dist::Variant>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].branch_point != b[i].branch_point ||
        a[i].merge_point != b[i].merge_point ||
        a[i].major_allele != b[i].major_allele ||
        a[i].minor_allele != b[i].minor_allele ||
        a[i].major_coverage != b[i].major_coverage ||
        a[i].minor_coverage != b[i].minor_coverage) {
      return false;
    }
  }
  return true;
}

/// Per-stage fault-recovery counters of one soak run.
struct StageStats {
  std::uint64_t retries = 0;
  int ranks_failed = 0;
  double recovery_vtime = 0.0;
};

struct RunRecord {
  std::string kind;  // "storm" | "crash"
  int dataset = 0;
  int ranks = 0;
  std::string protocol;
  std::uint64_t seed = 0;  // storm runs
  int victim = 0;          // crash runs
  std::uint64_t op = 0;    // crash runs
  bool ok = false;
  std::map<std::string, StageStats> stages;
};

StageStats stage_stats(const mpr::RunStats& run) {
  return {run.retries, run.ranks_failed, run.recovery_vtime};
}

/// Runs the full pipeline plus the variant driver under `cfg` and checks the
/// result, with the serial GFA bytes of the recovered graph, against `want`.
/// Fills `rec.stages` / `rec.ok`.
void soak_run(const io::ReadSet& raw, const core::FocusConfig& cfg,
              const Expected& want, RunRecord& rec) {
  const auto got = core::assemble_reads(raw, cfg);
  rec.stages["1-preprocess"] = stage_stats(got.preprocess_run);
  rec.stages["2-align"] = stage_stats(got.align_run);
  rec.stages["5-partition"] = stage_stats(got.partition_run);
  rec.stages["6-simplify"] = stage_stats(got.simplify_run);
  rec.stages["7-traverse"] = stage_stats(got.traverse_run);

  const auto part = striped_partition(got.assembly_graph.node_count());
  auto variants = dist::find_variants_parallel(
      got.assembly_graph, part, kGraphParts, {}, cfg.ranks, cfg.cost,
      cfg.fault_plan, cfg.fault, cfg.dist);
  rec.stages["8-variants"] = stage_stats(variants.run);
  std::ostringstream gfa;
  dist::write_gfa(gfa, got.assembly_graph);

  rec.ok = got.contigs == want.contigs && got.stats.n50 == want.n50 &&
           got.stats.total_bases == want.total_bases &&
           got.partitioning.finest_cut == want.finest_cut &&
           same_variants(variants.variants, want.variants) &&
           gfa.str() == want.gfa;
}

std::string protocol_name(dist::DistProtocol p) {
  return p == dist::DistProtocol::kSymmetric ? "symmetric" : "master";
}

void write_report(const std::string& path, bool smoke,
                  const std::vector<RunRecord>& runs) {
  std::uint64_t unrecovered = 0, total_retries = 0;
  std::uint64_t total_ranks_failed = 0;
  double total_recovery_vtime = 0.0;
  for (const auto& r : runs) {
    if (!r.ok) ++unrecovered;
    for (const auto& [stage, s] : r.stages) {
      total_retries += s.retries;
      total_ranks_failed += static_cast<std::uint64_t>(s.ranks_failed);
      total_recovery_vtime += s.recovery_vtime;
    }
  }

  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"fault_soak\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"scale\": %.3f,\n  \"coverage\": %.1f,\n", soak_scale(),
               soak_coverage());
  std::fprintf(f, "  \"runs\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& r = runs[i];
    std::fprintf(f,
                 "    {\"kind\": \"%s\", \"dataset\": \"D%d\", \"ranks\": %d, "
                 "\"protocol\": \"%s\", ",
                 r.kind.c_str(), r.dataset, r.ranks, r.protocol.c_str());
    if (r.kind == "storm") {
      std::fprintf(f, "\"seed\": %llu, ",
                   static_cast<unsigned long long>(r.seed));
    } else {
      std::fprintf(f, "\"victim\": %d, \"op\": %llu, ", r.victim,
                   static_cast<unsigned long long>(r.op));
    }
    std::fprintf(f, "\"ok\": %s, \"stages\": {", r.ok ? "true" : "false");
    bool first = true;
    for (const auto& [stage, s] : r.stages) {
      std::fprintf(f,
                   "%s\"%s\": {\"retries\": %llu, \"ranks_failed\": %d, "
                   "\"recovery_vtime\": %.6g}",
                   first ? "" : ", ", stage.c_str(),
                   static_cast<unsigned long long>(s.retries), s.ranks_failed,
                   s.recovery_vtime);
      first = false;
    }
    std::fprintf(f, "}}%s\n", i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"summary\": {\"runs\": %zu, \"unrecovered\": %llu, "
               "\"total_retries\": %llu, \"total_ranks_failed\": %llu, "
               "\"total_recovery_vtime\": %.6g}\n}\n",
               runs.size(), static_cast<unsigned long long>(unrecovered),
               static_cast<unsigned long long>(total_retries),
               static_cast<unsigned long long>(total_ranks_failed),
               total_recovery_vtime);
  std::fclose(f);
  std::fprintf(stderr, "[fault_soak] wrote %s (%zu runs, %llu unrecovered)\n",
               path.c_str(), runs.size(),
               static_cast<unsigned long long>(unrecovered));
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_fault_soak.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }

  const std::vector<int> datasets = smoke ? std::vector<int>{1}
                                          : std::vector<int>{1, 2, 3};
  const std::vector<int> rank_counts = smoke ? std::vector<int>{2, 4}
                                             : std::vector<int>{2, 4, 8};
  const std::uint64_t storm_seeds = smoke ? 8 : 50;
  const std::uint64_t crash_ops = smoke ? 4 : 8;
  const std::vector<dist::DistProtocol> protocols = {
      dist::DistProtocol::kMaster, dist::DistProtocol::kSymmetric};

  bench::print_header(std::string("Whole-pipeline fault soak ") +
                      (smoke ? "(smoke)" : "(full)"));

  std::vector<io::ReadSet> raws;
  // Oracle per (dataset, rank count): see make_oracle.
  std::map<std::pair<std::size_t, int>, Expected> oracles;
  for (std::size_t di = 0; di < datasets.size(); ++di) {
    raws.push_back(sim::make_dataset(datasets[di], soak_scale(),
                                     soak_coverage()).data.reads);
    for (const int ranks : rank_counts) {
      std::fprintf(stderr, "[fault_soak] preparing D%d ranks=%d oracle\n",
                   datasets[di], ranks);
      oracles.emplace(std::make_pair(di, ranks),
                      make_oracle(raws.back(), ranks));
    }
  }

  std::vector<RunRecord> runs;

  // Crash-at-every-op sweep: one victim per protocol (the master protocol
  // cannot lose rank 0; the symmetric one can) at each early op position —
  // the op counter restarts per stage, so one sweep position faults every
  // stage of the pipeline that reaches it.
  for (std::size_t di = 0; di < datasets.size(); ++di) {
    for (const int ranks : rank_counts) {
      for (const auto protocol : protocols) {
        const int victim = protocol == dist::DistProtocol::kMaster ? 1 : 0;
        for (std::uint64_t op = 1; op <= crash_ops; ++op) {
          auto cfg = soak_config(ranks, protocol);
          cfg.fault_plan.crashes.push_back({victim, op});
          RunRecord rec;
          rec.kind = "crash";
          rec.dataset = datasets[di];
          rec.ranks = ranks;
          rec.protocol = protocol_name(protocol);
          rec.victim = victim;
          rec.op = op;
          soak_run(raws[di], cfg, oracles.at({di, ranks}), rec);
          if (!rec.ok) {
            std::fprintf(stderr,
                         "[fault_soak] MISMATCH D%d ranks=%d %s crash r%d@%llu\n",
                         rec.dataset, ranks, rec.protocol.c_str(), victim,
                         static_cast<unsigned long long>(op));
          }
          runs.push_back(std::move(rec));
        }
      }
    }
  }
  std::fprintf(stderr, "[fault_soak] crash sweep done (%zu runs)\n",
               runs.size());

  // Seeded mixed-fault storms, spread over dataset x ranks x protocol.
  for (std::uint64_t seed = 0; seed < storm_seeds; ++seed) {
    const std::size_t di = seed % datasets.size();
    const int ranks = rank_counts[seed % rank_counts.size()];
    const auto protocol = protocols[(seed / 2) % protocols.size()];
    auto cfg = soak_config(ranks, protocol);
    cfg.fault_plan.seed = seed * 31 + 17;
    cfg.fault_plan.p_drop = 0.02;
    cfg.fault_plan.p_duplicate = 0.02;
    cfg.fault_plan.p_corrupt = 0.02;
    cfg.fault_plan.p_delay = 0.02;
    RunRecord rec;
    rec.kind = "storm";
    rec.dataset = datasets[di];
    rec.ranks = ranks;
    rec.protocol = protocol_name(protocol);
    rec.seed = seed;
    soak_run(raws[di], cfg, oracles.at({di, ranks}), rec);
    if (!rec.ok) {
      std::fprintf(stderr, "[fault_soak] MISMATCH D%d storm seed %llu\n",
                   rec.dataset, static_cast<unsigned long long>(seed));
    }
    runs.push_back(std::move(rec));
  }

  write_report(out_path, smoke, runs);

  std::uint64_t unrecovered = 0;
  for (const auto& r : runs) {
    if (!r.ok) ++unrecovered;
  }
  std::vector<int> widths = {10, 8, 12, 8};
  bench::print_row({"kind", "runs", "protocols", "bad"}, widths);
  bench::print_row(
      {"all", std::to_string(runs.size()), "2", std::to_string(unrecovered)},
      widths);
  if (unrecovered != 0) {
    std::fprintf(stderr, "[fault_soak] FAIL: %llu unrecovered runs\n",
                 static_cast<unsigned long long>(unrecovered));
    return 1;
  }
  std::printf("\nAll %zu faulted runs recovered the fault-free assembly.\n",
              runs.size());
  return 0;
}
