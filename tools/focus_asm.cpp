// focus_asm — command-line assembler over the Focus library.
//
//   focus_asm -i reads.fastq -o out_prefix [options]
//
// Reads FASTA/FASTQ, runs the full Focus pipeline, writes:
//   <prefix>.contigs.fasta   assembled contigs
//   <prefix>.stats.txt       assembly statistics + stage timings
//   <prefix>.partition.tsv   read id -> hybrid-graph partition
//   <prefix>.graph.gfa       the simplified assembly graph (GFA 1.0)
// Each file is written as <file>.tmp and the four are renamed into place
// only after all of them were written, so a failed run leaves none of them.
//
// Exit status: 0 on success, 1 on an input, assembly or output error, 2 on a
// usage error (unknown flag, missing value, or a numeric value that is
// malformed or out of range).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <system_error>
#include <vector>

#include "common/env.hpp"
#include "common/error.hpp"
#include "core/assembler.hpp"
#include "dist/gfa.hpp"
#include "io/fastx.hpp"

namespace {

using focus::Error;

/// A malformed or out-of-range flag value; the message names the flag.
class CliError : public Error {
 public:
  using Error::Error;
};

// Numeric flags parse strictly (digits only or a full strtod, no trailing
// junk, no sign on integers, no overflow) and must then fall in [lo, hi].
std::uint64_t flag_u64(const std::string& flag, const char* value,
                       std::uint64_t lo, std::uint64_t hi) {
  std::uint64_t parsed = 0;
  try {
    parsed = focus::env::parse_u64(flag.c_str(), value);
  } catch (const Error& e) {
    throw CliError(e.what());
  }
  if (parsed < lo || parsed > hi) {
    throw CliError(flag + " must be in [" + std::to_string(lo) + ", " +
                   std::to_string(hi) + "], got '" + value + "'");
  }
  return parsed;
}

double flag_double(const std::string& flag, const char* value, double lo,
                   double hi) {
  double parsed = 0.0;
  try {
    parsed = focus::env::parse_double(flag.c_str(), value);
  } catch (const Error& e) {
    throw CliError(e.what());
  }
  if (!(parsed >= lo && parsed <= hi)) {
    char range[64];
    std::snprintf(range, sizeof(range), "[%g, %g]", lo, hi);
    throw CliError(flag + " must be in " + range + ", got '" + value + "'");
  }
  return parsed;
}

/// One output file: its final path and the function that writes its bytes.
struct OutputFile {
  std::string path;
  std::function<void(std::ostream&)> write;
};

/// Writes every file as <path>.tmp, then renames them all into place. On any
/// failure it removes the temp files and the outputs it already renamed, and
/// throws an Error naming the file.
void write_outputs(const std::vector<OutputFile>& files) {
  std::vector<std::string> placed;
  try {
    for (const auto& f : files) {
      const std::string tmp = f.path + ".tmp";
      std::ofstream out(tmp);
      if (!out) throw Error("cannot open output file " + tmp);
      f.write(out);
      out.close();
      if (!out) throw Error("cannot write output file " + tmp);
    }
    for (const auto& f : files) {
      std::error_code ec;
      std::filesystem::rename(f.path + ".tmp", f.path, ec);
      if (ec) {
        throw Error("cannot move output into place: " + f.path + ": " +
                    ec.message());
      }
      placed.push_back(f.path);
    }
  } catch (...) {
    std::error_code ignored;
    for (const auto& f : files) {
      std::filesystem::remove(f.path + ".tmp", ignored);
    }
    for (const auto& path : placed) std::filesystem::remove(path, ignored);
    throw;
  }
}

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s -i <reads.fast[aq]> -o <prefix> [options]\n"
               "\n"
               "options:\n"
               "  -k <int>     graph partitions, power of two in [1, 65536] "
               "(default 16)\n"
               "  -r <int>     worker ranks in [1, 256] (default 8)\n"
               "  --min-overlap <bp>      overlap length threshold (default 50)\n"
               "  --min-identity <frac>   overlap identity threshold (default 0.90)\n"
               "  --seed-k <int>          seeding k-mer length (default 14)\n"
               "  --subsets <int>         read subsets for parallel alignment (default 4)\n"
               "  --min-contig <bp>       shortest reported contig (default 100)\n"
               "  --trim-q <phred>        3' quality-trim threshold (default 20)\n"
               "  --multilevel            use the naive multilevel partitioning\n"
               "                          instead of the hybrid graph set\n"
               "\n"
               "exit status: 0 ok, 1 input, assembly or output error, 2 usage "
               "error\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace focus;

  std::string input, prefix;
  try {
    core::FocusConfig config;
    config.partitions = 16;
    config.ranks = 8;

    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> const char* {
        if (i + 1 >= argc) {
          usage(argv[0]);
          std::exit(2);
        }
        return argv[++i];
      };
      if (arg == "-i") {
        input = next();
      } else if (arg == "-o") {
        prefix = next();
      } else if (arg == "-k") {
        const char* value = next();
        config.partitions = static_cast<PartId>(
            flag_u64(arg, value, 1, core::kMaxPartitions));
        if ((config.partitions & (config.partitions - 1)) != 0) {
          throw CliError("-k must be a power of two, got '" +
                         std::string(value) + "'");
        }
      } else if (arg == "-r") {
        config.ranks =
            static_cast<int>(flag_u64(arg, next(), 1, mpr::kMaxRanks));
      } else if (arg == "--min-overlap") {
        config.overlap.min_overlap =
            static_cast<std::uint32_t>(flag_u64(arg, next(), 0, UINT32_MAX));
      } else if (arg == "--min-identity") {
        config.overlap.min_identity = flag_double(arg, next(), 0.0, 1.0);
      } else if (arg == "--seed-k") {
        config.overlap.k = static_cast<unsigned>(flag_u64(arg, next(), 8, 32));
      } else if (arg == "--subsets") {
        config.overlap.subsets =
            static_cast<std::size_t>(flag_u64(arg, next(), 1, 1024));
      } else if (arg == "--min-contig") {
        config.min_contig_length =
            static_cast<std::size_t>(flag_u64(arg, next(), 0, SIZE_MAX));
      } else if (arg == "--trim-q") {
        config.preprocess.min_quality = flag_double(arg, next(), 0.0, 93.0);
      } else if (arg == "--multilevel") {
        config.use_hybrid_partitioning = false;
      } else if (arg == "-h" || arg == "--help") {
        usage(argv[0]);
        return 0;
      } else {
        std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
        usage(argv[0]);
        return 2;
      }
    }
    if (input.empty() || prefix.empty()) {
      usage(argv[0]);
      return 2;
    }

    std::fprintf(stderr, "[focus_asm] loading %s\n", input.c_str());
    const io::ReadSet raw = io::load_fastx_file(input);
    std::fprintf(stderr, "[focus_asm] %zu reads, %llu bases\n", raw.size(),
                 static_cast<unsigned long long>(raw.total_bases()));

    std::fprintf(stderr, "[focus_asm] assembling (k=%d, ranks=%d, %s route)\n",
                 config.partitions, config.ranks,
                 config.use_hybrid_partitioning ? "hybrid" : "multilevel");
    const auto result = core::assemble_reads(raw, config);

    io::ReadSet contigs;
    for (std::size_t c = 0; c < result.contigs.size(); ++c) {
      io::Read r;
      r.name = "contig_" + std::to_string(c) + " length=" +
               std::to_string(result.contigs[c].size());
      r.seq = result.contigs[c];
      contigs.add(std::move(r));
    }
    write_outputs({
        {prefix + ".contigs.fasta",
         [&](std::ostream& out) { io::write_fasta(out, contigs); }},
        {prefix + ".stats.txt",
         [&](std::ostream& out) {
           out << "input_reads\t" << raw.size() << "\n"
               << "preprocessed_reads\t" << result.reads.size() << "\n"
               << "overlaps\t" << result.overlaps.size() << "\n"
               << "overlap_graph_nodes\t"
               << result.overlap_graph.node_count() << "\n"
               << "overlap_graph_edges\t"
               << result.overlap_graph.edge_count() << "\n"
               << "hybrid_graph_nodes\t"
               << result.hybrid.hybrid_graph().node_count() << "\n"
               << "graph_levels\t" << result.multilevel.depth() << "\n"
               << "contigs\t" << result.stats.contig_count << "\n"
               << "total_bases\t" << result.stats.total_bases << "\n"
               << "n50\t" << result.stats.n50 << "\n"
               << "max_contig\t" << result.stats.max_contig << "\n";
           for (const auto& [stage, t] : result.timings) {
             out << "vtime_" << stage << "\t" << t.vtime << "\n";
             out << "wall_" << stage << "\t" << t.wall << "\n";
           }
         }},
        {prefix + ".graph.gfa",
         [&](std::ostream& out) {
           dist::write_gfa(out, result.assembly_graph);
         }},
        {prefix + ".partition.tsv",
         [&](std::ostream& out) {
           out << "read\tname\tpartition\n";
           for (ReadId i = 0; i < result.reads.size(); ++i) {
             out << i << '\t' << result.reads[i].name << '\t'
                 << result.read_partition[i] << "\n";
           }
         }},
    });
    std::fprintf(stderr,
                 "[focus_asm] wrote %zu contigs (N50 %llu, max %llu) to "
                 "%s.contigs.fasta\n",
                 result.stats.contig_count,
                 static_cast<unsigned long long>(result.stats.n50),
                 static_cast<unsigned long long>(result.stats.max_contig),
                 prefix.c_str());
    return 0;
  } catch (const CliError& e) {
    std::fprintf(stderr, "[focus_asm] error: %s\n", e.what());
    usage(argv[0]);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[focus_asm] error: %s\n", e.what());
    return 1;
  }
}
