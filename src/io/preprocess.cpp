#include "io/preprocess.hpp"

#include <algorithm>

#include "common/dna.hpp"
#include "mpr/ft_phase.hpp"

namespace focus::io {

double window_average_quality(const std::string& qual, std::size_t begin,
                              std::size_t len) {
  FOCUS_ASSERT(begin + len <= qual.size(), "quality window out of range");
  FOCUS_ASSERT(len > 0, "quality window must be non-empty");
  double sum = 0.0;
  for (std::size_t i = begin; i < begin + len; ++i) {
    sum += static_cast<double>(qual[i] - '!');
  }
  return sum / static_cast<double>(len);
}

namespace {

// Returns the kept length of the read after 3'-end sliding-window quality
// trimming, per §II-A: the window starts at the 3' end and moves toward the
// 5' end in steps of `window_step`; at the first window whose average quality
// exceeds `min_quality`, the read is trimmed from the right end of that
// window to the 3' end (i.e. the right end of the window becomes the new
// read end).
std::size_t quality_trim_point(const std::string& qual,
                               const PreprocessConfig& config) {
  const std::size_t n = qual.size();
  const std::size_t l = config.window_len;
  if (l == 0 || n < l) return n;
  // Window positions: right edge at n, n-step, n-2*step, ... while the
  // window fits.
  for (std::size_t right = n;; right -= config.window_step) {
    const std::size_t begin = right - l;
    if (window_average_quality(qual, begin, l) > config.min_quality) {
      return right;
    }
    if (begin < config.window_step) break;
  }
  return 0;  // no window passed: whole read is low quality
}

}  // namespace

bool trim_read(Read& read, const PreprocessConfig& config) {
  FOCUS_CHECK(config.window_step > 0 || config.window_len == 0,
              "window step must be positive when quality trimming is enabled");
  // A FASTQ record whose quality string is shorter than its sequence is
  // malformed input; without this check the substr below would throw a raw
  // std::out_of_range instead of a focus parse error.
  FOCUS_CHECK(read.qual.empty() || read.qual.size() == read.seq.size(),
              "malformed FASTQ record '" + read.name +
                  "': quality length does not match sequence length");
  // Fixed trims.
  if (config.trim5 + config.trim3 >= read.seq.size()) return false;
  read.seq = read.seq.substr(config.trim5,
                             read.seq.size() - config.trim5 - config.trim3);
  if (!read.qual.empty()) {
    read.qual = read.qual.substr(config.trim5, read.seq.size());
  }
  // Quality trim (FASTQ only).
  if (!read.qual.empty() && config.window_len > 0) {
    const std::size_t keep = quality_trim_point(read.qual, config);
    read.seq.resize(keep);
    read.qual.resize(keep);
  }
  return read.seq.size() >= config.min_length && !read.seq.empty();
}

namespace {

/// Input reads per fault-tolerant preprocess partition. Fixed so the block
/// decomposition — and therefore the canonical output order — is a pure
/// function of the read count, independent of rank count and faults.
constexpr std::size_t kFtReadBlock = 64;

/// The trimmed (and RC-augmented) reads of one contiguous range of input
/// reads plus the range's drop/trim counters. Blocks concatenated in
/// ascending range order reproduce the serial preprocess() output exactly.
struct PreprocessBlock {
  std::vector<Read> reads;
  std::uint64_t dropped = 0;
  std::uint64_t trimmed = 0;
};

/// Preprocesses input reads [begin, end): each survivor carries origin =
/// its input index and is followed by its reverse complement. `work` (if
/// non-null) is charged one unit per input base.
PreprocessBlock preprocess_range(const ReadSet& input,
                                 const PreprocessConfig& config,
                                 std::size_t begin, std::size_t end,
                                 double* work) {
  PreprocessBlock block;
  block.reads.reserve((end - begin) * (config.add_reverse_complements ? 2 : 1));
  for (std::size_t i = begin; i < end; ++i) {
    Read r = input[static_cast<ReadId>(i)];
    if (work != nullptr) *work += static_cast<double>(r.seq.size());
    const std::uint64_t before = r.seq.size();
    if (!trim_read(r, config)) {
      ++block.dropped;
      continue;
    }
    block.trimmed += before - r.seq.size();
    r.origin = static_cast<ReadId>(i);
    r.reverse = false;
    block.reads.push_back(std::move(r));
    if (config.add_reverse_complements) {
      const Read& fwd = block.reads.back();
      Read rc;
      rc.name = fwd.name + "/rc";
      rc.seq = dna::reverse_complement(fwd.seq);
      // Base i of the RC read is base n-1-i of the forward read, so its
      // quality string is the forward one reversed; dropping it would strip
      // FASTQ reads of their qualities on the RC strand.
      rc.qual.assign(fwd.qual.rbegin(), fwd.qual.rend());
      rc.origin = static_cast<ReadId>(i);
      rc.reverse = true;
      block.reads.push_back(std::move(rc));
    }
  }
  return block;
}

/// Wire and log codec of one block. Both the recovering driver's records and
/// the fault-free gather frames use it.
void pack_block(const PreprocessBlock& block, mpr::Message& m) {
  m.pack(static_cast<std::uint64_t>(block.reads.size()));
  for (const Read& r : block.reads) {
    m.pack_string(r.name);
    m.pack_string(r.seq);
    m.pack_string(r.qual);
    m.pack(r.origin);
    m.pack(static_cast<std::uint8_t>(r.reverse ? 1 : 0));
  }
  m.pack(block.dropped);
  m.pack(block.trimmed);
}

/// Decodes one block. A block never holds more reads than twice its input
/// range (every survivor plus its complement), so the sender's range bounds
/// `max_reads`: hostile counts are rejected before the read loop allocates.
PreprocessBlock unpack_block(mpr::Message& m, std::uint64_t max_reads) {
  PreprocessBlock block;
  const auto count = m.unpack<std::uint64_t>();
  FOCUS_CHECK(count <= max_reads,
              "preprocess block record count exceeds block size");
  block.reads.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    Read r;
    r.name = m.unpack_string();
    r.seq = m.unpack_string();
    r.qual = m.unpack_string();
    r.origin = m.unpack<ReadId>();
    r.reverse = m.unpack<std::uint8_t>() != 0;
    block.reads.push_back(std::move(r));
  }
  block.dropped = m.unpack<std::uint64_t>();
  block.trimmed = m.unpack<std::uint64_t>();
  return block;
}

/// Concatenates blocks (ascending range order) into the final reads and
/// stats. Overwrites rather than appends: under the symmetric protocol a
/// successor coordinator re-assembles from the log after a predecessor may
/// already have partially published.
void assemble_blocks(std::size_t input_reads,
                     std::vector<PreprocessBlock> blocks, ReadSet* reads,
                     PreprocessStats* stats) {
  std::size_t total = 0;
  for (const auto& block : blocks) total += block.reads.size();
  std::vector<Read> all;
  all.reserve(total);
  PreprocessStats s;
  s.input_reads = input_reads;
  for (auto& block : blocks) {
    for (auto& r : block.reads) all.push_back(std::move(r));
    s.dropped_short += static_cast<std::size_t>(block.dropped);
    s.bases_trimmed += block.trimmed;
  }
  s.output_reads = all.size();
  *reads = ReadSet(std::move(all));
  *stats = s;
}

ParallelPreprocessResult preprocess_parallel_ft(const ReadSet& input,
                                                const PreprocessConfig& config,
                                                int nranks, mpr::CostModel cost,
                                                const mpr::FaultPlan& fault_plan,
                                                const mpr::FaultConfig& fault,
                                                bool symmetric) {
  const auto nparts = static_cast<std::uint32_t>(
      (input.size() + kFtReadBlock - 1) / kFtReadBlock);
  ParallelPreprocessResult result;

  const auto scan_one = [&](std::uint32_t p, double* work) {
    const std::size_t begin = static_cast<std::size_t>(p) * kFtReadBlock;
    return preprocess_range(input, config, begin,
                            std::min(input.size(), begin + kFtReadBlock),
                            work);
  };
  const auto unpack_one = [](mpr::Message& m) {
    return unpack_block(m, 2 * kFtReadBlock);
  };
  const auto scan_and_pack = [&](std::uint32_t phase, std::uint32_t p,
                                 mpr::Message& frame, double* work) {
    FOCUS_CHECK(phase == 0, "unknown preprocess phase in scan command");
    pack_block(scan_one(p, work), frame);
  };

  result.run = mpr::ft_execute(
      nranks, symmetric, cost, fault_plan,
      [&](mpr::Comm& comm, mpr::PhaseLog& log) {
        const auto coordinate = [&](std::uint32_t phase_start) {
          if (phase_start == 0) {
            auto recs = mpr::ft_collect<PreprocessBlock>(
                comm, log, nparts, 0, fault, scan_one, unpack_one,
                mpr::FtOrder::kAscending);
            mpr::PhaseLog::Entry entry;
            entry.payload.pack(static_cast<std::uint32_t>(recs.size()));
            for (const auto& block : recs) pack_block(block, entry.payload);
            mpr::ft_commit(comm, log, std::move(entry));
          }
          // Assemble from the durable record — identical whether this rank
          // collected the blocks itself or inherited them from a crashed
          // predecessor.
          auto recs = mpr::ft_read_entry(
              log, 0, "preprocess log", [&](mpr::Message& m) {
                const auto count = m.unpack<std::uint32_t>();
                FOCUS_CHECK(count == nparts,
                            "preprocess log holds the wrong block count");
                std::vector<PreprocessBlock> blocks;
                blocks.reserve(count);
                for (std::uint32_t i = 0; i < count; ++i) {
                  blocks.push_back(unpack_one(m));
                }
                return blocks;
              });
          assemble_blocks(input.size(), std::move(recs), &result.reads,
                          &result.stats);
        };
        mpr::ft_drive(comm, log, fault, scan_and_pack, coordinate);
      });
  return result;
}

}  // namespace

ReadSet preprocess(const ReadSet& input, const PreprocessConfig& config,
                   PreprocessStats* stats) {
  std::vector<PreprocessBlock> blocks;
  blocks.push_back(preprocess_range(input, config, 0, input.size(), nullptr));
  ReadSet out;
  PreprocessStats local;
  assemble_blocks(input.size(), std::move(blocks), &out, &local);
  if (stats != nullptr) *stats = local;
  return out;
}

ParallelPreprocessResult preprocess_parallel(
    const ReadSet& input, const PreprocessConfig& config, int nranks,
    mpr::CostModel cost, const mpr::FaultPlan& fault_plan,
    const mpr::FaultConfig& fault, bool symmetric) {
  FOCUS_CHECK(nranks >= 1, "need at least one rank");
  if (!fault_plan.empty()) {
    return preprocess_parallel_ft(input, config, nranks, cost, fault_plan,
                                  fault, symmetric);
  }
  // Rank r preprocesses the contiguous chunk [n*r/p, n*(r+1)/p).
  const std::size_t n = input.size();
  const auto p = static_cast<std::size_t>(nranks);
  const auto chunk_begin = [&](std::size_t r) { return n * r / p; };
  ParallelPreprocessResult result;
  result.run = mpr::Runtime::execute(
      nranks,
      [&](mpr::Comm& comm) {
        const auto me = static_cast<std::size_t>(comm.rank());
        double bases = 0.0;
        mpr::Message msg;
        pack_block(preprocess_range(input, config, chunk_begin(me),
                                    chunk_begin(me + 1), &bases),
                   msg);
        comm.charge(bases);

        // Rank 0 gathers the chunks in rank order.
        auto gathered = comm.gather(std::move(msg), 0);
        if (comm.rank() == 0) {
          std::vector<PreprocessBlock> blocks;
          blocks.reserve(gathered.size());
          for (std::size_t r = 0; r < gathered.size(); ++r) {
            blocks.push_back(unpack_block(
                gathered[r], 2 * (chunk_begin(r + 1) - chunk_begin(r))));
            FOCUS_CHECK(gathered[r].fully_consumed(),
                        "trailing bytes in gathered frame");
            gathered[r] = mpr::Message();  // release the frame once decoded
          }
          assemble_blocks(n, std::move(blocks), &result.reads, &result.stats);
        }
        comm.barrier();
      },
      cost);
  return result;
}

std::vector<std::vector<ReadId>> split_into_subsets(std::size_t read_count,
                                                    std::size_t subsets) {
  FOCUS_CHECK(subsets > 0, "subset count must be positive");
  std::vector<std::vector<ReadId>> out(subsets);
  const std::size_t base = read_count / subsets;
  const std::size_t extra = read_count % subsets;
  ReadId next = 0;
  for (std::size_t s = 0; s < subsets; ++s) {
    const std::size_t len = base + (s < extra ? 1 : 0);
    out[s].reserve(len);
    for (std::size_t i = 0; i < len; ++i) out[s].push_back(next++);
  }
  FOCUS_ASSERT(next == read_count, "subset split lost reads");
  return out;
}

}  // namespace focus::io
