// Tests for the shared-memory work-stealing pool and for the determinism
// contract of its one consumer: stage 2 on its host pool under the rank
// driver, and the full pipeline around it, must produce byte-identical
// results at every thread count. Also: a thread that cannot be started is
// a typed error in the pool and in the mpr runtime, never std::terminate.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "align/overlapper.hpp"
#include "common/dna.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/assembler.hpp"
#include "io/preprocess.hpp"
#include "mpr/runtime.hpp"
#include "partition/partition.hpp"
#include "sim/community.hpp"
#include "sim/genome.hpp"
#include "sim/sequencer.hpp"

// The thread-spawn death tests read VmSize from /proc and the default thread
// stack size from glibc. Sanitizer runtimes reserve terabytes of shadow
// address space, so under them an address-space cap cannot single out one
// thread stack.
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define FOCUS_SHADOW_MAPPED_BUILD 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FOCUS_SHADOW_MAPPED_BUILD 1
#endif
#if defined(__linux__) && defined(__GLIBC__) && \
    !defined(FOCUS_SHADOW_MAPPED_BUILD)
#define FOCUS_CAN_CAP_THREADS 1
#include <pthread.h>
#include <sys/resource.h>
#endif

namespace focus {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool unit tests
// ---------------------------------------------------------------------------

TEST(ThreadPool, ResolveThreadCount) {
  EXPECT_EQ(resolve_thread_count(1), 1u);
  EXPECT_EQ(resolve_thread_count(7), 7u);
  EXPECT_GE(resolve_thread_count(0), 1u);
}

TEST(ThreadPool, FocusThreadsEnvControlsAutoWidth) {
  ASSERT_EQ(setenv("FOCUS_THREADS", "3", 1), 0);
  EXPECT_EQ(default_thread_count(), 3u);
  EXPECT_EQ(resolve_thread_count(0), 3u);
  EXPECT_EQ(resolve_thread_count(5), 5u);  // explicit request wins

  // "0" means auto (hardware concurrency), and unset falls back the same way.
  ASSERT_EQ(setenv("FOCUS_THREADS", "0", 1), 0);
  EXPECT_GE(default_thread_count(), 1u);
  ASSERT_EQ(unsetenv("FOCUS_THREADS"), 0);
  EXPECT_GE(default_thread_count(), 1u);
}

TEST(ThreadPool, FocusThreadsRejectsMalformedValues) {
  // Malformed or out-of-range widths are configuration errors, not silent
  // hardware fallbacks: the typed error names the variable and the value.
  for (const char* bad : {"garbage", "4x", " 4", "4 ", "-1", "257", "1e2",
                          "99999999999999999999", "0x8"}) {
    SCOPED_TRACE(std::string("FOCUS_THREADS=") + bad);
    ASSERT_EQ(setenv("FOCUS_THREADS", bad, 1), 0);
    EXPECT_THROW(default_thread_count(), Error);
  }
  // The boundary widths themselves are accepted.
  ASSERT_EQ(setenv("FOCUS_THREADS", "1", 1), 0);
  EXPECT_EQ(default_thread_count(), 1u);
  ASSERT_EQ(setenv("FOCUS_THREADS", "256", 1), 0);
  EXPECT_EQ(default_thread_count(), 256u);
  ASSERT_EQ(unsetenv("FOCUS_THREADS"), 0);
}

TEST(ThreadPool, SerialFallbackSpawnsNoWorkers) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::vector<int> hits(100, 0);
  pool.parallel_for(hits.size(), 7, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) ++hits[i];
  });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

// ---------------------------------------------------------------------------
// Thread-spawn failure
// ---------------------------------------------------------------------------

#if defined(FOCUS_CAN_CAP_THREADS)
// Caps the address space at its current size plus one default thread stack
// and 1 MiB: one more std::thread starts, the next fails with EAGAIN.
void cap_address_space_at_one_more_thread() {
  std::ifstream status("/proc/self/status");
  std::size_t vm_kib = 0;
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmSize:", 0) == 0) vm_kib = std::stoull(line.substr(7));
  }
  pthread_attr_t attr;
  std::size_t stack = 0;
  if (vm_kib == 0 || pthread_getattr_default_np(&attr) != 0) std::_Exit(2);
  pthread_attr_getstacksize(&attr, &stack);
  pthread_attr_destroy(&attr);
  const rlim_t cap = vm_kib * 1024 + stack + (rlim_t{1} << 20);
  const rlimit limit{cap, cap};
  if (setrlimit(RLIMIT_AS, &limit) != 0) std::_Exit(2);
}
#endif

// Runs `spawn` in a death-test child whose address space admits one more
// thread; the child exits 0 after printing the focus::Error it catches.
template <typename Spawn>
void expect_typed_spawn_error(Spawn spawn, const char* message_regex) {
#if !defined(FOCUS_CAN_CAP_THREADS)
  (void)spawn;
  (void)message_regex;
  GTEST_SKIP() << "needs Linux and glibc without a sanitizer, whose shadow "
                  "mappings defeat RLIMIT_AS";
#else
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        cap_address_space_at_one_more_thread();
        try {
          spawn();
        } catch (const Error& e) {
          std::fprintf(stderr, "%s\n", e.what());
          std::_Exit(0);
        }
        std::_Exit(1);  // every thread started: the cap did not bite
      },
      ::testing::ExitedWithCode(0), message_regex);
#endif
}

// Four ranks, one thread admitted: the started rank waits in a barrier for
// ranks that never start, so it must be woken and joined before the error.
TEST(ThreadSpawnDeathTest, RuntimeJoinsStartedRanksAndThrowsTypedError) {
  expect_typed_spawn_error(
      [] {
        mpr::Runtime::execute(4, [](mpr::Comm& comm) { comm.barrier(); });
      },
      "cannot start the thread of rank [1-3] of 4");
}

// Three workers, one admitted: the started worker sleeps on the pool's
// condition variable and must be stopped and joined before the error.
TEST(ThreadSpawnDeathTest, ThreadPoolJoinsStartedWorkersAndThrowsTypedError) {
  expect_typed_spawn_error([] { ThreadPool pool(4); },
                           "cannot start thread pool worker [2-3] of 3");
}

class ThreadPoolWidths : public ::testing::TestWithParam<unsigned> {};

TEST_P(ThreadPoolWidths, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(GetParam());
  std::vector<int> hits(4097, 0);
  pool.parallel_for(hits.size(), 13, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) ++hits[i];  // chunks are disjoint
  });
  for (const int h : hits) ASSERT_EQ(h, 1);
}

TEST_P(ThreadPoolWidths, ParallelTransformPreservesIndexOrder) {
  ThreadPool pool(GetParam());
  const auto out = pool.parallel_transform<std::size_t>(
      1000, 3, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 1000u);
  for (std::size_t i = 0; i < out.size(); ++i) ASSERT_EQ(out[i], i * i);
}

TEST_P(ThreadPoolWidths, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(GetParam());
  EXPECT_THROW(
      pool.parallel_for(100, 1,
                        [](std::size_t b, std::size_t) {
                          if (b == 37) throw std::runtime_error("chunk 37");
                        }),
      std::runtime_error);
  // The pool must remain fully usable after an exceptional batch.
  std::atomic<int> ran{0};
  pool.parallel_for(64, 4, [&](std::size_t b, std::size_t e) {
    ran.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(ran.load(), 64);
}

// Several raw threads drive one pool at once, as the rank threads of a
// stage-2 call do: each caller gets exactly its own results back, and an
// exception thrown in one caller's batch is rethrown to that caller alone.
TEST(ThreadPool, ConcurrentExternalCallersGetTheirOwnResults) {
  ThreadPool pool(4);
  constexpr int kCallers = 6;
  constexpr int kRounds = 25;
  constexpr int kThrower = 2;
  std::vector<int> wrong(kCallers, 0);
  std::vector<int> caught(kCallers, 0);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        const std::uint64_t tag =
            static_cast<std::uint64_t>(c) * 1000000 + round * 1000;
        const std::size_t n = 500 + static_cast<std::size_t>(97 * c);
        try {
          const auto out = pool.parallel_transform<std::uint64_t>(
              n, 3, [&](std::size_t i) {
                if (c == kThrower && round % 5 == 0 && i == n / 2) {
                  throw std::runtime_error("caller " + std::to_string(c));
                }
                return tag + i;
              });
          for (std::size_t i = 0; i < n; ++i) {
            if (out[i] != tag + i) ++wrong[c];
          }
        } catch (const std::runtime_error& e) {
          if (e.what() == "caller " + std::to_string(c)) ++caught[c];
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(wrong[c], 0) << "caller " << c;
    EXPECT_EQ(caught[c], c == kThrower ? kRounds / 5 : 0) << "caller " << c;
  }
}

TEST_P(ThreadPoolWidths, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(GetParam());
  std::vector<std::uint64_t> sums(8, 0);
  pool.parallel_for(sums.size(), 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t outer = b; outer < e; ++outer) {
      const auto inner = pool.parallel_transform<std::uint64_t>(
          100, 10, [outer](std::size_t i) { return outer * 100 + i; });
      sums[outer] = std::accumulate(inner.begin(), inner.end(), 0ULL);
    }
  });
  for (std::size_t outer = 0; outer < sums.size(); ++outer) {
    EXPECT_EQ(sums[outer], outer * 100 * 100 + 4950);
  }
}

TEST_P(ThreadPoolWidths, EmptyAndTinyRanges) {
  ThreadPool pool(GetParam());
  pool.parallel_for(0, 8, [](std::size_t, std::size_t) { FAIL(); });
  int calls = 0;
  std::mutex mu;
  pool.parallel_for(1, 1000, [&](std::size_t b, std::size_t e) {
    std::lock_guard<std::mutex> lk(mu);
    ++calls;
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 1u);
  });
  EXPECT_EQ(calls, 1);
}

INSTANTIATE_TEST_SUITE_P(Widths, ThreadPoolWidths,
                         ::testing::Values(1u, 2u, 4u, 8u));

// ---------------------------------------------------------------------------
// Helpers shared by the determinism tests
// ---------------------------------------------------------------------------

bool same_overlap(const align::Overlap& a, const align::Overlap& b) {
  return a.query == b.query && a.ref == b.ref && a.length == b.length &&
         a.identity == b.identity && a.kind == b.kind;
}

::testing::AssertionResult same_overlaps(
    const std::vector<align::Overlap>& a,
    const std::vector<align::Overlap>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "overlap counts differ: " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_overlap(a[i], b[i])) {
      return ::testing::AssertionFailure()
             << "overlap " << i << " differs: (" << a[i].query << ","
             << a[i].ref << "," << a[i].length << ") vs (" << b[i].query
             << "," << b[i].ref << "," << b[i].length << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

io::ReadSet simulated_reads(std::size_t genome_len, double coverage,
                            std::uint64_t seed) {
  Rng rng(seed);
  sim::PhylogenyConfig pc;
  pc.genome_length = genome_len;
  pc.conserved_segments = 0;
  const sim::Community community =
      sim::build_community({{"T", "P", 1.0}}, pc, rng);
  sim::SequencerConfig sc;
  sc.read_length = 80;
  sc.coverage = coverage;
  const auto simulated = sim::shotgun_sequence(community, sc, rng);
  return io::preprocess(simulated.reads, io::PreprocessConfig{});
}

// ---------------------------------------------------------------------------
// Determinism regression: stage 2 on the host pool
// ---------------------------------------------------------------------------

// The rank driver's stage-2 pool: at 1 and 3 ranks, every pool width returns
// the serial driver's overlaps and the width-1 RunStats bit for bit. Block
// sums are added in block order, a decomposition fixed by the query count,
// so the per-rank work cannot depend on the width.
TEST(OverlapDeterminism, PooledMatchesSerialAtEveryThreadCount) {
  const io::ReadSet reads = simulated_reads(3000, 10.0, 77);
  align::OverlapperConfig cfg;
  cfg.k = 14;
  cfg.subsets = 4;

  cfg.threads = 1;
  const auto serial = align::find_overlaps_serial(reads, cfg);
  ASSERT_GT(serial.size(), 0u);

  for (const int ranks : {1, 3}) {
    mpr::RunStats width_one;
    for (const unsigned threads : {1u, 2u, 8u}) {
      SCOPED_TRACE("ranks=" + std::to_string(ranks) +
                   " threads=" + std::to_string(threads));
      cfg.threads = threads;
      const auto pooled = align::find_overlaps_parallel(reads, cfg, ranks);
      EXPECT_TRUE(same_overlaps(serial, pooled.overlaps));
      ASSERT_GT(pooled.stats.makespan, 0.0);
      if (threads == 1) width_one = pooled.stats;
      EXPECT_EQ(pooled.stats.makespan, width_one.makespan);
      EXPECT_EQ(pooled.stats.rank_vtime, width_one.rank_vtime);
      EXPECT_EQ(pooled.stats.messages, width_one.messages);
      EXPECT_EQ(pooled.stats.bytes, width_one.bytes);
    }
  }
}

TEST(OverlapDeterminism, SingleSubsetAndMoreSubsetsThanReads) {
  const io::ReadSet reads = simulated_reads(1500, 6.0, 13);
  for (const std::size_t subsets : {std::size_t{1}, reads.size() + 3}) {
    SCOPED_TRACE("subsets=" + std::to_string(subsets));
    align::OverlapperConfig cfg;
    cfg.k = 12;
    cfg.subsets = subsets;
    cfg.threads = 1;
    const auto serial = align::find_overlaps_serial(reads, cfg);
    cfg.threads = 4;
    EXPECT_TRUE(same_overlaps(
        serial, align::find_overlaps_parallel(reads, cfg, 1).overlaps));
  }
}

// ---------------------------------------------------------------------------
// Determinism regression: full quickstart pipeline
// ---------------------------------------------------------------------------

TEST(PipelineDeterminism, ContigsEdgeCutsAndOverlapsIdenticalAcrossThreads) {
  Rng rng(2024);
  sim::PhylogenyConfig pc;
  pc.genome_length = 4000;
  pc.repeat_copies = 1;
  pc.conserved_segments = 0;
  const sim::Community community =
      sim::build_community({{"Example", "Phylum", 1.0}}, pc, rng);
  sim::SequencerConfig sc;
  sc.read_length = 100;
  sc.coverage = 12.0;
  sc.error_rate_5p = 0.0;
  sc.error_rate_3p = 0.0;
  sc.bad_tail_fraction = 0.0;
  const auto sim_reads = sim::shotgun_sequence(community, sc, rng);

  std::vector<align::Overlap> ref_overlaps;
  std::vector<std::string> ref_contigs;
  Weight ref_cut = 0;
  bool have_reference = false;
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    core::FocusConfig config;
    config.partitions = 8;
    config.ranks = 4;
    config.overlap.threads = threads;
    const auto result = core::assemble_reads(sim_reads.reads, config);
    const Weight cut =
        partition::edge_cut(result.overlap_graph, result.read_partition);
    if (!have_reference) {
      ref_overlaps = result.overlaps;
      ref_contigs = result.contigs;
      ref_cut = cut;
      have_reference = true;
      ASSERT_GT(ref_contigs.size(), 0u);
    } else {
      EXPECT_TRUE(same_overlaps(ref_overlaps, result.overlaps));
      EXPECT_EQ(ref_contigs, result.contigs);
      EXPECT_EQ(ref_cut, cut);
    }
  }
}

// ---------------------------------------------------------------------------
// Randomized stress: pooled vs serial reference on 50 random read sets
// ---------------------------------------------------------------------------

TEST(OverlapStress, FiftyRandomReadSetsMatchSerialReference) {
  Rng meta(0xf0c05);  // master seed: failures reproduce from the trace below
  const unsigned thread_choices[] = {2, 3, 4, 8};
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint64_t trial_seed = meta.next_u64();
    SCOPED_TRACE("trial=" + std::to_string(trial) +
                 " seed=" + std::to_string(trial_seed));
    Rng rng(trial_seed);

    // Random genome and read set.
    const std::size_t genome_len =
        static_cast<std::size_t>(rng.next_in(300, 1200));
    const std::string genome = sim::random_genome(genome_len, rng);
    const std::size_t read_len =
        static_cast<std::size_t>(rng.next_in(50, 90));
    const double coverage = static_cast<double>(rng.next_in(4, 8));
    const std::size_t n_reads = std::max<std::size_t>(
        4, static_cast<std::size_t>(coverage * static_cast<double>(genome_len) /
                                    static_cast<double>(read_len)));
    io::ReadSet reads;
    for (std::size_t r = 0; r < n_reads; ++r) {
      const auto pos = rng.next_below(genome.size() - read_len + 1);
      std::string seq = genome.substr(pos, read_len);
      // Sprinkle substitution errors so identity thresholds actually bite.
      for (char& c : seq) {
        if (rng.next_bool(0.005)) c = "ACGT"[rng.next_below(4)];
      }
      if (rng.next_bool(0.5)) seq = dna::reverse_complement(seq);
      reads.add(io::Read{"r" + std::to_string(r), seq, "", kInvalidRead,
                         false});
    }

    align::OverlapperConfig cfg;
    cfg.k = static_cast<unsigned>(12 + 2 * rng.next_below(3));  // 12/14/16
    cfg.subsets = 1 + static_cast<std::size_t>(rng.next_below(5));
    cfg.min_identity = 0.85 + 0.05 * static_cast<double>(rng.next_below(3));
    cfg.min_overlap = 30 + 10 * static_cast<std::uint32_t>(rng.next_below(3));

    cfg.threads = 1;
    const auto serial = align::find_overlaps_serial(reads, cfg);
    cfg.threads = thread_choices[static_cast<std::size_t>(trial) % 4];
    const auto pooled = align::find_overlaps_parallel(reads, cfg, 1).overlaps;
    ASSERT_TRUE(same_overlaps(serial, pooled));
  }
}

}  // namespace
}  // namespace focus
