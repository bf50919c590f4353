#!/usr/bin/env bash
# Runs the tier-1 ctest suite under ThreadSanitizer and combined
# AddressSanitizer+UndefinedBehaviorSanitizer — so the seed-backend
# equivalence suite (hashed k-mer index vs suffix-array oracle, packed-read
# bit manipulation, two-pass NW scratch reuse), the stage-4 suites
# (hybrid_test: the flat-array contiguity tester against the hash-map
# reference on every multilevel node of D1-D3 and on seeded random read
# graphs, one tester per graph so its per-read stamp and local-index arrays
# and per-call CSR scratch are reused across thousands of calls; graph_test:
# the CSR read digraph, built from sorted and from shuffled, flipped and
# duplicated overlap lists), the banded-NW kernel
# equivalence suite (banded_nw_simd_test: the AVX2 anti-diagonal kernel vs
# the scalar oracle, field for field; its unaligned 16-byte loads over the
# padded sequence copies in AlignScratch are what ASan checks), the
# partitioner suite (partition_test: the single-threaded recursion-tree
# driver against the mpr wave driver with one and three trials, the chunked
# KL pair search against the heap and naive scans, and the PartitionGolden
# levels, cuts and mpr RunStats on D1-D3), the seeded-mutation fuzz suite
# (label `fuzz`: mutated FASTQ/FASTA through the parser and preprocess,
# mutated mpr message frames through an unpack sequence; every mutant
# parses or throws focus::Error), the stage-2
# oracle suite (overlap_dist_test: find_overlaps_parallel and the recovering
# subset-pair driver against find_overlaps_serial across rank counts and
# both protocols, with empty, never-firing and crash-at-every-op plans: one
# host pool shared by every rank thread of a call, the subset indexes built
# once on it and freed after their last pair by whichever rank scans it,
# 16-query blocks scanned by pool workers and by waiting rank threads, the
# merge freeing record vectors, the publish from the phase-log entry in
# place; the Stage2Golden RunStats at pool widths 1 and 4), the
# seed-kernel oracles (seed_equiv_test: the counting KmerIndex build
# against a sort-built index, count-then-gather seeding against
# per-member diagonal lists on both backends), the thread-pool suite
# (threads_test: several raw threads calling parallel_for on one pool at
# once, each getting its own results and exceptions), the
# protocol-equivalence suite (master vs symmetric simplify/traverse across
# rank counts: the owner-computes simplify and the recovering engine), the
# fault-injection suite (label `fault`: every FT driver — preprocess,
# overlap, partition, simplify, traverse, variants — runs both protocols
# through the one engine in src/mpr/ft_phase.hpp, so the phase log's mutex
# is exercised under master as well as symmetric; crash-at-every-op
# recovery sweeps including symmetric-coordinator rotation, the recovering
# RunStats goldens of both protocols, the coordinator-loss tests (a rank-0
# crash under master at every op it reaches, every rank crashed under
# symmetric: a typed error, never a default result), the out-of-range-id
# and hostile-count MessageHardening cases, plus mixed-fault stress of the
# runtime's timeout/CRC detection paths, the FaultEnv malformed-knob tests,
# and the empty-plan check that partition, traverse and variants run their
# recovering driver, which is therefore also the driver every default
# fault-free run takes through them), the CLI coordinator-loss probe
# (`focus_asm.faults.no_coordinator_survives`), and
# the whole-pipeline chaos soak (label `soak`: 50-seed storms and crash
# sweeps through the full assembler across both protocols), the
# stage-cache suite (svc_test: EnvSnapshot capture/strict parsing, the
# removed FOCUS_GRAPH_BACKEND value's typed error, ArtifactCache LRU policy,
# cached repeat runs through the assembler), and the concurrent-assembler
# determinism suite (concurrent_jobs_test: two simultaneous in-process
# pipelines vs the serial oracle across protocols × seed strategies × fault
# plans × pool widths, and two pipelines writing one shared ArtifactCache —
# the TSan proof obligation for the EnvSnapshot sweep, the per-pool TLS slot
# fix and the cache's mutex-guarded map) are exercised under both memory/UB
# and data-race checking.
#
# Review note: src/common/env.cpp must stay the only std::getenv call site
# (grep 'std::getenv' src/); scattered env reads were the original
# concurrent-assembler hazard.
#
#   tools/run_sanitizers.sh [thread|address|asan-ubsan] [ctest args...]
#
# With no argument TSan and ASan+UBSan both run. Builds land in build-tsan/
# and build-asan-ubsan/ (never in the plain build/ tree). Any extra
# arguments are passed to ctest, e.g.:
#
#   tools/run_sanitizers.sh thread -R Thread       # only pool tests, TSan
#   tools/run_sanitizers.sh asan-ubsan -R Seed     # equivalence, ASan+UBSan
#   tools/run_sanitizers.sh asan-ubsan -R 'BandedNw|Seed'  # NW kernels too
#   tools/run_sanitizers.sh thread -L fault        # fault suite under TSan
#   tools/run_sanitizers.sh asan-ubsan -L fuzz     # mutation fuzzing
#
# The partitioner legs (partition_test, the serial node-list gather, the
# pool and the bench_partition_smoke gate; ctest names tests by gtest
# suite):
#
#   tools/run_sanitizers.sh thread -R \
#     '^(Ggg|Kl|Kway|Metrics|MlPart|PartitionGolden|RankCounts/MlPartParallel|PartitionNodeLists|ThreadPool|Widths/ThreadPoolWidths)|bench_partition_smoke'
#
# Stricter ASan+UBSan leg (any UB report fails its test; libstdc++ bounds
# checks on): configure a fresh build-asan-ubsan/ with
#
#   CXXFLAGS='-fno-sanitize-recover=undefined -D_GLIBCXX_ASSERTIONS' \
#     tools/run_sanitizers.sh asan-ubsan -R 'Contiguity|Hybrid|Digraph|AsmBuild|Pipeline'
#
# The stage-2 legs (the shared host pool under the rank driver). Build a
# tree with this script (any ctest filter will do, e.g. -R ThreadPool), then
# run the suites' binaries in it, under TSan and under the strict ASan+UBSan
# configuration below:
#
#   for t in align_test seed_equiv_test overlap_dist_test threads_test \
#            concurrent_jobs_test; do build-tsan/tests/$t || exit 1; done
#   build-tsan/tests/mpr_fault_test \
#     --gtest_filter='OverlapFault*:RecoveringRunStats*'
#
# The recovering engine's legs (both protocols):
#
#   tools/run_sanitizers.sh thread -L 'fault|soak'
#   tools/run_sanitizers.sh thread \
#     -R 'DistProtocol|DistParallel|MessageHardening|ScanRecords|focus_asm.faults'
#   (and the same two under the strict asan-ubsan configuration above)
set -euo pipefail

cd "$(dirname "$0")/.."

sanitizers=()
case "${1:-all}" in
  thread|tsan)           sanitizers=(thread)                     ;;
  address|asan)          sanitizers=(address)                    ;;
  asan-ubsan|address+undefined) sanitizers=(address+undefined)   ;;
  all)                   sanitizers=(thread address+undefined)   ;;
  *) echo "usage: $0 [thread|address|asan-ubsan] [ctest args...]" >&2
     exit 2 ;;
esac
[ $# -gt 0 ] && shift || true

jobs="$(nproc 2>/dev/null || echo 2)"
status=0

for san in "${sanitizers[@]}"; do
  dir="build-tsan"
  [ "$san" = "address" ] && dir="build-asan"
  [ "$san" = "address+undefined" ] && dir="build-asan-ubsan"
  echo "=== ${san} sanitizer -> ${dir} ==="
  cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DFOCUS_SANITIZE="$san"
  cmake --build "$dir" -j "$jobs"
  if ! ctest --test-dir "$dir" --output-on-failure -j "$jobs" "$@"; then
    echo "!!! ${san} sanitizer run FAILED" >&2
    status=1
  fi
done

exit $status
