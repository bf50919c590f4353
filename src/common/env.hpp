// EnvSnapshot — the single resolver of process-environment configuration.
//
// Every FOCUS_* knob the library honours is captured here, in one place, by
// EnvSnapshot::capture(); no other translation unit calls std::getenv. This
// is a concurrency contract as much as a style rule: getenv/setenv are not
// thread-safe against each other, and a pipeline that re-reads the
// environment mid-run can see two different values for the same knob. A
// snapshot is immutable after capture, so every consumer that derives its
// configuration from one snapshot sees one consistent environment.
//
// Granularity: capture() is cheap (a dozen getenv calls, no parsing) and is
// taken fresh by each `*_from_env()` compatibility wrapper, so tests that
// setenv/unsetenv between calls keep their semantics. FocusConfig's default
// constructor takes exactly ONE snapshot and derives every env-defaulted
// sub-config from it — the environment is read once per FocusConfig, never
// per call inside the pipeline (OPERATIONS.md, "Environment snapshot").
//
// Parsing: a set-but-malformed knob is an operator error, never a silent
// fallback. The typed parse helpers below throw focus::Error naming the
// variable and the offending value (the PR-9 contract); domain code supplies
// the domain knowledge (enum names, ranges) on top of them.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace focus {

struct EnvSnapshot {
  // Raw captured values; nullopt = unset. Empty strings are preserved so
  // domains can keep their documented ""-means-default behaviour.
  std::optional<std::string> threads;             // FOCUS_THREADS
  std::optional<std::string> seed_strategy;       // FOCUS_SEED_STRATEGY
  std::optional<std::string> dist_protocol;       // FOCUS_DIST_PROTOCOL
  std::optional<std::string> graph_backend;       // FOCUS_GRAPH_BACKEND
  std::optional<std::string> fault_seed;          // FOCUS_FAULT_SEED
  std::optional<std::string> fault_crash;         // FOCUS_FAULT_CRASH
  std::optional<std::string> fault_drop;          // FOCUS_FAULT_DROP
  std::optional<std::string> fault_dup;           // FOCUS_FAULT_DUP
  std::optional<std::string> fault_corrupt;       // FOCUS_FAULT_CORRUPT
  std::optional<std::string> fault_delay;         // FOCUS_FAULT_DELAY
  std::optional<std::string> fault_max_retries;   // FOCUS_FAULT_MAX_RETRIES
  std::optional<std::string> fault_recv_timeout;  // FOCUS_FAULT_RECV_TIMEOUT
  std::optional<std::string> bench_scale;         // FOCUS_BENCH_SCALE
  std::optional<std::string> bench_coverage;      // FOCUS_BENCH_COVERAGE

  /// Reads the process environment. The only std::getenv call site in the
  /// codebase (enforced by grep in tools/run_sanitizers.sh reviews).
  static EnvSnapshot capture();

  /// FOCUS_THREADS resolved to a pool width: unset or 0 -> nullopt ("auto",
  /// hardware concurrency); 1..256 -> that width. Anything else — garbage,
  /// trailing junk, negative, overflow, > 256 — throws focus::Error naming
  /// the offending value.
  std::optional<unsigned> thread_count() const;
};

namespace env {

/// Strict unsigned-integer parse of env var `name` holding `value`: digits
/// only, no sign, no trailing junk, no overflow. Throws focus::Error.
std::uint64_t parse_u64(const char* name, const std::string& value);

/// Strict floating-point parse (strtod, full consumption, no overflow).
double parse_double(const char* name, const std::string& value);

/// parse_double constrained to a probability in [0, 1].
double parse_rate(const char* name, const std::string& value);

}  // namespace env

}  // namespace focus
