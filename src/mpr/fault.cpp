#include "mpr/fault.hpp"

#include <array>
#include <string>

#include "common/env.hpp"
#include "common/rng.hpp"
#include "mpr/message.hpp"

namespace focus::mpr {

namespace {

/// One draw of the per-(rank, op) hash stream, as a real in [0, 1).
double hash_real(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

// Env values arrive through an EnvSnapshot (common/env.hpp — the single
// getenv site); the strict parsers there enforce the operator-error
// contract: a set-but-malformed knob throws naming the variable and the
// offending value, never a silent fallback.

double snapshot_rate(const char* name,
                     const std::optional<std::string>& value) {
  if (!value.has_value()) return 0.0;
  return env::parse_rate(name, *value);
}

// Byte-at-a-time lookup table of the IEEE CRC-32 (reflected, polynomial
// 0xEDB88320) that frames every message.
constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

constexpr auto kCrcTable = make_crc_table();

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t n) {
  std::uint32_t state = 0xffffffffu;
  for (std::size_t i = 0; i < n; ++i) {
    state = kCrcTable[(state ^ data[i]) & 0xffu] ^ (state >> 8);
  }
  return state ^ 0xffffffffu;
}

FaultDecision FaultPlan::decide(Rank rank, std::uint64_t op) const {
  FaultDecision d;
  for (const CrashPoint& cp : crashes) {
    if (cp.rank == rank && cp.op == op) {
      d.crash = true;
      return d;
    }
  }
  if (p_crash == 0.0 && p_drop == 0.0 && p_duplicate == 0.0 &&
      p_corrupt == 0.0 && p_delay == 0.0) {
    return d;
  }
  // Independent stream per (seed, rank, op); draws consumed in fixed order
  // so adding a rate never perturbs the draws of the other fault kinds.
  std::uint64_t state = seed;
  state = splitmix64(state) ^ (static_cast<std::uint64_t>(rank) + 1);
  state = splitmix64(state) ^ op;
  if (hash_real(state) < p_crash) {
    d.crash = true;
    return d;
  }
  const double drop_draw = hash_real(state);
  const double dup_draw = hash_real(state);
  const double corrupt_draw = hash_real(state);
  const double delay_draw = hash_real(state);
  if (drop_draw < p_drop) {
    d.drop = true;
  } else if (dup_draw < p_duplicate) {
    d.duplicate = true;
  } else if (corrupt_draw < p_corrupt) {
    d.corrupt = true;
  } else if (delay_draw < p_delay) {
    d.delay = delay_vtime;
  }
  return d;
}

FaultPlan FaultPlan::from_env() {
  return from_env(EnvSnapshot::capture());
}

FaultPlan FaultPlan::from_env(const EnvSnapshot& env) {
  FaultPlan plan;
  if (!env.fault_seed.has_value()) {
    // A rate knob without the seed would be silently inert — the operator
    // believes faults are being injected when none are. Reject it instead.
    const std::pair<const char*, const std::optional<std::string>&> rates[] = {
        {"FOCUS_FAULT_CRASH", env.fault_crash},
        {"FOCUS_FAULT_DROP", env.fault_drop},
        {"FOCUS_FAULT_DUP", env.fault_dup},
        {"FOCUS_FAULT_CORRUPT", env.fault_corrupt},
        {"FOCUS_FAULT_DELAY", env.fault_delay},
    };
    for (const auto& [name, value] : rates) {
      if (value.has_value()) {
        FOCUS_THROW(std::string(name) +
                    " is set but has no effect without FOCUS_FAULT_SEED");
      }
    }
    return plan;
  }
  plan.seed = env::parse_u64("FOCUS_FAULT_SEED", *env.fault_seed);
  plan.p_crash = snapshot_rate("FOCUS_FAULT_CRASH", env.fault_crash);
  plan.p_drop = snapshot_rate("FOCUS_FAULT_DROP", env.fault_drop);
  plan.p_duplicate = snapshot_rate("FOCUS_FAULT_DUP", env.fault_dup);
  plan.p_corrupt = snapshot_rate("FOCUS_FAULT_CORRUPT", env.fault_corrupt);
  plan.p_delay = snapshot_rate("FOCUS_FAULT_DELAY", env.fault_delay);
  // A bare seed with no rates still means "inject something": default to a
  // light mix of every recoverable fault kind.
  if (plan.empty()) {
    plan.p_drop = plan.p_duplicate = plan.p_corrupt = plan.p_delay = 0.01;
  }
  return plan;
}

FaultConfig FaultConfig::from_env() {
  return from_env(EnvSnapshot::capture());
}

FaultConfig FaultConfig::from_env(const EnvSnapshot& env) {
  FaultConfig config;
  if (env.fault_max_retries.has_value()) {
    const std::uint64_t retries =
        env::parse_u64("FOCUS_FAULT_MAX_RETRIES", *env.fault_max_retries);
    if (retries == 0 || retries > 1000) {
      FOCUS_THROW(std::string("FOCUS_FAULT_MAX_RETRIES must be in [1, 1000]") +
                  ", got '" + *env.fault_max_retries + "'");
    }
    config.max_retries = static_cast<int>(retries);
  }
  if (env.fault_recv_timeout.has_value()) {
    const double timeout =
        env::parse_double("FOCUS_FAULT_RECV_TIMEOUT", *env.fault_recv_timeout);
    if (!(timeout > 0.0)) {
      FOCUS_THROW(std::string("FOCUS_FAULT_RECV_TIMEOUT must be a positive "
                              "virtual-time interval, got '") +
                  *env.fault_recv_timeout + "'");
    }
    config.recv_timeout_vtime = timeout;
  }
  return config;
}

std::uint32_t Message::checksum() const {
  return crc32(bytes_.data(), bytes_.size());
}

}  // namespace focus::mpr
