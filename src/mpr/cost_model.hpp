// Virtual-time cost model for the message-passing runtime.
//
// The paper's experiments ran MPI on a 452-node cluster; this reproduction
// runs every rank as a thread on one machine, whose few cores (and SIMD
// kernels) say nothing about a cluster's. To recover the *shape* of the
// paper's speedup and runtime curves deterministically, every rank carries a
// virtual clock:
//
//   * compute  — algorithms call Comm::charge(work_units); the clock advances
//     by gamma * units. Work units are deterministic operation counts (edges
//     scanned, cells filled), so virtual time is independent of the host.
//   * messages — a point-to-point message of b bytes completes at
//     max(receiver_clock, sender_clock_at_send + alpha + beta * b), the
//     classic alpha–beta (Hockney) model.
//   * barriers/collectives — synchronize clocks to the participant max plus a
//     tree-latency term alpha * ceil(log2 p).
//
// The reported makespan of a run is the maximum final clock over ranks:
// exactly the quantity a wall clock would measure on a real cluster with
// these machine constants.
#pragma once

#include <cmath>

namespace focus::mpr {

struct CostModel {
  /// Per-message latency, seconds. Default ≈ small-cluster interconnect.
  double alpha = 5e-6;
  /// Per-byte transfer time, seconds/byte (≈ 1 GB/s link).
  double beta = 1e-9;
  /// Per-work-unit compute time, seconds/unit. A "unit" is roughly one inner
  /// loop iteration (an edge relaxation, a DP cell, a comparison).
  double gamma = 1e-8;

  double message_cost(std::size_t bytes) const {
    return alpha + beta * static_cast<double>(bytes);
  }

  double tree_latency(int participants) const {
    if (participants <= 1) return 0.0;
    return alpha * std::ceil(std::log2(static_cast<double>(participants)));
  }

  double compute_cost(double work_units) const { return gamma * work_units; }
};

}  // namespace focus::mpr
