// Gaussian elimination — the paper's best-studied application (Sections 3.1
// and 4.1, Figure 5).
//
// Two implementations of the same computation:
//
//  * gauss_us  — the Uniform System version (after R. Thomas, BBN): the
//    matrix lives in globally shared memory, rows scattered across memory
//    nodes; for every pivot a crowd of run-to-completion tasks copies rows
//    to local memory, updates them, and copies them back.  Communication
//    volume ~ (N^2 - N) row transfers + P(N-1) pivot-row fetches.
//
//  * gauss_smp — the message-passing version (after LeBlanc's case study):
//    P heavyweight SMP processes own interleaved rows; the owner of each
//    pivot row broadcasts it to the other P-1 processes.  Communication
//    volume ~ P*N messages, so doubling the parallelism doubles the
//    communication — the cause of the Figure 5 anomaly where the SMP curve
//    *rises* beyond 64 processors while the US curve stays flat.
//
// Both run on the same simulated machine and produce a real solution vector
// that tests verify against a host-side reference elimination.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/machine.hpp"

namespace bfly::apps {

struct GaussConfig {
  std::uint32_t n = 128;           ///< system size
  std::uint32_t processors = 0;    ///< 0 = all nodes
  std::uint32_t memory_nodes = 0;  ///< nodes to spread rows over (0 = all)
  std::uint64_t seed = 42;         ///< system generator seed
};

struct GaussResult {
  sim::Time elapsed = 0;            ///< simulated wall time of the solve
  std::vector<double> solution;
  std::uint64_t messages = 0;       ///< SMP only
  std::uint64_t remote_refs = 0;
  std::uint64_t block_words = 0;
  sim::Time queue_ns = 0;           ///< total memory-module queueing
  /// US only: task descriptor slots the solve needed, i.e. its peak number
  /// of tasks generated but not yet completed.
  std::size_t task_descriptors = 0;
};

/// Deterministic well-conditioned system: A is diagonally dominant.
void generate_system(std::uint32_t n, std::uint64_t seed,
                     std::vector<double>& a, std::vector<double>& b);

/// The elimination row update dst[j] -= f * src[j] for j < len, shared by
/// gauss_us and gauss_smp.  Vectorized two doubles at a time, but each
/// element is one IEEE multiply and one subtract exactly as in the scalar
/// loop, so the result is bit-identical to it.
void row_update(double* dst, const double* src, double f, std::size_t len);

/// Host-side reference solution (no simulation).  Plain scalar loops: it is
/// the checker the simulated programs are compared against.
std::vector<double> gauss_reference(std::uint32_t n, std::uint64_t seed);

/// Shared-memory (Uniform System) implementation.
GaussResult gauss_us(sim::Machine& m, const GaussConfig& cfg);

/// Message-passing (SMP) implementation.
GaussResult gauss_smp(sim::Machine& m, const GaussConfig& cfg);

/// Max |x - x_ref| against the host reference.
double gauss_error(const GaussResult& r, std::uint32_t n, std::uint64_t seed);

}  // namespace bfly::apps
