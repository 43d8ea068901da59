// Crowd Control — coordinating processes in parallel (LeBlanc & Jain,
// ICPP'87; Section 3.3 of the paper).
//
// "The Crowd Control package can be used to parallelize almost any function
// whose serial component is due to contention for read-only data" — its
// canonical use at Rochester was parallelizing process creation, where a
// single creator is otherwise a linear bottleneck.  Workers form a k-ary
// tree: each worker creates its children before doing its own work, so the
// local portion of creation proceeds in parallel.  The paper's Amdahl
// lesson survives intact: "serial access to system resources (such as
// process templates in Chrysalis) ultimately limits our ability to exploit
// large-scale parallelism during process creation" — our Chrysalis models
// that serialized template section, so the speedup ceiling is observable.
#pragma once

#include <cstdint>
#include <functional>

#include "chrysalis/kernel.hpp"

namespace bfly::crowd {

struct CrowdOptions {
  std::uint32_t fanout = 2;       ///< tree arity
  sim::NodeId base_node = 0;      ///< worker w runs on (base + w) mod nodes
};

/// Run `fn(worker_index)` on `n` worker processes spread over the machine,
/// created through a fan-out tree.  Blocks the calling process until every
/// worker has finished or is lost with its node (a worker lost at start
/// takes its subtree with it).  Returns the elapsed simulated time.
sim::Time spread(chrys::Kernel& k, std::uint32_t n,
                 std::function<void(std::uint32_t)> fn,
                 CrowdOptions opt = {});

/// The baseline Crowd Control replaces: the caller creates all `n` workers
/// itself, serially.  Same completion semantics; returns elapsed time.
sim::Time spread_serial(chrys::Kernel& k, std::uint32_t n,
                        std::function<void(std::uint32_t)> fn,
                        CrowdOptions opt = {});

}  // namespace bfly::crowd
