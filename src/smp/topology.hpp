// Static family topologies for SMP (LeBlanc, HICSS'88).
//
// An SMP process family is connected according to an arbitrary static
// topology fixed at creation: each member may communicate with its parent,
// its children, and the siblings the topology names.  The constructors
// below cover the shapes the Rochester packages used (NET's lines,
// cylinders and tori; SMP's trees and rings) plus fully-connected for
// small families.
#pragma once

#include <cstdint>
#include <vector>

namespace bfly::smp {

class Topology {
 public:
  explicit Topology(std::uint32_t n) : adj_(n), linked_(std::size_t{n} * n) {}

  std::uint32_t size() const { return static_cast<std::uint32_t>(adj_.size()); }

  /// Declare an undirected communication edge.
  void add_edge(std::uint32_t a, std::uint32_t b) {
    adj_[a].push_back(b);
    adj_[b].push_back(a);
    linked_[index(a, b)] = true;
    linked_[index(b, a)] = true;
  }

  bool connected(std::uint32_t a, std::uint32_t b) const {
    return a < size() && b < size() && linked_[index(a, b)];
  }

  const std::vector<std::uint32_t>& neighbors(std::uint32_t m) const {
    return adj_[m];
  }

  // --- Standard shapes ---------------------------------------------------

  static Topology line(std::uint32_t n) {
    Topology t(n);
    for (std::uint32_t i = 0; i + 1 < n; ++i) t.add_edge(i, i + 1);
    return t;
  }

  static Topology ring(std::uint32_t n) {
    Topology t = line(n);
    if (n > 2) t.add_edge(n - 1, 0);
    return t;
  }

  /// k-ary tree in heap order: children of i are k*i+1 .. k*i+k.
  static Topology tree(std::uint32_t n, std::uint32_t arity = 2) {
    Topology t(n);
    for (std::uint32_t i = 0; i < n; ++i)
      for (std::uint32_t c = arity * i + 1; c <= arity * i + arity && c < n;
           ++c)
        t.add_edge(i, c);
    return t;
  }

  /// rows x cols mesh; wrap makes a cylinder (wrap_cols) or torus (both).
  static Topology mesh(std::uint32_t rows, std::uint32_t cols,
                       bool wrap_rows = false, bool wrap_cols = false) {
    Topology t(rows * cols);
    auto id = [cols](std::uint32_t r, std::uint32_t c) { return r * cols + c; };
    for (std::uint32_t r = 0; r < rows; ++r) {
      for (std::uint32_t c = 0; c < cols; ++c) {
        if (c + 1 < cols) t.add_edge(id(r, c), id(r, c + 1));
        else if (wrap_cols && cols > 2) t.add_edge(id(r, c), id(r, 0));
        if (r + 1 < rows) t.add_edge(id(r, c), id(r + 1, c));
        else if (wrap_rows && rows > 2) t.add_edge(id(r, c), id(0, c));
      }
    }
    return t;
  }

  /// Star: member 0 connected to everyone (the Gaussian-elimination shape:
  /// a coordinator scattering rows and gathering results).
  static Topology star(std::uint32_t n) {
    Topology t(n);
    for (std::uint32_t i = 1; i < n; ++i) t.add_edge(0, i);
    return t;
  }

  static Topology complete(std::uint32_t n) {
    Topology t(n);
    for (std::uint32_t i = 0; i < n; ++i)
      for (std::uint32_t j = i + 1; j < n; ++j) t.add_edge(i, j);
    return t;
  }

  /// Heap-order tree helpers (also used by families built on tree()).
  static std::uint32_t tree_parent(std::uint32_t i, std::uint32_t arity = 2) {
    return i == 0 ? 0 : (i - 1) / arity;
  }

 private:
  std::size_t index(std::uint32_t a, std::uint32_t b) const {
    return std::size_t{a} * adj_.size() + b;
  }

  std::vector<std::vector<std::uint32_t>> adj_;  // neighbors, in edge order
  std::vector<bool> linked_;                     // n x n adjacency bits
};

}  // namespace bfly::smp
