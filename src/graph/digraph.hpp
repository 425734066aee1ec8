// Static directed weighted graph: the substrate for the auxiliary graph of
// Sec. VI-A and the directed Steiner tree solvers that implement the MEMT
// reduction of Liang [3].
//
// Memory layout (DESIGN.md "Data layout & hot-path memory"): a Digraph is
// built arc-by-arc into a flat staging list and then *frozen* into CSR form
// — one contiguous arc array plus a V+1 offset table — before any traversal.
// Freezing is a stable counting sort, so each vertex's out-arcs keep their
// insertion order and every traversal (hence every schedule downstream) is
// byte-identical to the historical vector-of-vectors representation.
// Traversals on a never-frozen graph freeze it lazily on first access;
// mutation after freezing throws. freeze() is NOT safe to race with itself —
// construction happens on one thread before a graph is shared (AuxGraph and
// SteinerSolver both freeze eagerly at build time).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace tveg::graph {

/// Vertex identifier in a static digraph (dense 0..V-1).
using VertexId = std::int32_t;

inline constexpr VertexId kNoVertex = -1;

/// One outgoing arc.
struct Arc {
  VertexId to;
  double weight;
};

/// Build-then-freeze CSR digraph with non-negative arc weights.
class Digraph {
 public:
  Digraph() = default;
  explicit Digraph(VertexId n);

  /// Appends a vertex, returning its id. Building-state only.
  VertexId add_vertex();
  /// Adds an arc from → to with weight >= 0. Building-state only.
  void add_arc(VertexId from, VertexId to, double weight);
  /// Reserves staging capacity for `arcs` arcs (one allocation up front;
  /// AuxGraph computes the exact count before assembly).
  void reserve_arcs(std::size_t arcs);

  /// Compacts the staged arcs into the frozen CSR form (stable counting
  /// sort, O(V + E), single arena pass). Idempotent; implied by the first
  /// traversal of a never-frozen graph.
  void freeze();
  bool frozen() const { return frozen_; }

  /// Returns to an empty building state with `n` vertices, keeping every
  /// buffer's capacity — the reuse hook for per-query scratch subgraphs.
  void reset(VertexId n);

  VertexId vertex_count() const { return vertices_; }
  std::size_t arc_count() const {
    return frozen_ ? arcs_.size() : staged_.size();
  }
  /// The out-arcs of v in insertion order (freezes a never-frozen graph).
  std::span<const Arc> out(VertexId v) const;

 private:
  void check_vertex(VertexId v) const;
  void ensure_frozen() const;

  VertexId vertices_ = 0;
  bool frozen_ = false;
  /// Building state: staged arcs in insertion order, sources parallel to
  /// the Arc payloads (two flat arrays, no per-vertex allocations).
  std::vector<VertexId> staged_from_;
  std::vector<Arc> staged_;
  /// Frozen state: out(v) = arcs_[offsets_[v] .. offsets_[v+1]).
  std::vector<std::size_t> offsets_;
  std::vector<Arc> arcs_;
  /// Scatter cursors, kept as a member so reset()+freeze() cycles reuse the
  /// allocation.
  std::vector<std::size_t> cursor_;
};

/// Reusable Dijkstra scratch: the binary heap plus epoch-marked dist/parent
/// arrays. One workspace serves one run at a time (not thread-safe); each
/// SteinerSolver owns its own. A default-constructed workspace allocates
/// nothing until its first run, and its buffers only grow, so repeated runs
/// reuse them.
class DijkstraWorkspace {
 public:
  /// Distance of the most recent dijkstra_scratch run; +inf if v was not
  /// reached in that run (epoch-checked — stale runs never alias).
  double dist(VertexId v) const {
    const auto i = static_cast<std::size_t>(v);
    return mark_[i] == epoch_ ? dist_[i] : kInfDist;
  }
  /// Parent of v in the most recent dijkstra_scratch tree; kNoVertex for
  /// the source and unreached vertices.
  VertexId parent(VertexId v) const {
    const auto i = static_cast<std::size_t>(v);
    return mark_[i] == epoch_ ? parent_[i] : kNoVertex;
  }

  std::size_t settled() const { return settled_; }
  std::size_t relaxations() const { return relaxations_; }

  /// Test hook: jump the epoch counter (e.g. to the wraparound boundary) to
  /// prove stale marks never alias a fresh run.
  void force_epoch_for_test(std::uint32_t epoch) { epoch_ = epoch; }
  std::uint32_t epoch_for_test() const { return epoch_; }

 private:
  friend void dijkstra_scratch_nearest(
      const Digraph& g, VertexId src, DijkstraWorkspace& ws,
      std::span<const std::int32_t> target, std::size_t want,
      std::vector<std::pair<double, std::int32_t>>* found);

  static constexpr double kInfDist = __builtin_huge_val();

  /// Opens a new epoch over `n` vertices: O(1) amortized — marks are
  /// invalidated by the counter bump, not by clearing. On wraparound the
  /// mark array is cleared once so epoch reuse can never alias a run from
  /// 2^32 epochs ago.
  void begin(std::size_t n) {
    if (mark_.size() < n) mark_.resize(n, 0);
    if (dist_.size() < n) dist_.resize(n, 0);
    if (parent_.size() < n) parent_.resize(n, kNoVertex);
    if (++epoch_ == 0) {
      std::fill(mark_.begin(), mark_.end(), 0u);
      epoch_ = 1;
    }
    settled_ = 0;
    relaxations_ = 0;
  }

  std::vector<std::pair<double, VertexId>> heap_;
  std::vector<double> dist_;
  std::vector<VertexId> parent_;
  std::vector<std::uint32_t> mark_;
  std::uint32_t epoch_ = 0;
  std::size_t settled_ = 0;
  std::size_t relaxations_ = 0;
};

/// Dijkstra from src (weights must be non-negative) for queries whose tree
/// is consumed immediately: results live in `ws` (dist()/parent()) until its
/// next run. The heap is a min-heap over (dist, vertex) pairs kept with
/// push_heap/pop_heap and std::greater<> — the algorithm std::priority_queue
/// runs — so pops, and every tie-break downstream, are deterministic.
void dijkstra_scratch(const Digraph& g, VertexId src, DijkstraWorkspace& ws);

/// dijkstra_scratch stopped once the `want` nearest targets are settled.
/// `target` is empty (no targets) or holds one entry per vertex, and
/// `target[v] >= 0` marks v as a target; each settled target is appended to
/// `found` as (dist, target[v]) in settle order, i.e. by non-decreasing
/// distance. Before settling a popped vertex at distance d the run stops if
/// `want` targets are found and d is strictly greater than the want-th
/// one's distance, so every target tied with it is still settled. Up to the
/// stop the run is dijkstra_scratch()'s, so each settled vertex has its final
/// distance and the full run's parent; a vertex reached but not settled
/// reads a tentative distance in `ws`. `found` is cleared first; want == 0
/// never stops early.
void dijkstra_scratch_nearest(
    const Digraph& g, VertexId src, DijkstraWorkspace& ws,
    std::span<const std::int32_t> target, std::size_t want,
    std::vector<std::pair<double, std::int32_t>>* found);

}  // namespace tveg::graph
