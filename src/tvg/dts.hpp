// Discrete time set construction (paper Sec. V).
//
// The DTS restricts the continuous-time TMEDB problem to finitely many
// candidate transmission times per node without losing optimality
// (Theorem 5.2). Each node's discrete time partition is the combination of
// its adjacent partition (contact boundary points, Eq. 9) and a status
// partition: the closure of all points under "+τ propagation" — if v_i may
// transmit at t and v_j is adjacent, v_j's status may change at t + τ, so
// v_j may itself transmit at t + τ (the cascade of Fig. 2).
#pragma once

#include <cstddef>
#include <vector>

#include "tvg/time_varying_graph.hpp"
#include "tvg/types.hpp"

namespace tveg {

/// Knobs for DTS construction.
struct DtsOptions {
  /// Two time points closer than this are identified.
  double tolerance = 1e-9;
  /// Hard cap on points per node; construction records truncation instead of
  /// running away on pathological τ/contact combinations. A truncated node
  /// keeps its earliest points.
  std::size_t max_points_per_node = 50000;
  /// Additional per-node event points to seed with (e.g. channel-parameter
  /// breakpoints, so that every DTS interval also has a constant channel).
  /// Either empty or indexed by node.
  std::vector<std::vector<Time>> extra_points;
};

/// The DTS D_V = {P_1^di, ..., P_N^di}: one sorted point vector per node.
class DiscreteTimeSet {
 public:
  /// Builds the DTS of `g` by fixpoint closure (Def. 5.2), in one sweep over
  /// the points in time order. Points within `tolerance` of each other are
  /// one point: a node's seed (adjacent-partition or extra point) wins its
  /// cluster, otherwise the earliest point does.
  static DiscreteTimeSet build(const TimeVaryingGraph& g,
                               const DtsOptions& options = {});

  NodeId node_count() const { return static_cast<NodeId>(points_.size()); }
  /// P_i^di as a sorted vector (first point 0, last point horizon).
  const std::vector<Time>& points(NodeId i) const;
  /// Σ_i |P_i^di|.
  std::size_t total_points() const;
  /// True if any node hit max_points_per_node during construction.
  bool truncated() const { return truncated_; }
  double tolerance() const { return tol_; }

  /// Sorted union of all nodes' points (deduplicated) — the global event
  /// timeline used by the chronological GREED/RAND sweeps.
  std::vector<Time> global_points() const;

 private:
  std::vector<std::vector<Time>> points_;
  double tol_ = 1e-9;
  bool truncated_ = false;
};

}  // namespace tveg
