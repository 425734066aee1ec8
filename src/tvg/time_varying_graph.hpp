// Deterministic time-varying graph (paper Sec. III-A).
//
// A TimeVaryingGraph is the tuple (V, E, T, ρ, ζ) with a deterministic
// presence function ρ (edges exist on unions of contact intervals) and a
// constant latency function ζ(e, t) = τ. It supports the temporal queries
// the TMEDB algorithms need: adjacency under latency (ρ_τ), adjacent
// partitions (Eq. 9), and foremost (earliest-arrival) journeys.
#pragma once

#include <cstddef>
#include <unordered_map>
#include <utility>
#include <vector>

#include "tvg/interval_set.hpp"
#include "tvg/partition.hpp"
#include "tvg/types.hpp"

namespace tveg {

/// One hop of a journey: edge (from → to) traversed starting at `depart`,
/// arriving at `depart + τ` (Def. 3.1).
struct JourneyHop {
  NodeId from;
  NodeId to;
  Time depart;
};

/// A journey: time-respecting path; hops[l+1].depart >= hops[l].depart + τ.
struct Journey {
  std::vector<JourneyHop> hops;

  bool empty() const { return hops.empty(); }
};

/// Earliest-arrival information from a single temporal-Dijkstra run.
struct ArrivalInfo {
  /// arrival[v] = earliest time v can hold the packet (+inf if unreachable).
  std::vector<Time> arrival;
  /// parent[v] = predecessor on a foremost journey (kNoNode for source or
  /// unreachable nodes).
  std::vector<NodeId> parent;
  /// depart[v] = departure time of the final hop into v.
  std::vector<Time> depart;
};

/// Deterministic continuous-time TVG with constant edge-traversal latency.
class TimeVaryingGraph {
 public:
  /// Creates a graph over nodes 0..n-1, time span [0, horizon], latency tau.
  TimeVaryingGraph(NodeId n, Time horizon, Time tau);

  NodeId node_count() const { return n_; }
  Time horizon() const { return horizon_; }
  /// ζ(e, t) = τ for all edges and times.
  Time latency() const { return tau_; }

  /// Registers a contact: ρ(e_{a,b}, t) = 1 for t in [start, end). Contacts
  /// may overlap; they are merged. Self-loops are rejected.
  void add_contact(NodeId a, NodeId b, Time start, Time end);

  std::size_t edge_count() const { return edges_.size(); }
  /// Endpoints of the e-th registered edge (a < b).
  std::pair<NodeId, NodeId> edge_nodes(std::size_t e) const;
  /// Presence set of the e-th registered edge.
  const IntervalSet& edge_presence(std::size_t e) const;
  /// Edge ids incident to node i.
  const std::vector<std::size_t>& incident_edges(NodeId i) const;

  /// Dense edge id of pair (a, b), or SIZE_MAX when no edge exists.
  std::size_t edge_id(NodeId a, NodeId b) const;
  /// Presence set of pair (a, b); the empty set when no edge exists.
  const IntervalSet& presence(NodeId a, NodeId b) const;
  /// ρ_τ(e_{a,b}, t): the pair is connected throughout [t, t + τ].
  bool adjacent(NodeId a, NodeId b, Time t) const;
  /// All nodes adjacent (under ρ_τ) to i at time t.
  std::vector<NodeId> neighbors_at(NodeId i, Time t) const;

  /// Earliest valid transmission start >= t on pair (a, b): the smallest
  /// t* >= t with ρ_τ(e_{a,b}, t*) = 1, or +inf if none before the horizon.
  Time next_valid_start(NodeId a, NodeId b, Time t) const;

  /// Latest valid transmission start on pair (a, b) whose traversal
  /// completes by `latest_arrival`: the largest t* with ρ_τ(e_{a,b}, t*) = 1
  /// and t* + τ <= latest_arrival, or -inf if none.
  Time last_valid_start(NodeId a, NodeId b, Time latest_arrival) const;

  /// Adjacent partition P^ad_i (Eq. 9): the union over i's pairs (i, j) of
  /// the boundary points of their adjacency (valid-start) intervals.
  Partition adjacent_partition(NodeId i, double tolerance = 1e-9) const;

  /// Foremost-journey search (temporal Dijkstra) from src holding the packet
  /// at time t0.
  ArrivalInfo earliest_arrival(NodeId src, Time t0) const;

  /// Extracts a foremost journey src→dst from an earliest_arrival result;
  /// empty journey if dst is the source or unreachable.
  Journey extract_journey(const ArrivalInfo& info, NodeId dst) const;

  /// Nodes v with arrival[v] <= deadline when the packet starts at src, t0.
  std::vector<NodeId> reachable_set(NodeId src, Time t0, Time deadline) const;

 private:
  std::size_t edge_index(NodeId a, NodeId b) const;  // npos when absent
  static std::uint64_t pair_key(NodeId a, NodeId b);
  void check_node(NodeId v) const;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  NodeId n_;
  Time horizon_;
  Time tau_;
  struct Edge {
    NodeId a, b;  // a < b
    IntervalSet presence;
  };
  std::vector<Edge> edges_;
  std::unordered_map<std::uint64_t, std::size_t> edge_lookup_;
  std::vector<std::vector<std::size_t>> incident_;
  IntervalSet empty_set_;
};

}  // namespace tveg
