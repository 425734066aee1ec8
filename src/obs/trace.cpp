#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <map>
#include <ostream>

#include "obs/keys.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "support/sync.hpp"
#include "support/thread_annotations.hpp"

namespace tveg::obs {

namespace {

std::atomic<bool> g_enabled{false};

constexpr std::size_t kNoNode = static_cast<std::size_t>(-1);

struct Node {
  std::string name;
  std::size_t parent = kNoNode;
  std::vector<std::size_t> children;  // guarded by Tree::mutex
  std::atomic<std::uint64_t> total_ns{0};
  std::atomic<std::uint64_t> count{0};
  /// Per-phase duration histogram (tveg.obs.phase_ms.<name>), resolved once
  /// at node creation so span close never takes the registry mutex.
  Histogram* hist = nullptr;
};

struct Tree {
  support::Mutex mutex;
  // deque: references stay valid as the tree grows, so accumulation through
  // stable Node pointers needs no lock; the deque itself (growth and child
  // lists) is guarded.
  std::deque<Node> nodes TVEG_GUARDED_BY(mutex);

  // Single-threaded construction: no other thread can alias the tree yet,
  // so the REQUIRES contract on root() is vacuously met.
  Tree() TVEG_NO_THREAD_SAFETY_ANALYSIS { root(); }

  std::size_t root() TVEG_REQUIRES(mutex) {
    if (nodes.empty()) {
      nodes.emplace_back();
      nodes[0].name = "root";
    }
    return 0;
  }

  /// Finds or creates the child of `parent` named `name`. Returns the index
  /// (for the thread's current-phase cursor) and a stable pointer (deque
  /// references survive growth, so accumulation needs no lock).
  std::pair<std::size_t, Node*> child(std::size_t parent, const char* name) {
    support::MutexLock lock(mutex);
    for (std::size_t c : nodes[parent].children)
      if (nodes[c].name == name) return {c, &nodes[c]};
    const std::size_t id = nodes.size();
    nodes.emplace_back();
    nodes[id].name = name;
    nodes[id].parent = parent;
    nodes[id].hist = &MetricsRegistry::global().histogram(
        std::string(keys::kPhaseMsPrefix) + name);
    nodes[parent].children.push_back(id);
    return {id, &nodes[id]};
  }
};

Tree& tree() {
  static Tree* t = new Tree();  // never destroyed: spans may outlive main
  return *t;
}

thread_local std::size_t t_current = 0;

TraceNodeSnapshot snapshot_node(const Tree& t, std::size_t id)
    TVEG_REQUIRES(t.mutex) {
  const Node& n = t.nodes[id];
  TraceNodeSnapshot s;
  s.name = n.name;
  s.count = n.count.load(std::memory_order_relaxed);
  s.wall_ms =
      static_cast<double>(n.total_ns.load(std::memory_order_relaxed)) / 1e6;
  for (std::size_t c : n.children) s.children.push_back(snapshot_node(t, c));
  return s;
}

void report_node(std::ostream& os, const TraceNodeSnapshot& n, int depth) {
  for (int i = 0; i < depth; ++i) os << "  ";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%10.3f ms", n.wall_ms);
  os << n.name << "  x" << n.count << "  " << buf << "\n";
  for (const auto& c : n.children) report_node(os, c, depth + 1);
}

void accumulate_totals(const TraceNodeSnapshot& n,
                       std::map<std::string, TraceNodeSnapshot>& totals) {
  auto& slot = totals[n.name];
  slot.name = n.name;
  slot.count += n.count;
  slot.wall_ms += n.wall_ms;
  for (const auto& c : n.children) accumulate_totals(c, totals);
}

}  // namespace

void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

TraceSpan::TraceSpan(const char* name) noexcept {
  const bool aggregate = enabled();
  const bool ring = span_tracing();
  if (!aggregate && !ring) return;
  if (aggregate) {
    const auto [id, ptr] = tree().child(t_current, name);
    node_ = id;
    node_ptr_ = ptr;
    prev_ = t_current;
    t_current = node_;
  }
  if (ring) {
    ring_name_ = name;
    ring_open_seq_ = span_open();
  }
  start_ = std::chrono::steady_clock::now();
}

TraceSpan::~TraceSpan() {
  if (node_ == kNone && ring_name_ == nullptr) return;
  const auto end = std::chrono::steady_clock::now();
  const auto elapsed = end - start_;
  if (ring_name_ != nullptr)
    span_close(ring_name_, ring_open_seq_, to_epoch_ns(start_),
               to_epoch_ns(end));
  if (node_ == kNone) return;
  Node& n = *static_cast<Node*>(node_ptr_);
  const auto elapsed_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
  n.total_ns.fetch_add(elapsed_ns, std::memory_order_relaxed);
  n.count.fetch_add(1, std::memory_order_relaxed);
  if (n.hist != nullptr)
    n.hist->observe(static_cast<double>(elapsed_ns) / 1e6);
  t_current = prev_;
}

void declare_phases(std::initializer_list<const char*> names) {
  Tree& t = tree();
  for (const char* name : names) t.child(0, name);
}

std::vector<TraceNodeSnapshot> trace_snapshot() {
  Tree& t = tree();
  support::MutexLock lock(t.mutex);
  std::vector<TraceNodeSnapshot> out;
  for (std::size_t c : t.nodes[0].children)
    out.push_back(snapshot_node(t, c));
  return out;
}

std::vector<std::pair<std::string, TraceNodeSnapshot>> phase_totals() {
  std::map<std::string, TraceNodeSnapshot> totals;
  for (const TraceNodeSnapshot& n : trace_snapshot())
    accumulate_totals(n, totals);
  std::vector<std::pair<std::string, TraceNodeSnapshot>> out;
  for (auto& [name, node] : totals) {
    node.children.clear();
    out.emplace_back(name, std::move(node));
  }
  return out;
}

void trace_reset() {
  Tree& t = tree();
  support::MutexLock lock(t.mutex);
  t.nodes.clear();
  t.nodes.emplace_back();
  t.nodes[0].name = "root";
  t_current = 0;  // resets the calling thread; others must have no open spans
}

void trace_report(std::ostream& os) {
  os << "phase tree (wall time, entries):\n";
  for (const TraceNodeSnapshot& n : trace_snapshot()) report_node(os, n, 1);
}

}  // namespace tveg::obs
