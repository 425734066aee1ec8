#include "obs/span.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <vector>

#include "obs/json.hpp"
#include "obs/keys.hpp"
#include "obs/metrics.hpp"
#include "support/sync.hpp"
#include "support/thread_annotations.hpp"

namespace tveg::obs {

namespace {

std::atomic<bool> g_span_tracing{false};

/// Queue-track tids live 1000 above the owning worker's slot so both rows
/// can coexist in Perfetto without colliding with real thread slots.
constexpr std::uint32_t kQueueTidOffset = 1000;

/// One completed span. `open_seq`/`close_seq` come from a single per-thread
/// counter, so r2 nests inside r1 iff r1.open < r2.open && r2.close <
/// r1.close — the export replay reconstructs B/E order from sequences, not
/// timestamps, which keeps ties unambiguous.
struct Record {
  const char* name = nullptr;  ///< static storage duration
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t open_seq = 0;
  std::uint64_t close_seq = 0;
  bool queue = false;  ///< queue-wait interval (exported as an X event)
};

constexpr std::size_t kRingCapacity = 1 << 15;

/// Per-thread ring; owned jointly by the thread (thread_local shared_ptr)
/// and the registry, so records survive thread exit until the next export.
struct Ring {
  support::Mutex mutex;  // uncontended except at export
  std::vector<Record> records TVEG_GUARDED_BY(mutex);  // capacity kRingCapacity
  std::uint64_t written TVEG_GUARDED_BY(mutex) = 0;  // records ever pushed
  std::uint64_t dropped TVEG_GUARDED_BY(mutex) = 0;
  std::uint32_t slot = 0;  // written once at registration, then immutable
  std::string name TVEG_GUARDED_BY(mutex);

  void push(const Record& r) {
    support::MutexLock lock(mutex);
    if (records.size() < kRingCapacity) {
      records.push_back(r);
    } else {
      records[written % kRingCapacity] = r;
      ++dropped;
    }
    ++written;
  }
};

struct Registry {
  support::Mutex mutex;
  // Lock order: Registry::mutex before Ring::mutex, always (export paths
  // hold the registry lock while visiting each ring).
  std::vector<std::shared_ptr<Ring>> rings TVEG_GUARDED_BY(mutex);
};

Registry& registry() {
  static Registry* r = new Registry();  // never destroyed: spans may outlive main
  return *r;
}

/// Per-thread state. The sequence counter is plain (only the owning thread
/// touches it); the ring pointer is shared with the registry.
struct ThreadState {
  std::shared_ptr<Ring> ring;
  std::uint64_t next_seq = 0;
};

ThreadState& thread_state() {
  thread_local ThreadState state = [] {
    ThreadState s;
    s.ring = std::make_shared<Ring>();
    Registry& reg = registry();
    support::MutexLock lock(reg.mutex);
    s.ring->slot = static_cast<std::uint32_t>(reg.rings.size());
    reg.rings.push_back(s.ring);
    return s;
  }();
  return state;
}

std::chrono::steady_clock::time_point epoch() noexcept {
  static const std::chrono::steady_clock::time_point e =
      std::chrono::steady_clock::now();
  return e;
}

Counter& drop_counter() {
  static Counter& c = MetricsRegistry::global().counter(keys::kObsSpanDrops);
  return c;
}

Json event(const char* ph, std::uint32_t tid, const std::string& name,
           double ts_us) {
  Json e = Json::object();
  e.set("ph", Json(ph));
  e.set("pid", Json(1));
  e.set("tid", Json(static_cast<double>(tid)));
  e.set("name", Json(name));
  e.set("ts", Json(ts_us));
  return e;
}

double us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Emits one thread's span records as matched B/E pairs: sort by open
/// sequence, then replay with a stack, closing any span whose close_seq
/// precedes the next open. Dropped records at worst flatten nesting — the
/// pairs stay matched.
void emit_thread_spans(std::vector<Record> records, std::uint32_t tid,
                       Json& events) {
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) {
              return a.open_seq < b.open_seq;
            });
  std::vector<const Record*> stack;
  auto close_top = [&] {
    const Record* top = stack.back();
    stack.pop_back();
    events.push_back(event("E", tid, top->name, us(top->end_ns)));
  };
  for (const Record& r : records) {
    while (!stack.empty() && stack.back()->close_seq < r.open_seq) close_top();
    events.push_back(event("B", tid, r.name, us(r.begin_ns)));
    stack.push_back(&r);
  }
  while (!stack.empty()) close_top();
}

}  // namespace

void set_span_tracing(bool on) noexcept {
  if (on) {
    // Pin the epoch now: TraceSpan converts its start time only when it
    // closes, so a lazily set epoch would clamp the first span to zero
    // length. Registering the drop counter makes a traced run's metrics
    // report tveg.obs.span_drops even when it stays 0.
    (void)epoch();
    (void)drop_counter();
  }
  g_span_tracing.store(on, std::memory_order_relaxed);
}

bool span_tracing() noexcept {
  return g_span_tracing.load(std::memory_order_relaxed);
}

std::uint64_t now_epoch_ns() noexcept {
  return to_epoch_ns(std::chrono::steady_clock::now());
}

std::uint64_t to_epoch_ns(std::chrono::steady_clock::time_point tp) noexcept {
  const auto d = tp - epoch();
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(d);
  return ns.count() > 0 ? static_cast<std::uint64_t>(ns.count()) : 0;
}

void set_current_thread_name(const std::string& name) {
  Ring& ring = *thread_state().ring;
  support::MutexLock lock(ring.mutex);
  ring.name = name;
}

std::uint64_t span_open() noexcept { return thread_state().next_seq++; }

void span_close(const char* name, std::uint64_t open_seq,
                std::uint64_t begin_ns, std::uint64_t end_ns) noexcept {
  ThreadState& state = thread_state();
  Record r;
  r.name = name;
  r.begin_ns = begin_ns;
  r.end_ns = end_ns;
  r.open_seq = open_seq;
  r.close_seq = state.next_seq++;
  state.ring->push(r);
}

void span_queue_wait(std::uint64_t begin_ns, std::uint64_t end_ns) noexcept {
  ThreadState& state = thread_state();
  Record r;
  r.name = "queue_wait";
  r.begin_ns = begin_ns;
  r.end_ns = end_ns;
  r.open_seq = state.next_seq++;
  r.close_seq = state.next_seq++;
  r.queue = true;
  state.ring->push(r);
}

Json chrome_trace() {
  // Snapshot every ring under its own mutex; drop counts roll into the
  // registry metric here so exports and metrics snapshots agree.
  struct Snapshot {
    std::uint32_t slot;
    std::string name;
    std::vector<Record> spans;
    std::vector<Record> queue;
  };
  std::vector<Snapshot> threads;
  std::uint64_t dropped = 0;
  {
    Registry& reg = registry();
    support::MutexLock lock(reg.mutex);
    for (const auto& ring : reg.rings) {
      support::MutexLock ring_lock(ring->mutex);
      Snapshot s;
      s.slot = ring->slot;
      s.name = ring->name;
      for (const Record& r : ring->records)
        (r.queue ? s.queue : s.spans).push_back(r);
      dropped += ring->dropped;
      threads.push_back(std::move(s));
    }
  }
  if (dropped > 0) {
    // value() is a total since reset; re-sync rather than double-add.
    Counter& c = drop_counter();
    const std::uint64_t have =
        c.value();  // tveg-lint: allow(unchecked-result) -- Counter, not Result
    if (dropped > have) c.add(dropped - have);
  }

  Json events = Json::array();
  Json process_meta = event("M", 0, "process_name", 0);
  process_meta.set("args", [] {
    Json a = Json::object();
    a.set("name", Json("tveg"));
    return a;
  }());
  events.push_back(std::move(process_meta));

  for (const Snapshot& t : threads) {
    const std::string label =
        t.name.empty() ? "thread-" + std::to_string(t.slot) : t.name;
    Json meta = event("M", t.slot, "thread_name", 0);
    Json args = Json::object();
    args.set("name", Json(label));
    meta.set("args", std::move(args));
    events.push_back(std::move(meta));

    if (!t.queue.empty()) {
      Json qmeta = event("M", t.slot + kQueueTidOffset, "thread_name", 0);
      Json qargs = Json::object();
      qargs.set("name", Json("queue-wait " + label));
      qmeta.set("args", std::move(qargs));
      events.push_back(std::move(qmeta));
    }

    emit_thread_spans(t.spans, t.slot, events);

    // Queue waits: the pool queue is FIFO, so each worker's dequeue order
    // sees non-decreasing enqueue times — sorting by open_seq (dequeue
    // order) keeps the queue track ts-monotone.
    std::vector<Record> queue = t.queue;
    std::sort(queue.begin(), queue.end(),
              [](const Record& a, const Record& b) {
                return a.open_seq < b.open_seq;
              });
    for (const Record& r : queue) {
      Json x = event("X", t.slot + kQueueTidOffset, r.name, us(r.begin_ns));
      const std::uint64_t dur = r.end_ns > r.begin_ns ? r.end_ns - r.begin_ns : 0;
      x.set("dur", Json(us(dur)));
      events.push_back(std::move(x));
    }
  }

  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", Json("ms"));
  return doc;
}

void write_chrome_trace_file(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  out << chrome_trace().dump() << "\n";
  if (!out) throw std::runtime_error("cannot write trace to " + path);
}

void span_reset() {
  Registry& reg = registry();
  support::MutexLock lock(reg.mutex);
  for (const auto& ring : reg.rings) {
    support::MutexLock ring_lock(ring->mutex);
    ring->records.clear();
    ring->written = 0;
    ring->dropped = 0;
  }
}

}  // namespace tveg::obs
