#include "obs/export.hpp"

#include <fstream>
#include <map>
#include <sstream>

#include "obs/keys.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tveg::obs {

namespace {

Json histogram_json(const Histogram::Snapshot& h) {
  Json j = Json::object();
  j.set("count", h.count);
  j.set("sum", h.sum);
  j.set("min", h.count ? h.min : 0.0);
  j.set("max", h.count ? h.max : 0.0);
  j.set("p50", h.p50);
  j.set("p90", h.p90);
  j.set("p95", h.p95);
  j.set("p99", h.p99);
  return j;
}

Json phase_json(const TraceNodeSnapshot& n) {
  Json j = Json::object();
  j.set("name", n.name);
  j.set("count", n.count);
  j.set("wall_ms", n.wall_ms);
  Json children = Json::array();
  for (const auto& c : n.children) children.push_back(phase_json(c));
  j.set("children", std::move(children));
  return j;
}

}  // namespace

Json snapshot() {
  const MetricsRegistry::Snapshot m = MetricsRegistry::global().snapshot();

  Json counters = Json::object();
  for (const auto& [name, v] : m.counters) counters.set(name, v);
  Json gauges = Json::object();
  for (const auto& [name, v] : m.gauges) gauges.set(name, v);
  Json histograms = Json::object();
  for (const auto& [name, h] : m.histograms)
    histograms.set(name, histogram_json(h));

  Json metrics = Json::object();
  metrics.set("counters", std::move(counters));
  metrics.set("gauges", std::move(gauges));
  metrics.set("histograms", std::move(histograms));

  Json phases = Json::array();
  for (const auto& n : trace_snapshot()) phases.push_back(phase_json(n));

  Json totals = Json::object();
  for (const auto& [name, node] : phase_totals())
    totals.set(name, node.wall_ms);

  Json doc = Json::object();
  doc.set("schema", "tveg-obs-1");
  doc.set("metrics", std::move(metrics));
  doc.set("phases", std::move(phases));
  doc.set("phase_totals", std::move(totals));
  return doc;
}

Json phase_attribution() {
  // Join phase_totals (wall time + counts summed across the tree) with the
  // per-phase duration histograms fed by TraceSpan closes; name-sorted so
  // bench reports diff cleanly.
  const MetricsRegistry::Snapshot m = MetricsRegistry::global().snapshot();
  const std::string prefix = keys::kPhaseMsPrefix;
  std::map<std::string, Histogram::Snapshot> hists;
  for (const auto& [name, h] : m.histograms)
    if (name.rfind(prefix, 0) == 0) hists[name.substr(prefix.size())] = h;

  Json out = Json::array();
  for (const auto& [name, node] : phase_totals()) {
    Json p = Json::object();
    p.set("name", name);
    p.set("count", node.count);
    p.set("wall_ms", node.wall_ms);
    const auto it = hists.find(name);
    if (it != hists.end() && it->second.count > 0) {
      p.set("p50_ms", it->second.p50);
      p.set("p95_ms", it->second.p95);
      p.set("p99_ms", it->second.p99);
    }
    out.push_back(std::move(p));
  }
  return out;
}

std::string metrics_csv() {
  const MetricsRegistry::Snapshot m = MetricsRegistry::global().snapshot();
  std::ostringstream os;
  os << "kind,name,count,value,min,max,p50,p90,p99\n";
  for (const auto& [name, v] : m.counters)
    os << "counter," << name << ",," << v << ",,,,,\n";
  for (const auto& [name, v] : m.gauges)
    os << "gauge," << name << ",," << v << ",,,,,\n";
  for (const auto& [name, h] : m.histograms)
    os << "histogram," << name << ',' << h.count << ',' << h.sum << ','
       << (h.count ? h.min : 0.0) << ',' << (h.count ? h.max : 0.0) << ','
       << h.p50 << ',' << h.p90 << ',' << h.p99 << "\n";
  return os.str();
}

void write_snapshot_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  const bool csv =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  out << (csv ? metrics_csv() : snapshot().dump(2)) << "\n";
  if (!out) throw std::runtime_error("failed writing " + path);
}

}  // namespace tveg::obs
