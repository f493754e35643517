#include "src/telemetry/telemetry.h"

#include <algorithm>
#include <fstream>

#include "src/util/json.h"

namespace dumbnet {
namespace telemetry {

namespace internal {
std::atomic<bool> g_enabled{true};
}  // namespace internal

void SetEnabled(bool on) {
  internal::g_enabled.store(on, std::memory_order_relaxed);
}

double RegistrySnapshot::Value(const std::string& name) const {
  const MetricValue* m = Find(name);
  return m == nullptr ? 0.0 : m->value;
}

const MetricValue* RegistrySnapshot::Find(const std::string& name) const {
  auto it = std::lower_bound(
      metrics_.begin(), metrics_.end(), name,
      [](const MetricValue& m, const std::string& n) { return m.name < n; });
  if (it == metrics_.end() || it->name != name) {
    return nullptr;
  }
  return &*it;
}

void RegistrySnapshot::WriteJson(std::ostream& os) const {
  auto write_section = [&](const char* title, MetricValue::Kind kind, bool first_section) {
    if (!first_section) {
      os << ",\n";
    }
    os << "  \"" << title << "\": {";
    bool first = true;
    for (const MetricValue& m : metrics_) {
      if (m.kind != kind) {
        continue;
      }
      if (!first) {
        os << ",";
      }
      first = false;
      os << "\n    \"" << JsonEscape(m.name) << "\": ";
      if (kind == MetricValue::Kind::kHistogram) {
        const LogHistogram& h = m.histogram;
        os << "{\"count\": " << h.count() << ", \"mean\": " << h.mean()
           << ", \"min\": " << h.min() << ", \"max\": " << h.max()
           << ", \"p50\": " << h.Percentile(50.0) << ", \"p90\": " << h.Percentile(90.0)
           << ", \"p99\": " << h.Percentile(99.0) << "}";
      } else {
        // Counter/gauge values are integral; print them losslessly (the default
        // ostream double format rounds large counts to 6 significant digits).
        os << static_cast<int64_t>(m.value);
      }
    }
    os << (first ? "}" : "\n  }");
  };
  os << "{\n";
  write_section("counters", MetricValue::Kind::kCounter, true);
  write_section("gauges", MetricValue::Kind::kGauge, false);
  write_section("histograms", MetricValue::Kind::kHistogram, false);
  os << "\n}\n";
}

RegistrySnapshot Diff(const RegistrySnapshot& before, const RegistrySnapshot& after) {
  RegistrySnapshot out;
  out.metrics_.reserve(after.metrics_.size());
  for (const MetricValue& m : after.metrics_) {
    MetricValue d = m;
    if (m.kind == MetricValue::Kind::kCounter ||
        m.kind == MetricValue::Kind::kHistogram) {
      const MetricValue* b = before.Find(m.name);
      if (b != nullptr && b->kind == m.kind) {
        d.value = std::max(0.0, m.value - b->value);
      }
    }
    out.metrics_.push_back(std::move(d));
  }
  return out;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
  }
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
  }
  return slot.get();
}

HistogramMetric* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<HistogramMetric>();
  }
  return slot.get();
}

RegistrySnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  RegistrySnapshot snap;
  snap.metrics_.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) {
    MetricValue m;
    m.kind = MetricValue::Kind::kCounter;
    m.name = name;
    m.value = static_cast<double>(c->value());
    snap.metrics_.push_back(std::move(m));
  }
  for (const auto& [name, g] : gauges_) {
    MetricValue m;
    m.kind = MetricValue::Kind::kGauge;
    m.name = name;
    m.value = static_cast<double>(g->value());
    snap.metrics_.push_back(std::move(m));
  }
  for (const auto& [name, h] : histograms_) {
    MetricValue m;
    m.kind = MetricValue::Kind::kHistogram;
    m.name = name;
    m.histogram = h->Snapshot();
    m.value = static_cast<double>(m.histogram.count());
    snap.metrics_.push_back(std::move(m));
  }
  std::sort(snap.metrics_.begin(), snap.metrics_.end(),
            [](const MetricValue& a, const MetricValue& b) { return a.name < b.name; });
  return snap;
}

bool MetricsRegistry::WriteJsonFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  WriteJson(out);
  return static_cast<bool>(out);
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) {
    c->Reset();
  }
  for (auto& [name, g] : gauges_) {
    g->Reset();
  }
  for (auto& [name, h] : histograms_) {
    h->Reset();
  }
}

size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

}  // namespace telemetry
}  // namespace dumbnet
