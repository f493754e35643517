// Telemetry metrics registry: named counters, gauges, and log-bucketed
// histograms, designed for near-zero cost when disabled.
//
// One runtime gate: a single relaxed-atomic enable bit, read branch-predictably
// at each instrumented call site. telemetry::SetEnabled(false) turns the whole
// subsystem into one well-predicted branch per call site.
//
// Metric objects are owned by the registry and never deallocated while the
// process lives, so call sites may cache raw pointers (the DN_*_INC macros
// cache one in a function-local static). Counters and gauges are relaxed
// atomics — safe to bump from any thread (each wire-runtime node runs on its
// own); histograms take a light mutex and are meant for packet-level (not
// per-event) paths.
#ifndef DUMBNET_SRC_TELEMETRY_TELEMETRY_H_
#define DUMBNET_SRC_TELEMETRY_TELEMETRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "src/util/stats.h"

namespace dumbnet {
namespace telemetry {

namespace internal {
extern std::atomic<bool> g_enabled;
}  // namespace internal
inline bool Enabled() { return internal::g_enabled.load(std::memory_order_relaxed); }
void SetEnabled(bool on);

// Monotonic event count. Relaxed increments: TSan-clean from pool workers.
class Counter {
 public:
  void Inc(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

// Point-in-time signed level (queue depth, cache size).
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

// Log-bucketed distribution (latencies, sizes). Record takes a mutex; fine for
// per-packet paths, too heavy for the per-event simulator core.
class HistogramMetric {
 public:
  void Record(double x) {
    std::lock_guard<std::mutex> lock(mu_);
    hist_.Add(x);
  }
  // Consistent copy for reading percentiles.
  LogHistogram Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hist_;
  }
  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    hist_.Reset();
  }

 private:
  mutable std::mutex mu_;
  LogHistogram hist_;
};

// One metric's value at snapshot time.
struct MetricValue {
  enum class Kind { kCounter, kGauge, kHistogram };
  Kind kind = Kind::kCounter;
  std::string name;
  double value = 0.0;       // counter/gauge value; histogram sample count
  LogHistogram histogram;   // populated for histograms only
};

// A consistent-enough view of the whole registry (each metric is read
// atomically; the set is read under the registry lock).
class RegistrySnapshot {
 public:
  const std::vector<MetricValue>& metrics() const { return metrics_; }
  // Value by name; 0 when absent. For histograms, the sample count.
  double Value(const std::string& name) const;
  const MetricValue* Find(const std::string& name) const;

  // JSON object: {"counters": {...}, "gauges": {...}, "histograms": {name:
  // {count, mean, min, max, p50, p90, p99}}}.
  void WriteJson(std::ostream& os) const;

 private:
  friend class MetricsRegistry;
  friend RegistrySnapshot Diff(const RegistrySnapshot&, const RegistrySnapshot&);
  std::vector<MetricValue> metrics_;  // sorted by name
};

// after - before: counters and histogram counts subtract (clamped at zero),
// gauges keep the `after` value, histogram percentile detail keeps `after`.
// Metrics only present in `after` pass through unchanged.
RegistrySnapshot Diff(const RegistrySnapshot& before, const RegistrySnapshot& after);

class MetricsRegistry {
 public:
  // Process-wide registry used by all DN_* instrumentation macros.
  static MetricsRegistry& Global();

  // Find-or-create by name. Returned pointers stay valid for the registry's
  // lifetime; Reset() zeroes values but never removes registrations.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  HistogramMetric* GetHistogram(const std::string& name);

  RegistrySnapshot Snapshot() const;
  void WriteJson(std::ostream& os) const { Snapshot().WriteJson(os); }
  bool WriteJsonFile(const std::string& path) const;

  // Zeroes every metric (tests; between bench phases). Registrations survive.
  void Reset();

  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramMetric>> histograms_;
};

}  // namespace telemetry
}  // namespace dumbnet

// Hot-path instrumentation macros. Each call site pays one predictable branch
// when telemetry is runtime-disabled. The metric lookup happens once per call
// site (function-local static).
#define DN_COUNTER_INC_N(name, n)                                              \
  do {                                                                         \
    if (::dumbnet::telemetry::Enabled()) {                                     \
      static ::dumbnet::telemetry::Counter* _dn_counter =                      \
          ::dumbnet::telemetry::MetricsRegistry::Global().GetCounter(name);    \
      _dn_counter->Inc(n);                                                     \
    }                                                                          \
  } while (0)

#define DN_GAUGE_SET(name, v)                                                  \
  do {                                                                         \
    if (::dumbnet::telemetry::Enabled()) {                                     \
      static ::dumbnet::telemetry::Gauge* _dn_gauge =                          \
          ::dumbnet::telemetry::MetricsRegistry::Global().GetGauge(name);      \
      _dn_gauge->Set(v);                                                       \
    }                                                                          \
  } while (0)

#define DN_HISTOGRAM_RECORD(name, v)                                           \
  do {                                                                         \
    if (::dumbnet::telemetry::Enabled()) {                                     \
      static ::dumbnet::telemetry::HistogramMetric* _dn_hist =                 \
          ::dumbnet::telemetry::MetricsRegistry::Global().GetHistogram(name);  \
      _dn_hist->Record(v);                                                     \
    }                                                                          \
  } while (0)

#define DN_COUNTER_INC(name) DN_COUNTER_INC_N(name, 1)

#endif  // DUMBNET_SRC_TELEMETRY_TELEMETRY_H_
