#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

namespace jungle::obs::metrics {

/// Process-global metrics registry: named counters, gauges and log-bucketed
/// histograms. Instruments are registered once (mutex-protected map, stable
/// addresses) and updated lock-free with relaxed atomics — hot paths cache
/// the instrument pointer and pay one atomic RMW per update, no allocation.
/// Values accumulate across runs in one process; consumers diff snapshots.

namespace detail {
/// fetch_add for atomic<double> via CAS (portable pre-C++20-TS hardware).
inline void atomic_add(std::atomic<double>& target, double delta) noexcept {
  double seen = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(seen, seen + delta,
                                       std::memory_order_relaxed)) {
  }
}
inline void atomic_min(std::atomic<double>& target, double value) noexcept {
  double seen = target.load(std::memory_order_relaxed);
  while (value < seen && !target.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
}
inline void atomic_max(std::atomic<double>& target, double value) noexcept {
  double seen = target.load(std::memory_order_relaxed);
  while (value > seen && !target.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
}
}  // namespace detail

class Counter {
 public:
  void add(double delta) noexcept { detail::atomic_add(value_, delta); }
  void increment() noexcept { add(1.0); }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

class Gauge {
 public:
  void set(double value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Log-spaced histogram: 4 buckets per decade over [1e-12, 1e36) — covers
/// nanoseconds to exaflops without configuration. Percentiles reconstruct
/// from bucket midpoints (quarter-decade resolution, plenty for latency
/// dashboards and CI assertions).
class Histogram {
 public:
  static constexpr int kBucketsPerDecade = 4;
  static constexpr int kDecades = 48;  // 1e-12 .. 1e36
  static constexpr int kBuckets = kBucketsPerDecade * kDecades;

  void observe(double value) noexcept;

  struct Summary {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    double mean() const noexcept {
      return count > 0 ? sum / static_cast<double>(count) : 0.0;
    }
  };
  Summary summary() const;
  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  void reset() noexcept;

 private:
  double percentile_from(const std::uint64_t* counts, std::uint64_t total,
                         double p) const;
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{1e300};
  std::atomic<double> max_{-1e300};
};

/// Named instruments (registered on first use; addresses stable for life of
/// the process — cache them in hot paths).
Counter& counter(const std::string& name);
Gauge& gauge(const std::string& name);
Histogram& histogram(const std::string& name);

/// Current value of a named counter/gauge; 0 when never registered.
double counter_value(const std::string& name);
double gauge_value(const std::string& name);

struct Snapshot {
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Histogram::Summary> histograms;
};
Snapshot snapshot();

/// Snapshot as a JSON object {"counters":{...},"gauges":{...},
/// "histograms":{name:{count,sum,min,max,p50,p90,p99}}}.
std::string snapshot_json();

}  // namespace jungle::obs::metrics
