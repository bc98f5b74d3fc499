#include "obs/metrics.hpp"

#include <cmath>
#include <memory>
#include <mutex>
#include <sstream>

namespace jungle::obs::metrics {

namespace {

constexpr double kBucketFloorExponent = -12.0;  // bucket 0 starts at 1e-12

int bucket_index(double value) noexcept {
  if (!(value > 0.0)) return 0;
  double position = (std::log10(value) - kBucketFloorExponent) *
                    Histogram::kBucketsPerDecade;
  if (position < 0.0) return 0;
  if (position >= Histogram::kBuckets) return Histogram::kBuckets - 1;
  return static_cast<int>(position);
}

/// Geometric midpoint of a bucket — the value percentiles reconstruct to.
double bucket_mid(int index) noexcept {
  double exponent =
      kBucketFloorExponent +
      (static_cast<double>(index) + 0.5) / Histogram::kBucketsPerDecade;
  return std::pow(10.0, exponent);
}

struct Registry {
  std::mutex mutex;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Registry& registry() {
  static Registry* instance = new Registry();  // leaked: outlives all users
  return *instance;
}

}  // namespace

void Histogram::observe(double value) noexcept {
  buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add(sum_, value);
  detail::atomic_min(min_, value);
  detail::atomic_max(max_, value);
}

double Histogram::percentile_from(const std::uint64_t* counts,
                                  std::uint64_t total, double p) const {
  if (total == 0) return 0.0;
  double target = p * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += counts[i];
    if (static_cast<double>(seen) >= target) return bucket_mid(i);
  }
  return bucket_mid(kBuckets - 1);
}

Histogram::Summary Histogram::summary() const {
  Summary out;
  std::uint64_t counts[kBuckets];
  std::uint64_t total = 0;
  for (int i = 0; i < kBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  out.count = total;
  out.sum = sum_.load(std::memory_order_relaxed);
  if (total > 0) {
    out.min = min_.load(std::memory_order_relaxed);
    out.max = max_.load(std::memory_order_relaxed);
  }
  out.p50 = percentile_from(counts, total, 0.50);
  out.p90 = percentile_from(counts, total, 0.90);
  out.p99 = percentile_from(counts, total, 0.99);
  return out;
}

void Histogram::reset() noexcept {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(1e300, std::memory_order_relaxed);
  max_.store(-1e300, std::memory_order_relaxed);
}

Counter& counter(const std::string& name) {
  Registry& reg = registry();
  std::lock_guard lock(reg.mutex);
  auto& slot = reg.counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& gauge(const std::string& name) {
  Registry& reg = registry();
  std::lock_guard lock(reg.mutex);
  auto& slot = reg.gauges[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& histogram(const std::string& name) {
  Registry& reg = registry();
  std::lock_guard lock(reg.mutex);
  auto& slot = reg.histograms[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

double counter_value(const std::string& name) {
  Registry& reg = registry();
  std::lock_guard lock(reg.mutex);
  auto it = reg.counters.find(name);
  return it != reg.counters.end() ? it->second->value() : 0.0;
}

double gauge_value(const std::string& name) {
  Registry& reg = registry();
  std::lock_guard lock(reg.mutex);
  auto it = reg.gauges.find(name);
  return it != reg.gauges.end() ? it->second->value() : 0.0;
}

Snapshot snapshot() {
  Registry& reg = registry();
  std::lock_guard lock(reg.mutex);
  Snapshot out;
  for (const auto& [name, instrument] : reg.counters) {
    out.counters[name] = instrument->value();
  }
  for (const auto& [name, instrument] : reg.gauges) {
    out.gauges[name] = instrument->value();
  }
  for (const auto& [name, instrument] : reg.histograms) {
    out.histograms[name] = instrument->summary();
  }
  return out;
}

std::string snapshot_json() {
  Snapshot snap = snapshot();
  std::ostringstream out;
  out.precision(15);
  auto scalars = [&](const std::map<std::string, double>& values) {
    bool first = true;
    for (const auto& [name, value] : values) {
      if (!first) out << ",";
      first = false;
      out << "\"" << name << "\":" << value;
    }
  };
  out << "{\"counters\":{";
  scalars(snap.counters);
  out << "},\"gauges\":{";
  scalars(snap.gauges);
  out << "},\"histograms\":{";
  bool first = true;
  for (const auto& [name, h] : snap.histograms) {
    if (!first) out << ",";
    first = false;
    out << "\"" << name << "\":{\"count\":" << h.count << ",\"sum\":" << h.sum
        << ",\"min\":" << h.min << ",\"max\":" << h.max << ",\"p50\":" << h.p50
        << ",\"p90\":" << h.p90 << ",\"p99\":" << h.p99 << "}";
  }
  out << "}}";
  return out.str();
}

}  // namespace jungle::obs::metrics
