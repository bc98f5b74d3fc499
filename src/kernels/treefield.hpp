#pragma once

#include <span>
#include <vector>

#include "kernels/bhtree.hpp"

namespace jungle::kernels {

/// Gravity-field solver used as the bridge *coupling* kernel: load source
/// particles, evaluate the acceleration they exert at arbitrary points.
/// This is the role Octgrav (GPU) and Fi (CPU) play in the paper's
/// embedded-cluster run — "a model to couple the gravity interactions
/// between stars and gas".
class TreeField {
 public:
  explicit TreeField(double theta = 0.6, double eps2 = 1e-4)
      : tree_(theta, eps2) {}

  void set_sources(std::span<const double> masses,
                   std::span<const Vec3> positions) {
    tree_.build(positions, masses);
  }

  /// Batched evaluation, parallel over the thread pool; no per-call
  /// reallocation beyond the result itself.
  std::vector<Vec3> accel_at(std::span<const Vec3> points) const {
    std::vector<Vec3> out(points.size());
    tree_.accel_at(points, out);
    return out;
  }
  void accel_at(std::span<const Vec3> points, std::span<Vec3> out) const {
    tree_.accel_at(points, out);
  }

  void set_thread_pool(util::ThreadPool* pool) noexcept {
    tree_.set_thread_pool(pool);
  }

  std::size_t source_count() const noexcept { return tree_.source_count(); }
  std::uint64_t interactions() const noexcept { return tree_.interactions(); }

 private:
  BarnesHutTree tree_;
};

}  // namespace jungle::kernels
