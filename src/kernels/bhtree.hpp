#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "kernels/vec3.hpp"

namespace jungle::util {
class ThreadPool;
}

namespace jungle::kernels {

/// Barnes-Hut octree gravity, the shared engine behind the Octgrav
/// (GPU-costed) and Fi (CPU) coupling kernels and the SPH self-gravity.
/// Monopole cells with an opening-angle criterion; Plummer softening;
/// works in N-body units (G = 1).
///
/// Storage is a flat structure-of-arrays cell pool packed in breadth-first
/// order with the children of each cell contiguous, so the hot traversal
/// walks small dense arrays instead of pointer-chasing 100-byte nodes.
/// Leaves hold up to kLeafCapacity bodies (a body *list*, not a single
/// body), which keeps the tree shallow and — because a leaf that fails the
/// opening test is evaluated body-by-body — makes coincident particles
/// exact instead of a folded-monopole approximation.
///
/// Traversal reuses a per-thread stack (no per-query allocation) and the
/// batch `accel_at(points, out)` fans out over the thread pool. The
/// interaction counter feeds the cost model (flops = interactions *
/// kFlopsPerInteraction) and tracks the *actual* O(N log N) behaviour; the
/// counter-taking overloads accumulate into a caller-owned counter so
/// parallel callers stay race-free.
class BarnesHutTree {
 public:
  explicit BarnesHutTree(double theta = 0.6, double eps2 = 1e-4)
      : theta2_(theta * theta), eps2_(eps2) {}

  /// (Re)build over the given sources. Positions/masses are copied.
  void build(std::span<const Vec3> positions, std::span<const double> masses);

  std::size_t source_count() const noexcept { return src_pos_.size(); }

  /// Acceleration at one point (counts into the member counter; do not call
  /// concurrently — use the counter-taking overload from parallel code).
  Vec3 accel_at(const Vec3& point) const;
  /// Thread-safe variant: interactions are added to `interactions` instead
  /// of the member counter. Reuses a per-thread traversal stack.
  Vec3 accel_at(const Vec3& point, std::uint64_t& interactions) const;

  /// Potential at one point (for diagnostics / boundness checks).
  double potential_at(const Vec3& point) const;
  double potential_at(const Vec3& point, std::uint64_t& interactions) const;

  /// Batch acceleration/potential at many points, parallel over the thread
  /// pool. `out` must have points.size() elements.
  void accel_at(std::span<const Vec3> points, std::span<Vec3> out) const;
  void potential_at(std::span<const Vec3> points, std::span<double> out) const;

  /// Pool for the batch evaluations; nullptr (default) = ThreadPool::global().
  void set_thread_pool(util::ThreadPool* pool) noexcept { pool_ = pool; }

  /// Vectorized near-leaf acceleration sums (simd.hpp lanes) over the packed
  /// leaf SoA. Off = the scalar body-by-body loop, the reference the vector
  /// path is benched against. The potential path is always scalar (it is a
  /// diagnostics path with exact self-exclusion semantics).
  void set_simd(bool enabled) noexcept { simd_ = enabled; }
  bool simd_enabled() const noexcept { return simd_; }

  double theta() const noexcept { return std::sqrt(theta2_); }
  double eps2() const noexcept { return eps2_; }

  /// Cell/particle interactions evaluated since construction.
  std::uint64_t interactions() const noexcept { return interactions_; }
  static constexpr double kFlopsPerInteraction = 24.0;
  /// Cost of a build, per particle (sorting/insertion work).
  static constexpr double kBuildFlopsPerParticle = 80.0;

  static constexpr int kLeafCapacity = 8;

 private:
  template <bool Potential>
  void field_at(const Vec3& point, Vec3* accel, double* phi,
                std::uint64_t& interactions) const;
  /// Pool fan-out shared by the batch overloads: evaluates
  /// eval(point, counter) per point and folds the per-lane interaction
  /// counts into the member counter after the join.
  template <typename T, typename EvalFn>
  void batch_eval(std::span<const Vec3> points, std::span<T> out,
                  EvalFn eval) const;

  double theta2_;
  double eps2_;
  bool simd_ = true;
  util::ThreadPool* pool_ = nullptr;

  // Packed cells (SoA, breadth-first, children contiguous). A cell is a
  // leaf iff cell_first_child_[c] < 0; its bodies are
  // leaf_bodies_[cell_body_begin_[c] .. +cell_body_count_[c]).
  std::vector<Vec3> cell_com_;
  std::vector<double> cell_mass_;
  std::vector<double> cell_size2_;  // (cell edge length)^2, for the MAC
  std::vector<std::int32_t> cell_first_child_;
  std::vector<std::int32_t> cell_child_count_;
  std::vector<std::int32_t> cell_body_begin_;
  std::vector<std::int32_t> cell_body_count_;
  std::vector<std::int32_t> leaf_bodies_;
  // Leaf body coordinates/masses packed parallel to leaf_bodies_, so the
  // near-leaf loop reads contiguous lanes instead of gathering through the
  // body index indirection.
  std::vector<double> leaf_x_, leaf_y_, leaf_z_, leaf_m_;

  std::vector<Vec3> src_pos_;
  std::vector<double> src_mass_;
  mutable std::uint64_t interactions_ = 0;
};

}  // namespace jungle::kernels
