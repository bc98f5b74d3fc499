#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "kernels/bhtree.hpp"
#include "kernels/vec3.hpp"

namespace jungle::util {
class ThreadPool;
}

namespace jungle::kernels {

/// Smoothed-particle hydrodynamics with tree self-gravity — the Gadget-2
/// analog (Springel 2005): cubic-spline kernel, adaptive smoothing lengths,
/// entropy formulation (P = A rho^gamma), Monaghan artificial viscosity,
/// leapfrog KDK with a global CFL timestep. N-body units, G = 1.
///
/// The `compute_*` methods take an index range so the parallel (MPI) worker
/// can partition the work across ranks exactly like a replicated-data
/// parallel SPH code; the serial path uses the full range.
class SphSystem {
 public:
  struct Params {
    double gamma = 5.0 / 3.0;   // adiabatic index
    double alpha_visc = 1.0;    // Monaghan viscosity
    double beta_visc = 2.0;
    double cfl = 0.25;
    double eps2 = 1e-4;         // gravitational softening^2
    double eta_h = 1.3;         // h = eta_h * (m/rho)^(1/3)
    double theta = 0.6;         // tree opening angle
    double dt_max = 0.01;
    bool self_gravity = true;
  };

  SphSystem();
  explicit SphSystem(Params params);

  int add_particle(double mass, Vec3 position, Vec3 velocity,
                   double internal_energy);
  std::size_t size() const noexcept { return mass_.size(); }

  /// Advance to t_end with global adaptive steps.
  void evolve(double t_end);
  double time() const noexcept { return time_; }

  // -- phase pieces, exposed for the parallel worker --
  /// Rebuild neighbor structures + gravity tree for the current positions.
  void prepare_step();
  /// Density, smoothing length, pressure and sound speed for particles
  /// [lo, hi).
  void compute_density(std::size_t lo, std::size_t hi);
  /// Hydro + gravity accelerations and entropy rate for [lo, hi).
  /// Requires compute_density to have covered *all* particles.
  void compute_forces(std::size_t lo, std::size_t hi);
  /// Global timestep from the CFL criterion over [lo, hi) (min-reduce the
  /// per-rank results before integrate()).
  double timestep(std::size_t lo, std::size_t hi) const;
  /// Kick-drift positions/velocities for [lo, hi).
  void integrate(std::size_t lo, std::size_t hi, double dt);
  void advance_time(double dt) { time_ += dt; }
  /// Restore the absolute model clock into a fresh system (checkpoint
  /// restart). Forces are re-derived per substep, but the density fixed
  /// point starts from each particle's previous smoothing length, which a
  /// fresh system seeds at 0.1: the clock alone does not reproduce the
  /// running system's next step bit for bit.
  void set_time(double t) noexcept { time_ = t; }

  // -- state access --
  const std::vector<double>& masses() const noexcept { return mass_; }
  const std::vector<Vec3>& positions() const noexcept { return pos_; }
  const std::vector<Vec3>& velocities() const noexcept { return vel_; }
  const std::vector<Vec3>& accelerations() const noexcept { return acc_; }
  const std::vector<double>& densities() const noexcept { return rho_; }
  const std::vector<double>& smoothing() const noexcept { return h_; }
  std::vector<double> internal_energies() const;
  void set_position(int index, Vec3 p) { pos_.at(index) = p; }
  void set_velocity(int index, Vec3 v) { vel_.at(index) = v; }
  void kick(int index, Vec3 delta_v) { vel_.at(index) += delta_v; }

  /// Thermal feedback: add internal energy (entropy at fixed density) to a
  /// particle — how stellar winds and supernovae couple into the gas.
  void inject_energy(int index, double delta_internal_energy);

  double kinetic_energy() const;
  double thermal_energy() const;
  double potential_energy() const;

  Params& params() noexcept { return params_; }

  /// Pool for the parallel density/force passes; nullptr (default) uses
  /// util::ThreadPool::global().
  void set_thread_pool(util::ThreadPool* pool) noexcept {
    pool_ = pool;
    tree_.set_thread_pool(pool);
  }

  /// Vectorized density accumulation (simd.hpp lanes) over a gathered
  /// neighbour SoA, plus the tree's vector path. Off = the scalar loops,
  /// the reference the vector path is benched against.
  void set_simd(bool enabled) noexcept {
    simd_ = enabled;
    tree_.set_simd(enabled);
  }
  bool simd_enabled() const noexcept { return simd_; }

  /// Neighbour indices of particle `i` within `radius`, sorted ascending.
  /// Requires prepare_step() to have built the grid for current positions.
  /// Test/diagnostic helper — the hot paths use the buffer-reusing search.
  std::vector<int> neighbours_of(int i, double radius) const;

  /// Neighbour-pair and tree interaction counts (cost model input).
  std::uint64_t neighbour_interactions() const noexcept { return ngb_count_; }
  std::uint64_t tree_interactions() const noexcept { return tree_count_; }
  /// Candidates the density and force searches tested against their radius
  /// (members of every grid cell they did not prune). Diagnostic only: the
  /// cost model charges neighbour_interactions(), not this.
  std::uint64_t distance_tests() const noexcept { return test_count_; }
  /// Global adaptive steps taken (prepare_step calls) — counts once per
  /// substep in both the serial and the rank-parallel evolve paths.
  std::uint64_t substeps() const noexcept { return substeps_; }
  static constexpr double kFlopsPerNeighbour = 60.0;
  static constexpr double kFlopsPerTreeInteraction = 24.0;

 private:
  /// A neighbour list: the first `count` entries are particle indices in
  /// search order, each with its squared distance to the query,
  /// `(pos_[j] - p).norm2()`. The vectors are buffers at least `count` long,
  /// so the search can store every candidate and advance `count` only past
  /// the ones in range, without a branch per candidate.
  struct Neighbours {
    std::vector<int> index;
    std::vector<double> d2;
    std::size_t count = 0;
    std::size_t size() const noexcept { return count; }
    void clear() noexcept { count = 0; }
  };
  /// Per-lane counters of one density or force pass.
  struct PassCounts {
    std::uint64_t ngb = 0;
    std::uint64_t tests = 0;
    std::uint64_t tree = 0;
  };

  double kernel_w(double r, double h) const;
  double kernel_dw(double r, double h) const;  // dW/dr
  /// Append the particles within `radius` of `p` to `out` (not cleared), in
  /// cell order (z, then y, then x) and by index within a cell; adds the
  /// candidates tested to `tests`.
  void neighbours(const Vec3& p, double radius, Neighbours& out,
                  std::uint64_t& tests) const;
  void build_grid();
  double density_sum(std::size_t i, const Neighbours& list) const;
  void density_at(std::size_t i, Neighbours& list, PassCounts& counts);
  void force_at(std::size_t i, double h_max, Neighbours& list,
                PassCounts& counts);
  util::ThreadPool& resolve_pool() const;

  Params params_;
  double time_ = 0.0;
  std::vector<double> mass_;
  std::vector<Vec3> pos_, vel_, acc_;
  std::vector<double> entropy_;  // A in P = A rho^gamma
  std::vector<double> pending_u_;  // u awaiting first density (-1 = done)
  std::vector<double> h_, rho_;
  /// The largest smoothing length, computed by the first force pass after
  /// a density pass and shared by every slice's force pass (a rank-parallel
  /// model runs one per rank) until the next density pass.
  double h_max_ = 0.0;
  bool h_max_current_ = false;
  // Per-substep caches: pressure and sound speed from the entropy
  // formulation, filled per particle by the density pass instead of
  // pow()-per-pair in the force pass.
  std::vector<double> pressure_, csound_;
  BarnesHutTree tree_;
  bool simd_ = true;
  util::ThreadPool* pool_ = nullptr;

  // Uniform hash grid for neighbour search, CSR layout: the particles of
  // cell c are cell_items_[cell_start_[c] .. cell_start_[c+1]), ascending.
  // The cell is 2 * max(h), but at most 1/8 of the largest extent and at
  // most 128 cells per axis (the last cell on an axis holds everything past
  // the cap), so a query may span more than 3 cells per axis and a cell may
  // be far larger than its nominal size.
  double cell_size_ = 0.0;
  Vec3 grid_origin_{};
  int grid_dim_[3] = {0, 0, 0};
  std::vector<std::int32_t> cell_start_;
  std::vector<std::int32_t> cell_items_;
  // Slot-ordered copies of the positions (cell_x_[k] = pos_[cell_items_[k]].x)
  // that the candidate test streams through.
  std::vector<double> cell_x_, cell_y_, cell_z_;
  // Bounding box of each occupied cell's particles; the search skips a cell
  // whose box is out of reach. Cell c's box is
  // cell_box_[box_of_slot_[cell_start_[c]]] (only first slots are set), so
  // both are O(n) however many cells the grid has.
  struct Box {
    Vec3 lo, hi;
  };
  std::vector<Box> cell_box_;
  std::vector<std::int32_t> box_of_slot_;

  std::uint64_t ngb_count_ = 0;
  std::uint64_t test_count_ = 0;
  std::uint64_t tree_count_ = 0;
  std::uint64_t substeps_ = 0;
};

}  // namespace jungle::kernels
