#include "kernels/sph.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "kernels/simd.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace jungle::kernels {

namespace {
constexpr double kPi = 3.14159265358979323846;

// Gather buffer for the vectorized density pass (neighbour masses as SoA
// lanes). Thread-local so the parallel density pass needs no per-call
// allocation and no sharing.
thread_local std::vector<double> tl_gm;
}

SphSystem::SphSystem() : SphSystem(Params{}) {}
SphSystem::SphSystem(Params params) : params_(params) {}

int SphSystem::add_particle(double mass, Vec3 position, Vec3 velocity,
                            double internal_energy) {
  mass_.push_back(mass);
  pos_.push_back(position);
  vel_.push_back(velocity);
  acc_.push_back({});
  // Entropy from u: u = A rho^(gamma-1) / (gamma-1); rho is unknown until
  // the first density pass, so stash u and convert lazily with rho=1; the
  // first prepare/density/convert cycle fixes the scale consistently
  // because we recompute A from u after the first density pass.
  entropy_.push_back(internal_energy * (params_.gamma - 1.0));
  pending_u_.push_back(internal_energy);
  h_.push_back(0.1);
  h_max_current_ = false;
  rho_.push_back(1.0);
  return static_cast<int>(mass_.size()) - 1;
}

double SphSystem::kernel_w(double r, double h) const {
  // Cubic spline (Monaghan & Lattanzio 1985), support 2h, 3D normalization.
  double q = r / h;
  double sigma = 1.0 / (kPi * h * h * h);
  if (q < 1.0) {
    return sigma * (1.0 - 1.5 * q * q + 0.75 * q * q * q);
  }
  if (q < 2.0) {
    double t = 2.0 - q;
    return sigma * 0.25 * t * t * t;
  }
  return 0.0;
}

double SphSystem::kernel_dw(double r, double h) const {
  double q = r / h;
  double sigma = 1.0 / (kPi * h * h * h * h);
  if (q < 1.0) {
    return sigma * (-3.0 * q + 2.25 * q * q);
  }
  if (q < 2.0) {
    double t = 2.0 - q;
    return sigma * (-0.75 * t * t);
  }
  return 0.0;
}

void SphSystem::build_grid() {
  const std::size_t n = mass_.size();
  if (n == 0) return;
  // Cell size is the largest support radius (2 h_max), capped below.
  double h_max = 0.0;
  for (double h : h_) h_max = std::max(h_max, h);
  Vec3 lo = pos_[0], hi = pos_[0];
  for (const Vec3& p : pos_) {
    lo.x = std::min(lo.x, p.x);
    lo.y = std::min(lo.y, p.y);
    lo.z = std::min(lo.z, p.z);
    hi.x = std::max(hi.x, p.x);
    hi.y = std::max(hi.y, p.y);
    hi.z = std::max(hi.z, p.z);
  }
  // A single runaway h (an ejected isolated particle whose rho floors and h
  // inflates) must not collapse the whole grid to one cell and turn every
  // query O(N): cap the cell at 1/8 of the largest extent, so the grid
  // keeps at least 8 cells per axis. Queries wider than a cell still see
  // every neighbour via the span loop in neighbours().
  double max_extent =
      std::max({hi.x - lo.x, hi.y - lo.y, hi.z - lo.z, 8e-6});
  cell_size_ = std::max(1e-6, std::min(2.0 * h_max, max_extent / 8.0));
  grid_origin_ = lo;
  for (int d = 0; d < 3; ++d) {
    double extent = d == 0 ? hi.x - lo.x : d == 1 ? hi.y - lo.y : hi.z - lo.z;
    grid_dim_[d] =
        std::max(1, std::min(128, static_cast<int>(extent / cell_size_) + 1));
  }
  // Counting sort into a CSR layout: one pass to count, one to place.
  std::size_t ncells = static_cast<std::size_t>(grid_dim_[0]) * grid_dim_[1] *
                       grid_dim_[2];
  auto cell_of = [&](const Vec3& p) {
    int cx = std::min(grid_dim_[0] - 1,
                      std::max(0, static_cast<int>((p.x - lo.x) / cell_size_)));
    int cy = std::min(grid_dim_[1] - 1,
                      std::max(0, static_cast<int>((p.y - lo.y) / cell_size_)));
    int cz = std::min(grid_dim_[2] - 1,
                      std::max(0, static_cast<int>((p.z - lo.z) / cell_size_)));
    return (static_cast<std::size_t>(cz) * grid_dim_[1] + cy) * grid_dim_[0] +
           cx;
  };
  cell_start_.assign(ncells + 1, 0);
  for (const Vec3& p : pos_) ++cell_start_[cell_of(p) + 1];
  for (std::size_t c = 0; c < ncells; ++c) cell_start_[c + 1] += cell_start_[c];
  cell_items_.resize(n);
  cell_x_.resize(n);
  cell_y_.resize(n);
  cell_z_.resize(n);
  box_of_slot_.resize(n);
  cell_box_.clear();
  std::vector<std::int32_t> cursor(cell_start_.begin(), cell_start_.end() - 1);
  for (int i = 0; i < static_cast<int>(n); ++i) {
    const Vec3& p = pos_[i];
    std::size_t c = cell_of(p);
    std::int32_t k = cursor[c]++;
    cell_items_[k] = i;
    cell_x_[k] = p.x;
    cell_y_[k] = p.y;
    cell_z_[k] = p.z;
    if (k == cell_start_[c]) {
      box_of_slot_[k] = static_cast<std::int32_t>(cell_box_.size());
      cell_box_.push_back({p, p});
    } else {
      Box& box = cell_box_[box_of_slot_[cell_start_[c]]];
      box.lo = {std::min(box.lo.x, p.x), std::min(box.lo.y, p.y),
                std::min(box.lo.z, p.z)};
      box.hi = {std::max(box.hi.x, p.x), std::max(box.hi.y, p.y),
                std::max(box.hi.z, p.z)};
    }
  }
}

void SphSystem::neighbours(const Vec3& p, double radius, Neighbours& out,
                           std::uint64_t& tests) const {
  int span = static_cast<int>(radius / cell_size_) + 1;
  // Clamped like build_grid() clamps particles: past the 128-cell cap, the
  // last cell holds everything beyond it.
  auto clamped_cell = [&](double offset, int dim) {
    return std::clamp(static_cast<int>(offset / cell_size_), 0, dim - 1);
  };
  int cx = clamped_cell(p.x - grid_origin_.x, grid_dim_[0]);
  int cy = clamped_cell(p.y - grid_origin_.y, grid_dim_[1]);
  int cz = clamped_cell(p.z - grid_origin_.z, grid_dim_[2]);
  const double r2 = radius * radius;
  const double px = p.x, py = p.y, pz = p.z;
  // Distance from p to [lo, hi] along one axis, 0 inside.
  auto gap = [](double x, double lo, double hi) {
    return std::max(0.0, std::max(lo - x, x - hi));
  };
  for (int z = std::max(0, cz - span);
       z <= std::min(grid_dim_[2] - 1, cz + span); ++z) {
    for (int y = std::max(0, cy - span);
         y <= std::min(grid_dim_[1] - 1, cy + span); ++y) {
      for (int x = std::max(0, cx - span);
           x <= std::min(grid_dim_[0] - 1, cx + span); ++x) {
        std::size_t cell =
            (static_cast<std::size_t>(z) * grid_dim_[1] + y) * grid_dim_[0] +
            x;
        const std::int32_t begin = cell_start_[cell];
        const std::int32_t end = cell_start_[cell + 1];
        if (begin == end) continue;
        // Rounding is monotone, so for every member q of the box each gap
        // term is at most q's own |q - p| term, and the gap's norm2 at most
        // q's: a pruned cell holds no particle within the radius.
        const Box& box = cell_box_[box_of_slot_[begin]];
        double gx = gap(px, box.lo.x, box.hi.x);
        double gy = gap(py, box.lo.y, box.hi.y);
        double gz = gap(pz, box.lo.z, box.hi.z);
        if (gx * gx + gy * gy + gz * gz > r2) continue;
        const auto members = static_cast<std::size_t>(end - begin);
        tests += members;
        const std::size_t need = out.count + members;
        if (out.index.size() < need) {
          out.index.resize(2 * need);
          out.d2.resize(2 * need);
        }
        int* index = out.index.data();
        double* dist2 = out.d2.data();
        std::size_t count = out.count;
        for (std::int32_t k = begin; k < end; ++k) {
          // (pos_[j] - p).norm2(), term for term.
          double dx = cell_x_[k] - px;
          double dy = cell_y_[k] - py;
          double dz = cell_z_[k] - pz;
          double d2 = dx * dx + dy * dy + dz * dz;
          index[count] = cell_items_[k];
          dist2[count] = d2;
          count += d2 <= r2 ? 1 : 0;
        }
        out.count = count;
      }
    }
  }
}

std::vector<int> SphSystem::neighbours_of(int i, double radius) const {
  Neighbours found;
  std::uint64_t tests = 0;
  neighbours(pos_.at(i), radius, found, tests);
  found.index.resize(found.count);
  std::sort(found.index.begin(), found.index.end());
  return found.index;
}

util::ThreadPool& SphSystem::resolve_pool() const {
  return pool_ ? *pool_ : util::ThreadPool::global();
}

void SphSystem::prepare_step() {
  ++substeps_;
  build_grid();
  if (params_.self_gravity) {
    tree_ = BarnesHutTree(params_.theta, params_.eps2);
    tree_.set_thread_pool(pool_);
    tree_.build(pos_, mass_);
  }
}

double SphSystem::density_sum(std::size_t i, const Neighbours& list) const {
  // r = sqrt(d2) is (pos_[j] - pos_[i]).norm() bit for bit: the search
  // computed d2 from the same coordinates with the same operations.
  const double h = h_[i];
  const std::size_t m = list.size();
  double rho = 0.0;
  std::size_t k = 0;
  // The mass gather only pays for itself once the list is a few vectors
  // long; short lists stay on the scalar loop.
  constexpr std::size_t kGatherMin = 4 * simd::kWidth;
  if (simd_ && simd::kWidth > 1 && m >= kGatherMin) {
    // Evaluate the cubic spline on whole lanes with the piecewise branches
    // folded into bitwise selects. The per-lane arithmetic mirrors
    // kernel_w() exactly; only the summation order across neighbours
    // differs from the scalar loop.
    namespace sd = simd;
    constexpr std::size_t W = sd::kWidth;
    tl_gm.resize(m);
    for (std::size_t g = 0; g < m; ++g) tl_gm[g] = mass_[list.index[g]];
    const sd::VecD inv_h = sd::set1(1.0 / h);
    const sd::VecD sigma = sd::set1(1.0 / (kPi * h * h * h));
    const sd::VecD onev = sd::set1(1.0), twov = sd::set1(2.0);
    const sd::VecD c15 = sd::set1(1.5), c075 = sd::set1(0.75),
                   c025 = sd::set1(0.25);
    const sd::VecD zerov = sd::zero();
    sd::VecD rhov = sd::zero();
    for (; k + W <= m; k += W) {
      sd::VecD r = sd::sqrt(sd::load(&list.d2[k]));
      sd::VecD q = r * inv_h;
      sd::VecD q2 = q * q;
      sd::VecD inner = sigma * (onev - c15 * q2 + c075 * q2 * q);
      sd::VecD t = twov - q;
      sd::VecD outer = sigma * c025 * t * t * t;
      sd::VecD w = sd::select(sd::less(q, onev), inner,
                              sd::select(sd::less(q, twov), outer, zerov));
      rhov = rhov + sd::load(&tl_gm[k]) * w;
    }
    rho += sd::hsum(rhov);
  }
  for (; k < m; ++k) {
    rho += mass_[list.index[k]] * kernel_w(std::sqrt(list.d2[k]), h);
  }
  return rho;
}

void SphSystem::density_at(std::size_t i, Neighbours& list,
                           PassCounts& counts) {
  // Fixed-point iteration coupling h and rho: h = eta (m/rho)^{1/3}. One
  // search serves both iterations unless h grew: a narrower radius keeps
  // exactly the entries within it, in the same order, so the second list
  // is what a second search would have returned.
  const Vec3 p = pos_[i];
  double radius = 2.0 * h_[i];
  list.clear();
  neighbours(p, radius, list, counts.tests);
  for (int iteration = 0; iteration < 2; ++iteration) {
    if (iteration > 0) {
      const double narrowed = 2.0 * h_[i];
      if (narrowed <= radius) {
        const double r2 = narrowed * narrowed;
        std::size_t kept = 0;
        for (std::size_t k = 0; k < list.count; ++k) {
          list.index[kept] = list.index[k];
          list.d2[kept] = list.d2[k];
          kept += list.d2[k] <= r2 ? 1 : 0;
        }
        list.count = kept;
      } else {
        list.clear();
        neighbours(p, narrowed, list, counts.tests);
      }
      radius = narrowed;
    }
    counts.ngb += list.size();
    rho_[i] = std::max(density_sum(i, list), 1e-12);
    h_[i] = params_.eta_h * std::cbrt(mass_[i] / rho_[i]);
  }
  if (!pending_u_.empty() && pending_u_[i] >= 0.0) {
    // First density known: fix the entropy constant from the stored u.
    entropy_[i] = pending_u_[i] * (params_.gamma - 1.0) /
                  std::pow(rho_[i], params_.gamma - 1.0);
    pending_u_[i] = -1.0;
  }
}

void SphSystem::compute_density(std::size_t lo, std::size_t hi) {
  h_max_current_ = false;  // this pass moves smoothing lengths
  util::ThreadPool& pool = resolve_pool();
  util::PerLane<Neighbours> lists(pool);
  util::PerLane<PassCounts> counts(pool);
  // Pressure and sound speed depend only on the particle's own entropy and
  // density, which are final once its density solve ends: fill them here,
  // for this slice only, so the force pass's pair loop reads them without a
  // pow() per pair and no rank refills another's slice.
  const double gamma = params_.gamma;
  pressure_.resize(mass_.size());
  csound_.resize(mass_.size());
  // Each particle writes only its own rho/h/entropy/pressure slots, so the
  // pass is thread-count independent.
  pool.parallel_for(lo, hi, 16,
                    [&](std::size_t a, std::size_t b, unsigned lane) {
                      for (std::size_t i = a; i < b; ++i) {
                        density_at(i, lists[lane], counts[lane]);
                        pressure_[i] = entropy_[i] * std::pow(rho_[i], gamma);
                        csound_[i] = std::sqrt(gamma * pressure_[i] / rho_[i]);
                      }
                    });
  counts.for_each([&](const PassCounts& c) {
    ngb_count_ += c.ngb;
    test_count_ += c.tests;
  });
}

void SphSystem::force_at(std::size_t i, double h_max, Neighbours& list,
                         PassCounts& counts) {
  Vec3 accel{};
  double p_i = pressure_[i];
  double c_i = csound_[i];
  list.clear();
  // Symmetric pair rule: i and j interact iff r < h_i + h_j (the support
  // of W(r, h_mean)). Using 2 h_i here would drop one direction of a pair
  // with unequal h and break momentum conservation; the search radius must
  // therefore reach out to h_i + max_j h_j.
  neighbours(pos_[i], h_[i] + h_max, list, counts.tests);
  counts.ngb += list.size();
  for (std::size_t k = 0; k < list.size(); ++k) {
    int j = list.index[k];
    if (j == static_cast<int>(i)) continue;
    double r = std::sqrt(list.d2[k]);  // (pos_[i] - pos_[j]).norm()
    if (r <= 0.0) continue;
    if (r >= 0.5 * (h_[i] + h_[j]) * 2.0) continue;  // outside W support
    Vec3 dr = pos_[i] - pos_[j];
    double p_j = pressure_[j];
    double h_mean = 0.5 * (h_[i] + h_[j]);
    double dw = kernel_dw(r, h_mean);
    // Artificial viscosity (Monaghan 1992).
    Vec3 dv = vel_[i] - vel_[j];
    double visc = 0.0;
    double rv = dv.dot(dr);
    if (rv < 0.0) {
      double c_j = csound_[j];
      double mu = h_mean * rv / (r * r + 0.01 * h_mean * h_mean);
      double rho_mean = 0.5 * (rho_[i] + rho_[j]);
      visc = (-params_.alpha_visc * 0.5 * (c_i + c_j) * mu +
              params_.beta_visc * mu * mu) /
             rho_mean;
    }
    double term = p_i / (rho_[i] * rho_[i]) + p_j / (rho_[j] * rho_[j]) +
                  visc;
    accel -= mass_[j] * term * dw * (1.0 / r) * dr;
  }
  if (params_.self_gravity) {
    accel += tree_.accel_at(pos_[i], counts.tree);
  }
  acc_[i] = accel;
}

void SphSystem::compute_forces(std::size_t lo, std::size_t hi) {
  // Every slice's force pass after one density pass shares one h_max.
  if (!h_max_current_) {
    h_max_ = 0.0;
    for (double h : h_) h_max_ = std::max(h_max_, h);
    h_max_current_ = true;
  }
  const double h_max = h_max_;
  util::ThreadPool& pool = resolve_pool();
  util::PerLane<Neighbours> lists(pool);
  util::PerLane<PassCounts> counts(pool);
  pool.parallel_for(lo, hi, 16,
                    [&](std::size_t a, std::size_t b, unsigned lane) {
                      for (std::size_t i = a; i < b; ++i) {
                        force_at(i, h_max, lists[lane], counts[lane]);
                      }
                    });
  counts.for_each([&](const PassCounts& c) {
    ngb_count_ += c.ngb;
    test_count_ += c.tests;
    tree_count_ += c.tree;
  });
}

double SphSystem::timestep(std::size_t lo, std::size_t hi) const {
  double dt = params_.dt_max;
  const double gamma = params_.gamma;
  for (std::size_t i = lo; i < hi; ++i) {
    double p_i = entropy_[i] * std::pow(rho_[i], gamma);
    double c_i = std::sqrt(gamma * p_i / rho_[i]);
    double v = vel_[i].norm();
    dt = std::min(dt, params_.cfl * h_[i] / (c_i + v + 1e-12));
    double a = acc_[i].norm();
    if (a > 0) dt = std::min(dt, 0.25 * std::sqrt(h_[i] / a));
  }
  return dt;
}

void SphSystem::integrate(std::size_t lo, std::size_t hi, double dt) {
  for (std::size_t i = lo; i < hi; ++i) {
    vel_[i] += acc_[i] * dt;
    pos_[i] += vel_[i] * dt;
  }
}

void SphSystem::evolve(double t_end) {
  if (mass_.empty()) {
    time_ = t_end;
    return;
  }
  while (time_ < t_end - 1e-15) {
    prepare_step();
    compute_density(0, size());
    compute_forces(0, size());
    double dt = std::min(timestep(0, size()), t_end - time_);
    integrate(0, size(), dt);
    time_ += dt;
  }
  time_ = t_end;
}

void SphSystem::inject_energy(int index, double delta_internal_energy) {
  if (pending_u_.at(index) >= 0.0) {
    // Density not known yet: fold into the pending internal energy so the
    // first density pass converts the sum consistently.
    pending_u_[index] += delta_internal_energy;
    return;
  }
  // u = A rho^(gamma-1)/(gamma-1)  =>  dA = du (gamma-1) / rho^(gamma-1)
  entropy_.at(index) += delta_internal_energy * (params_.gamma - 1.0) /
                        std::pow(rho_.at(index), params_.gamma - 1.0);
}

std::vector<double> SphSystem::internal_energies() const {
  std::vector<double> result(mass_.size());
  for (std::size_t i = 0; i < mass_.size(); ++i) {
    result[i] = entropy_[i] * std::pow(rho_[i], params_.gamma - 1.0) /
                (params_.gamma - 1.0);
  }
  return result;
}

double SphSystem::kinetic_energy() const {
  double energy = 0.0;
  for (std::size_t i = 0; i < mass_.size(); ++i) {
    energy += 0.5 * mass_[i] * vel_[i].norm2();
  }
  return energy;
}

double SphSystem::thermal_energy() const {
  double energy = 0.0;
  auto u = internal_energies();
  for (std::size_t i = 0; i < mass_.size(); ++i) energy += mass_[i] * u[i];
  return energy;
}

double SphSystem::potential_energy() const {
  // Tree-based estimate, adequate for diagnostics.
  BarnesHutTree tree(params_.theta, params_.eps2);
  tree.set_thread_pool(pool_);
  tree.build(pos_, mass_);
  std::vector<double> phi(mass_.size());
  tree.potential_at(pos_, phi);
  double energy = 0.0;
  for (std::size_t i = 0; i < mass_.size(); ++i) {
    energy += 0.5 * mass_[i] * phi[i];
  }
  return energy;
}

}  // namespace jungle::kernels
