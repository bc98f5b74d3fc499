#include "kernels/hermite.hpp"

#include <algorithm>
#include <array>
#include <limits>

#include "kernels/simd.hpp"
#include "util/parallel.hpp"

// A 2-lane SSE2 build still runs on hosts with AVX: there the tiled force
// path puts two i rows in one 256-bit register (hermite_row_pair below).
#if defined(JUNGLE_SIMD_SSE2) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define JUNGLE_HERMITE_ROW_PAIRS 1
#endif

namespace jungle::kernels {

namespace {
// Tile sizes for the parallel force path: an i-block's accumulators live in
// registers/stack while a j-tile of the SoA source arrays stays L1-resident
// (kJTile * 7 doubles = 28 KiB).
constexpr std::size_t kIBlock = 64;
constexpr std::size_t kJTile = 512;

// One row's acc and jerk partial sums over a j-tile.
struct RowSums {
  double ax = 0.0, ay = 0.0, az = 0.0, jx = 0.0, jy = 0.0, jz = 0.0;

  RowSums& operator+=(const RowSums& o) noexcept {
    ax += o.ax;
    ay += o.ay;
    az += o.az;
    jx += o.jx;
    jy += o.jy;
    jz += o.jz;
    return *this;
  }
};

#if JUNGLE_HERMITE_ROW_PAIRS
// The tiled path's j sources (SoA).
struct Sources {
  const double *x, *y, *z, *vx, *vy, *vz, *m;
};

struct PairTile {
  std::size_t tail;  // first j of the tail the vector loop left over
  RowSums rows[2];   // rows i and i + 1: lane0 + lane1 of each accumulator
};

// Rows i and i + 1 (i even) over the j-tile [jb, jend) (jb even), four
// lanes per 256-bit register: (i, j), (i, j+1), (i+1, j), (i+1, j+1). Each
// 128-bit half is the 2-lane SSE2 loop of its row — the same operations in
// the same order, reduced as lane0 + lane1 — so both rows' sums are
// bit-identical to the single-row path. The self block j == i, shared by
// both rows, is skipped; the caller runs it and the tail through the
// scalar loop. Target "avx" exactly: a target with FMA lets GCC contract
// mul+add and changes the bits. No lambdas in here either: they would not
// inherit the target.
__attribute__((target("avx"))) PairTile hermite_row_pair(
    const Sources& s, double eps2, std::size_t i, std::size_t jb,
    std::size_t jend) {
  const __m256d xi = _mm256_setr_pd(s.x[i], s.x[i], s.x[i + 1], s.x[i + 1]);
  const __m256d yi = _mm256_setr_pd(s.y[i], s.y[i], s.y[i + 1], s.y[i + 1]);
  const __m256d zi = _mm256_setr_pd(s.z[i], s.z[i], s.z[i + 1], s.z[i + 1]);
  const __m256d vxi =
      _mm256_setr_pd(s.vx[i], s.vx[i], s.vx[i + 1], s.vx[i + 1]);
  const __m256d vyi =
      _mm256_setr_pd(s.vy[i], s.vy[i], s.vy[i + 1], s.vy[i + 1]);
  const __m256d vzi =
      _mm256_setr_pd(s.vz[i], s.vz[i], s.vz[i + 1], s.vz[i + 1]);
  const __m256d eps2v = _mm256_set1_pd(eps2);
  const __m256d one = _mm256_set1_pd(1.0), three = _mm256_set1_pd(3.0);
  __m256d ax = _mm256_setzero_pd(), ay = _mm256_setzero_pd(),
          az = _mm256_setzero_pd();
  __m256d jx = _mm256_setzero_pd(), jy = _mm256_setzero_pd(),
          jz = _mm256_setzero_pd();
  std::size_t j = jb;
  for (; j + 2 <= jend; j += 2) {
    if (j == i) continue;
    // Sources j and j + 1, repeated for both rows. The 128-bit loads are
    // 16-byte aligned: vector storage from operator new, j even.
    __m256d dx = _mm256_sub_pd(
        _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(s.x + j)), xi);
    __m256d dy = _mm256_sub_pd(
        _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(s.y + j)), yi);
    __m256d dz = _mm256_sub_pd(
        _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(s.z + j)), zi);
    __m256d dvx = _mm256_sub_pd(
        _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(s.vx + j)), vxi);
    __m256d dvy = _mm256_sub_pd(
        _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(s.vy + j)), vyi);
    __m256d dvz = _mm256_sub_pd(
        _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(s.vz + j)), vzi);
    __m256d m =
        _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(s.m + j));
    __m256d r2 = _mm256_add_pd(
        _mm256_add_pd(_mm256_add_pd(_mm256_mul_pd(dx, dx),
                                    _mm256_mul_pd(dy, dy)),
                      _mm256_mul_pd(dz, dz)),
        eps2v);
    __m256d inv_r = _mm256_div_pd(one, _mm256_sqrt_pd(r2));
    __m256d inv_r2 = _mm256_mul_pd(inv_r, inv_r);
    __m256d inv_r3 = _mm256_mul_pd(inv_r2, inv_r);
    __m256d rv = _mm256_add_pd(
        _mm256_add_pd(_mm256_mul_pd(dx, dvx), _mm256_mul_pd(dy, dvy)),
        _mm256_mul_pd(dz, dvz));
    __m256d alpha = _mm256_mul_pd(_mm256_mul_pd(three, rv), inv_r2);
    __m256d m_r3 = _mm256_mul_pd(m, inv_r3);
    ax = _mm256_add_pd(ax, _mm256_mul_pd(m_r3, dx));
    ay = _mm256_add_pd(ay, _mm256_mul_pd(m_r3, dy));
    az = _mm256_add_pd(az, _mm256_mul_pd(m_r3, dz));
    jx = _mm256_add_pd(
        jx, _mm256_mul_pd(m_r3, _mm256_sub_pd(dvx, _mm256_mul_pd(alpha, dx))));
    jy = _mm256_add_pd(
        jy, _mm256_mul_pd(m_r3, _mm256_sub_pd(dvy, _mm256_mul_pd(alpha, dy))));
    jz = _mm256_add_pd(
        jz, _mm256_mul_pd(m_r3, _mm256_sub_pd(dvz, _mm256_mul_pd(alpha, dz))));
  }
  alignas(32) double lanes[6][4];
  _mm256_store_pd(lanes[0], ax);
  _mm256_store_pd(lanes[1], ay);
  _mm256_store_pd(lanes[2], az);
  _mm256_store_pd(lanes[3], jx);
  _mm256_store_pd(lanes[4], jy);
  _mm256_store_pd(lanes[5], jz);
  PairTile out{j, {}};
  for (std::size_t r = 0; r < 2; ++r) {
    const std::size_t l0 = 2 * r, l1 = 2 * r + 1;
    out.rows[r] = {lanes[0][l0] + lanes[0][l1], lanes[1][l0] + lanes[1][l1],
                   lanes[2][l0] + lanes[2][l1], lanes[3][l0] + lanes[3][l1],
                   lanes[4][l0] + lanes[4][l1], lanes[5][l0] + lanes[5][l1]};
  }
  return out;
}
#endif
}  // namespace

bool HermiteIntegrator::pairs_rows() noexcept {
#if JUNGLE_HERMITE_ROW_PAIRS
  static const bool avx = __builtin_cpu_supports("avx");  // once per process
  return avx;
#else
  return false;
#endif
}

HermiteIntegrator::HermiteIntegrator() : HermiteIntegrator(Params{}) {}
HermiteIntegrator::HermiteIntegrator(Params params) : params_(params) {}

int HermiteIntegrator::add_particle(double mass, Vec3 position, Vec3 velocity) {
  mass_.push_back(mass);
  pos_.push_back(position);
  vel_.push_back(velocity);
  acc_.push_back({});
  jerk_.push_back({});
  dirty_ = true;
  return static_cast<int>(mass_.size()) - 1;
}

void HermiteIntegrator::compute_forces(const std::vector<Vec3>& positions,
                                       const std::vector<Vec3>& velocities,
                                       std::vector<Vec3>& acc,
                                       std::vector<Vec3>& jerk) {
  const std::size_t n = mass_.size();
  acc.assign(n, {});
  jerk.assign(n, {});
  const std::size_t rlo = owned_lo();
  const std::size_t rhi = owned_hi();
  const bool partial = rlo > 0 || rhi < n;
  util::ThreadPool& pool = pool_ ? *pool_ : util::ThreadPool::global();
  if (!partial && n < kParallelThreshold) {
    // Sequential path: Newton's-third-law symmetric update, half the work.
    // Always scalar — this is the bit-exactness reference.
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        Vec3 dr = positions[j] - positions[i];
        Vec3 dv = velocities[j] - velocities[i];
        double r2 = dr.norm2() + params_.eps2;
        double r = std::sqrt(r2);
        double r3 = r2 * r;
        double rv = dr.dot(dv);
        // acc_i += m_j dr / r^3 ; jerk_i += m_j (dv/r^3 - 3 rv dr / r^5)
        double inv_r3 = 1.0 / r3;
        double alpha = 3.0 * rv / r2;
        Vec3 jpart = (dv - alpha * dr) * inv_r3;
        acc[i] += mass_[j] * inv_r3 * dr;
        jerk[i] += mass_[j] * jpart;
        acc[j] -= mass_[i] * inv_r3 * dr;
        jerk[j] -= mass_[i] * jpart;
      }
    }
    pairs_ += static_cast<std::uint64_t>(n) * (n - 1) / 2 * 2;  // i-j and j-i
    return;
  }

  // Tiled path: each i-block owns its acc/jerk rows outright (no symmetric
  // write to row j, so no contention), and walks the sources in L1-sized
  // j-tiles of SoA arrays. For a fixed i the j order is 0..n-1 regardless
  // of lane count, so results are independent of threading. A sharded
  // integrator restricts the i rows to its owned range; the j sources
  // always span the full system.
  sx_.resize(n);
  sy_.resize(n);
  sz_.resize(n);
  svx_.resize(n);
  svy_.resize(n);
  svz_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    sx_[i] = positions[i].x;
    sy_[i] = positions[i].y;
    sz_[i] = positions[i].z;
    svx_[i] = velocities[i].x;
    svy_[i] = velocities[i].y;
    svz_[i] = velocities[i].z;
  }
  const double eps2 = params_.eps2;
  const bool vectorize = simd_ && simd::kWidth > 1;
#if JUNGLE_HERMITE_ROW_PAIRS
  const bool row_pairs = vectorize && pairs_rows();
  const Sources src{sx_.data(),  sy_.data(),  sz_.data(), svx_.data(),
                    svy_.data(), svz_.data(), mass_.data()};
#endif
  pool.parallel_for(rlo, rhi, kIBlock, [&](std::size_t lo, std::size_t hi,
                                           unsigned /*lane*/) {
    std::array<double, kIBlock> ax{}, ay{}, az{}, jx{}, jy{}, jz{};
    // Scalar j-accumulation for row i: the reference loop (also the tail
    // and the self-lane block of the vector paths).
    auto scalar_range = [&](std::size_t i, std::size_t a, std::size_t b,
                            RowSums& sum) {
      const double xi = sx_[i], yi = sy_[i], zi = sz_[i];
      const double vxi = svx_[i], vyi = svy_[i], vzi = svz_[i];
      for (std::size_t j = a; j < b; ++j) {
        if (j == i) continue;
        double dx = sx_[j] - xi;
        double dy = sy_[j] - yi;
        double dz = sz_[j] - zi;
        double dvx = svx_[j] - vxi;
        double dvy = svy_[j] - vyi;
        double dvz = svz_[j] - vzi;
        double r2 = dx * dx + dy * dy + dz * dz + eps2;
        double inv_r = 1.0 / std::sqrt(r2);
        double inv_r2 = inv_r * inv_r;
        double inv_r3 = inv_r2 * inv_r;
        double rv = dx * dvx + dy * dvy + dz * dvz;
        double alpha = 3.0 * rv * inv_r2;
        double m_r3 = mass_[j] * inv_r3;
        sum.ax += m_r3 * dx;
        sum.ay += m_r3 * dy;
        sum.az += m_r3 * dz;
        sum.jx += m_r3 * (dvx - alpha * dx);
        sum.jy += m_r3 * (dvy - alpha * dy);
        sum.jz += m_r3 * (dvz - alpha * dz);
      }
    };
    auto add_row = [&](std::size_t i, const RowSums& sum) {
      ax[i - lo] += sum.ax;
      ay[i - lo] += sum.ay;
      az[i - lo] += sum.az;
      jx[i - lo] += sum.jx;
      jy[i - lo] += sum.jy;
      jz[i - lo] += sum.jz;
    };
    for (std::size_t jb = 0; jb < n; jb += kJTile) {
      std::size_t jend = std::min(n, jb + kJTile);
      for (std::size_t i = lo; i < hi; ++i) {
#if JUNGLE_HERMITE_ROW_PAIRS
        if (row_pairs && i % 2 == 0 && i + 1 < hi) {
          // Rows i and i + 1 share one AVX register; an odd leading row
          // (sharded range, chunk edge) or a lone trailing row falls
          // through to the single-row loop below.
          const PairTile tile = hermite_row_pair(src, eps2, i, jb, jend);
          for (std::size_t r = 0; r < 2; ++r) {
            RowSums sum;
            if (i >= jb && i < tile.tail) scalar_range(i + r, i, i + 2, sum);
            scalar_range(i + r, tile.tail, jend, sum);
            sum += tile.rows[r];
            add_row(i + r, sum);
          }
          ++i;  // the loop's own ++i steps past row i + 1
          continue;
        }
#endif
        RowSums sum;
        if (!vectorize) {
          scalar_range(i, jb, jend, sum);
        } else {
          namespace sd = simd;
          constexpr std::size_t W = sd::kWidth;
          sd::VecD axv = sd::zero(), ayv = sd::zero(), azv = sd::zero();
          sd::VecD jxv = sd::zero(), jyv = sd::zero(), jzv = sd::zero();
          const sd::VecD xiv = sd::set1(sx_[i]), yiv = sd::set1(sy_[i]),
                         ziv = sd::set1(sz_[i]);
          const sd::VecD vxiv = sd::set1(svx_[i]), vyiv = sd::set1(svy_[i]),
                         vziv = sd::set1(svz_[i]);
          const sd::VecD eps2v = sd::set1(eps2);
          const sd::VecD onev = sd::set1(1.0), threev = sd::set1(3.0);
          std::size_t j = jb;
          for (; j + W <= jend; j += W) {
            if (i >= j && i < j + W) {
              // The vector block containing i: take the scalar loop so the
              // j == i self-interaction is skipped exactly, softening-free
              // configurations included.
              scalar_range(i, j, j + W, sum);
              continue;
            }
            sd::VecD dx = sd::load(&sx_[j]) - xiv;
            sd::VecD dy = sd::load(&sy_[j]) - yiv;
            sd::VecD dz = sd::load(&sz_[j]) - ziv;
            sd::VecD dvx = sd::load(&svx_[j]) - vxiv;
            sd::VecD dvy = sd::load(&svy_[j]) - vyiv;
            sd::VecD dvz = sd::load(&svz_[j]) - vziv;
            sd::VecD r2 = dx * dx + dy * dy + dz * dz + eps2v;
            sd::VecD inv_r = onev / sd::sqrt(r2);
            sd::VecD inv_r2 = inv_r * inv_r;
            sd::VecD inv_r3 = inv_r2 * inv_r;
            sd::VecD rv = dx * dvx + dy * dvy + dz * dvz;
            sd::VecD alpha = threev * rv * inv_r2;
            sd::VecD m_r3 = sd::load(&mass_[j]) * inv_r3;
            axv = axv + m_r3 * dx;
            ayv = ayv + m_r3 * dy;
            azv = azv + m_r3 * dz;
            jxv = jxv + m_r3 * (dvx - alpha * dx);
            jyv = jyv + m_r3 * (dvy - alpha * dy);
            jzv = jzv + m_r3 * (dvz - alpha * dz);
          }
          scalar_range(i, j, jend, sum);  // tail
          sum += {sd::hsum(axv), sd::hsum(ayv), sd::hsum(azv),
                  sd::hsum(jxv), sd::hsum(jyv), sd::hsum(jzv)};
        }
        add_row(i, sum);
      }
    }
    for (std::size_t i = lo; i < hi; ++i) {
      acc[i] = {ax[i - lo], ay[i - lo], az[i - lo]};
      jerk[i] = {jx[i - lo], jy[i - lo], jz[i - lo]};
    }
  });
  pairs_ += static_cast<std::uint64_t>(rhi - rlo) * (n - 1);
}

double HermiteIntegrator::shared_timestep() const {
  // Sharded integrators derive the step from their owned rows only (ghost
  // rows carry zero forces); the client-level protocol does not require the
  // shards to agree on dt — each shard advances its owned rows to the same
  // t_end on its own substep sequence.
  double dt = params_.dt_max;
  for (std::size_t i = owned_lo(); i < owned_hi(); ++i) {
    double a = acc_[i].norm();
    double j = jerk_[i].norm();
    if (j > 0.0 && a > 0.0) {
      dt = std::min(dt, params_.eta * a / j);
    }
  }
  return dt;
}

void HermiteIntegrator::evolve(double t_end) {
  const std::size_t n = mass_.size();
  if (n == 0) {
    time_ = t_end;
    return;
  }
  if (dirty_) {
    compute_forces(pos_, vel_, acc_, jerk_);
    dirty_ = false;
  }
  const std::size_t rlo = owned_lo();
  const std::size_t rhi = owned_hi();
  std::vector<Vec3> pred_pos(n), pred_vel(n), new_acc(n), new_jerk(n);
  while (time_ < t_end - 1e-15) {
    double dt = std::min(shared_timestep(), t_end - time_);
    double dt2 = dt * dt / 2.0;
    double dt3 = dt2 * dt / 3.0;
    // Predictor (Taylor expansion to 3rd order in position). Ghost rows of a
    // sharded integrator carry zero acc/jerk, so the same expression drifts
    // them ballistically on their last-exchanged velocity; with the default
    // full owned range the branch below is always the Hermite one and the
    // arithmetic is identical to the unsharded integrator.
    for (std::size_t i = 0; i < n; ++i) {
      pred_pos[i] = pos_[i] + dt * vel_[i] + dt2 * acc_[i] + dt3 * jerk_[i];
      pred_vel[i] = vel_[i] + dt * acc_[i] + dt2 * jerk_[i];
    }
    compute_forces(pred_pos, pred_vel, new_acc, new_jerk);
    // Hermite corrector for owned rows; ghosts keep the drifted prediction.
    for (std::size_t i = 0; i < n; ++i) {
      if (i >= rlo && i < rhi) {
        Vec3 vel_corr = vel_[i] + dt / 2.0 * (acc_[i] + new_acc[i]) +
                        dt * dt / 12.0 * (jerk_[i] - new_jerk[i]);
        Vec3 pos_corr = pos_[i] + dt / 2.0 * (vel_[i] + vel_corr) +
                        dt * dt / 12.0 * (acc_[i] - new_acc[i]);
        pos_[i] = pos_corr;
        vel_[i] = vel_corr;
        acc_[i] = new_acc[i];
        jerk_[i] = new_jerk[i];
      } else {
        pos_[i] = pred_pos[i];
        vel_[i] = pred_vel[i];
      }
    }
    time_ += dt;
    ++substeps_;
  }
  time_ = t_end;
}

double HermiteIntegrator::kinetic_energy() const {
  double energy = 0.0;
  for (std::size_t i = 0; i < mass_.size(); ++i) {
    energy += 0.5 * mass_[i] * vel_[i].norm2();
  }
  return energy;
}

double HermiteIntegrator::potential_energy() const {
  double energy = 0.0;
  for (std::size_t i = 0; i < mass_.size(); ++i) {
    for (std::size_t j = i + 1; j < mass_.size(); ++j) {
      double r = std::sqrt((pos_[j] - pos_[i]).norm2() + params_.eps2);
      energy -= mass_[i] * mass_[j] / r;
    }
  }
  return energy;
}

}  // namespace jungle::kernels
