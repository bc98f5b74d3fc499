#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "amuse/ic.hpp"
#include "kernels/bhtree.hpp"
#include "kernels/hermite.hpp"
#include "kernels/simd.hpp"
#include "kernels/sph.hpp"
#include "kernels/sse.hpp"
#include "util/error.hpp"
#include "util/fnv.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

using namespace jungle;
using namespace jungle::kernels;

// ---------------------------------------------------------------- hermite

TEST(Hermite, TwoBodyCircularOrbitPeriod) {
  // Equal masses m=0.5 at +/-0.5 on x, circular velocity v=0.5 each:
  // total mass 1, separation 1 -> omega=1, period 2*pi.
  HermiteIntegrator::Params params;
  params.eps2 = 0.0;
  params.eta = 0.01;
  HermiteIntegrator nbody(params);
  nbody.add_particle(0.5, {0.5, 0, 0}, {0, 0.5, 0});
  nbody.add_particle(0.5, {-0.5, 0, 0}, {0, -0.5, 0});
  double period = 2.0 * M_PI;
  nbody.evolve(period);
  // Back to the start after one full orbit.
  EXPECT_NEAR(nbody.positions()[0].x, 0.5, 5e-3);
  EXPECT_NEAR(nbody.positions()[0].y, 0.0, 5e-3);
}

TEST(Hermite, EnergyConservedOverOrbit) {
  HermiteIntegrator::Params params;
  params.eps2 = 0.0;
  params.eta = 0.01;
  HermiteIntegrator nbody(params);
  nbody.add_particle(0.5, {0.5, 0, 0}, {0, 0.5, 0});
  nbody.add_particle(0.5, {-0.5, 0, 0}, {0, -0.5, 0});
  double e0 = nbody.kinetic_energy() + nbody.potential_energy();
  nbody.evolve(20.0);
  double e1 = nbody.kinetic_energy() + nbody.potential_energy();
  EXPECT_NEAR(e1, e0, std::abs(e0) * 1e-6);
}

TEST(Hermite, PlummerEnergyDriftSmall) {
  util::Rng rng(42);
  auto model = amuse::ic::plummer_sphere(128, rng);
  HermiteIntegrator nbody;  // default eps2 softening
  for (std::size_t i = 0; i < model.mass.size(); ++i) {
    nbody.add_particle(model.mass[i], model.position[i], model.velocity[i]);
  }
  double e0 = nbody.kinetic_energy() + nbody.potential_energy();
  nbody.evolve(1.0);
  double e1 = nbody.kinetic_energy() + nbody.potential_energy();
  EXPECT_LT(std::abs(e1 - e0) / std::abs(e0), 2e-3);
}

TEST(Hermite, MomentumConserved) {
  util::Rng rng(7);
  auto model = amuse::ic::plummer_sphere(64, rng);
  HermiteIntegrator nbody;
  for (std::size_t i = 0; i < model.mass.size(); ++i) {
    nbody.add_particle(model.mass[i], model.position[i], model.velocity[i]);
  }
  nbody.evolve(0.5);
  Vec3 p{};
  for (std::size_t i = 0; i < nbody.size(); ++i) {
    p += nbody.masses()[i] * nbody.velocities()[i];
  }
  EXPECT_NEAR(p.norm(), 0.0, 1e-10);
}

TEST(Hermite, PairCountGrowsQuadratically) {
  auto pairs_for = [](std::size_t n) {
    util::Rng rng(1);
    auto model = amuse::ic::plummer_sphere(n, rng);
    HermiteIntegrator nbody;
    for (std::size_t i = 0; i < n; ++i) {
      nbody.add_particle(model.mass[i], model.position[i], model.velocity[i]);
    }
    nbody.evolve(0.01);
    return static_cast<double>(nbody.pair_evaluations());
  };
  double small = pairs_for(64);
  double large = pairs_for(128);
  // Per force evaluation the ratio is exactly 4; step counts differ a bit.
  EXPECT_GT(large / small, 2.5);
}

TEST(Hermite, KickChangesVelocity) {
  HermiteIntegrator nbody;
  nbody.add_particle(1.0, {0, 0, 0}, {0, 0, 0});
  nbody.kick(0, {0.5, 0, 0});
  EXPECT_DOUBLE_EQ(nbody.velocities()[0].x, 0.5);
}

TEST(Hermite, EvolveEmptySystemAdvancesTime) {
  HermiteIntegrator nbody;
  nbody.evolve(3.0);
  EXPECT_DOUBLE_EQ(nbody.time(), 3.0);
}

// ----------------------------------------------------------------- bhtree

TEST(BarnesHut, MatchesDirectSummationAtSmallTheta) {
  util::Rng rng(11);
  auto model = amuse::ic::plummer_sphere(256, rng);
  BarnesHutTree tree(0.01, 1e-4);  // theta -> 0: effectively direct
  tree.build(model.position, model.mass);
  for (int probe = 0; probe < 8; ++probe) {
    Vec3 point = model.position[probe * 20];
    Vec3 direct{};
    for (std::size_t j = 0; j < model.mass.size(); ++j) {
      Vec3 dr = model.position[j] - point;
      double d2 = dr.norm2() + 1e-4;
      direct += (model.mass[j] / (d2 * std::sqrt(d2))) * dr;
    }
    Vec3 approx = tree.accel_at(point);
    EXPECT_NEAR((approx - direct).norm(), 0.0, 1e-9);
  }
}

TEST(BarnesHut, ErrorBoundedAtModerateTheta) {
  util::Rng rng(13);
  auto model = amuse::ic::plummer_sphere(512, rng);
  BarnesHutTree tree(0.6, 1e-4);
  tree.build(model.position, model.mass);
  double worst = 0.0;
  for (int probe = 0; probe < 16; ++probe) {
    Vec3 point = model.position[probe * 30];
    Vec3 direct{};
    for (std::size_t j = 0; j < model.mass.size(); ++j) {
      Vec3 dr = model.position[j] - point;
      double d2 = dr.norm2() + 1e-4;
      direct += (model.mass[j] / (d2 * std::sqrt(d2))) * dr;
    }
    Vec3 approx = tree.accel_at(point);
    double rel = (approx - direct).norm() / (direct.norm() + 1e-12);
    worst = std::max(worst, rel);
  }
  EXPECT_LT(worst, 0.05);  // few-percent monopole accuracy
}

TEST(BarnesHut, InteractionCountSubQuadratic) {
  auto interactions_for = [](std::size_t n) {
    util::Rng rng(3);
    auto model = amuse::ic::plummer_sphere(n, rng);
    BarnesHutTree tree(0.6, 1e-4);
    tree.build(model.position, model.mass);
    for (std::size_t i = 0; i < n; ++i) tree.accel_at(model.position[i]);
    return static_cast<double>(tree.interactions());
  };
  double small = interactions_for(256);
  double large = interactions_for(1024);
  // Quadratic would be x16; N log N is ~x5-9 at these sizes.
  EXPECT_LT(large / small, 11.0);
}

TEST(BarnesHut, PotentialNegativeAndDeepestAtCentre) {
  util::Rng rng(5);
  auto model = amuse::ic::plummer_sphere(256, rng);
  BarnesHutTree tree(0.6, 1e-4);
  tree.build(model.position, model.mass);
  double centre = tree.potential_at({0, 0, 0});
  double edge = tree.potential_at({10, 0, 0});
  EXPECT_LT(centre, edge);
  EXPECT_LT(centre, 0.0);
  EXPECT_NEAR(edge, -1.0 / 10.0, 0.01);  // total mass 1 far away
}

TEST(BarnesHut, EmptyTreeGivesZero) {
  BarnesHutTree tree;
  tree.build({}, {});
  EXPECT_DOUBLE_EQ(tree.accel_at(Vec3{1, 2, 3}).norm(), 0.0);
  EXPECT_DOUBLE_EQ(tree.potential_at(Vec3{1, 2, 3}), 0.0);
}

TEST(BarnesHut, CoincidentParticlesKeepTotalMass) {
  // Regression: >= kLeafCapacity exactly-coincident particles used to be
  // folded into an interior monopole with an inconsistent normalization.
  // They now extend the deepest leaf's body list, so the far field must see
  // exactly the summed mass and the build must not blow up.
  std::vector<Vec3> positions(12, Vec3{0.25, -0.5, 0.125});
  std::vector<double> masses(12, 0.5);
  positions.push_back({1.0, 1.0, 1.0});  // one distinct particle
  masses.push_back(2.0);
  BarnesHutTree tree(0.6, 0.0);
  tree.build(positions, masses);

  // Far field: total mass 8 at distance ~100.
  Vec3 far{100.0, 0.0, 0.0};
  double phi = tree.potential_at(far);
  double expected = 0.0;
  for (std::size_t j = 0; j < masses.size(); ++j) {
    expected -= masses[j] / (positions[j] - far).norm();
  }
  EXPECT_NEAR(phi, expected, std::abs(expected) * 1e-3);

  // Near field at the distinct particle: the 12 coincident bodies act as a
  // single point of mass 6 (exact, not an approximate monopole).
  Vec3 probe = positions.back();
  Vec3 accel = tree.accel_at(probe);
  Vec3 dr = positions[0] - probe;
  double r = dr.norm();
  Vec3 direct = (6.0 / (r * r * r)) * dr;
  EXPECT_NEAR((accel - direct).norm(), 0.0, 1e-12);
}

TEST(BarnesHut, ThreeCoincidentOnlyParticlesAreExact) {
  std::vector<Vec3> positions(3, Vec3{0, 0, 0});
  std::vector<double> masses{1.0, 2.0, 3.0};
  BarnesHutTree tree(0.6, 0.0);
  tree.build(positions, masses);
  Vec3 probe{0.0, 3.0, 0.0};
  Vec3 accel = tree.accel_at(probe);
  EXPECT_NEAR(accel.y, -6.0 / 9.0, 1e-12);
  EXPECT_NEAR(accel.x, 0.0, 1e-15);
  // Potential at the coincident point skips the self-bodies cleanly.
  EXPECT_DOUBLE_EQ(tree.potential_at(Vec3{0, 0, 0}), 0.0);
}

TEST(BarnesHut, BatchedAccelMatchesSerialBitExactly) {
  util::Rng rng(17);
  auto model = amuse::ic::plummer_sphere(512, rng);
  BarnesHutTree tree(0.6, 1e-4);
  tree.build(model.position, model.mass);

  std::vector<Vec3> serial(model.position.size());
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < model.position.size(); ++i) {
    serial[i] = tree.accel_at(model.position[i], count);
  }

  util::ThreadPool pool(4);
  tree.set_thread_pool(&pool);
  std::vector<Vec3> batched(model.position.size());
  std::uint64_t before = tree.interactions();
  tree.accel_at(model.position, batched);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].x, batched[i].x) << i;
    EXPECT_EQ(serial[i].y, batched[i].y) << i;
    EXPECT_EQ(serial[i].z, batched[i].z) << i;
  }
  // Interaction accounting is identical too.
  EXPECT_EQ(tree.interactions() - before, count);
}

TEST(BarnesHut, AccelIndependentOfThreadCount) {
  // The coupler's per-source accels, and so its summed answer, must not
  // depend on the lane count: a fig6-sized input (1000 stars in the field
  // of 10000 gas particles) and a ring-sized one (16 in the field of 16),
  // batch-evaluated at 1 and at 4 lanes.
  util::Rng rng(23);
  for (auto [n_sources, n_points] :
       {std::pair<std::size_t, std::size_t>{10000, 1000}, {16, 16}}) {
    auto sources = amuse::ic::plummer_sphere(n_sources, rng);
    auto points = amuse::ic::plummer_sphere(n_points, rng);
    auto accel = [&](unsigned lanes) {
      util::ThreadPool pool(lanes);
      BarnesHutTree tree(0.6, 1e-4);
      tree.set_thread_pool(&pool);
      tree.build(sources.position, sources.mass);
      std::vector<Vec3> out(points.position.size());
      tree.accel_at(points.position, out);
      return out;
    };
    std::vector<Vec3> one = accel(1);
    std::vector<Vec3> four = accel(4);
    ASSERT_EQ(one.size(), four.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
      EXPECT_EQ(one[i].x, four[i].x) << n_sources << " " << i;
      EXPECT_EQ(one[i].y, four[i].y) << n_sources << " " << i;
      EXPECT_EQ(one[i].z, four[i].z) << n_sources << " " << i;
    }
  }
}

TEST(BarnesHut, CrossForcesAreSymmetricInMass) {
  // Field of a 2-mass source at a probe: doubling source masses doubles
  // the acceleration.
  BarnesHutTree tree(0.6, 0.0);
  std::vector<double> masses{1.0, 1.0};
  std::vector<Vec3> sources{{1, 0, 0}, {-1, 0, 0}};
  tree.build(sources, masses);
  Vec3 a1 = tree.accel_at(Vec3{0, 1, 0});
  std::vector<double> doubled{2.0, 2.0};
  tree.build(sources, doubled);
  Vec3 a2 = tree.accel_at(Vec3{0, 1, 0});
  EXPECT_NEAR(a2.norm(), 2.0 * a1.norm(), 1e-12);
}

TEST(Hermite, ForcesIndependentOfThreadCount) {
  // N above kParallelThreshold so the tiled parallel path engages.
  const std::size_t n = 400;
  auto run = [&](unsigned lanes) {
    util::Rng rng(23);
    auto model = amuse::ic::plummer_sphere(n, rng);
    util::ThreadPool pool(lanes);
    HermiteIntegrator nbody;
    nbody.set_thread_pool(&pool);
    for (std::size_t i = 0; i < n; ++i) {
      nbody.add_particle(model.mass[i], model.position[i], model.velocity[i]);
    }
    nbody.evolve(0.125);
    nbody.set_thread_pool(nullptr);  // pool dies with this lambda frame
    return nbody;
  };
  auto one = run(1);
  auto four_a = run(4);
  auto four_b = run(4);
  for (std::size_t i = 0; i < n; ++i) {
    // Same lane count => bit-identical (chunk->lane mapping cannot matter).
    EXPECT_EQ(four_a.positions()[i].x, four_b.positions()[i].x) << i;
    EXPECT_EQ(four_a.velocities()[i].y, four_b.velocities()[i].y) << i;
    // 1 lane vs 4 lanes: both run the tiled path, whose per-row sums do
    // not depend on which lane computes the row, so the bits agree.
    EXPECT_EQ(one.positions()[i].x, four_a.positions()[i].x) << i;
    EXPECT_EQ(one.positions()[i].y, four_a.positions()[i].y) << i;
    EXPECT_EQ(one.positions()[i].z, four_a.positions()[i].z) << i;
    EXPECT_EQ(one.velocities()[i].x, four_a.velocities()[i].x) << i;
  }
}

namespace {

// FNV-1a over the bit patterns of a Hermite system's dynamic state.
std::uint64_t state_digest(const HermiteIntegrator& nbody) {
  util::Fnv1a fnv;
  for (const auto* rows : {&nbody.positions(), &nbody.velocities(),
                           &nbody.accelerations(), &nbody.jerks()}) {
    fnv.mix_all(*rows);
  }
  return fnv.hash;
}

// The tiled force path's arithmetic for row i, written out lane by lane:
// simd::kWidth lane accumulators per j-tile in j order, the lane block
// holding i and the tail through the scalar sums, the lanes folded by
// halves (simd.hpp's hsum trees) and added last, tiles summed in order.
void reference_row(const HermiteIntegrator& nbody, double eps2,
                   std::size_t i, Vec3& acc, Vec3& jerk) {
  constexpr std::size_t kTile = 512;  // hermite.cpp's kJTile
  constexpr std::size_t W = simd::kWidth;
  const auto& pos = nbody.positions();
  const auto& vel = nbody.velocities();
  const auto& mass = nbody.masses();
  const std::size_t n = pos.size();
  // One pair term, in the kernel's expression order.
  auto term = [&](std::size_t j, Vec3& a, Vec3& jk) {
    double dx = pos[j].x - pos[i].x;
    double dy = pos[j].y - pos[i].y;
    double dz = pos[j].z - pos[i].z;
    double dvx = vel[j].x - vel[i].x;
    double dvy = vel[j].y - vel[i].y;
    double dvz = vel[j].z - vel[i].z;
    double r2 = dx * dx + dy * dy + dz * dz + eps2;
    double inv_r = 1.0 / std::sqrt(r2);
    double inv_r2 = inv_r * inv_r;
    double inv_r3 = inv_r2 * inv_r;
    double rv = dx * dvx + dy * dvy + dz * dvz;
    double alpha = 3.0 * rv * inv_r2;
    double m_r3 = mass[j] * inv_r3;
    a.x += m_r3 * dx;
    a.y += m_r3 * dy;
    a.z += m_r3 * dz;
    jk.x += m_r3 * (dvx - alpha * dx);
    jk.y += m_r3 * (dvy - alpha * dy);
    jk.z += m_r3 * (dvz - alpha * dz);
  };
  acc = {};
  jerk = {};
  for (std::size_t jb = 0; jb < n; jb += kTile) {
    const std::size_t jend = std::min(n, jb + kTile);
    Vec3 sum_a, sum_j;                    // the scalar sums
    Vec3 lane_a[W] = {}, lane_j[W] = {};  // the vector lanes
    std::size_t j = jb;
    for (; j + W <= jend; j += W) {
      const bool self = i >= j && i < j + W;
      for (std::size_t l = 0; l < W; ++l) {
        if (j + l == i) continue;
        term(j + l, self ? sum_a : lane_a[l], self ? sum_j : lane_j[l]);
      }
    }
    for (; j < jend; ++j) {
      if (j != i) term(j, sum_a, sum_j);
    }
    for (std::size_t w = W; w > 1; w /= 2) {
      for (std::size_t l = 0; l < w / 2; ++l) {
        lane_a[l] += lane_a[l + w / 2];
        lane_j[l] += lane_j[l + w / 2];
      }
    }
    sum_a += lane_a[0];
    sum_j += lane_j[0];
    acc += sum_a;
    jerk += sum_j;
  }
}

}  // namespace

TEST(Hermite, TiledForcesMatchLaneEmulationBitForBit) {
  // 1037 bodies cross the 512-body j-tile and leave an odd tail; 301 fit
  // one tile, where the order of the self block, the tail and the lane sums
  // shows in every row's result. Odd range starts and ends give the kernel
  // rows it cannot pair. The kernel may put one or two rows in a register;
  // every row's bits must match the emulation either way.
  struct Case {
    std::size_t n, lo, hi;
    unsigned lanes;
  };
  const Case cases[] = {
      {1037, 0, 1037, 2}, {1037, 0, 1037, 3}, {1037, 3, 700, 1},
      {1037, 3, 700, 2},  {1037, 3, 700, 3},  {1037, 0, 517, 1},
      {1037, 0, 517, 2},  {1037, 0, 517, 3},  {301, 0, 301, 2},
      {301, 1, 300, 1}};
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << c.n << " bodies, rows [" << c.lo
                                    << ", " << c.hi << ") on " << c.lanes
                                    << " lanes");
    util::Rng rng(29);
    auto model = amuse::ic::plummer_sphere(c.n, rng);
    util::ThreadPool pool(c.lanes);
    HermiteIntegrator nbody;
    nbody.set_thread_pool(&pool);
    for (std::size_t i = 0; i < c.n; ++i) {
      nbody.add_particle(model.mass[i], model.position[i], model.velocity[i]);
    }
    nbody.set_owned_range(c.lo, c.hi);
    nbody.evolve(0.0);  // one force evaluation, no substep
    nbody.set_thread_pool(nullptr);
    for (std::size_t i = 0; i < c.n; ++i) {
      Vec3 acc, jerk;  // rows outside the owned range stay zero
      if (i >= c.lo && i < c.hi) {
        reference_row(nbody, nbody.params().eps2, i, acc, jerk);
      }
      EXPECT_EQ(nbody.accelerations()[i].x, acc.x) << i;
      EXPECT_EQ(nbody.accelerations()[i].y, acc.y) << i;
      EXPECT_EQ(nbody.accelerations()[i].z, acc.z) << i;
      EXPECT_EQ(nbody.jerks()[i].x, jerk.x) << i;
      EXPECT_EQ(nbody.jerks()[i].y, jerk.y) << i;
      EXPECT_EQ(nbody.jerks()[i].z, jerk.z) << i;
    }
  }
}

TEST(Hermite, TiledPathMatchesGoldenDigest) {
  // The 2-lane build's tiled force path, pinned bit for bit: any change to
  // its summation order or arithmetic moves this value.
  if (simd::kWidth != 2) {
    GTEST_SKIP() << "golden digest recorded for 2-lane SIMD builds";
  }
  const std::size_t n = 1024;
  util::Rng rng(21);
  auto model = amuse::ic::plummer_sphere(n, rng);
  util::ThreadPool pool(2);
  HermiteIntegrator nbody;
  nbody.set_thread_pool(&pool);
  for (std::size_t i = 0; i < n; ++i) {
    nbody.add_particle(model.mass[i], model.position[i], model.velocity[i]);
  }
  nbody.evolve(1.0 / 64.0);
  nbody.set_thread_pool(nullptr);
  EXPECT_EQ(state_digest(nbody), 0x9e5e1c7b225498eeULL);
}

// -------------------------------------------------------------------- sse

TEST(Sse, LifetimeDecreasesWithMass) {
  double previous = std::numeric_limits<double>::max();
  for (double mass : {0.5, 1.0, 2.0, 5.0, 10.0, 20.0}) {
    double lifetime = StellarEvolution::main_sequence_lifetime_myr(mass);
    EXPECT_LT(lifetime, previous) << "mass " << mass;
    previous = lifetime;
  }
}

TEST(Sse, SunLikeStarStaysOnMainSequence) {
  StellarEvolution se;
  se.add_star(1.0);
  se.evolve_to(4600.0);  // the Sun today
  EXPECT_EQ(se.star(0).phase, StellarEvolution::Phase::main_sequence);
  EXPECT_NEAR(se.star(0).mass, 1.0, 0.01);
}

TEST(Sse, MassiveStarExplodes) {
  StellarEvolution se;
  se.add_star(20.0);
  double t_end = StellarEvolution::main_sequence_lifetime_myr(20.0) +
                 StellarEvolution::giant_lifetime_myr(20.0) + 1.0;
  se.evolve_to(t_end);
  EXPECT_EQ(se.star(0).phase, StellarEvolution::Phase::neutron_star);
  EXPECT_DOUBLE_EQ(se.star(0).mass, 1.4);
  ASSERT_EQ(se.recent_supernovae().size(), 1u);
  EXPECT_EQ(se.recent_supernovae()[0], 0);
}

TEST(Sse, LowMassStarBecomesWhiteDwarf) {
  StellarEvolution se;
  se.add_star(2.0);
  double t_end = StellarEvolution::main_sequence_lifetime_myr(2.0) * 1.2;
  se.evolve_to(t_end);
  EXPECT_EQ(se.star(0).phase, StellarEvolution::Phase::white_dwarf);
  EXPECT_DOUBLE_EQ(se.star(0).mass, 0.6);
  EXPECT_TRUE(se.recent_supernovae().empty());
}

TEST(Sse, MassNeverIncreases) {
  StellarEvolution se;
  se.add_star(15.0);
  double previous = 15.0;
  for (double t = 0; t < 20.0; t += 0.5) {
    se.evolve_to(t);
    EXPECT_LE(se.star(0).mass, previous + 1e-12);
    previous = se.star(0).mass;
  }
}

TEST(Sse, MassLossAccumulatesDuringGiantPhase) {
  StellarEvolution se;
  se.add_star(10.0);
  double t_ms = StellarEvolution::main_sequence_lifetime_myr(10.0);
  se.evolve_to(t_ms + 0.5 * StellarEvolution::giant_lifetime_myr(10.0));
  EXPECT_EQ(se.star(0).phase, StellarEvolution::Phase::giant);
  EXPECT_GT(se.recent_mass_loss(), 0.0);
}

TEST(Sse, BackwardsEvolutionThrows) {
  StellarEvolution se;
  se.add_star(1.0);
  se.evolve_to(10.0);
  EXPECT_THROW(se.evolve_to(5.0), CodeError);
}

TEST(Sse, GiantsAreBrighterAndBigger) {
  StellarEvolution se;
  se.add_star(5.0);
  se.evolve_to(1.0);
  double l_ms = se.star(0).luminosity;
  double r_ms = se.star(0).radius;
  double t_ms = StellarEvolution::main_sequence_lifetime_myr(5.0);
  se.evolve_to(t_ms + 0.1 * StellarEvolution::giant_lifetime_myr(5.0));
  EXPECT_GT(se.star(0).luminosity, 5.0 * l_ms);
  EXPECT_GT(se.star(0).radius, 10.0 * r_ms);
}

// -------------------------------------------------------------------- sph

namespace {
/// Uniform-ish gas ball for SPH tests.
kernels::SphSystem make_gas_ball(std::size_t n, double u = 0.05,
                                 bool gravity = false) {
  SphSystem::Params params;
  params.self_gravity = gravity;
  SphSystem sph(params);
  util::Rng rng(99);
  auto gas = amuse::ic::gas_sphere(n, rng, 1.0, 1.0, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    sph.add_particle(gas.mass[i], gas.position[i], gas.velocity[i], u);
  }
  return sph;
}
}  // namespace

TEST(Sph, DensityMatchesUniformSphere) {
  auto sph = make_gas_ball(2000);
  sph.prepare_step();
  sph.compute_density(0, sph.size());
  // Homogeneous sphere of mass 1, radius 1: rho = 3/(4 pi) ~ 0.2387.
  double expected = 3.0 / (4.0 * M_PI);
  // Median density of the inner half (edges are biased low).
  std::vector<double> inner;
  for (std::size_t i = 0; i < sph.size(); ++i) {
    if (sph.positions()[i].norm() < 0.6) inner.push_back(sph.densities()[i]);
  }
  ASSERT_GT(inner.size(), 100u);
  std::sort(inner.begin(), inner.end());
  double median = inner[inner.size() / 2];
  // Summation density self-term biases high at finite neighbour number.
  EXPECT_NEAR(median, expected, 0.30 * expected);
}

TEST(Sph, MomentumConservedWithoutGravity) {
  auto sph = make_gas_ball(500);
  sph.evolve(0.05);
  Vec3 p{};
  for (std::size_t i = 0; i < sph.size(); ++i) {
    p += sph.masses()[i] * sph.velocities()[i];
  }
  EXPECT_NEAR(p.norm(), 0.0, 1e-8);
}

TEST(Sph, PressureDrivesExpansion) {
  // Hot ball, no gravity: the rarefaction wave needs about a sound-crossing
  // time to reach the centre, after which the ball blows apart.
  auto sph = make_gas_ball(400, /*u=*/1.0);
  auto mean_radius = [&] {
    double sum = 0;
    for (const Vec3& p : sph.positions()) sum += p.norm();
    return sum / static_cast<double>(sph.size());
  };
  double r0 = mean_radius();
  sph.evolve(0.8);
  EXPECT_GT(mean_radius(), 1.15 * r0);
}

TEST(Sph, EnergyInjectionRaisesThermalEnergy) {
  auto sph = make_gas_ball(300);
  sph.prepare_step();
  sph.compute_density(0, sph.size());
  double before = sph.thermal_energy();
  sph.inject_energy(0, 10.0);
  double after = sph.thermal_energy();
  EXPECT_NEAR(after - before, 10.0 * sph.masses()[0], 1e-9);
}

TEST(Sph, InjectionBeforeFirstDensityIsNotLost) {
  SphSystem sph;
  sph.params().self_gravity = false;
  sph.add_particle(1.0, {0, 0, 0}, {0, 0, 0}, 1.0);
  sph.inject_energy(0, 2.0);
  sph.prepare_step();
  sph.compute_density(0, 1);
  EXPECT_NEAR(sph.internal_energies()[0], 3.0, 1e-9);
}

TEST(Sph, SelfGravityBindsColdGas) {
  // Cold ball with gravity: it contracts (mean radius shrinks).
  auto sph = make_gas_ball(400, /*u=*/0.01, /*gravity=*/true);
  auto mean_radius = [&] {
    double sum = 0;
    for (const Vec3& p : sph.positions()) sum += p.norm();
    return sum / static_cast<double>(sph.size());
  };
  double r0 = mean_radius();
  sph.evolve(0.3);
  EXPECT_LT(mean_radius(), r0);
}

TEST(Sph, TimestepRespectsCfl) {
  auto sph = make_gas_ball(200, 1.0);
  sph.prepare_step();
  sph.compute_density(0, sph.size());
  sph.compute_forces(0, sph.size());
  double dt = sph.timestep(0, sph.size());
  EXPECT_GT(dt, 0.0);
  EXPECT_LE(dt, sph.params().dt_max);
}

TEST(Sph, GridNeighboursMatchBruteForce) {
  auto sph = make_gas_ball(800);
  sph.prepare_step();
  // Also exercise a radius larger than one grid cell (span > 1).
  for (double radius : {0.08, 0.25, 0.9}) {
    for (int i = 0; i < static_cast<int>(sph.size()); i += 37) {
      auto grid = sph.neighbours_of(i, radius);
      std::vector<int> brute;
      for (int j = 0; j < static_cast<int>(sph.size()); ++j) {
        if ((sph.positions()[j] - sph.positions()[i]).norm2() <=
            radius * radius) {
          brute.push_back(j);
        }
      }
      ASSERT_EQ(grid, brute) << "particle " << i << " radius " << radius;
    }
  }

  // Two tight clumps 100 apart: 500 cells of 2h = 0.2 are capped to 128 per
  // axis, so the far clump lies beyond the last cell and shares it.
  SphSystem::Params params;
  params.self_gravity = false;
  SphSystem clumps(params);
  for (double offset : {0.0, 100.0}) {
    for (int k = 0; k < 27; ++k) {
      Vec3 p{offset + 0.01 * (k % 3), 0.01 * (k / 3 % 3), 0.01 * (k / 9)};
      clumps.add_particle(1.0 / 54.0, p, Vec3{}, 0.05);
    }
  }
  clumps.prepare_step();
  // 30 reaches the capped last cell from the near clump without reaching
  // the far one; 100 reaches exactly from particle 0 to particle 27.
  for (double radius : {0.015, 0.2, 30.0, 100.0, 100.05}) {
    for (int i = 0; i < static_cast<int>(clumps.size()); ++i) {
      std::vector<int> brute;
      for (int j = 0; j < static_cast<int>(clumps.size()); ++j) {
        if ((clumps.positions()[j] - clumps.positions()[i]).norm2() <=
            radius * radius) {
          brute.push_back(j);
        }
      }
      ASSERT_EQ(clumps.neighbours_of(i, radius), brute)
          << "clump particle " << i << " radius " << radius;
    }
  }
  clumps.compute_density(0, clumps.size());
  for (int k = 0; k < 27; ++k) {
    const double near = clumps.densities()[k];
    EXPECT_NEAR(clumps.densities()[k + 27], near, 1e-9 * near) << k;
    EXPECT_NEAR(clumps.smoothing()[k + 27], clumps.smoothing()[k],
                1e-9 * clumps.smoothing()[k])
        << k;
  }

  // A 9^3 lattice of spacing 1/8 on a grid of 1/8 cells: each cell holds one
  // particle on its lower corner, so a cell's bounding box is that particle
  // and a neighbour at exactly `radius` is the `<=` boundary the cell test
  // must keep. 1/8 reaches across a face; 3/8 is the (1, 2, 2) lattice
  // diagonal across a corner, exact in binary.
  SphSystem lattice(params);
  for (int z = 0; z < 9; ++z) {
    for (int y = 0; y < 9; ++y) {
      for (int x = 0; x < 9; ++x) {
        lattice.add_particle(1.0 / 729.0, {0.125 * x, 0.125 * y, 0.125 * z},
                             Vec3{}, 0.05);
      }
    }
  }
  lattice.prepare_step();
  for (double radius : {0.125, 0.375}) {
    for (int i = 0; i < static_cast<int>(lattice.size()); i += 13) {
      std::vector<int> brute;
      for (int j = 0; j < static_cast<int>(lattice.size()); ++j) {
        if ((lattice.positions()[j] - lattice.positions()[i]).norm2() <=
            radius * radius) {
          brute.push_back(j);
        }
      }
      ASSERT_EQ(lattice.neighbours_of(i, radius), brute)
          << "lattice particle " << i << " radius " << radius;
    }
  }
  // Particle 0 sits in a corner: its face neighbours at exactly 1/8 and the
  // (1, 2, 2) diagonals at exactly 3/8 must all be found.
  EXPECT_EQ(lattice.neighbours_of(0, 0.125).size(), 4u);
  EXPECT_EQ(lattice.neighbours_of(0, 0.375),
            (std::vector<int>{0,   1,   2,   3,   9,   10,  11,  18,  19,  20,
                              27,  81,  82,  83,  90,  91,  92,  99,  100, 101,
                              162, 163, 164, 171, 172, 173, 180, 181, 243}));
}

TEST(Sph, ResultsIndependentOfThreadCount) {
  auto run = [&](unsigned lanes) {
    util::ThreadPool pool(lanes);
    auto sph = make_gas_ball(600, /*u=*/0.05, /*gravity=*/true);
    sph.set_thread_pool(&pool);
    sph.evolve(0.05);
    sph.set_thread_pool(nullptr);  // pool dies with this lambda frame
    return sph;
  };
  auto one = run(1);
  auto four_a = run(4);
  auto four_b = run(4);
  ASSERT_EQ(one.size(), four_a.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    // The density/force passes write disjoint per-particle slots in a fixed
    // neighbour order, so any lane count is bit-identical.
    EXPECT_EQ(one.densities()[i], four_a.densities()[i]) << i;
    EXPECT_EQ(one.positions()[i].x, four_a.positions()[i].x) << i;
    EXPECT_EQ(one.velocities()[i].z, four_a.velocities()[i].z) << i;
    EXPECT_EQ(four_a.positions()[i].x, four_b.positions()[i].x) << i;
  }
  EXPECT_EQ(one.neighbour_interactions(), four_a.neighbour_interactions());
  EXPECT_EQ(one.tree_interactions(), four_a.tree_interactions());
}

namespace {

// FNV-1a over the bit patterns of an SPH system's per-particle state and its
// neighbour count. Any change in which neighbours are found, or in the order
// their contributions are summed, moves it.
std::uint64_t sph_digest(const SphSystem& sph) {
  util::Fnv1a fnv;
  for (const auto* column : {&sph.densities(), &sph.smoothing()}) {
    fnv.mix_all(*column);
  }
  for (const auto* rows :
       {&sph.accelerations(), &sph.positions(), &sph.velocities()}) {
    fnv.mix_all(*rows);
  }
  fnv.mix(sph.neighbour_interactions());
  return fnv.hash;
}

}  // namespace

TEST(Sph, NeighbourOrderFingerprint) {
  // The density pass sums whole SIMD lanes, so the digests are recorded for
  // 2-lane builds, like the Hermite golden digest.
  if (simd::kWidth != 2) {
    GTEST_SKIP() << "digests recorded for 2-lane SIMD builds";
  }
  // Two balls from the 0.1 smoothing-length seed. The compact one is dense
  // enough that h shrinks in the first density solve; the sparse one is
  // thin enough that h grows, so the second fixed-point iteration has to
  // search a wider radius than the first.
  struct Ball {
    std::size_t n;
    double radius;
    bool gravity;
    double t_end;
    bool h_shrinks;
    std::uint64_t digest;
  };
  const Ball balls[] = {
      {500, 0.2, true, 0.02, true, 0x2a6f73f4389ea468ULL},
      {200, 3.0, false, 0.05, false, 0x80901236375823bcULL},
  };
  for (const Ball& ball : balls) {
    auto make = [&] {
      SphSystem::Params params;
      params.self_gravity = ball.gravity;
      SphSystem sph(params);
      util::Rng rng(31);
      auto gas = amuse::ic::gas_sphere(ball.n, rng, 1.0, ball.radius);
      for (std::size_t i = 0; i < ball.n; ++i) {
        sph.add_particle(gas.mass[i], gas.position[i], gas.velocity[i],
                         gas.internal_energy[i]);
      }
      return sph;
    };
    {
      auto sph = make();
      sph.prepare_step();
      sph.compute_density(0, sph.size());
      for (double h : sph.smoothing()) {
        ASSERT_EQ(h < 0.1, ball.h_shrinks) << "radius " << ball.radius;
      }
    }
    for (unsigned lanes : {1u, 4u}) {
      util::ThreadPool pool(lanes);
      auto sph = make();
      sph.set_thread_pool(&pool);
      sph.evolve(ball.t_end);
      sph.set_thread_pool(nullptr);
      EXPECT_EQ(sph_digest(sph), ball.digest)
          << "radius " << ball.radius << " lanes " << lanes << " digest 0x"
          << std::hex << sph_digest(sph);
    }
  }
}

TEST(Sph, EvolveReachesExactEndTime) {
  auto sph = make_gas_ball(100);
  sph.evolve(0.037);
  EXPECT_DOUBLE_EQ(sph.time(), 0.037);
}

// ------------------------------------------------------------- ic checks

TEST(InitialConditions, PlummerIsVirialised) {
  util::Rng rng(123);
  auto model = amuse::ic::plummer_sphere(2000, rng);
  double kinetic = 0.0;
  for (std::size_t i = 0; i < model.mass.size(); ++i) {
    kinetic += 0.5 * model.mass[i] * model.velocity[i].norm2();
  }
  // Standard N-body units: T = 1/4.
  EXPECT_NEAR(kinetic, 0.25, 0.03);
  double total_mass =
      std::accumulate(model.mass.begin(), model.mass.end(), 0.0);
  EXPECT_NEAR(total_mass, 1.0, 1e-12);
}

TEST(InitialConditions, PlummerCentred) {
  util::Rng rng(9);
  auto model = amuse::ic::plummer_sphere(500, rng);
  Vec3 com{};
  for (std::size_t i = 0; i < model.mass.size(); ++i) {
    com += model.mass[i] * model.position[i];
  }
  EXPECT_NEAR(com.norm(), 0.0, 1e-12);
}

TEST(InitialConditions, SalpeterSlopeRoughlyRight) {
  util::Rng rng(77);
  auto masses = amuse::ic::salpeter_masses(20000, rng, 0.3, 25.0);
  // Count ratio across one decade: N(0.3..1)/N(1..10) for alpha=2.35.
  int low = 0, high = 0;
  for (double m : masses) {
    if (m < 1.0) ++low;
    else if (m < 10.0) ++high;
  }
  double ratio = static_cast<double>(low) / std::max(1, high);
  // Analytic ratio ~ (0.3^-1.35 - 1) / (1 - 10^-1.35) ~ 4.3
  EXPECT_NEAR(ratio, 4.3, 1.0);
  for (double m : masses) {
    EXPECT_GE(m, 0.3);
    EXPECT_LE(m, 25.0);
  }
}

TEST(InitialConditions, GasSphereInsideRadius) {
  util::Rng rng(31);
  auto gas = amuse::ic::gas_sphere(1000, rng, 2.0, 3.0);
  double total = std::accumulate(gas.mass.begin(), gas.mass.end(), 0.0);
  EXPECT_NEAR(total, 2.0, 1e-12);
  for (const Vec3& p : gas.position) EXPECT_LE(p.norm(), 3.0 + 1e-12);
}
