// Domain-decomposed gravity: shard-count independence. The physics a
// sharded model produces must not depend on K beyond roundoff — K = 1 is
// bit-identical to a plain worker (same code path by construction), K > 1
// stays inside a bounded energy-drift envelope of the unsharded run, and
// the virtual wall-clock drops as the N^2 work spreads over K nodes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "amuse/clients.hpp"
#include "amuse/experiment.hpp"
#include "amuse/ic.hpp"
#include "amuse/sharded.hpp"
#include "amuse/workers.hpp"
#include "kernels/morton.hpp"

using namespace jungle;
using namespace jungle::amuse;
using namespace jungle::amuse::experiment;
using kernels::Vec3;

namespace {

struct LocalWorld {
  sim::Simulation sim;
  sim::Network net{sim};
  smartsockets::SmartSockets sockets{net};
  sim::Host* desktop;

  LocalWorld() {
    net.add_site("vu");
    desktop = &net.add_host("desktop", "vu", 8, 10);
  }

  ~LocalWorld() { sim.shutdown(); }

  void run(std::function<void()> script) {
    desktop->spawn("script", std::move(script));
    sim.run();
  }
};

std::unique_ptr<GravityClient> local_gravity(LocalWorld& w) {
  WorkerSpec spec;
  spec.code = "phigrape";
  spec.ncores = 1;
  return std::make_unique<GravityClient>(start_local_worker(
      w.sockets, w.net, *w.desktop, *w.desktop, spec, ChannelKind::mpi));
}

bool bit_identical(const std::vector<Vec3>& a, const std::vector<Vec3>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(Vec3)) == 0);
}

/// Evolve one plummer model through `shards` workers; final state + total
/// energy. K >= 1 goes through the ShardedGravityClient facade; K == 0
/// means a plain (facade-less) GravityClient — the unsharded reference.
struct ShardRun {
  GravityState state;
  double energy = 0.0;
  double energy_drift = 0.0;  // |E(t) - E(0)| / |E(0)|
};

ShardRun run_sharded(int shards, std::size_t n, double t_end) {
  LocalWorld w;
  ShardRun out;
  w.run([&] {
    util::Rng rng(42);
    auto model = ic::plummer_sphere(n, rng);
    if (shards > 1) {
      // Mirror the experiment runner: shards own contiguous Morton ranges.
      auto order = kernels::morton_order(model.position);
      model.mass = kernels::permute(
          std::span<const double>(model.mass), order);
      model.position = kernels::permute(
          std::span<const Vec3>(model.position), order);
      model.velocity = kernels::permute(
          std::span<const Vec3>(model.velocity), order);
    }
    std::unique_ptr<GravityClient> gravity;
    if (shards == 0) {
      gravity = local_gravity(w);
    } else {
      std::vector<std::unique_ptr<GravityClient>> subs;
      for (int k = 0; k < shards; ++k) subs.push_back(local_gravity(w));
      gravity = std::make_unique<ShardedGravityClient>(std::move(subs));
    }
    gravity->add_particles(model.mass, model.position, model.velocity);
    auto [k0, p0] = gravity->energies();
    // Bridge-step cadence: each evolve refreshes the ghost rows, exactly
    // like a running experiment (one giant step would starve the ghosts).
    const double dt = 1.0 / 32.0;
    for (double t = dt; t < t_end + dt / 2; t += dt) gravity->evolve(t);
    auto [k1, p1] = gravity->energies();
    out.state = gravity->get_state();
    out.energy = k1 + p1;
    out.energy_drift = std::abs((k1 + p1) - (k0 + p0)) / std::abs(k0 + p0);
    gravity->close();
  });
  return out;
}

}  // namespace

// ------------------------------------------------ facade unit invariants

TEST(Sharding, OneShardBitIdenticalToPlainWorker) {
  ShardRun plain = run_sharded(0, 128, 0.25);
  ShardRun facade = run_sharded(1, 128, 0.25);
  EXPECT_TRUE(bit_identical(plain.state.position, facade.state.position));
  EXPECT_TRUE(bit_identical(plain.state.velocity, facade.state.velocity));
  EXPECT_EQ(plain.energy, facade.energy);
}

TEST(Sharding, EnergyDriftBoundedForAllShardCounts) {
  // The ghost corrector drifts unowned rows ballistically within a step, so
  // K > 1 is an approximation — but one that must stay inside the same
  // conservation envelope the unsharded integrator is held to.
  for (int shards : {1, 2, 4}) {
    ShardRun run = run_sharded(shards, 128, 0.25);
    EXPECT_LT(run.energy_drift, 1e-2)
        << "energy drift out of envelope at K=" << shards;
  }
}

TEST(Sharding, ShardCountsAgreeOnFinalEnergy) {
  ShardRun one = run_sharded(1, 128, 0.25);
  for (int shards : {2, 4}) {
    ShardRun run = run_sharded(shards, 128, 0.25);
    EXPECT_NEAR(run.energy, one.energy, 1e-2 * std::abs(one.energy))
        << "K=" << shards << " diverged from K=1";
  }
}

TEST(Sharding, KickAndStateRoundTripThroughFacade) {
  LocalWorld w;
  w.run([&] {
    util::Rng rng(7);
    std::size_t n = 96;
    auto model = ic::plummer_sphere(n, rng);
    std::vector<std::unique_ptr<GravityClient>> subs;
    for (int k = 0; k < 3; ++k) subs.push_back(local_gravity(w));
    ShardedGravityClient gravity(std::move(subs));
    gravity.add_particles(model.mass, model.position, model.velocity);

    // A kick must land on every shard's owned rows; the merged state must
    // reflect it on the very next fetch.
    std::vector<Vec3> before = gravity.get_state().velocity;
    std::vector<Vec3> accel(n, Vec3{1.0, 0.0, 0.0});
    gravity.kick_async(accel, 0.5).get();
    const GravityState& state = gravity.get_state();
    ASSERT_EQ(state.velocity.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(state.velocity[i].x, before[i].x + 0.5, 1e-12);
    }
    gravity.close();
  });
}

// --------------------------------------------- experiment-level sharding

namespace {

Result run_experiment_with_workers(int workers, int n, int iterations) {
  ExperimentSpec spec;
  spec.name = "shard-independence";
  spec.iterations = iterations;
  ModelSpec g;
  g.name = "gravity";
  g.role = sched::Role::gravity;
  g.kernel = "phigrape";
  g.n = static_cast<std::size_t>(n);
  g.workers = workers;
  spec.models.push_back(g);
  JungleTestbed bed;
  return run_experiment(bed, spec);
}

}  // namespace

TEST(Sharding, ExperimentEnergyEnvelopeAcrossWorkerCounts) {
  double reference = 0.0;
  for (int workers : {1, 2, 4}) {
    Result result = run_experiment_with_workers(workers, 192, 2);
    const ModelResult& model = result.models.at(0);
    double energy = model.kinetic + model.potential;
    ASSERT_LT(energy, 0.0) << "cluster must stay bound at workers="
                           << workers;
    if (workers == 1) {
      reference = energy;
    } else {
      EXPECT_NEAR(energy, reference, 1e-2 * std::abs(reference))
          << "workers=" << workers;
    }
  }
}

TEST(Sharding, FourWorkersFasterThanOne) {
  Result one = run_experiment_with_workers(1, 256, 2);
  Result four = run_experiment_with_workers(4, 256, 2);
  // Acceptance: the sharded model completes measurably more iterations per
  // virtual second at the same N (ghost exchange overhead < 4x compute
  // division on the lan-dense das4-vu resource).
  EXPECT_LT(four.seconds_per_iteration, one.seconds_per_iteration * 0.75)
      << "sharding must buy real virtual wall-clock";
}

TEST(Sharding, ValidateRejectsBadWorkerCounts) {
  ExperimentSpec spec;
  spec.name = "bad";
  spec.iterations = 1;
  ModelSpec g;
  g.name = "g";
  g.role = sched::Role::gravity;
  g.n = 16;
  g.workers = 0;
  spec.models.push_back(g);
  EXPECT_THROW(spec.validate(), ConfigError);

  spec.models[0].workers = 2;
  spec.models[0].role = sched::Role::hydro;
  EXPECT_THROW(spec.validate(), ConfigError);

  spec.models[0].role = sched::Role::gravity;
  spec.models[0].kernel = "phigrape-gpu";
  EXPECT_THROW(spec.validate(), ConfigError);

  spec.models[0].kernel = "phigrape";
  EXPECT_NO_THROW(spec.validate());
}

TEST(Sharding, MortonOrderingKeepsShardsCompact) {
  // The locality invariant the decomposition relies on: walking the Morton
  // order visits spatial neighbours — the curve length (sum of successor
  // distances) is far shorter than walking the particles in draw order, so
  // any contiguous index range is a spatially coherent block.
  util::Rng rng(11);
  auto model = amuse::ic::plummer_sphere(512, rng);
  auto order = kernels::morton_order(model.position);
  auto sorted = kernels::permute(
      std::span<const Vec3>(model.position), order);
  auto curve_length = [](std::span<const Vec3> points) {
    double sum = 0.0;
    for (std::size_t i = 1; i < points.size(); ++i) {
      sum += (points[i] - points[i - 1]).norm();
    }
    return sum;
  };
  EXPECT_LT(curve_length(sorted), curve_length(model.position) * 0.5);
}

TEST(Sharding, FacadeIsCurrentOnlyWhenEveryShardIs) {
  // The bridge skips the coupling fetch of a current system. The facade
  // may claim that only when every shard's owned slice is current.
  LocalWorld w;
  w.run([&] {
    util::Rng rng(7);
    auto model = ic::plummer_sphere(64, rng);
    std::vector<std::unique_ptr<GravityClient>> subs;
    for (int k = 0; k < 2; ++k) subs.push_back(local_gravity(w));
    ShardedGravityClient gravity(std::move(subs));
    gravity.add_particles(model.mass, model.position, model.velocity);
    EXPECT_FALSE(gravity.coupling_current());

    Future reply = gravity.request_state(state_field::coupling);
    gravity.merge_state(reply, state_field::coupling);
    EXPECT_TRUE(gravity.coupling_current());

    // A kick moves only velocities.
    std::vector<Vec3> accel(model.mass.size(), Vec3{0.1, 0.0, 0.0});
    gravity.kick_async(accel, 0.5).get();
    EXPECT_TRUE(gravity.coupling_current());

    // One shard moving is enough to make the whole model stale.
    gravity.shard(1).set_masses_sparse({}, {});
    EXPECT_TRUE(gravity.shard(0).coupling_current());
    EXPECT_FALSE(gravity.coupling_current());

    reply = gravity.request_state(state_field::coupling);
    gravity.merge_state(reply, state_field::coupling);
    EXPECT_TRUE(gravity.coupling_current());
    gravity.evolve(1.0 / 32.0);
    EXPECT_FALSE(gravity.coupling_current());
    gravity.close();
  });
}
