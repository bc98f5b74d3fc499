#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "amuse/clients.hpp"
#include "amuse/daemon.hpp"
#include "amuse/ic.hpp"
#include "amuse/particles.hpp"
#include "amuse/rpc.hpp"
#include "amuse/units.hpp"
#include "amuse/workers.hpp"

using namespace jungle;
using namespace jungle::amuse;

// ------------------------------------------------------------------ units

TEST(Units, ConvertLengths) {
  Quantity distance(1.0, units::parsec);
  EXPECT_NEAR(distance.value_in(units::m), 3.0857e16, 1e13);
  EXPECT_NEAR(distance.value_in(units::au), 206265.0, 10.0);
}

TEST(Units, IncompatibleConversionThrows) {
  Quantity mass(1.0, units::msun);
  EXPECT_THROW(mass.value_in(units::parsec), UnitError);
  EXPECT_THROW(mass + Quantity(1.0, units::s), UnitError);
}

TEST(Units, ArithmeticComposesDimensions) {
  Quantity speed = Quantity(10.0, units::km) / Quantity(2.0, units::s);
  EXPECT_NEAR(speed.value_in(units::kms), 5.0, 1e-12);
  Quantity energy = Quantity(2.0, units::kg) * speed * speed;
  EXPECT_NEAR(energy.value_in(units::j), 2.0 * 25e6, 1.0);
}

TEST(Units, SqrtHalvesExponents) {
  Quantity area(9.0, units::m * units::m);
  EXPECT_NEAR(area.sqrt().value_in(units::m), 3.0, 1e-12);
  EXPECT_THROW(Quantity(1.0, units::m).sqrt(), UnitError);
}

TEST(Units, ComparisonAcrossUnits) {
  EXPECT_TRUE(Quantity(1.0, units::parsec) > Quantity(1.0, units::au));
  EXPECT_TRUE(Quantity(999.0, units::m) < Quantity(1.0, units::km));
}

TEST(Units, NBodyConverterRoundTrips) {
  // A 1000 MSun, 1 pc cluster — the embedded-cluster scales.
  NBodyConverter convert(Quantity(1000.0, units::msun),
                         Quantity(1.0, units::parsec));
  double mass_nbody = convert.to_nbody(Quantity(500.0, units::msun));
  EXPECT_NEAR(mass_nbody, 0.5, 1e-12);
  Quantity back = convert.to_si(0.5, units::msun);
  EXPECT_NEAR(back.value_in(units::msun), 500.0, 1e-9);
}

TEST(Units, NBodyTimeScalePhysicallySensible) {
  NBodyConverter convert(Quantity(1000.0, units::msun),
                         Quantity(1.0, units::parsec));
  // T = sqrt(L^3/(GM)) ~ 0.47 Myr for these scales.
  EXPECT_NEAR(convert.time_scale().value_in(units::myr), 0.47, 0.05);
}

TEST(Units, ConverterRejectsWrongDimensions) {
  EXPECT_THROW(NBodyConverter(Quantity(1.0, units::parsec),
                              Quantity(1.0, units::parsec)),
               UnitError);
  NBodyConverter convert(Quantity(1.0, units::msun),
                         Quantity(1.0, units::parsec));
  EXPECT_THROW(convert.to_nbody(Quantity(1.0, units::kelvin)), UnitError);
}

// -------------------------------------------------------------- particles

TEST(Particles, AttributesAndCheckedSet) {
  ParticleSet set;
  set.add_attribute("mass", units::msun);
  set.add_rows(3);
  set.attribute("mass").set(0, Quantity(2.0, units::msun));
  set.attribute("mass").set(1, Quantity(1.98892e30, units::kg));  // 1 MSun
  EXPECT_NEAR(set.attribute("mass").at(1).value_in(units::msun), 1.0, 1e-9);
  EXPECT_THROW(set.attribute("mass").set(2, Quantity(1.0, units::m)),
               UnitError);
}

TEST(Particles, ChannelCopiesWithConversion) {
  ParticleSet se_view;
  se_view.add_attribute("mass", units::kg);
  se_view.add_rows(2);
  se_view.attribute("mass").set(0, Quantity(1.0, units::msun));
  se_view.attribute("mass").set(1, Quantity(2.0, units::msun));

  ParticleSet dyn_view;
  dyn_view.add_attribute("mass", units::msun);
  dyn_view.add_rows(2);
  se_view.copy_attributes_to(dyn_view, {"mass"});
  EXPECT_NEAR(dyn_view.attribute("mass").at(0).value_in(units::msun), 1.0,
              1e-9);
  EXPECT_NEAR(dyn_view.attribute("mass").at(1).value_in(units::msun), 2.0,
              1e-9);
}

TEST(Particles, ChannelSizeMismatchThrows) {
  ParticleSet a, b;
  a.add_attribute("mass", units::kg);
  a.add_rows(2);
  b.add_attribute("mass", units::kg);
  b.add_rows(3);
  EXPECT_THROW(a.copy_attributes_to(b, {"mass"}), CodeError);
}

TEST(Particles, GatherScatterVec3) {
  ParticleSet set;
  set.add_attribute("x", units::parsec);
  set.add_attribute("y", units::parsec);
  set.add_attribute("z", units::parsec);
  set.add_rows(2);
  set.scatter_vec3("x", "y", "z", {{1, 2, 3}, {4, 5, 6}}, units::parsec);
  auto gathered = set.gather_vec3("x", "y", "z", units::parsec);
  EXPECT_DOUBLE_EQ(gathered[1].y, 5.0);
  // Gather in different unit converts.
  auto in_au = set.gather_vec3("x", "y", "z", units::au);
  EXPECT_NEAR(in_au[0].x, 206265.0, 10.0);
}

TEST(Particles, MissingAttributeThrows) {
  ParticleSet set;
  EXPECT_THROW(set.attribute("nope"), ConfigError);
}

// ----------------------------------------------- local workers + clients

namespace {

struct LocalWorld {
  sim::Simulation sim;
  sim::Network net{sim};
  smartsockets::SmartSockets sockets{net};
  sim::Host* desktop;

  LocalWorld() {
    net.add_site("vu");
    desktop = &net.add_host("desktop", "vu", 4, 10);
    desktop->set_gpu(sim::GpuSpec{"gt9600", 90});
  }

  ~LocalWorld() { sim.shutdown(); }

  /// Run `script` as the user's process.
  void run(std::function<void()> script) {
    desktop->spawn("script", std::move(script));
    sim.run();
  }
};

}  // namespace

TEST(AmuseLocal, GravityWorkerEndToEnd) {
  LocalWorld w;
  double energy_error = 1.0;
  w.run([&] {
    WorkerSpec spec;
    spec.code = "phigrape";
    spec.ncores = 4;
    GravityClient gravity(start_local_worker(w.sockets, w.net, *w.desktop,
                                             *w.desktop, spec,
                                             ChannelKind::mpi));
    util::Rng rng(4);
    auto model = ic::plummer_sphere(64, rng);
    gravity.add_particles(model.mass, model.position, model.velocity);
    auto [k0, p0] = gravity.energies();
    gravity.evolve(0.5);
    auto [k1, p1] = gravity.energies();
    energy_error = std::abs((k1 + p1) - (k0 + p0)) / std::abs(k0 + p0);
    EXPECT_NEAR(gravity.model_time(), 0.5, 1e-12);
    auto state = gravity.get_state();
    EXPECT_EQ(state.mass.size(), 64u);
    gravity.close();
  });
  EXPECT_LT(energy_error, 1e-2);
}

TEST(AmuseLocal, EvolveChargesVirtualCpuTime) {
  LocalWorld w;
  double elapsed = 0.0;
  w.run([&] {
    WorkerSpec spec;
    spec.code = "phigrape";
    spec.ncores = 1;
    GravityClient gravity(start_local_worker(w.sockets, w.net, *w.desktop,
                                             *w.desktop, spec,
                                             ChannelKind::mpi));
    util::Rng rng(4);
    auto model = ic::plummer_sphere(128, rng);
    gravity.add_particles(model.mass, model.position, model.velocity);
    double t0 = w.sim.now();
    gravity.evolve(0.125);
    elapsed = w.sim.now() - t0;
    gravity.close();
  });
  // N^2 pair costs at 10 GF/s must take real virtual time.
  EXPECT_GT(elapsed, 1e-5);
  EXPECT_GT(w.desktop->busy_core_seconds(), 0.0);
}

TEST(AmuseLocal, GpuVariantFasterThanCpu) {
  auto run_variant = [](const std::string& code) {
    LocalWorld w;
    double elapsed = -1;
    w.run([&] {
      WorkerSpec spec;
      spec.code = code;
      spec.ncores = 1;
      GravityClient gravity(start_local_worker(w.sockets, w.net, *w.desktop,
                                               *w.desktop, spec,
                                               ChannelKind::mpi));
      util::Rng rng(4);
      auto model = ic::plummer_sphere(256, rng);
      gravity.add_particles(model.mass, model.position, model.velocity);
      double t0 = w.sim.now();
      gravity.evolve(0.125);
      elapsed = w.sim.now() - t0;
      gravity.close();
    });
    return elapsed;
  };
  double cpu = run_variant("phigrape");
  double gpu = run_variant("phigrape-gpu");
  // 90 GF GPU vs 10 GF core: ~9x, minus messaging overheads.
  EXPECT_GT(cpu / gpu, 4.0);
}

TEST(AmuseLocal, FieldWorkerComputesCrossGravity) {
  LocalWorld w;
  w.run([&] {
    WorkerSpec spec;
    spec.code = "fi";
    FieldClient field(start_local_worker(w.sockets, w.net, *w.desktop,
                                         *w.desktop, spec,
                                         ChannelKind::socket));
    std::vector<double> masses{1.0};
    std::vector<Vec3> sources{{0, 0, 0}};
    field.set_sources(masses, sources);
    auto accel = field.accel_at(std::vector<Vec3>{{2, 0, 0}});
    ASSERT_EQ(accel.size(), 1u);
    // Point mass: |a| = 1/4 at r=2 (small softening).
    EXPECT_NEAR(accel[0].x, -0.25, 0.01);
    field.close();
  });
}

TEST(AmuseLocal, SseWorkerRoundTrip) {
  LocalWorld w;
  w.run([&] {
    WorkerSpec spec;
    spec.code = "sse";
    StellarClient stellar(start_local_worker(w.sockets, w.net, *w.desktop,
                                             *w.desktop, spec,
                                             ChannelKind::socket));
    std::vector<double> zams{1.0, 20.0};
    stellar.add_stars(zams);
    stellar.evolve_to(50.0);  // 20 MSun star is gone by 50 Myr
    auto masses = stellar.masses();
    ASSERT_EQ(masses.size(), 2u);
    EXPECT_NEAR(masses[0], 1.0, 0.01);
    EXPECT_DOUBLE_EQ(masses[1], 1.4);
    auto sn = stellar.supernovae();
    ASSERT_EQ(sn.size(), 1u);
    EXPECT_EQ(sn[0], 1);
    stellar.close();
  });
}

TEST(AmuseLocal, HydroWorkerEvolvesGas) {
  LocalWorld w;
  w.run([&] {
    WorkerSpec spec;
    spec.code = "gadget";
    HydroClient hydro(start_local_worker(w.sockets, w.net, *w.desktop,
                                         *w.desktop, spec,
                                         ChannelKind::mpi));
    util::Rng rng(17);
    auto gas = ic::gas_sphere(200, rng, 1.0, 1.0, 1.0);  // hot ball
    hydro.add_gas(gas.mass, gas.position, gas.velocity, gas.internal_energy);
    hydro.evolve(0.05);
    auto state = hydro.get_state();
    EXPECT_EQ(state.mass.size(), 200u);
    // Densities computed during the run.
    EXPECT_GT(state.density[0], 0.0);
    auto [kin, therm, pot] = hydro.energies();
    EXPECT_GT(therm, 0.0);
    (void)kin;
    (void)pot;
    hydro.close();
  });
}

TEST(AmuseLocal, WorkerErrorPropagatesAsCodeError) {
  LocalWorld w;
  bool threw = false;
  w.run([&] {
    WorkerSpec spec;
    spec.code = "sse";
    StellarClient stellar(start_local_worker(w.sockets, w.net, *w.desktop,
                                             *w.desktop, spec,
                                             ChannelKind::socket));
    std::vector<double> zams{1.0};
    stellar.add_stars(zams);
    stellar.evolve_to(10.0);
    try {
      stellar.evolve_to(1.0);  // backwards: worker raises
    } catch (const CodeError& failure) {
      threw = true;
      EXPECT_NE(std::string(failure.what()).find("backwards"),
                std::string::npos);
    }
    // The worker survives an error and keeps serving.
    EXPECT_EQ(stellar.masses().size(), 1u);
    stellar.close();
  });
  EXPECT_TRUE(threw);
}

TEST(AmuseLocal, AsyncCallsOverlapOnDistinctWorkers) {
  // Two workers evolving concurrently: total time ~ max, not sum.
  LocalWorld w;
  double concurrent = -1;
  w.run([&] {
    WorkerSpec spec;
    spec.code = "phigrape";
    spec.ncores = 1;
    GravityClient a(start_local_worker(w.sockets, w.net, *w.desktop,
                                       *w.desktop, spec, ChannelKind::mpi));
    GravityClient b(start_local_worker(w.sockets, w.net, *w.desktop,
                                       *w.desktop, spec, ChannelKind::mpi));
    util::Rng rng(4);
    auto model = ic::plummer_sphere(128, rng);
    a.add_particles(model.mass, model.position, model.velocity);
    b.add_particles(model.mass, model.position, model.velocity);
    double t0 = w.sim.now();
    Future fa = a.evolve_async(0.0625);
    Future fb = b.evolve_async(0.0625);
    fa.get();
    fb.get();
    concurrent = w.sim.now() - t0;

    double t1 = w.sim.now();
    a.evolve(0.125);
    b.evolve(0.125);
    double sequential = w.sim.now() - t1;
    // Concurrent futures must beat back-to-back sync calls.
    EXPECT_LT(concurrent, 0.75 * sequential);
    a.close();
    b.close();
  });
  EXPECT_GT(concurrent, 0.0);
}

TEST(AmuseLocal, ParallelGadgetMatchesSerialPhysics) {
  // The multi-rank worker must produce the same thermodynamics as serial
  // (same shared-memory numerics, partitioned compute).
  auto run_gadget = [](int nranks) {
    sim::Simulation sim;
    sim::Network net{sim};
    smartsockets::SmartSockets sockets{net};
    net.add_site("das4", 2e-6, 32e9 / 8);
    std::vector<sim::Host*> nodes;
    for (int i = 0; i < 4; ++i) {
      nodes.push_back(&net.add_host("n" + std::to_string(i), "das4", 8, 10));
    }
    double thermal = -1;
    nodes[0]->spawn("script", [&] {
      WorkerSpec spec;
      spec.code = "gadget";
      spec.nranks = nranks;
      // start_local_worker runs it on nodes[0]; multi-rank needs run_worker
      // with all hosts — use the lower-level path.
      static std::uint64_t seq = 900;
      std::string service = "w" + std::to_string(++seq);
      auto& listener = sockets.listen(*nodes[0], service);
      auto hosts = nodes;
      nodes[0]->spawn("gadget-worker", [&listener, &sockets, hosts, spec,
                                        service, &net] {
        auto conn = listener.accept();
        sockets.unlisten(*hosts[0], service);
        run_worker(std::make_unique<ConnectionPipe>(std::move(conn)), spec,
                   hosts, net);
      });
      auto conn =
          sockets.connect(*nodes[0], *nodes[0], service,
                          sim::TrafficClass::mpi);
      HydroClient hydro(std::make_unique<RpcClient>(
          *nodes[0], std::make_unique<ConnectionPipe>(std::move(conn)),
          "gadget"));
      util::Rng rng(17);
      auto gas = ic::gas_sphere(300, rng, 1.0, 1.0, 0.5);
      hydro.add_gas(gas.mass, gas.position, gas.velocity,
                    gas.internal_energy);
      hydro.evolve(0.02);
      auto [kin, therm, pot] = hydro.energies();
      (void)kin;
      (void)pot;
      thermal = therm;
      hydro.close();
    });
    sim.run();
    return thermal;
  };
  double serial = run_gadget(1);
  double parallel = run_gadget(4);
  EXPECT_NEAR(parallel, serial, std::abs(serial) * 1e-9);
}

// ---------------------------------------------------------- rpc descriptors

// Every Fn enumerator next to its spelling: a row's name is its trace span
// label, so it must stay the enumerator's own name.
#define FN_ROW(id) std::pair<Fn, std::string>(Fn::id, #id)
const std::pair<Fn, std::string> kEveryFn[] = {
    FN_ROW(ping),
    FN_ROW(stop),
    FN_ROW(grav_set_params),
    FN_ROW(grav_add_particles),
    FN_ROW(grav_evolve),
    FN_ROW(grav_get_state),
    FN_ROW(grav_get_energies),
    FN_ROW(grav_kick_all),
    FN_ROW(grav_set_masses),
    FN_ROW(grav_get_time),
    FN_ROW(grav_set_masses_sparse),
    FN_ROW(grav_get_dynamics),
    FN_ROW(grav_set_dynamics),
    FN_ROW(grav_reset),
    FN_ROW(grav_set_shard),
    FN_ROW(grav_ghost_update),
    FN_ROW(field_set_sources),
    FN_ROW(field_accel_at),
    FN_ROW(field_accel_for),
    FN_ROW(hydro_set_params),
    FN_ROW(hydro_add_gas),
    FN_ROW(hydro_evolve),
    FN_ROW(hydro_get_state),
    FN_ROW(hydro_get_energies),
    FN_ROW(hydro_kick_all),
    FN_ROW(hydro_inject),
    FN_ROW(hydro_get_time),
    FN_ROW(hydro_set_time),
    FN_ROW(se_add_stars),
    FN_ROW(se_evolve_to),
    FN_ROW(se_get_masses),
    FN_ROW(se_get_supernovae),
    FN_ROW(se_get_mass_loss),
    FN_ROW(se_get_luminosities),
    FN_ROW(se_get_mass_updates),
};
#undef FN_ROW

TEST(RpcDescriptors, EveryFunctionHasExactlyOneRowWithAUniqueName) {
  auto table = fn_table();
  ASSERT_EQ(table.size(), std::size(kEveryFn));
  std::set<std::string> names;
  for (const auto& [fn, name] : kEveryFn) {
    auto rows = std::count_if(table.begin(), table.end(),
                              [fn](const FnInfo& row) { return row.fn == fn; });
    EXPECT_EQ(rows, 1) << name;
    EXPECT_EQ(fn_name(fn), name);
  }
  for (const FnInfo& row : table) {
    EXPECT_TRUE(names.insert(row.name).second) << row.name;
  }
  EXPECT_STREQ(fn_name(static_cast<Fn>(9999)), "unknown");
}

TEST(RpcDescriptors, RetrySafeSetIsTheIdempotentCalls) {
  const std::set<Fn> expected = {
      Fn::ping,
      Fn::grav_get_state,
      Fn::grav_get_energies,
      Fn::grav_get_time,
      Fn::grav_get_dynamics,
      Fn::grav_kick_all,
      Fn::grav_set_shard,
      Fn::grav_ghost_update,
      Fn::field_accel_at,
      Fn::field_accel_for,
      Fn::hydro_get_state,
      Fn::hydro_get_energies,
      Fn::hydro_get_time,
      Fn::hydro_kick_all,
      Fn::se_get_masses,
      Fn::se_get_supernovae,
      Fn::se_get_mass_loss,
      Fn::se_get_luminosities,
      Fn::se_get_mass_updates,
  };
  ASSERT_EQ(expected.size(), 19u);
  std::set<Fn> actual;
  for (const auto& [fn, name] : kEveryFn) {
    if (retry_safe(fn)) actual.insert(fn);
  }
  EXPECT_EQ(actual, expected);
  EXPECT_FALSE(retry_safe(static_cast<Fn>(9999)));
}
