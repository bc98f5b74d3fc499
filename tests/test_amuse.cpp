#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include "amuse/clients.hpp"
#include "amuse/daemon.hpp"
#include "amuse/ic.hpp"
#include "amuse/rpc.hpp"
#include "amuse/units.hpp"
#include "amuse/workers.hpp"
#include "obs/metrics.hpp"

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
    std::vector<Vec3> points{{2, 0, 0}};
    auto reply = field.accel_for_async({1, 0, {}, 0, points},
                                       {{0, 0, masses, 0, sources}});
    const auto& accel = field.finish_accel(reply);
    ASSERT_EQ(accel.size(), 1u);
    // Point mass: |a| = 1/4 at r=2 (small softening).
    EXPECT_NEAR(accel[0].x, -0.25, 0.01);
    field.close();
  });
}

TEST(AmuseLocal, FieldQuerySumsItsSourcesInOrder) {
  // One query per kicked system: the worker folds its sources' accels left
  // in the order named, bit for bit what adding one-source answers on the
  // client gives; a source named twice counts twice; and an unchanged query
  // is answered by the client without an RPC.
  LocalWorld w;
  w.run([&] {
    FieldClient field(start_local_worker(w.sockets, w.net, *w.desktop,
                                         *w.desktop, {.code = "fi"},
                                         ChannelKind::socket));
    util::Rng rng(21);
    auto a = ic::plummer_sphere(16, rng);
    auto b = ic::plummer_sphere(24, rng);
    auto points = ic::plummer_sphere(12, rng);
    const FieldClient::System target{0, 0, {}, make_state_id(9, 1),
                                     points.position};
    const FieldClient::System first{1, make_state_id(9, 2), a.mass,
                                    make_state_id(9, 3), a.position};
    const FieldClient::System second{2, make_state_id(9, 4), b.mass,
                                     make_state_id(9, 5), b.position};
    auto ask = [&](const std::vector<FieldClient::System>& sources) {
      auto query = field.accel_for_async(target, sources);
      std::vector<Vec3> accel = field.finish_accel(query);
      return std::pair{accel, query.reply.has_value()};
    };
    auto [one, one_sent] = ask({first});
    auto [two, two_sent] = ask({second});
    auto [both, both_sent] = ask({first, second});
    auto [twice, twice_sent] = ask({first, first});
    EXPECT_TRUE(one_sent && two_sent && both_sent && twice_sent);
    ASSERT_EQ(both.size(), points.position.size());
    ASSERT_EQ(twice.size(), points.position.size());
    for (std::size_t i = 0; i < both.size(); ++i) {
      Vec3 sum = one[i] + two[i];
      EXPECT_EQ(both[i].x, sum.x);
      EXPECT_EQ(both[i].y, sum.y);
      EXPECT_EQ(both[i].z, sum.z);
      Vec3 doubled = one[i] + one[i];
      EXPECT_EQ(twice[i].x, doubled.x);
      EXPECT_EQ(twice[i].y, doubled.y);
      EXPECT_EQ(twice[i].z, doubled.z);
    }
    auto [again, again_sent] = ask({first, second});
    EXPECT_FALSE(again_sent);
    EXPECT_EQ(std::memcmp(again.data(), both.data(),
                          both.size() * sizeof(Vec3)),
              0);
    field.close();
  });
}

TEST(AmuseLocal, FieldQueryFromAResetClientIsRecomputed) {
  // A revived coupler's client forgets what it shipped; the worker keeps
  // what it holds. The same query, asked again with the same nonzero ids,
  // must come back computed, not as a reply the client can no longer
  // resolve, and it re-ships every array. A source worker that restarts
  // mints fresh ids for the same content: the next query re-ships that
  // system's arrays, and only those.
  LocalWorld w;
  w.run([&] {
    auto local = [&](WorkerSpec spec) {
      return start_local_worker(w.sockets, w.net, *w.desktop, *w.desktop,
                                spec, ChannelKind::socket);
    };
    FieldClient field(local({.code = "fi"}));
    field.rpc().set_meter("reset-probe");
    obs::metrics::Counter& sent =
        obs::metrics::counter("rpc.reset-probe.bytes_out");
    util::Rng rng(12);
    auto model = ic::plummer_sphere(8, rng);
    std::vector<Vec3> points{{2, 0, 0}, {0, 0, 3}};
    const FieldClient::System target{1, 0, {}, make_state_id(5, 1), points};
    // The accel and the request bytes of one query that must reach the
    // worker.
    auto query = [&](const FieldClient::System& source) {
      double before = sent.value();
      auto reply = field.accel_for_async(target, {source});
      EXPECT_TRUE(reply.reply.has_value());
      std::vector<Vec3> accel = field.finish_accel(reply);
      return std::pair{accel, sent.value() - before};
    };
    auto same = [](const std::vector<Vec3>& a, const std::vector<Vec3>& b) {
      return a.size() == b.size() &&
             std::memcmp(a.data(), b.data(), a.size() * sizeof(Vec3)) == 0;
    };
    constexpr double kQuery = kRequestHeaderBytes + 6 * sizeof(std::uint64_t);
    const double masses = 8.0 + 8.0 * static_cast<double>(model.mass.size());
    const double positions =
        8.0 + 24.0 * static_cast<double>(model.position.size());

    auto loaded = [&] {
      auto client = std::make_unique<GravityClient>(
          local({.code = "phigrape", .ncores = 1}));
      client->add_particles(model.mass, model.position, model.velocity);
      client->get_state();
      return client;
    };
    auto named = [](const GravityClient& stars) {
      return FieldClient::System{0, stars.mass_id(), stars.mass(),
                                 stars.position_id(), stars.position()};
    };
    auto stars = loaded();
    auto [first, first_bytes] = query(named(*stars));
    EXPECT_EQ(first_bytes,
              kQuery + masses + positions + (8.0 + 24.0 * points.size()));

    field.reset_delta_caches();
    auto [again, again_bytes] = query(named(*stars));
    EXPECT_TRUE(same(again, first));
    EXPECT_EQ(again_bytes, first_bytes);

    // The restarted source worker serves the very same particles.
    stars->close();
    stars = loaded();
    auto [restarted, restarted_bytes] = query(named(*stars));
    EXPECT_TRUE(same(restarted, first));
    EXPECT_EQ(restarted_bytes, kQuery + masses + positions);
    stars->close();
    field.close();
  });
}

TEST(AmuseLocal, CouplingStepShipsEachSystemsArraysOnce) {
  // The coupler holds one copy of each coupled system's masses and
  // positions, whichever direction names it: a coupling step's two queries
  // ship each system's positions once, and its masses only when its mass
  // id moved.
  LocalWorld w;
  w.run([&] {
    auto local = [&](WorkerSpec spec) {
      return start_local_worker(w.sockets, w.net, *w.desktop, *w.desktop,
                                spec, ChannelKind::socket);
    };
    GravityClient stars(local({.code = "phigrape", .ncores = 1}));
    HydroClient gas(local({.code = "gadget"}));
    FieldClient field(local({.code = "fi"}));
    field.rpc().set_meter("coupling-step-probe");
    obs::metrics::Counter& sent =
        obs::metrics::counter("rpc.coupling-step-probe.bytes_out");
    util::Rng rng(8);
    auto model = ic::plummer_sphere(16, rng);
    auto cloud = ic::gas_sphere(32, rng, 2.0, 1.5);
    stars.add_particles(model.mass, model.position, model.velocity);
    gas.add_gas(cloud.mass, cloud.position, cloud.velocity,
                cloud.internal_energy);

    auto named = [](int index, const DynamicsClient& system) {
      return FieldClient::System{index, system.mass_id(), system.mass(),
                                 system.position_id(), system.position()};
    };
    // One coupling phase: fetch both systems' coupling fields, then both
    // queries in flight together; returns the request bytes they sent.
    auto step = [&] {
      for (DynamicsClient* system : {static_cast<DynamicsClient*>(&stars),
                                     static_cast<DynamicsClient*>(&gas)}) {
        Future reply = system->request_state(state_field::coupling);
        system->merge_state(reply, state_field::coupling);
      }
      double before = sent.value();
      auto on_stars = field.accel_for_async(named(0, stars), {named(1, gas)});
      auto on_gas = field.accel_for_async(named(1, gas), {named(0, stars)});
      EXPECT_EQ(field.finish_accel(on_stars).size(), model.mass.size());
      EXPECT_EQ(field.finish_accel(on_gas).size(), cloud.mass.size());
      return sent.value() - before;
    };
    constexpr double kQuery = kRequestHeaderBytes + 6 * sizeof(std::uint64_t);
    auto array = [](std::size_t n, std::size_t width) {
      return 8.0 + static_cast<double>(n * width);
    };
    const std::size_t n_stars = model.mass.size();
    const std::size_t n_gas = cloud.mass.size();

    // First step: every array, once.
    EXPECT_EQ(step(), 2 * kQuery + array(n_gas, 8) + array(n_gas, 24) +
                          array(n_stars, 24) + array(n_stars, 8));
    // After an evolve: each system's fresh positions once, no masses.
    stars.evolve(1.0 / 64.0);
    gas.evolve(1.0 / 64.0);
    EXPECT_EQ(step(), 2 * kQuery + array(n_gas, 24) + array(n_stars, 24));
    // A mass update alone: the accel on the stars is known unchanged, and
    // the query that reads the stars' masses carries only them.
    stars.set_masses_sparse(std::vector<std::int32_t>{0},
                            std::vector<double>{0.5 * model.mass[0]});
    EXPECT_EQ(step(), kQuery + array(n_stars, 8));
    stars.close();
    gas.close();
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

TEST(AmuseWire, F32PositionStreamRoundTripsAndRejectsMalformedFrames) {
  // Values exact in f32 come back bit for bit, at odd and even counts, and
  // whatever follows the stream stays 8-byte aligned.
  for (std::size_t n = 0; n <= 5; ++n) {
    std::vector<Vec3> positions;
    for (std::size_t i = 0; i < n; ++i) {
      const double k = static_cast<double>(i);
      positions.push_back(Vec3{0.5 + k, -1.25 * k, 0.375});
    }
    util::ByteWriter out;
    put_positions_f32(out, positions);
    out.put<std::uint64_t>(0xfeed);
    util::ByteReader in(std::move(out).take());
    std::vector<Vec3> back(9);  // resized to the stream's count
    get_positions_f32(in, back);
    ASSERT_EQ(back.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(back[i].x, positions[i].x) << n;
      EXPECT_EQ(back[i].y, positions[i].y) << n;
      EXPECT_EQ(back[i].z, positions[i].z) << n;
    }
    EXPECT_EQ(in.cursor() % 8, 0u) << n;
    EXPECT_EQ(in.get<std::uint64_t>(), 0xfeedu) << n;
    EXPECT_TRUE(in.exhausted()) << n;
  }
  // Other values round to the nearest f32.
  {
    const Vec3 p{0.1, 1.0 / 3.0, -2.0e-7};
    util::ByteWriter out;
    put_positions_f32(out, std::vector<Vec3>{p});
    util::ByteReader in(std::move(out).take());
    std::vector<Vec3> back;
    get_positions_f32(in, back);
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back[0].x, static_cast<double>(static_cast<float>(p.x)));
    EXPECT_EQ(back[0].y, static_cast<double>(static_cast<float>(p.y)));
    EXPECT_EQ(back[0].z, static_cast<double>(static_cast<float>(p.z)));
  }
  auto decode = [](util::ByteWriter out) {
    util::ByteReader in(std::move(out).take());
    std::vector<Vec3> back;
    get_positions_f32(in, back);
  };
  util::ByteWriter seven;  // not whole positions
  seven.put_vector(std::vector<float>(7, 0.5f));
  seven.put<std::uint32_t>(0);
  EXPECT_THROW(decode(std::move(seven)), CodeError);
  util::ByteWriter unpadded;  // one position, no realign pad
  unpadded.put_vector(std::vector<float>(3, 0.5f));
  EXPECT_THROW(decode(std::move(unpadded)), CodeError);
}

TEST(AmuseLocal, MalformedUpdateFramesRaiseCodeErrorAndChangeNothing) {
  // Hand-built update and state-loading frames that do not fit the model:
  // an index past the particles, fewer values than indices, more kick rows
  // than particles, parallel arrays of different lengths, dynamics shorter
  // than the model, ghost blocks past the last row or short of velocities,
  // a shard range upside down or past the last row, coupler queries that
  // name arrays the coupler does not hold, a system's field on itself, no
  // sources, or more sources than the frame holds.
  // Each is rejected whole with a CodeError reply, nothing of it is
  // applied (the coupler keeps what it held), and every worker keeps
  // serving.
  LocalWorld w;
  w.run([&] {
    auto local = [&](WorkerSpec spec) {
      return start_local_worker(w.sockets, w.net, *w.desktop, *w.desktop,
                                spec, ChannelKind::mpi);
    };
    GravityClient stars(local({.code = "phigrape", .ncores = 1}));
    HydroClient gas(local({.code = "gadget"}));
    FieldClient field(local({.code = "fi", .ncores = 1}));
    util::Rng rng(6);
    auto model = ic::plummer_sphere(4, rng);
    stars.add_particles(model.mass, model.position, model.velocity);
    stars.evolve(1.0 / 64.0);  // forces and a clock worth restoring over
    auto cloud = ic::gas_sphere(8, rng, 2.0, 1.5);
    gas.add_gas(cloud.mass, cloud.position, cloud.velocity,
                cloud.internal_energy);
    // What the coupler holds: the cloud (system 1) under nonzero ids, so
    // a probe ships only its points (system 0, zero id: recomputed).
    const StateId probe_id = make_state_id(3, 1);
    auto probe_field = [&] {
      auto reply = field.accel_for_async(
          {0, 0, {}, 0, model.position},
          {{1, probe_id, cloud.mass, probe_id, cloud.position}});
      return field.finish_accel(reply);
    };

    struct Snapshot {
      GravityState stars;
      std::vector<Vec3> acc, jerk;
      double time = 0;
      HydroState gas;
      std::vector<Vec3> field_accel;
    };
    // A full fetch every time: forget what the delta exchange holds.
    auto snapshot = [&] {
      Snapshot now;
      stars.reset_delta_caches();
      now.stars = stars.get_state();
      Future dynamics = stars.request_dynamics();
      stars.finish_dynamics(dynamics, now.acc, now.jerk, now.time);
      gas.reset_delta_caches();
      now.gas = gas.get_state();
      now.field_accel = probe_field();
      return now;
    };
    Snapshot before = snapshot();

    auto vec3s = [](std::size_t rows) {
      return std::vector<Vec3>(rows, Vec3{0.5, 0.5, 0.5});
    };
    auto doubles = [](std::size_t rows) {
      return std::vector<double>(rows, 0.5);
    };
    using Indices = std::vector<std::int32_t>;
    // One array after another, each with its length prefix.
    auto columns = [](auto... arrays) {
      util::ByteWriter args = RpcClient::request();
      (args.put_vector(arrays), ...);
      return args;
    };
    auto kick = [&](std::size_t rows) {
      util::ByteWriter args = RpcClient::request();
      args.put<std::uint64_t>(0);  // a fresh accel, not a repeat
      args.put<double>(1.0);
      args.put_vector(vec3s(rows));
      return args;
    };
    auto dynamics = [&](std::size_t rows) {
      util::ByteWriter args = RpcClient::request();
      args.put<double>(1.0);
      args.put_vector(vec3s(rows));
      args.put_vector(vec3s(rows));
      return args;
    };
    auto ghosts = [&](std::uint64_t base, std::size_t rows,
                      std::size_t velocities, bool fp32) {
      util::ByteWriter args = RpcClient::request();
      args.put<std::uint64_t>(base);
      args.put<std::uint64_t>(fp32 ? 1 : 0);
      if (fp32) {
        args.put_vector(std::vector<float>(3 * rows, 0.5f));
        if (rows % 2 != 0) args.put<std::uint32_t>(0);  // realign
      } else {
        args.put_vector(vec3s(rows));
      }
      args.put_vector(vec3s(velocities));
      return args;
    };
    auto shard = [&](std::uint64_t lo, std::uint64_t hi) {
      util::ByteWriter args = RpcClient::request();
      args.put<std::uint64_t>(lo);
      args.put<std::uint64_t>(hi);
      return args;
    };
    // A query with system 0 as points (shipped, 2 rows) and the listed
    // mentions as sources: the arrays in a mention's `flags` travel with
    // the frame at the given row counts, the rest must be held under the
    // named ids. `count` is the source count the frame claims.
    struct Mention {
      std::uint64_t system;
      StateId mass_id;
      StateId position_id;
      std::uint64_t flags;
      std::size_t masses = 0;
      std::size_t positions = 0;
    };
    auto accel_frame = [&](std::vector<Mention> sources, std::uint64_t count) {
      util::ByteWriter args = RpcClient::request();
      args.put<std::uint64_t>(0);  // target system
      args.put<StateId>(0);
      args.put<std::uint64_t>(count << accel_flags::kShift |
                              accel_flags::target_position);
      for (const Mention& source : sources) {
        args.put<std::uint64_t>(source.system << accel_flags::kShift |
                                source.flags);
        args.put<StateId>(source.mass_id);
        args.put<StateId>(source.position_id);
      }
      args.put_vector(vec3s(2));
      for (const Mention& source : sources) {
        if (source.flags & accel_flags::source_mass) {
          args.put_vector(doubles(source.masses));
        }
        if (source.flags & accel_flags::source_position) {
          args.put_vector(vec3s(source.positions));
        }
      }
      return args;
    };
    auto accel_for = [&](std::uint64_t source, StateId mass_id,
                         StateId position_id, std::uint64_t flags,
                         std::size_t masses, std::size_t positions) {
      return accel_frame(
          {{source, mass_id, position_id, flags, masses, positions}}, 1);
    };
    constexpr std::uint64_t kBothSourceArrays =
        accel_flags::source_mass | accel_flags::source_position;
    struct Frame {
      std::string name;
      RpcClient& rpc;
      Fn fn;
      util::ByteWriter args;
    };
    std::vector<Frame> frames;
    frames.push_back({"mass index out of range", stars.rpc(),
                      Fn::grav_set_masses_sparse,
                      columns(Indices{7}, doubles(1))});
    frames.push_back({"3 mass indices, 1 value", stars.rpc(),
                      Fn::grav_set_masses_sparse,
                      columns(Indices{0, 1, 2}, doubles(1))});
    frames.push_back({"5 masses for 4 stars", stars.rpc(),
                      Fn::grav_set_masses, columns(doubles(5))});
    frames.push_back({"5-row stars kick", stars.rpc(), Fn::grav_kick_all,
                      kick(5)});
    frames.push_back({"feedback index out of range", gas.rpc(),
                      Fn::hydro_inject, columns(Indices{8}, doubles(1))});
    frames.push_back({"3 feedback indices, 1 value", gas.rpc(),
                      Fn::hydro_inject,
                      columns(Indices{0, 1, 2}, doubles(1))});
    frames.push_back({"9-row gas kick", gas.rpc(), Fn::hydro_kick_all,
                      kick(9)});
    frames.push_back({"3 stars, 1 position", stars.rpc(),
                      Fn::grav_add_particles,
                      columns(doubles(3), vec3s(1), vec3s(3))});
    frames.push_back({"3 gas particles, 1 energy", gas.rpc(),
                      Fn::hydro_add_gas,
                      columns(doubles(3), vec3s(3), vec3s(3), doubles(1))});
    frames.push_back({"2-row dynamics for 4 stars", stars.rpc(),
                      Fn::grav_set_dynamics, dynamics(2)});
    frames.push_back({"ghost rows 3..4 of 4", stars.rpc(),
                      Fn::grav_ghost_update, ghosts(3, 2, 2, false)});
    frames.push_back({"f32 ghosts: 2 positions, 1 velocity", stars.rpc(),
                      Fn::grav_ghost_update, ghosts(0, 2, 1, true)});
    {
      util::ByteWriter args = RpcClient::request();
      args.put<std::uint64_t>(0);  // base
      args.put<std::uint64_t>(1);  // the f32 stream
      args.put_vector(std::vector<float>(7, 0.5f));
      args.put<std::uint32_t>(0);  // realign after 28 float bytes
      args.put_vector(vec3s(2));
      frames.push_back({"f32 ghosts: 7 floats", stars.rpc(),
                        Fn::grav_ghost_update, std::move(args)});
    }
    frames.push_back({"shard rows [3, 1) of 4", stars.rpc(),
                      Fn::grav_set_shard, shard(3, 1)});
    frames.push_back({"shard rows [0, 5) of 4", stars.rpc(),
                      Fn::grav_set_shard, shard(0, 5)});
    frames.push_back({"accel_for: 1 source mass, 3 positions", field.rpc(),
                      Fn::field_accel_for,
                      accel_for(1, probe_id, probe_id, kBothSourceArrays, 1,
                                3)});
    // Fresh positions under a new id beside masses under an id the
    // coupler does not hold: the positions must not replace the held ones.
    frames.push_back({"accel_for: masses under an id not held", field.rpc(),
                      Fn::field_accel_for,
                      accel_for(1, make_state_id(3, 9), make_state_id(3, 5),
                                accel_flags::source_position, 0, 8)});
    frames.push_back({"accel_for: positions under an id not held",
                      field.rpc(), Fn::field_accel_for,
                      accel_for(1, probe_id, make_state_id(3, 9), 0, 0, 0)});
    frames.push_back({"accel_for: a system never shipped", field.rpc(),
                      Fn::field_accel_for,
                      accel_for(4, make_state_id(4, 1), make_state_id(4, 1),
                                0, 0, 0)});
    frames.push_back({"accel_for: system 0 on itself", field.rpc(),
                      Fn::field_accel_for,
                      accel_for(0, 0, 0, kBothSourceArrays, 2, 2)});
    frames.push_back({"accel_for: no sources", field.rpc(),
                      Fn::field_accel_for, accel_frame({}, 0)});
    frames.push_back({"accel_for: 9 sources claimed, 1 sent", field.rpc(),
                      Fn::field_accel_for,
                      accel_frame({{1, probe_id, probe_id, 0}}, 9)});
    // The first source ships fresh arrays under new ids, the second names
    // an id the coupler does not hold: the first's arrays must not be held.
    frames.push_back(
        {"accel_for: a good source, then one not held", field.rpc(),
         Fn::field_accel_for,
         accel_frame({{1, make_state_id(3, 7), make_state_id(3, 7),
                       kBothSourceArrays, 8, 8},
                      {4, make_state_id(4, 1), make_state_id(4, 1), 0}},
                     2)});
    for (Frame& frame : frames) {
      EXPECT_THROW(frame.rpc.call_sync(frame.fn, std::move(frame.args)),
                   CodeError)
          << frame.name;
    }

    // Bit for bit, every field.
    auto same = [](const auto& a, const auto& b) {
      return a.size() == b.size() &&
             std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0;
    };
    Snapshot after = snapshot();
    EXPECT_TRUE(same(after.stars.mass, before.stars.mass));
    EXPECT_TRUE(same(after.stars.position, before.stars.position));
    EXPECT_TRUE(same(after.stars.velocity, before.stars.velocity));
    EXPECT_TRUE(same(after.acc, before.acc));
    EXPECT_TRUE(same(after.jerk, before.jerk));
    EXPECT_EQ(after.time, before.time);
    EXPECT_TRUE(same(after.gas.mass, before.gas.mass));
    EXPECT_TRUE(same(after.gas.position, before.gas.position));
    EXPECT_TRUE(same(after.gas.velocity, before.gas.velocity));
    EXPECT_TRUE(
        same(after.gas.internal_energy, before.gas.internal_energy));
    EXPECT_TRUE(same(after.gas.density, before.gas.density));
    EXPECT_TRUE(same(after.field_accel, before.field_accel));
    // Still serving: each worker takes a well-formed call.
    stars.set_masses_sparse(std::vector<std::int32_t>{3},
                            std::vector<double>{0.5});
    EXPECT_EQ(snapshot().stars.mass[3], 0.5);
    stars.evolve(2.0 / 64.0);
    EXPECT_EQ(stars.model_time(), 2.0 / 64.0);
    gas.evolve(1.0 / 64.0);
    EXPECT_EQ(gas.get_state().mass.size(), 8u);
    auto reply = field.accel_for_async({1, 0, {}, 0, cloud.position},
                                       {{0, 0, model.mass, 0, model.position}});
    EXPECT_EQ(field.finish_accel(reply).size(), 8u);
    stars.close();
    gas.close();
    field.close();
  });
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
    FN_ROW(field_accel_for),
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
      Fn::field_accel_for,
      Fn::hydro_get_state,
      Fn::hydro_get_energies,
      Fn::hydro_get_time,
      Fn::hydro_kick_all,
      Fn::se_get_masses,
      Fn::se_get_supernovae,
      Fn::se_get_mass_updates,
  };
  ASSERT_EQ(expected.size(), 16u);
  std::set<Fn> actual;
  for (const auto& [fn, name] : kEveryFn) {
    if (retry_safe(fn)) actual.insert(fn);
  }
  EXPECT_EQ(actual, expected);
  EXPECT_FALSE(retry_safe(static_cast<Fn>(9999)));
}
