#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <map>

#include "amuse/experiment.hpp"
#include "amuse/faultpoint.hpp"
#include "amuse/ic.hpp"
#include "amuse/scenario.hpp"
#include "obs/trace.hpp"

using namespace jungle;
using namespace jungle::amuse;
using namespace jungle::amuse::experiment;
using sched::Role;

namespace {

ExperimentSpec tiny_classic() {
  scenario::Options options;
  options.n_stars = 64;
  options.n_gas = 256;
  options.iterations = 2;
  return scenario::classic_spec(scenario::Kind::local_gpu, options);
}

util::Config example_ini(const std::string& name) {
  return util::Config::load(std::string(JUNGLE_SOURCE_DIR) +
                            "/examples/experiments/" + name);
}

}  // namespace

// ------------------------------------------------- spec parse + validate

TEST(Experiment, SpecIniRoundTrip) {
  const char* ini = R"(
[experiment]
name = merger
dt = 0.015625
iterations = 4
se_every = 2
seed = 7
checkpointing = true

[model one]
role = gravity
kernel = phigrape
n = 100
ic = plummer
offset = -2 0 0
velocity = 0.1 0 0

[model two]
role = gravity
n = 150
offset = 2 0 0

[model gasdisk]
role = hydro
n = 400
total_mass = 0.5
radius = 2.0

[model tides]
role = field
kernel = fi

[model burning]
role = stellar
n = 100
of = one
feedback = gasdisk

[coupling one-two]
field = tides
a = one
b = two

[coupling one-gas]
field = tides
a = one
b = gasdisk
)";
  ExperimentSpec spec = ExperimentSpec::from_config(util::Config::parse(ini));
  EXPECT_NO_THROW(spec.validate());
  EXPECT_EQ(spec.name, "merger");
  EXPECT_DOUBLE_EQ(spec.dt, 0.015625);
  EXPECT_EQ(spec.iterations, 4);
  EXPECT_TRUE(spec.checkpointing);
  ASSERT_EQ(spec.models.size(), 5u);
  EXPECT_EQ(spec.models[0].name, "one");
  EXPECT_EQ(spec.models[0].kernel, "phigrape");
  EXPECT_DOUBLE_EQ(spec.models[0].offset.x, -2.0);
  EXPECT_DOUBLE_EQ(spec.models[0].bulk_velocity.x, 0.1);
  EXPECT_EQ(spec.models[3].role, Role::coupler);
  EXPECT_EQ(spec.models[4].of, "one");
  ASSERT_EQ(spec.couplings.size(), 2u);

  // ... and the workload mirrors the graph for the scheduler.
  sched::Workload load = spec.workload();
  ASSERT_EQ(load.models.size(), 5u);
  EXPECT_EQ(load.models[1].n, 150u);
  EXPECT_EQ(load.models[4].role, Role::stellar);
  ASSERT_EQ(load.couplings.size(), 2u);
  EXPECT_EQ(load.couplings[1].b, 2);  // gasdisk's slot
}

TEST(Experiment, SpecIniRejectsUnknownKeys) {
  // A misspelt key must not fall back to its default silently: the error
  // names the key and its section.
  auto error_of = [](const std::string& ini) -> std::string {
    try {
      ExperimentSpec::from_config(util::Config::parse(ini));
    } catch (const ConfigError& error) {
      return error.what();
    }
    return "";
  };
  const std::string graph = "[model solo]\nrole = gravity\nn = 16\n";
  std::string error =
      error_of("[experiment]\ncheckpionting = true\n" + graph);
  EXPECT_NE(error.find("'checkpionting'"), std::string::npos) << error;
  EXPECT_NE(error.find("[experiment]"), std::string::npos) << error;

  error = error_of(graph + "theat = 0.5\n");
  EXPECT_NE(error.find("'theat'"), std::string::npos) << error;
  EXPECT_NE(error.find("[model solo]"), std::string::npos) << error;

  error = error_of(graph +
                   "[coupling link]\nfield = f\na = solo\nb = x\n"
                   "evry = 2\n");
  EXPECT_NE(error.find("'evry'"), std::string::npos) << error;
  EXPECT_NE(error.find("[coupling link]"), std::string::npos) << error;

  // Every coupling kicks on every step: there is no cadence key.
  error = error_of(graph +
                   "[coupling link]\nfield = f\na = solo\nb = x\n"
                   "every = 2\n");
  EXPECT_NE(error.find("'every'"), std::string::npos) << error;

  // Retired knobs are unknown keys too, not silently ignored.
  for (const char* retired :
       {"replan = true", "replan_drift = 2", "rpc_timeout = 10",
        "datapath = synchronous", "kill_host = node0",
        "kill_after_iteration = 1", "kill_process = job",
        "flap_link = metro-wan", "flap_after_iteration = 1",
        "flap_down_s = 2", "flap_streams = 6", "flap_streams_heal_s = 0"}) {
    EXPECT_THROW(ExperimentSpec::from_config(util::Config::parse(
                     "[experiment]\n" + std::string(retired) + "\n" + graph)),
                 ConfigError)
        << retired;
  }

  // Every shipped experiment INI uses only known keys.
  int shipped = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(JUNGLE_SOURCE_DIR) + "/examples/experiments")) {
    if (entry.path().extension() != ".ini") continue;
    std::string name = entry.path().filename().string();
    EXPECT_NO_THROW(ExperimentSpec::from_config(
        example_ini(name)))
        << name;
    ++shipped;
  }
  EXPECT_GE(shipped, 3);
}

TEST(Experiment, ValidationRejectsDanglingCouplingReferences) {
  ExperimentSpec spec = tiny_classic();
  spec.couplings[0].b = "nebula";  // no such model
  EXPECT_THROW(spec.validate(), ConfigError);

  spec = tiny_classic();
  spec.couplings[0].field = "nebula";
  EXPECT_THROW(spec.validate(), ConfigError);

  // A field model no coupling references is a typo, not a model.
  spec = tiny_classic();
  spec.couplings.clear();
  EXPECT_THROW(spec.validate(), ConfigError);

  // Coupling a system to itself is meaningless.
  spec = tiny_classic();
  spec.couplings[0].b = spec.couplings[0].a;
  EXPECT_THROW(spec.validate(), ConfigError);

  // A coupling endpoint must be a dynamic model, not the stellar code.
  spec = tiny_classic();
  spec.couplings[0].b = "se";
  EXPECT_THROW(spec.validate(), ConfigError);
}

TEST(Experiment, ValidationRejectsBrokenStellarWiring) {
  ExperimentSpec spec = tiny_classic();
  for (ModelSpec& model : spec.models) {
    if (model.role == Role::stellar) model.of = "gas";  // hydro, not gravity
  }
  EXPECT_THROW(spec.validate(), ConfigError);

  spec = tiny_classic();
  for (ModelSpec& model : spec.models) {
    if (model.role == Role::stellar) model.of.clear();
  }
  EXPECT_THROW(spec.validate(), ConfigError);
}

TEST(Experiment, ValidationCatchesEmptyAndMalformedGraphs) {
  ExperimentSpec empty;
  EXPECT_THROW(empty.validate(), ConfigError);

  ExperimentSpec spec = tiny_classic();
  spec.models[0].n = 0;  // stars without particles
  EXPECT_THROW(spec.validate(), ConfigError);

  spec = tiny_classic();
  spec.models[1].n = 32;  // the field kernel owns no particles
  EXPECT_THROW(spec.validate(), ConfigError);

  spec = tiny_classic();
  spec.models[0].kernel = "gadget";  // wrong role for the kernel
  EXPECT_THROW(spec.validate(), ConfigError);

  spec = tiny_classic();
  spec.models[2].name = "stars";  // duplicate name
  EXPECT_THROW(spec.validate(), ConfigError);

  spec = tiny_classic();
  spec.models[0].ic = "gas-sphere";  // not a gravity recipe (nor a typo)
  EXPECT_THROW(spec.validate(), ConfigError);
}

TEST(Experiment, ExperimentSectionWithoutModelsIsAnError) {
  // [experiment] knobs on a bare topology INI would be silently replaced
  // by the caller's Options — option loss, so it must throw.
  const char* ini = R"(
[site home]
[host solo]
site = home
cores = 4
gflops = 0.2

[experiment]
iterations = 50
)";
  scenario::Options options;
  options.n_stars = 32;
  options.n_gas = 64;
  options.iterations = 1;
  options.with_stellar_evolution = false;
  EXPECT_THROW(
      scenario::run_scenario_config(util::Config::parse(ini), options),
      ConfigError);
}

// ------------------------------------------- N=2 bit-identity vs old path

namespace {

/// The pre-generalization bridge, replicated call-for-call from the old
/// hard-coded stars+gas implementation (pipelined phases with client-side
/// Δv = a * dt, full SE mass arrays): the reference the generalized
/// graph bridge must reproduce bit-exactly at N=2.
struct OldBridgeReference {
  GravityClient& stars;
  HydroClient& gas;
  FieldClient& coupler;
  StellarClient* stellar;
  Bridge::Config config;
  double time = 0.0;
  int steps = 0;
  std::vector<double> zams_se, zams_dynamical;

  void cross_kick(double dt) {
    Future stars_reply = stars.request_state(state_field::coupling);
    Future gas_reply = gas.request_state(state_field::coupling);
    stars.finish_state(stars_reply, state_field::coupling);
    gas.finish_state(gas_reply, state_field::coupling);
    const GravityState& s = stars.cached_state();
    const HydroState& g = gas.cached_state();

    FieldClient::System star_system{0, stars.mass_id(), s.mass,
                                    stars.position_id(), s.position};
    FieldClient::System gas_system{1, gas.mass_id(), g.mass,
                                   gas.position_id(), g.position};
    FieldClient::Pending on_stars =
        coupler.accel_for_async(star_system, {gas_system});
    FieldClient::Pending on_gas =
        coupler.accel_for_async(gas_system, {star_system});

    const std::vector<kernels::Vec3>& accel_on_stars =
        coupler.finish_accel(on_stars);
    std::vector<kernels::Vec3> star_kicks(accel_on_stars.size());
    for (std::size_t i = 0; i < star_kicks.size(); ++i) {
      star_kicks[i] = accel_on_stars[i] * dt;
    }
    const std::vector<kernels::Vec3>& accel_on_gas =
        coupler.finish_accel(on_gas);
    std::vector<kernels::Vec3> gas_kicks(accel_on_gas.size());
    for (std::size_t i = 0; i < gas_kicks.size(); ++i) {
      gas_kicks[i] = accel_on_gas[i] * dt;
    }
    // Client-side multiply, shipped as Δv (dt = 1 on the wire).
    Future star_done = stars.kick_async(star_kicks);
    Future gas_done = gas.kick_async(gas_kicks);
    star_done.get();
    gas_done.get();
  }

  void stellar_update() {
    double age = time * config.myr_per_nbody_time;
    stellar->evolve_to(age);
    // The full SE mass array, fetched raw: the reference must not go
    // through the delta mass channel it checks.
    std::vector<double> se_masses =
        stellar->rpc().call_sync(Fn::se_get_masses, {}).get_vector<double>();
    Future reply = stars.request_state(state_field::coupling);
    const GravityState& state =
        stars.finish_state(reply, state_field::coupling);
    if (zams_dynamical.empty()) {
      zams_se = se_masses;
      zams_dynamical = state.mass;
    }
    std::vector<double> new_masses(se_masses.size());
    double wind_mass = 0.0;
    for (std::size_t i = 0; i < se_masses.size(); ++i) {
      new_masses[i] = zams_dynamical[i] * se_masses[i] / zams_se[i];
      wind_mass += std::max(0.0, state.mass[i] - new_masses[i]);
    }
    stars.set_masses(new_masses);

    Future gas_reply = gas.request_state(state_field::coupling);
    const HydroState& gas_state =
        gas.finish_state(gas_reply, state_field::coupling);
    std::vector<std::int32_t> indices;
    std::vector<double> delta_u;
    auto nearest = [&](const kernels::Vec3& where) {
      std::size_t best = 0;
      double best_r2 = 1e300;
      for (std::size_t i = 0; i < gas_state.position.size(); ++i) {
        double r2 = (gas_state.position[i] - where).norm2();
        if (r2 < best_r2) {
          best_r2 = r2;
          best = i;
        }
      }
      return static_cast<std::int32_t>(best);
    };
    if (wind_mass > 0.0 && config.wind_specific_energy > 0.0) {
      std::size_t heaviest = 0;
      for (std::size_t i = 1; i < zams_se.size(); ++i) {
        if (zams_se[i] > zams_se[heaviest]) heaviest = i;
      }
      double energy = config.feedback_efficiency * wind_mass *
                      config.wind_specific_energy;
      std::int32_t target = nearest(state.position[heaviest]);
      indices.push_back(target);
      delta_u.push_back(energy / gas_state.mass[target]);
    }
    for (std::int32_t star : stellar->supernovae()) {
      double energy = config.feedback_efficiency * config.supernova_energy;
      std::int32_t target = nearest(state.position[star]);
      indices.push_back(target);
      delta_u.push_back(energy / gas_state.mass[target]);
    }
    if (!indices.empty()) gas.inject(indices, delta_u);
  }

  void step() {
    double dt = config.dt;
    cross_kick(dt / 2.0);
    Future stars_future = stars.evolve_async(time + dt);
    Future gas_future = gas.evolve_async(time + dt);
    stars_future.get();
    gas_future.get();
    cross_kick(dt / 2.0);
    time += dt;
    ++steps;
    if (stellar != nullptr && steps % config.se_every == 0) stellar_update();
  }
};

}  // namespace

TEST(Experiment, ClassicPairBitIdenticalToOldBridgePath) {
  // Acceptance: the classic embedded cluster flowing through the
  // ExperimentSpec path (generalized N-system bridge, accel+dt kicks,
  // delta SE masses) lands bit-exactly on the old hard-coded two-system
  // pipeline. Same ICs, same worker kinds, physics compared per particle.
  scenario::Options options;
  options.n_stars = 48;
  options.n_gas = 160;
  options.iterations = 4;
  options.dt = 1.0 / 64.0;
  options.se_every = 2;

  ExperimentSpec spec =
      scenario::classic_spec(scenario::Kind::local_gpu, options);
  Result via_spec = run_experiment(spec);
  ASSERT_EQ(via_spec.models.size(), 2u);
  const GravityState& stars_spec = via_spec.models[0].gravity;
  const HydroState& gas_spec = via_spec.models[1].hydro;

  // The reference runs the same placement by hand: local workers on the
  // desktop, the old fixed call sequence.
  sim::Simulation sim;
  sim::Network net(sim);
  net.add_site("vu");
  sim::Host& desktop = net.add_host("desktop", "vu", 4, 0.15);
  desktop.set_gpu(sim::GpuSpec{"geforce-9600gt", 1.2});
  smartsockets::SmartSockets sockets(net);
  GravityState stars_ref;
  HydroState gas_ref;
  desktop.spawn("reference", [&] {
    WorkerSpec grav{.code = "phigrape-gpu"};
    WorkerSpec field{.code = "octgrav"};
    WorkerSpec hydro{.code = "gadget", .nranks = 2, .ncores = 1};
    WorkerSpec sse{.code = "sse"};
    GravityClient stars(start_local_worker(sockets, net, desktop, desktop,
                                           grav, ChannelKind::mpi));
    FieldClient coupler(start_local_worker(sockets, net, desktop, desktop,
                                           field, ChannelKind::mpi));
    HydroClient gas(start_local_worker(sockets, net, desktop, desktop, hydro,
                                       ChannelKind::mpi));
    StellarClient stellar(start_local_worker(sockets, net, desktop, desktop,
                                             sse, ChannelKind::mpi));
    util::Rng rng(spec.seed);
    auto model = ic::plummer_sphere(options.n_stars, rng);
    stars.add_particles(model.mass, model.position, model.velocity);
    auto cloud = ic::gas_sphere(options.n_gas, rng, 2.0, 1.5);
    gas.add_gas(cloud.mass, cloud.position, cloud.velocity,
                cloud.internal_energy);
    auto zams = ic::salpeter_masses(options.n_stars, rng);
    zams[0] = 20.0;
    stellar.add_stars(zams);

    Bridge::Config config;
    config.dt = options.dt;
    config.se_every = options.se_every;
    config.myr_per_nbody_time = 0.47;
    config.feedback_efficiency = 0.1;
    config.wind_specific_energy = 5.0;
    config.supernova_energy = 40.0;
    OldBridgeReference bridge{stars, gas, coupler, &stellar, config};
    for (int i = 0; i < options.iterations; ++i) bridge.step();
    stars_ref = stars.get_state();
    gas_ref = gas.get_state();
    stars.close();
    gas.close();
    coupler.close();
    stellar.close();
  });
  sim.run();
  sim.shutdown();

  ASSERT_EQ(stars_ref.position.size(), stars_spec.position.size());
  for (std::size_t i = 0; i < stars_ref.position.size(); ++i) {
    EXPECT_EQ(stars_ref.mass[i], stars_spec.mass[i]) << "star " << i;
    EXPECT_EQ(stars_ref.position[i].x, stars_spec.position[i].x);
    EXPECT_EQ(stars_ref.position[i].y, stars_spec.position[i].y);
    EXPECT_EQ(stars_ref.position[i].z, stars_spec.position[i].z);
    EXPECT_EQ(stars_ref.velocity[i].x, stars_spec.velocity[i].x);
  }
  ASSERT_EQ(gas_ref.position.size(), gas_spec.position.size());
  for (std::size_t i = 0; i < gas_ref.position.size(); ++i) {
    EXPECT_EQ(gas_ref.position[i].x, gas_spec.position[i].x);
    EXPECT_EQ(gas_ref.velocity[i].x, gas_spec.velocity[i].x);
    EXPECT_EQ(gas_ref.internal_energy[i], gas_spec.internal_energy[i]);
  }
}

// --------------------------------------------- multi-system experiments

namespace {

/// Total energy of a set of gravity-model results: per-system kinetic +
/// potential (from the workers) plus the softened cross-system potential
/// the couplings mediate, computed directly from the final states.
double total_energy(const Result& result, double eps2 = 1e-4) {
  double energy = 0.0;
  for (const ModelResult& model : result.models) {
    energy += model.kinetic + model.potential;
  }
  for (std::size_t a = 0; a < result.models.size(); ++a) {
    for (std::size_t b = a + 1; b < result.models.size(); ++b) {
      const GravityState& one = result.models[a].gravity;
      const GravityState& two = result.models[b].gravity;
      for (std::size_t i = 0; i < one.mass.size(); ++i) {
        for (std::size_t j = 0; j < two.mass.size(); ++j) {
          double r = std::sqrt(
              (one.position[i] - two.position[j]).norm2() + eps2);
          energy -= one.mass[i] * two.mass[j] / r;
        }
      }
    }
  }
  return energy;
}

}  // namespace

TEST(Experiment, TriplePlummerIniRunsUnderAutoplace) {
  // Acceptance: a >= 3-model experiment defined purely in an INI runs under
  // autoplace with the scheduler placing the full role set — no C++ per
  // experiment.
  util::Config config = example_ini("triple-plummer.ini");
  ExperimentSpec spec = ExperimentSpec::from_config(config);
  ASSERT_EQ(spec.models.size(), 4u);  // three clusters + the shared coupler
  ASSERT_EQ(spec.couplings.size(), 3u);

  JungleTestbed bed(config);
  sched::Placement plan = plan_experiment(bed, spec);
  ASSERT_EQ(plan.roles.size(), 4u);
  for (const sched::Assignment& a : plan.roles) {
    ASSERT_NE(a.host, nullptr);
    EXPECT_FALSE(a.spec.code.empty());
  }
  EXPECT_LT(plan.modeled_seconds_per_iteration, 1e6);

  Result result = run_experiment_config(config);
  EXPECT_EQ(result.experiment, spec.name);
  EXPECT_GT(result.seconds_per_iteration, 0.0);
  EXPECT_EQ(result.restarts, 0);
  ASSERT_EQ(result.models.size(), 3u);
  for (const ModelResult& model : result.models) {
    EXPECT_EQ(model.role, Role::gravity);
    EXPECT_FALSE(model.gravity.position.empty());
  }
}

TEST(Experiment, TriplePlummerEnergyDriftBounded) {
  // A gravity-only coupled N=3 run must conserve total energy (including
  // the cross-system terms the couplings mediate) to within the tree
  // coupler's approximation error over a few bridge steps.
  util::Config config = example_ini("triple-plummer.ini");
  ExperimentSpec spec = ExperimentSpec::from_config(config);

  spec.iterations = 1;
  JungleTestbed short_bed(config);
  Result one = run_experiment(short_bed, spec);

  spec.iterations = 5;
  JungleTestbed long_bed(config);
  Result five = run_experiment(long_bed, spec);

  double e1 = total_energy(one);
  double e5 = total_energy(five);
  ASSERT_LT(e1, 0.0);  // bound systems
  EXPECT_LT(std::abs(e5 - e1) / std::abs(e1), 0.05);
}

TEST(Experiment, GravityOnlySingleModelRuns) {
  // The graph degenerates gracefully: one model, no couplings — the bridge
  // is a pure evolve loop (what the quickstart example builds).
  ExperimentSpec spec;
  spec.name = "solo";
  spec.iterations = 2;
  ModelSpec cluster;
  cluster.name = "cluster";
  cluster.role = Role::gravity;
  cluster.n = 128;
  cluster.place = "local";
  spec.models = {cluster};
  Result result = run_experiment(spec);
  ASSERT_EQ(result.models.size(), 1u);
  EXPECT_GT(result.seconds_per_iteration, 0.0);
  EXPECT_DOUBLE_EQ(result.bound_gas_fraction, 1.0);  // no gas anywhere
  double virial = -2.0 * result.models[0].kinetic / result.models[0].potential;
  EXPECT_NEAR(virial, 1.0, 0.2);
}

TEST(Experiment, DeploymentStartsWorkersConcurrently) {
  // The paper's jungle run puts four workers on four sites. Bring-up sends
  // every START before it waits on any READY, so the four jobs stage in,
  // queue and boot side by side: deployment costs the slowest site's start,
  // not the sum of all four (5.41 virtual s when they ran one by one).
  scenario::Options options;
  options.n_stars = 64;
  options.n_gas = 256;
  options.iterations = 1;
  ExperimentSpec spec = scenario::classic_spec(scenario::Kind::jungle, options);
  JungleTestbed bed;

  std::vector<double> spawns;
  double top_kick = -1.0;
  obs::trace::reset();
  obs::trace::set_enabled(true);
  {
    faultpoint::ScopedHook hook([&](const faultpoint::Context& at) {
      if (at.point == faultpoint::Point::spawn_worker) {
        spawns.push_back(bed.simulation().now());
      } else if (at.point == faultpoint::Point::step_top_kick &&
                 at.iteration == 0 && top_kick < 0.0) {
        top_kick = bed.simulation().now();
      }
    });
    run_experiment(bed, spec);
  }
  obs::trace::set_enabled(false);
  std::vector<obs::trace::SpanRecord> spans = obs::trace::snapshot();
  obs::trace::reset();

  // Every spawn span runs from its START to its READY.
  double first_ready = std::numeric_limits<double>::infinity();
  double last_start = 0.0;
  int deployed = 0;
  for (const obs::trace::SpanRecord& span : spans) {
    if (span.category != "deploy") continue;
    ++deployed;
    first_ready = std::min(first_ready, span.sim_end);
    last_start = std::max(last_start, span.sim_begin);
  }
  ASSERT_EQ(spawns.size(), 4u);
  EXPECT_EQ(deployed, 4);
  for (double at : spawns) EXPECT_LT(at, first_ready);
  EXPECT_LT(last_start, first_ready) << "the spawn spans do not overlap";
  ASSERT_GE(top_kick, 0.0);
  EXPECT_LT(top_kick, 2.0);
}

TEST(Experiment, CheckpointCaptureHasAllReadsInFlightAtOnce) {
  // The per-step checkpoint issues every model's state read and dynamics
  // read before it consumes any reply: the capture costs one round trip.
  util::Config config = example_ini("triple-plummer.ini");
  ExperimentSpec spec = ExperimentSpec::from_config(config);
  spec.checkpointing = true;
  JungleTestbed bed(config);

  // [first ckpt_capture, first ckpt_commit] of each checkpoint.
  std::vector<std::pair<double, double>> windows;
  obs::trace::reset();
  obs::trace::set_enabled(true);
  {
    faultpoint::ScopedHook hook([&](const faultpoint::Context& at) {
      double now = bed.simulation().now();
      bool open = !windows.empty() && windows.back().second < 0.0;
      if (at.point == faultpoint::Point::ckpt_capture && !open) {
        windows.emplace_back(now, -1.0);
      } else if (at.point == faultpoint::Point::ckpt_commit && open) {
        windows.back().second = now;
      }
    });
    run_experiment(bed, spec);
  }
  obs::trace::set_enabled(false);
  std::vector<obs::trace::SpanRecord> spans = obs::trace::snapshot();
  obs::trace::reset();

  // The bridge's last kick frames leave at the capture's virtual instant
  // (their acks are collected inside the checkpoint): count only the RPCs
  // the checkpoint itself issued.
  std::map<obs::trace::SpanId, const obs::trace::SpanRecord*> by_id;
  for (const obs::trace::SpanRecord& span : spans) by_id[span.id] = &span;
  auto under_checkpoint = [&](const obs::trace::SpanRecord& span) {
    for (obs::trace::SpanId at = span.parent; at != 0;) {
      auto it = by_id.find(at);
      if (it == by_id.end()) return false;
      if (it->second->name == "checkpoint") return true;
      at = it->second->parent;
    }
    return false;
  };

  ASSERT_EQ(windows.size(), static_cast<std::size_t>(spec.iterations));
  for (const auto& [capture, commit] : windows) {
    int states = 0, dynamics = 0, other = 0;
    double last_send = capture, first_reply = commit;
    for (const obs::trace::SpanRecord& span : spans) {
      if (span.category != "rpc" || span.sim_begin < capture ||
          span.sim_begin >= commit || !under_checkpoint(span)) {
        continue;
      }
      if (span.name == "rpc:grav_get_state") {
        ++states;
      } else if (span.name == "rpc:grav_get_dynamics") {
        ++dynamics;
      } else {
        ++other;
      }
      last_send = std::max(last_send, span.sim_begin);
      first_reply = std::min(first_reply, span.sim_end);
    }
    EXPECT_EQ(states, 3);  // three gravity models; the coupler is local
    EXPECT_EQ(dynamics, 3);
    EXPECT_EQ(other, 0);
    EXPECT_LE(last_send, first_reply) << "a read waited for another's reply";
    EXPECT_GT(first_reply, capture);  // the reads did cross the network
  }
}
