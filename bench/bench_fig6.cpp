// E5 — Fig 6: the four visual stages of the embedded-cluster evolution:
//   a) young stars embedded in a sphere of gas
//   b) gas is expanding
//   c) only a thin shell of gas around the cluster remains
//   d) gas completely removed (note the larger size of the cluster)
// We reproduce the observable content of those frames as numbers: the bound
// gas fraction falls towards zero while the cluster's Lagrangian radii grow.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "amuse/bridge.hpp"
#include "amuse/daemon.hpp"
#include "amuse/diagnostics.hpp"
#include "amuse/ic.hpp"
#include "amuse/scenario.hpp"

using namespace jungle;
using namespace jungle::amuse;

namespace {

struct Stage {
  double time;
  double bound_gas;
  double r50_stars;  // half-mass radius of the cluster
  double r50_gas;
};

std::vector<Stage> run_expulsion(int stages, int steps_per_stage) {
  scenario::JungleTestbed bed;
  std::vector<Stage> result;
  bed.simulation().spawn("script", [&] {
    WorkerSpec grav{.code = "phigrape", .ncores = 4};
    WorkerSpec hydro{.code = "gadget", .nranks = 2};
    WorkerSpec field{.code = "fi", .ncores = 4};
    WorkerSpec sse{.code = "sse"};
    GravityClient stars(start_local_worker(bed.sockets(), bed.network(),
                                           bed.desktop(), bed.desktop(), grav,
                                           ChannelKind::mpi));
    HydroClient gas(start_local_worker(bed.sockets(), bed.network(),
                                       bed.desktop(), bed.desktop(), hydro,
                                       ChannelKind::mpi));
    FieldClient coupler(start_local_worker(bed.sockets(), bed.network(),
                                           bed.desktop(), bed.desktop(),
                                           field, ChannelKind::mpi));
    StellarClient stellar(start_local_worker(bed.sockets(), bed.network(),
                                             bed.desktop(), bed.desktop(),
                                             sse, ChannelKind::mpi));

    util::Rng rng(11);
    const std::size_t n_stars = 200, n_gas = 800;
    auto model = ic::plummer_sphere(n_stars, rng);
    stars.add_particles(model.mass, model.position, model.velocity);
    auto cloud = ic::gas_sphere(n_gas, rng, 2.0, 1.5, 0.25);
    gas.add_gas(cloud.mass, cloud.position, cloud.velocity,
                cloud.internal_energy);
    auto zams = ic::salpeter_masses(n_stars, rng);
    zams[0] = 25.0;
    zams[1] = 18.0;  // a couple of O stars drive the expulsion
    stellar.add_stars(zams);

    Bridge::Config config;
    config.dt = 1.0 / 16.0;
    config.se_every = 1;
    config.myr_per_nbody_time = 8.0;  // accelerated stellar clock so the
                                      // massive stars explode within the run
    config.feedback_efficiency = 0.5;
    config.wind_specific_energy = 100.0;
    config.supernova_energy = 100.0;
    Bridge bridge({{"stars", &stars}, {"gas", &gas}}, {{&coupler, 0, 1, 1}},
                  {{&stellar, &stars, &gas}}, config);

    auto snapshot = [&](double time) {
      auto star_state = stars.get_state();
      auto gas_state = gas.get_state();
      double fractions[] = {0.5};
      Stage stage;
      stage.time = time;
      stage.bound_gas = diagnostics::bound_gas_fraction(
          gas_state.mass, gas_state.position, gas_state.velocity,
          gas_state.internal_energy, star_state.mass, star_state.position);
      stage.r50_stars = diagnostics::lagrangian_radii(
          star_state.mass, star_state.position, fractions)[0];
      stage.r50_gas = diagnostics::lagrangian_radii(
          gas_state.mass, gas_state.position, fractions)[0];
      result.push_back(stage);
    };
    snapshot(0.0);
    for (int stage = 1; stage < stages; ++stage) {
      for (int s = 0; s < steps_per_stage; ++s) bridge.step();
      snapshot(bridge.time());
    }
    stars.close();
    gas.close();
    coupler.close();
    stellar.close();
  });
  bed.simulation().run();
  return result;
}

void Fig6_GasExpulsionStages(benchmark::State& state) {
  std::vector<Stage> stages;
  for (auto _ : state) {
    stages = run_expulsion(4, 6);
  }
  if (!stages.empty()) {
    state.counters["bound_gas_t0"] = stages.front().bound_gas;
    state.counters["bound_gas_end"] = stages.back().bound_gas;
    state.counters["r50_stars_t0"] = stages.front().r50_stars;
    state.counters["r50_stars_end"] = stages.back().r50_stars;
    std::printf(
        "\n=== E5: Fig-6 stages (bound gas fraction / cluster r50 / gas "
        "r50) ===\n");
    const char* labels[] = {"a) embedded", "b) expanding", "c) thin shell",
                            "d) gas removed"};
    for (std::size_t i = 0; i < stages.size(); ++i) {
      std::printf("  %-15s t=%5.2f  bound_gas=%5.2f  r50_stars=%5.2f  "
                  "r50_gas=%5.2f\n",
                  i < 4 ? labels[i] : "", stages[i].time,
                  stages[i].bound_gas, stages[i].r50_stars,
                  stages[i].r50_gas);
    }
  }
}

}  // namespace

BENCHMARK(Fig6_GasExpulsionStages)->Iterations(1)->Unit(
    benchmark::kMillisecond);

BENCHMARK_MAIN();
