#include "amuse/scenario.hpp"

namespace jungle::amuse::scenario {

const char* kind_name(Kind kind) noexcept {
  switch (kind) {
    case Kind::local_cpu: return "local-cpu(Fi+phiGRAPE-CPU)";
    case Kind::local_gpu: return "local-gpu(Octgrav+phiGRAPE-GPU)";
    case Kind::remote_gpu: return "remote-gpu(Octgrav@LGM)";
    case Kind::jungle: return "jungle(4 sites)";
    case Kind::sc11: return "sc11(coupler@Seattle)";
    case Kind::autoplace: return "autoplace(scheduler)";
  }
  return "?";
}

experiment::ExperimentSpec classic_spec(Kind kind, const Options& options) {
  using experiment::ExperimentSpec;
  using experiment::ModelSpec;
  using sched::Role;

  ExperimentSpec spec;
  spec.name = kind_name(kind);
  spec.dt = options.dt;
  spec.iterations = options.iterations;
  spec.se_every = options.se_every;
  // time scale: ~0.47 Myr per N-body time for 1000 MSun / 1 pc; SN energy
  // scaled into N-body units for a 2 M_cluster gas cloud.
  spec.myr_per_nbody_time = 0.47;
  spec.feedback_efficiency = 0.1;
  spec.wind_specific_energy = 5.0;
  spec.supernova_energy = 40.0;

  // The four models of the embedded-cluster simulation, declared in the
  // historic worker start order (stars, coupler, gas, stellar).
  ModelSpec stars;
  stars.name = "stars";
  stars.role = Role::gravity;
  stars.n = options.n_stars;
  stars.ic = "plummer";

  ModelSpec tides;
  tides.name = "tides";
  tides.role = Role::coupler;

  ModelSpec gas;
  gas.name = "gas";
  gas.role = Role::hydro;
  gas.n = options.n_gas;
  gas.ic = "gas-sphere";
  gas.total_mass = 2.0;  // the natal cloud outweighs the cluster 2:1
  gas.radius = 1.5;

  ModelSpec se;
  se.name = "se";
  se.role = Role::stellar;
  se.n = options.n_stars;
  se.ic = "salpeter";
  se.ensure_massive = 20.0;  // at least one star that will go off
  se.of = "stars";
  se.feedback = "gas";

  // The paper's hand-coded Kind tables, expressed as placement pins so the
  // same plan/score machinery serves them and autoplace alike.
  switch (kind) {
    case Kind::local_cpu:
      stars.kernel = "phigrape";
      stars.place = "local";
      tides.kernel = "fi";
      tides.place = "local";
      gas.nranks = 2;
      gas.place = "local";
      se.place = "local";
      break;
    case Kind::local_gpu:
      stars.kernel = "phigrape-gpu";
      stars.place = "local";
      tides.kernel = "octgrav";
      tides.place = "local";
      gas.nranks = 2;
      gas.place = "local";
      se.place = "local";
      break;
    case Kind::remote_gpu:
      stars.kernel = "phigrape-gpu";
      stars.place = "local";
      tides.kernel = "octgrav";
      tides.place = "lgm/lgm-node";
      gas.nranks = 2;
      gas.place = "local";
      se.place = "local";
      break;
    case Kind::jungle:
    case Kind::sc11:
      stars.kernel = "phigrape-gpu";
      stars.place = "lgm/lgm-node";
      tides.kernel = "octgrav";
      tides.place = "das4-delft/delft-gpu0";
      gas.nranks = 8;
      gas.nodes = 8;
      gas.place = "das4-vu/dasvu0";
      se.place = "das4-uva/uva-node";
      break;
    case Kind::autoplace:
      // No pins: the scheduler places the full role set, checkpointing
      // each step so dead workers can be re-placed mid-run.
      spec.checkpointing = true;
      break;
  }
  if (kind == Kind::sc11) spec.client = "laptop";

  spec.models = {stars, tides, gas};
  // Without stellar evolution the SE model is simply absent from the graph
  // (the stars/gas draws come first in the IC stream, so the trajectory is
  // unchanged either way).
  if (options.with_stellar_evolution) spec.models.push_back(se);
  spec.couplings = {{"stars-gas", "tides", "stars", "gas"}};
  return spec;
}

sched::Placement placement_for(JungleTestbed& bed, Kind kind,
                               const Options& options) {
  return experiment::plan_experiment(bed, classic_spec(kind, options));
}

Result run_scenario(Kind kind, const Options& options) {
  JungleTestbed bed;
  return experiment::run_experiment(bed, classic_spec(kind, options));
}

Result run_scenario_config(const util::Config& config,
                           const Options& options) {
  JungleTestbed bed(config);
  if (experiment::config_declares_experiment(config)) {
    // The INI's graph defines the run; the caller's Options only
    // parameterize the *classic* embedded cluster.
    return experiment::run_experiment(
        bed, experiment::ExperimentSpec::from_config(config));
  }
  if (config.has_section("experiment")) {
    // An [experiment] section with no [model ...] sections would have all
    // its knobs silently replaced by the caller's Options — option loss.
    throw ConfigError(
        "config has an [experiment] section but declares no [model ...] "
        "sections; declare the model graph (or drop the section to run "
        "the classic embedded cluster under autoplace)");
  }
  return experiment::run_experiment(bed, classic_spec(Kind::autoplace,
                                                      options));
}

}  // namespace jungle::amuse::scenario
