// Run an experiment INI: one file declaring the jungle topology, the
// resources, and the model graph ([experiment] / [model ...] /
// [coupling ...]) — the composable replacement for the hard-coded
// scenario kinds. See examples/experiments/ for specs.
//
//   ./build/run_experiment examples/experiments/triple-plummer.ini
//
// Pass --trace[=PATH] (default trace.json) to record every RPC, kernel and
// bridge phase as a Chrome trace-event file (load it in chrome://tracing or
// https://ui.perfetto.dev), plus a metrics dump (PATH with a -metrics.json
// suffix) holding the registry snapshot and the per-iteration log. Set
// JUNGLE_LOG=info to print the run's progress.
#include <cstdio>
#include <fstream>
#include <string>

#include "amuse/experiment.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

using namespace jungle;
using namespace jungle::amuse::experiment;

namespace {

std::string metrics_path_for(const std::string& trace_path) {
  std::string base = trace_path;
  if (base.size() > 5 && base.rfind(".json") == base.size() - 5) {
    base.resize(base.size() - 5);
  }
  return base + "-metrics.json";
}

}  // namespace

int main(int argc, char** argv) {
  std::string ini_path;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--trace") {
      trace_path = "trace.json";
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(8);
    } else if (ini_path.empty()) {
      ini_path = arg;
    } else {
      ini_path.clear();
      break;
    }
  }
  if (ini_path.empty()) {
    std::fprintf(stderr, "usage: %s EXPERIMENT_INI [--trace[=PATH]]\n",
                 argv[0]);
    return 2;
  }
  util::Config config;
  try {
    config = util::Config::load(ini_path);
  } catch (const ConfigError& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return 2;
  }

  if (!trace_path.empty()) obs::trace::set_enabled(true);
  try {
    Result result = run_experiment_config(config);
    std::printf("%s\n", result.dashboard.c_str());
    std::printf("experiment '%s': %d iterations, %.3f virtual s/iteration, "
                "%.1f MB over WAN\n",
                result.experiment.c_str(), result.iterations,
                result.seconds_per_iteration, result.wan_bytes / 1e6);
    for (const ModelResult& model : result.models) {
      std::printf("  %-12s E = %.6f (kinetic %.6f, potential %.6f%s)\n",
                  model.name.c_str(),
                  model.kinetic + model.potential + model.thermal,
                  model.kinetic, model.potential,
                  model.role == sched::Role::hydro ? ", +thermal" : "");
    }
    if (result.bound_gas_fraction < 1.0) {
      std::printf("  bound gas fraction: %.3f\n", result.bound_gas_fraction);
    }
    if (!trace_path.empty()) {
      obs::trace::write_chrome_trace(trace_path);
      std::string metrics_path = metrics_path_for(trace_path);
      std::ofstream metrics(metrics_path);
      metrics << "{\"metrics\": " << obs::metrics::snapshot_json()
              << ",\n \"iterations\": "
              << amuse::diagnostics::iteration_json(result.iteration_log)
              << "}\n";
      std::printf("wrote %zu spans to %s, metrics to %s\n",
                  obs::trace::recorded(), trace_path.c_str(),
                  metrics_path.c_str());
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "experiment failed: %s\n", error.what());
    return 1;
  }
  return 0;
}
