// Adaptive placement demo: let the scheduler map the four model kernels
// onto whatever jungle it is given, instead of a hand-coded table.
//
//   ./autoplace                 — the paper's four-site testbed (Fig 12)
//   ./autoplace topology.ini    — any deploy INI becomes a scenario
//
// The INI uses the deploy syntax ([site ...], [host ...], [link a b],
// [resource ...]) plus an optional [scenario] client=HOST section.
#include <cstdio>

#include "amuse/scenario.hpp"

using namespace jungle;
using namespace jungle::amuse::scenario;

namespace {

void report(const Result& result) {
  std::printf("placement : %s\n", result.placement.c_str());
  std::printf("modeled   : %.3f s/iteration\n",
              result.modeled_seconds_per_iteration);
  std::printf("measured  : %.3f s/iteration (virtual)\n",
              result.seconds_per_iteration);
  std::printf("bound gas : %.3f\n", result.bound_gas_fraction);
  if (result.restarts > 0) {
    std::printf("restarts  : %d\n", result.restarts);
  }
  std::printf("\n%s\n", result.dashboard.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  options.n_stars = 500;
  options.n_gas = 4000;
  options.iterations = 2;

  util::Config config;
  if (argc > 1) {
    try {
      config = util::Config::load(argv[1]);
    } catch (const ConfigError& error) {
      std::fprintf(stderr, "%s\n", error.what());
      return 1;
    }
  }
  try {
    if (argc > 1) {
      report(run_scenario_config(config, options));
      return 0;
    }
    // Built-in testbed: compare the scheduler's choice with the hard-coded
    // Fig-12 placement it is supposed to rediscover (or beat).
    {
      JungleTestbed bed;
      auto table = placement_for(bed, Kind::jungle, options);
      std::printf("fig-12 table: %s\n", table.describe().c_str());
      std::printf("   modeled  : %.3f s/iteration\n\n",
                  table.modeled_seconds_per_iteration);
    }
    report(run_scenario(Kind::autoplace, options));
  } catch (const jungle::Error& error) {
    std::fprintf(stderr, "autoplace failed: %s\n", error.what());
    return 1;
  }
  return 0;
}
