// E-obs — the cost of watching: wall-clock overhead of the tracing +
// metrics layer on the Fig-6 embedded-cluster run on the jungle testbed,
// disabled vs enabled, plus a microbench of the disabled fast path (one
// relaxed atomic load, no allocation). Writes BENCH_obs.json; exits
// non-zero when the enabled run costs more than the 3% budget, so CI can
// gate on it directly.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

#include "amuse/scenario.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

using namespace jungle;
using namespace jungle::amuse::scenario;

namespace {

constexpr double kOverheadBudget = 1.03;  // enabled <= 3% over disabled

Options fig6_options() {
  Options options;
  options.n_stars = 400;
  options.n_gas = 3000;
  options.iterations = 3;
  return options;
}

// Min-of-N wall time of the fig6 jungle run: the minimum is the right
// statistic for an overhead gate — noise only ever adds time.
double min_wall_seconds(bool tracing, int repeats) {
  double best = 1e300;
  for (int i = 0; i < repeats; ++i) {
    obs::trace::reset();
    obs::trace::set_enabled(tracing);
    auto start = std::chrono::steady_clock::now();
    Result result = run_scenario(Kind::jungle, fig6_options());
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    benchmark::DoNotOptimize(result.seconds_per_iteration);
    best = std::min(best, wall);
  }
  obs::trace::set_enabled(false);
  return best;
}

// The disabled fast path, in isolation: a span() call with tracing off
// must cost an atomic load and nothing else.
void Obs_DisabledSpan(benchmark::State& state) {
  obs::trace::set_enabled(false);
  for (auto _ : state) {
    obs::trace::Span span = obs::trace::span("bench", "bench");
    benchmark::DoNotOptimize(span.active());
  }
}

void Obs_EnabledSpan(benchmark::State& state) {
  obs::trace::set_enabled(true);
  for (auto _ : state) {
    obs::trace::Span span = obs::trace::span("bench", "bench");
    benchmark::DoNotOptimize(span.active());
  }
  obs::trace::set_enabled(false);
  obs::trace::reset();
}

void Obs_CounterAdd(benchmark::State& state) {
  obs::metrics::Counter& counter = obs::metrics::counter("bench.counter");
  for (auto _ : state) counter.add(1.0);
}

void Obs_HistogramObserve(benchmark::State& state) {
  obs::metrics::Histogram& histogram =
      obs::metrics::histogram("bench.histogram");
  double value = 1e-6;
  for (auto _ : state) {
    histogram.observe(value);
    value = value < 1.0 ? value * 1.0001 : 1e-6;
  }
}

}  // namespace

BENCHMARK(Obs_DisabledSpan);
BENCHMARK(Obs_EnabledSpan);
BENCHMARK(Obs_CounterAdd);
BENCHMARK(Obs_HistogramObserve);

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Warm-up once (page cache, lazy registrations), then measure.
  min_wall_seconds(/*tracing=*/false, 1);
  double disabled = min_wall_seconds(/*tracing=*/false, 3);
  double enabled = min_wall_seconds(/*tracing=*/true, 3);
  std::size_t spans = obs::trace::recorded();
  obs::trace::reset();
  double ratio = enabled / disabled;

  std::printf("\n=== tracing overhead (fig6 jungle, min of 3) ===\n");
  std::printf("  disabled: %.3f s wall\n", disabled);
  std::printf("  enabled:  %.3f s wall (%zu spans)\n", enabled, spans);
  std::printf("  ratio:    %.4f (budget %.2f)\n", ratio, kOverheadBudget);

  std::ofstream json("BENCH_obs.json");
  json << "{\n"
       << "  \"disabled_wall_s\": " << disabled << ",\n"
       << "  \"enabled_wall_s\": " << enabled << ",\n"
       << "  \"overhead_ratio\": " << ratio << ",\n"
       << "  \"spans_recorded\": " << spans << ",\n"
       << "  \"budget_ratio\": " << kOverheadBudget << "\n"
       << "}\n";
  std::printf("wrote BENCH_obs.json\n");

  if (ratio > kOverheadBudget) {
    std::fprintf(stderr,
                 "FAIL: tracing overhead %.2f%% exceeds the %.0f%% budget\n",
                 (ratio - 1.0) * 100.0, (kOverheadBudget - 1.0) * 100.0);
    return 1;
  }
  return 0;
}
