// E-sim — simulator events per wall second for three dispatch patterns:
//   PingPong       two processes alternate sleeps: every event hands the
//                  baton to the other process's thread;
//   SelfResume     one process in a sleep loop: every event is its own wake,
//                  dispatched with no thread switch;
//   CallbackChain  a self-rescheduling callback interleaved with a sleeping
//                  process: the callbacks run while the process yields.
// Each iteration builds a fresh Simulation (thread spawn included) and runs
// `range(0)` rounds; items_per_second is events per wall second. No gate:
// CI runs it as a smoke step and keeps the JSON
// (--benchmark_out=BENCH_sim.json --benchmark_out_format=json).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>

#include "sim/simulation.hpp"

using namespace jungle;

namespace {

void Sim_PingPong(benchmark::State& state) {
  const auto rounds = state.range(0);
  for (auto _ : state) {
    sim::Simulation sim;
    auto player = [&sim, rounds] {
      for (std::int64_t k = 0; k < rounds; ++k) sim.sleep(1.0);
    };
    sim.spawn("ping", player);
    sim.spawn_at(0.5, "pong", player);
    sim.run();
    benchmark::DoNotOptimize(sim.now());
  }
  state.SetItemsProcessed(state.iterations() * 2 * rounds);
}

void Sim_SelfResume(benchmark::State& state) {
  const auto rounds = state.range(0);
  for (auto _ : state) {
    sim::Simulation sim;
    sim.spawn("sleeper", [&sim, rounds] {
      for (std::int64_t k = 0; k < rounds; ++k) sim.sleep(1.0);
    });
    sim.run();
    benchmark::DoNotOptimize(sim.now());
  }
  state.SetItemsProcessed(state.iterations() * rounds);
}

void Sim_CallbackChain(benchmark::State& state) {
  const auto rounds = state.range(0);
  for (auto _ : state) {
    sim::Simulation sim;
    std::int64_t fired = 0;
    std::function<void()> tick = [&] {
      if (++fired < rounds) sim.after(1.0, tick);
    };
    sim.at(0.5, tick);
    sim.spawn("sleeper", [&sim, rounds] {
      for (std::int64_t k = 0; k < rounds; ++k) sim.sleep(1.0);
    });
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 2 * rounds);
}

// Wall time: the handoffs block the calling thread, so its CPU time says
// little about events per second.
void wall_clock_rounds(benchmark::internal::Benchmark* bench) {
  bench->Arg(2000)->UseRealTime()->Unit(benchmark::kMillisecond);
}

}  // namespace

BENCHMARK(Sim_PingPong)->Apply(wall_clock_rounds);
BENCHMARK(Sim_SelfResume)->Apply(wall_clock_rounds);
BENCHMARK(Sim_CallbackChain)->Apply(wall_clock_rounds);

BENCHMARK_MAIN();
