// E-datapath — the wide-area data path, measured: bytes on the wire per
// bridge step and virtual seconds per iteration of the pipelined/delta/
// striped path, on
//   * the Fig-6 embedded-cluster run on the jungle testbed (Fig 12 map) —
//     where the delta exchange halves-and-more the per-step WAN volume, and
//   * a deep-WAN 3-hop topology (examples/topologies/deep-wan-3hop.ini) —
//     where pipelining hides the triple latency and striping fills the
//     stream-capped lightpaths,
// plus a single-site LAN reference. Writes BENCH_datapath.json;
// tools/check_datapath.py fails if the bytes or seconds regress against the
// committed numbers, or if the gains over the retired serial full-fetch
// path (its `_sync` rows, frozen in bench/BENCH_datapath.ref.json) shrink
// below their gates.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "amuse/scenario.hpp"
#include "util/bytebuffer.hpp"

using namespace jungle::amuse::scenario;

namespace {

std::string topology_path(const char* name) {
  return std::string(JUNGLE_SOURCE_DIR) + "/examples/topologies/" + name;
}

jungle::util::Config load_topology(const char* name) {
  std::ifstream in(topology_path(name));
  if (!in) {
    throw jungle::ConfigError("cannot open " + topology_path(name));
  }
  std::ostringstream text;
  text << in.rdbuf();
  return jungle::util::Config::parse(text.str());
}

Options fig6_options() {
  Options options;  // the production embedded-cluster workload
  options.n_stars = 1000;
  options.n_gas = 10000;
  options.iterations = 4;  // enough steps for the delta caches to settle
  return options;
}

Options wan_options() {
  Options options;
  options.n_stars = 400;
  options.n_gas = 3000;
  options.iterations = 4;
  return options;
}

struct Row {
  std::string name;
  double seconds_per_iteration;
  double wan_ipl_bytes_per_step;
  double items_per_second;  // real bridge iterations per wall second
};

Row run_row(const std::string& name, Result (*runner)()) {
  auto wall_start = std::chrono::steady_clock::now();
  Result result = runner();
  double wall = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - wall_start)
                    .count();
  return Row{name, result.seconds_per_iteration,
             result.wan_ipl_bytes_per_step,
             static_cast<double>(result.iterations) / wall};
}

Result run_fig6() { return run_scenario(Kind::jungle, fig6_options()); }

Result run_deepwan() {
  return run_scenario_config(load_topology("deep-wan-3hop.ini"),
                             wan_options());
}

Result run_lan() {
  return run_scenario_config(load_topology("lan-dense.ini"), wan_options());
}

// Real-time microbench of the scatter-gather framing itself: a worker
// reply carrying a 10k-particle state as borrowed views vs. the owned
// put_vector path it replaced. (The scenario sweep runs once, in the
// reporter below — not here, so CI does not pay it twice.)
void Datapath_FrameStateReply(benchmark::State& state) {
  std::vector<double> mass(10000, 1e-4);
  std::vector<double> rho(10000, 0.5);
  bool views = state.range(0) != 0;
  std::size_t framed = 0;
  for (auto _ : state) {
    jungle::util::ByteWriter reply(8);
    if (views) {
      reply.put_span_view(std::span<const double>(mass));
      reply.put_span_view(std::span<const double>(rho));
    } else {
      reply.put_vector(mass);
      reply.put_vector(rho);
    }
    auto wire = std::move(reply).take();
    benchmark::DoNotOptimize(wire.data());
    framed += wire.size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(framed));
  state.SetLabel(views ? "span views" : "owned put_vector");
}

}  // namespace

BENCHMARK(Datapath_FrameStateReply)->Arg(0)->Arg(1);

// The full sweep + JSON artifact, printed after the registered benchmarks.
class DatapathReporter : public benchmark::ConsoleReporter {
 public:
  void Finalize() override {
    std::vector<Row> rows;
    rows.push_back(run_row("fig6_jungle_delta", run_fig6));
    rows.push_back(run_row("deepwan_pipelined", run_deepwan));
    rows.push_back(run_row("lan_pipelined", run_lan));

    std::printf("\n=== data path: bytes per bridge step / virtual s per "
                "iteration ===\n");
    for (const Row& row : rows) {
      std::printf("  %-22s wan=%9.0f B/step   %10.4f s/iter\n",
                  row.name.c_str(), row.wan_ipl_bytes_per_step,
                  row.seconds_per_iteration);
    }

    std::ofstream json("BENCH_datapath.json");
    json << "{\n  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      json << "    {\"name\": \"" << rows[i].name
           << "\", \"seconds_per_iteration\": "
           << rows[i].seconds_per_iteration
           << ", \"wan_ipl_bytes_per_step\": "
           << rows[i].wan_ipl_bytes_per_step
           << ", \"items_per_second\": " << rows[i].items_per_second << "}"
           << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::printf("\nwrote BENCH_datapath.json (%zu rows)\n", rows.size());
    benchmark::ConsoleReporter::Finalize();
  }
};

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  DatapathReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
