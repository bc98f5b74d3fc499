// Perf ledger: the jungle's end-to-end and per-layer benchmark, measured on
// both clocks. Wall seconds are what this machine spends; virtual seconds
// are the simulated jungle's modeled time (the paper's s/iter).
//
//   ledger --workload NAME|all --seed N --seconds S --trace 0|1
//   ledger --workload NAME|all --seed N --exact
//   ledger --workload NAME|all --seed N --seconds S --hook-cost
//
// Everything is measured from outside the program, through public calls:
// run_experiment / plan_experiment / JungleTestbed for the runs, a
// faultpoint::ScopedHook that only timestamps the bridge, checkpoint and
// spawn points, obs::metrics / obs::trace / Network::traffic_report for the
// layer counters, and direct kernel / Simulation / ByteWriter calls at each
// workload's sizes.
//
// A seed names a set of K inputs per workload: K initial-condition seeds of
// the same experiment. One realisation of a star cluster can cost twice as
// much as another (the closest encounter sets the shared Hermite timestep),
// so every figure is a mean over the K inputs; a run never rests on one
// draw.
//
// --trace 0: rounds of cold starts (fresh testbed -> placement -> deploy ->
//   steps), one per input, repeat while another round fits in S seconds (at
//   least one round). setup_s is the median over all cold starts. wall_s_per_iter runs
//   from the top of step 1 to the end of the run (the last step's end is
//   the final state read-out, which no hook point marks), per steady step:
//   its median across rounds per input, then the mean over inputs.
// --trace 1: untraced/traced cold-start pairs (their wall ratio is the
//   trace overhead), the per-layer split averaged over the traced runs, and
//   the harness's direct layer calls.
// --exact: one traced cold start per input; prints the clock-independent
//   fingerprint (virtual metrics, bytes, counts, final energies).
// --hook-cost: alternating cold starts with and without the timestamp hook,
//   to show whether the digests a hook switches on cost measurable time.
//
// The last stdout line is one JSON object: attempted / failed bridge steps,
// the final model energies per input, and the metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "amuse/experiment.hpp"
#include "amuse/faultpoint.hpp"
#include "amuse/ic.hpp"
#include "amuse/scenario.hpp"
#include "kernels/bhtree.hpp"
#include "kernels/hermite.hpp"
#include "kernels/sph.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulation.hpp"
#include "util/bytebuffer.hpp"
#include "util/config.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using namespace jungle;
using amuse::experiment::ExperimentSpec;
using amuse::experiment::JungleTestbed;
using amuse::experiment::Result;
namespace fp = amuse::faultpoint;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid]
                           : 0.5 * (values[mid - 1] + values[mid]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double value : values) sum += value;
  return sum / static_cast<double>(values.size());
}

// Nearest-rank percentile of exact samples.
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

util::Config load_ini(const std::string& relative) {
  std::string path = std::string(JUNGLE_SOURCE_DIR) + "/" + relative;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return util::Config::parse(text.str());
}

// ------------------------------------------------------------ workloads

// One benchmark workload: the experiment a cold start runs and how many
// inputs a seed names.
// Every cold start runs the same fixed number of bridge steps, so its final
// energies are comparable with the committed reference. A step's cost
// follows the closest encounter of that moment and barely correlates with
// the next step's, so a run averages over many steady steps (20 to 500) of
// a few inputs; with the stellar update every fourth step, every workload
// with stellar evolution has one inside the per-layer window.
struct Workload {
  std::string name;
  std::optional<util::Config> topology;  // empty = the built-in Fig-12 jungle
  ExperimentSpec spec;
  std::uint64_t seed = 0;
  int inputs = 1;

  // Input j of the seed: the experiment with its own IC stream.
  ExperimentSpec spec_for(int input) const {
    ExperimentSpec s = spec;
    s.seed = seed * 64 + static_cast<std::uint64_t>(input);
    return s;
  }
};

Workload make_workload(const std::string& name, std::uint64_t seed) {
  using amuse::scenario::Kind;
  using amuse::scenario::Options;
  Workload w;
  w.name = name;
  w.seed = seed;
  if (name == "fig6_jungle") {
    // The paper's headline run on the Fig-12 placement: numerics-bound.
    Options options;  // 1000 stars / 10000 gas
    options.iterations = 5;
    w.spec = amuse::scenario::classic_spec(Kind::jungle, options);
    w.inputs = 5;
  } else if (name == "deepwan_autoplace") {
    // Three long-haul hops: coupler round trips and striped transfers set
    // virtual time; the scheduler's exhaustive search runs in set-up and
    // every step checkpoints the graph.
    Options options;
    options.n_stars = 400;
    options.n_gas = 3000;
    options.iterations = 10;
    w.topology = load_ini("examples/topologies/deep-wan-3hop.ini");
    w.spec = amuse::scenario::classic_spec(Kind::autoplace, options);
    w.inputs = 4;
  } else if (name == "sharded_ring") {
    // The only workload on ShardedGravityClient: ghosts, shard imbalance,
    // f32 positions on the edge uplink, checkpointing.
    w.topology = load_ini("examples/experiments/sharded-plummer.ini");
    w.spec = ExperimentSpec::from_config(*w.topology);
    w.spec.iterations = 16;
    w.inputs = 4;
  } else if (name == "rpc_ring") {
    // Tiny clusters, coupler pinned across metro-wan: wall time is the
    // simulator's handoffs, RPC framing and bridge bookkeeping.
    w.topology = load_ini("examples/experiments/triple-plummer.ini");
    w.spec = ExperimentSpec::from_config(*w.topology);
    for (auto& model : w.spec.models) {
      if (model.role == sched::Role::gravity) model.n = 16;
      if (model.name == "ringfield") model.place = "cluster";
    }
    w.spec.iterations = 64;
    w.inputs = 8;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

const std::vector<std::string> kWorkloads = {
    "fig6_jungle", "deepwan_autoplace", "sharded_ring", "rpc_ring"};

// ------------------------------------------------------------ cold start

// A hook mark: which protocol point, on which step, at what time on both
// clocks. Detailed marks (per-layer runs) also carry the cumulative traffic
// and metric counters at the top of each step.
struct Mark {
  fp::Point point;
  int iteration;
  double wall;
  double sim;
  std::map<std::string, double> counters;
  double wan_ipl = 0.0, wan_mpi = 0.0, wan_messages = 0.0, messages = 0.0;
};

struct ColdStart {
  int input = 0;
  bool ok = false;
  std::string error;
  Result result;
  std::vector<Mark> marks;
  double total_wall = 0.0;  // testbed construction to run end
  double setup_wall = 0.0;
  double setup_virtual = 0.0;
  double wall_per_iter = 0.0;  // top of step 1 to run end, per steady step
  std::vector<double> energies;
};

std::unique_ptr<JungleTestbed> make_testbed(const Workload& w) {
  return w.topology ? std::make_unique<JungleTestbed>(*w.topology)
                    : std::make_unique<JungleTestbed>();
}

// The top-of-step mark of every step (steps run once: no faults are
// injected, so nothing replays).
std::vector<const Mark*> step_tops(const std::vector<Mark>& marks,
                                   int iterations) {
  std::vector<const Mark*> tops(static_cast<std::size_t>(iterations), nullptr);
  for (const Mark& mark : marks) {
    if (mark.point == fp::Point::step_top_kick && mark.iteration >= 0 &&
        mark.iteration < iterations) {
      tops[static_cast<std::size_t>(mark.iteration)] = &mark;
    }
  }
  return tops;
}

// What the faultpoint hook records: nothing (no hook installed), the
// timestamps of every point, or also traffic and metric probes at the top
// of each step (per-layer runs).
enum class Hook { none, timestamps, probes };

ColdStart cold_start(const Workload& w, int input, Hook hook) {
  ColdStart run;
  run.input = input;
  const ExperimentSpec spec = w.spec_for(input);
  Clock::time_point t0 = Clock::now();
  try {
    std::unique_ptr<JungleTestbed> bed = make_testbed(w);
    std::optional<fp::ScopedHook> scoped;
    if (hook != Hook::none) {
      JungleTestbed* testbed = bed.get();
      scoped.emplace([&run, testbed, t0, hook](const fp::Context& ctx) {
        Mark mark{ctx.point, ctx.iteration, seconds_since(t0),
                  testbed->simulation().now(), {}};
        if (hook == Hook::probes && ctx.point == fp::Point::step_top_kick) {
          for (const auto& link : testbed->network().traffic_report()) {
            mark.messages += static_cast<double>(link.messages);
            if (link.name == "loopback" || link.name.rfind("lan:", 0) == 0) {
              continue;
            }
            mark.wan_ipl += link.bytes_by_class[static_cast<int>(
                sim::TrafficClass::ipl)];
            mark.wan_mpi += link.bytes_by_class[static_cast<int>(
                sim::TrafficClass::mpi)];
            mark.wan_messages += static_cast<double>(link.messages);
          }
          mark.counters = obs::metrics::snapshot().counters;
        }
        run.marks.push_back(std::move(mark));
      });
    }
    run.result = amuse::experiment::run_experiment(*bed, spec);
    run.total_wall = seconds_since(t0);
    run.ok = true;
  } catch (const std::exception& error) {
    run.error = error.what();
    run.total_wall = seconds_since(t0);
    return run;
  }
  for (const auto& model : run.result.models) {
    run.energies.push_back(model.kinetic);
    run.energies.push_back(model.potential);
    run.energies.push_back(model.thermal);
  }
  if (hook != Hook::none) {
    auto tops = step_tops(run.marks, spec.iterations);
    if (tops.size() < 3 ||
        std::find(tops.begin(), tops.end(), nullptr) != tops.end()) {
      run.ok = false;
      run.error = "hook did not observe every step";
      return run;
    }
    run.setup_wall = tops[1]->wall;
    run.setup_virtual = tops[1]->sim;
    run.wall_per_iter = (run.total_wall - run.setup_wall) /
                        static_cast<double>(spec.iterations - 1);
  }
  return run;
}

// Steady steps of the per-iteration log (every step after the first).
std::vector<amuse::diagnostics::IterationReport> steady_rows(const Result& r) {
  if (r.iteration_log.size() < 2) return {};
  return {r.iteration_log.begin() + 1, r.iteration_log.end()};
}

double steady_mean(const Result& r,
                   double amuse::diagnostics::IterationReport::*field) {
  std::vector<double> values;
  for (const auto& row : steady_rows(r)) values.push_back(row.*field);
  return mean(values);
}

// ------------------------------------------------------------ metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string clock;  // wall | virtual | count | memory
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct Tally {
  long attempted = 0;
  long failed = 0;
  std::vector<std::vector<double>> energies;  // per input, first cold start
  std::vector<std::string> errors;

  explicit Tally(int inputs) : energies(static_cast<std::size_t>(inputs)) {}

  // A cold start's steps count as failed when it threw or when its final
  // energies differ from the first cold start of the same input (same
  // spec, same IC stream: they must be bit-identical).
  bool add(const ColdStart& run, int steps) {
    attempted += steps;
    if (!run.ok) {
      failed += steps;
      errors.push_back(run.error);
      return false;
    }
    auto& first = energies[static_cast<std::size_t>(run.input)];
    if (first.empty()) {
      first = run.energies;
    } else if (run.energies != first) {
      failed += steps;
      errors.push_back("final energies differ between cold starts");
      return false;
    }
    return true;
  }
};

// End-to-end: rounds of untraced cold starts, timestamp hook only.
std::vector<Metric> end_to_end(const Workload& w, double budget, Tally& tally) {
  using Row = amuse::diagnostics::IterationReport;
  const auto inputs = static_cast<std::size_t>(w.inputs);
  // Per input: wall seconds per steady step of every round, and the exact
  // (clock-independent) figures of its first cold start. Only these figures
  // are kept, so peak RSS stays the program's own.
  std::vector<std::vector<double>> per_iter(inputs);
  std::vector<double> setup, virt(inputs), setup_virtual(inputs), wan(inputs);
  Clock::time_point start = Clock::now();
  double round = 0.0;
  do {
    Clock::time_point round_start = Clock::now();
    for (std::size_t j = 0; j < inputs; ++j) {
      ColdStart run = cold_start(w, static_cast<int>(j), Hook::timestamps);
      if (!tally.add(run, w.spec.iterations)) return {};
      setup.push_back(run.setup_wall);
      if (per_iter[j].empty()) {
        virt[j] = steady_mean(run.result, &Row::seconds);
        wan[j] = steady_mean(run.result, &Row::wan_bytes);
        setup_virtual[j] = run.setup_virtual;
      }
      per_iter[j].push_back(run.wall_per_iter);
    }
    round = seconds_since(round_start);
  } while (seconds_since(start) + round <= budget);

  std::vector<double> wall;
  for (const auto& samples : per_iter) wall.push_back(median(samples));
  return {
      {"wall_s_per_iter", mean(wall), "s", "wall"},
      {"setup_s", median(setup), "s", "wall"},
      {"virtual_s_per_iter", mean(virt), "virtual_s", "virtual"},
      {"virtual_setup_s", mean(setup_virtual), "virtual_s", "virtual"},
      {"wan_bytes_per_iter", mean(wan), "B", "virtual"},
      {"peak_rss_mb", peak_rss_mb(), "MB", "memory"},
  };
}

// ---------------------------------------------------- harness layer calls

// Median wall seconds of `call`, repeated until `budget` seconds or `cap`
// calls (at least `floor`).
double time_calls(const std::function<void()>& call, double budget,
                  int floor = 3, int cap = 1000) {
  std::vector<double> samples;
  Clock::time_point start = Clock::now();
  while (static_cast<int>(samples.size()) < floor ||
         (seconds_since(start) < budget &&
          static_cast<int>(samples.size()) < cap)) {
    Clock::time_point t = Clock::now();
    call();
    samples.push_back(seconds_since(t));
  }
  return median(samples);
}

// The workload's largest model of `role` (nullptr when it has none): the
// harness drives each kernel at the size and parameters the run uses.
const amuse::experiment::ModelSpec* largest(const Workload& w,
                                            sched::Role role) {
  const amuse::experiment::ModelSpec* found = nullptr;
  for (const auto& model : w.spec.models) {
    if (model.role == role && (found == nullptr || model.n > found->n)) {
      found = &model;
    }
  }
  return found;
}

double hermite_step_wall(const Workload& w) {
  const auto& stars = *largest(w, sched::Role::gravity);
  util::Rng rng(w.spec_for(0).seed);
  auto model = amuse::ic::plummer_sphere(stars.n, rng);
  kernels::HermiteIntegrator integrator({stars.eps2, stars.eta});
  integrator.set_thread_pool(&util::ThreadPool::global());
  for (std::size_t i = 0; i < model.mass.size(); ++i) {
    integrator.add_particle(model.mass[i], model.position[i],
                            model.velocity[i]);
  }
  double t = 0.0;
  return time_calls([&] { integrator.evolve(t += w.spec.dt); }, 0.3);
}

double sph_step_wall(const Workload& w) {
  const auto* cloud = largest(w, sched::Role::hydro);
  if (cloud == nullptr) return 0.0;
  util::Rng rng(w.spec_for(0).seed);
  auto gas = amuse::ic::gas_sphere(cloud->n, rng, cloud->total_mass,
                                   cloud->radius, cloud->u_frac);
  kernels::SphSystem::Params params;
  params.eps2 = cloud->eps2;
  params.theta = cloud->theta;
  kernels::SphSystem sph(params);
  sph.set_thread_pool(&util::ThreadPool::global());
  for (std::size_t i = 0; i < gas.mass.size(); ++i) {
    sph.add_particle(gas.mass[i], gas.position[i], gas.velocity[i],
                     gas.internal_energy[i]);
  }
  double t = 0.0;
  return time_calls([&] { sph.evolve(t += w.spec.dt); }, 0.3, 2);
}

// The coupler's tree: built over the largest dynamic model, evaluated at
// the next largest one's particles.
double bhtree_force_wall(const Workload& w) {
  std::vector<std::size_t> sizes;
  for (const auto& model : w.spec.models) {
    if (model.role == sched::Role::gravity || model.role == sched::Role::hydro) {
      sizes.push_back(model.n);
    }
  }
  std::sort(sizes.rbegin(), sizes.rend());
  util::Rng rng(w.spec_for(0).seed);
  auto sources = amuse::ic::plummer_sphere(sizes.at(0), rng);
  auto targets = amuse::ic::plummer_sphere(sizes.at(1), rng);
  kernels::BarnesHutTree tree;
  tree.set_thread_pool(&util::ThreadPool::global());
  std::vector<kernels::Vec3> accel(targets.position.size());
  return time_calls(
      [&] {
        tree.build(sources.position, sources.mass);
        tree.accel_at(targets.position, accel);
      },
      0.2);
}

// Wall microseconds per simulator event: two processes ping-pong on
// alternating virtual-time sleeps, so every event is one baton handoff.
double sim_event_wall_us() {
  constexpr int kRounds = 2000;
  return 1e6 * time_calls(
                   [] {
                     sim::Simulation sim;
                     auto player = [&sim] {
                       for (int k = 0; k < kRounds; ++k) sim.sleep(1.0);
                     };
                     sim.spawn("ping", player);
                     sim.spawn_at(0.5, "pong", player);
                     sim.run();
                   },
                   0.3) /
         (2.0 * kRounds);
}

// Wall seconds to frame one state reply (mass + position + velocity) of
// the workload's largest gravity model, the way workers do.
double codec_frame_wall(const Workload& w) {
  const std::size_t n = largest(w, sched::Role::gravity)->n;
  std::vector<double> mass(n, 1.0);
  std::vector<kernels::Vec3> pos(n), vel(n);
  constexpr int kBatch = 64;
  return time_calls(
             [&] {
               for (int k = 0; k < kBatch; ++k) {
                 util::ByteWriter reply(8);
                 reply.put_span_view(std::span<const double>(mass));
                 reply.put_span_view(std::span<const kernels::Vec3>(pos));
                 reply.put_span_view(std::span<const kernels::Vec3>(vel));
                 auto wire = std::move(reply).take();
                 if (wire.size() < 8) std::abort();
               }
             },
             0.1) /
         kBatch;
}

double plan_wall(const Workload& w) {
  const ExperimentSpec spec = w.spec_for(0);
  return time_calls(
      [&] {
        auto bed = make_testbed(w);
        amuse::experiment::plan_experiment(*bed, spec);
      },
      0.3);
}

std::vector<Metric> harness(const Workload& w) {
  return {
      {"kernel.hermite_step.wall_s", hermite_step_wall(w), "s", "wall"},
      {"kernel.sph_step.wall_s", sph_step_wall(w), "s", "wall"},
      {"kernel.bhtree_force.wall_s", bhtree_force_wall(w), "s", "wall"},
      {"sim.event_wall_us", sim_event_wall_us(), "us", "wall"},
      {"codec.frame_wall_s", codec_frame_wall(w), "s", "wall"},
      {"sched.plan_wall_s", plan_wall(w), "s", "wall"},
  };
}

// -------------------------------------------------- per-layer (traced run)

// The per-layer split of one detailed-hook, traced cold start, over steps
// 1 .. iterations-2 (top of step 1 to top of the last step).
std::vector<Metric> per_layer(const Workload& w, const ColdStart& run,
                              const std::vector<obs::trace::SpanRecord>& spans) {
  const int iterations = w.spec.iterations;
  auto tops = step_tops(run.marks, iterations);
  const Mark& first = *tops[1];
  const Mark& last = *tops[static_cast<std::size_t>(iterations - 1)];
  const double steps = iterations - 2;

  // Bridge phases and checkpoints from hook marks: each phase runs from its
  // point to the next mark of the same step.
  std::map<std::string, double> wall, virt;
  double ckpt_count = 0.0;
  for (int i = 1; i + 1 < iterations; ++i) {
    const Mark* top = tops[static_cast<std::size_t>(i)];
    const Mark* next = tops[static_cast<std::size_t>(i + 1)];
    bool ckpt_open = false;
    for (const Mark* here = top; here != next; ++here) {
      const Mark& then = *(here + 1);
      std::string phase;
      switch (here->point) {
        case fp::Point::step_top_kick: phase = "top_kick"; break;
        case fp::Point::step_evolve: phase = "evolve"; break;
        case fp::Point::step_bottom_kick: phase = "bottom_kick"; break;
        case fp::Point::step_stellar: phase = "stellar"; break;
        case fp::Point::ckpt_capture:
        case fp::Point::ckpt_commit:
        case fp::Point::ckpt_committed:
          phase = "ckpt";
          if (!ckpt_open) ckpt_count += 1.0;
          ckpt_open = true;
          break;
        default: continue;
      }
      wall[phase] += then.wall - here->wall;
      virt[phase] += then.sim - here->sim;
    }
  }

  auto counter_delta =
      [&](const std::function<bool(const std::string&)>& match) {
        double total = 0.0;
        for (const auto& [name, value] : last.counters) {
          if (!match(name)) continue;
          auto before = first.counters.find(name);
          total += value -
                   (before == first.counters.end() ? 0.0 : before->second);
        }
        return total;
      };
  auto rpc_series = [](const std::string& name, const std::string& suffix) {
    return name.size() > 4 + suffix.size() && name.rfind("rpc.", 0) == 0 &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
               0;
  };
  double calls = counter_delta(
      [&](const std::string& n) { return rpc_series(n, ".calls"); });
  double retries =
      counter_delta([](const std::string& n) { return n == "rpc.retries"; });

  // Shard imbalance: substeps per shard of the sharded model (shard 0 is
  // metered as the model, the others as model#k).
  double imbalance = 0.0;
  for (const auto& model : w.spec.models) {
    if (model.workers <= 1) continue;
    std::vector<double> shard_steps;
    for (int k = 0; k < model.workers; ++k) {
      std::string meter =
          k == 0 ? model.name : model.name + "#" + std::to_string(k);
      shard_steps.push_back(counter_delta([&](const std::string& n) {
        return n == "worker." + meter + ".substeps";
      }));
    }
    double avg = mean(shard_steps);
    if (avg > 0.0) {
      imbalance =
          *std::max_element(shard_steps.begin(), shard_steps.end()) / avg;
    }
  }

  // Spans of the traced run: client RPC latencies inside the window, ghost
  // frames, and the spawn phase. The kernel "compute" span is deliberately
  // not used: it wraps the modeled-compute sleep, not the numerics.
  std::vector<double> latency;
  double ghost_calls = 0.0, spawn_wall = 0.0, spawn_virtual = 0.0;
  for (const auto& span : spans) {
    bool in_window = span.sim_begin >= first.sim && span.sim_begin < last.sim;
    if (span.category == "rpc" && in_window) {
      latency.push_back(span.sim_end - span.sim_begin);
      if (span.name == "rpc:grav_ghost_update") ghost_calls += 1.0;
    }
    if (span.category == "deploy" && span.name.rfind("spawn:", 0) == 0) {
      spawn_wall += 1e-9 * static_cast<double>(span.wall_end_ns -
                                               span.wall_begin_ns);
      spawn_virtual += span.sim_end - span.sim_begin;
    }
  }

  using Row = amuse::diagnostics::IterationReport;
  std::vector<double> substeps;
  for (const auto& row : steady_rows(run.result)) {
    substeps.push_back(static_cast<double>(row.substeps));
  }
  double measured = steady_mean(run.result, &Row::seconds);

  std::vector<Metric> out;
  for (const char* phase : {"top_kick", "evolve", "bottom_kick", "stellar"}) {
    out.push_back({std::string("bridge.") + phase + ".wall_s",
                   wall[phase] / steps, "s", "wall"});
    out.push_back({std::string("bridge.") + phase + ".virtual_s",
                   virt[phase] / steps, "virtual_s", "virtual"});
  }
  out.insert(
      out.end(),
      {
          {"kernel.substeps_per_iter", mean(substeps), "count", "count"},
          {"kernel.flops_per_iter", steady_mean(run.result, &Row::flops),
           "flop", "count"},
          {"kernel.compute_virtual_s_per_iter",
           steady_mean(run.result, &Row::compute_seconds), "virtual_s",
           "virtual"},
          {"sim.messages_per_iter", (last.messages - first.messages) / steps,
           "count", "count"},
          {"rpc.calls_per_iter", calls / steps, "count", "count"},
          {"rpc.bytes_out_per_iter",
           counter_delta([&](const std::string& n) {
             return rpc_series(n, ".bytes_out");
           }) / steps,
           "B", "count"},
          {"rpc.bytes_in_per_iter",
           counter_delta([&](const std::string& n) {
             return rpc_series(n, ".bytes_in");
           }) / steps,
           "B", "count"},
          {"rpc.latency_p50_virtual_s", percentile(latency, 0.50),
           "virtual_s", "virtual"},
          {"rpc.latency_p99_virtual_s", percentile(latency, 0.99),
           "virtual_s", "virtual"},
          {"rpc.retry_ratio", calls > 0.0 ? retries / calls : 0.0, "ratio",
           "count"},
          {"net.wan_ipl_bytes_per_iter",
           (last.wan_ipl - first.wan_ipl) / steps, "B", "count"},
          {"net.wan_mpi_bytes_per_iter",
           (last.wan_mpi - first.wan_mpi) / steps, "B", "count"},
          {"net.wan_messages_per_iter",
           (last.wan_messages - first.wan_messages) / steps, "count",
           "count"},
          {"ckpt.wall_s", wall["ckpt"] / steps, "s", "wall"},
          {"ckpt.virtual_s", virt["ckpt"] / steps, "virtual_s", "virtual"},
          {"ckpt.count", ckpt_count, "count", "count"},
          {"sharded.substep_imbalance", imbalance, "ratio", "count"},
          {"sharded.ghost_calls_per_iter", ghost_calls / steps, "count",
           "count"},
          {"sched.model_ratio",
           measured > 0.0
               ? run.result.modeled_seconds_per_iteration / measured
               : 0.0,
           "ratio", "virtual"},
          {"sched.precalibration_drift", run.result.precalibration_drift,
           "ratio", "virtual"},
          {"deploy.spawn_wall_s", spawn_wall, "s", "wall"},
          {"deploy.spawn_virtual_s", spawn_virtual, "virtual_s", "virtual"},
      });
  return out;
}

// One traced cold start: tracing on, spans fresh; its per-layer split.
ColdStart traced_cold_start(const Workload& w, int input,
                            std::vector<Metric>& split) {
  obs::trace::reset();
  obs::trace::set_enabled(true);
  ColdStart run = cold_start(w, input, Hook::probes);
  obs::trace::set_enabled(false);
  if (run.ok) split = per_layer(w, run, obs::trace::snapshot());
  obs::trace::reset();
  return run;
}

// Element-wise mean of per-run metric lists (all share names and order).
std::vector<Metric> mean_metrics(const std::vector<std::vector<Metric>>& runs) {
  std::vector<Metric> out = runs.front();
  for (std::size_t m = 0; m < out.size(); ++m) {
    std::vector<double> values;
    for (const auto& run : runs) values.push_back(run[m].value);
    out[m].value = mean(values);
  }
  return out;
}

std::vector<Metric> layers(const Workload& w, double budget, Tally& tally) {
  // Untraced / traced pairs with the same (detailed) hook, cycling through
  // the inputs: their wall ratio is what tracing alone costs.
  std::vector<double> ratios;
  std::vector<std::vector<Metric>> splits;
  Clock::time_point start = Clock::now();
  int input = 0;
  do {
    ColdStart plain = cold_start(w, input, Hook::probes);
    if (!tally.add(plain, w.spec.iterations)) return {};
    std::vector<Metric> split;
    ColdStart traced = traced_cold_start(w, input, split);
    if (!tally.add(traced, w.spec.iterations)) return {};
    ratios.push_back(traced.total_wall / plain.total_wall);
    splits.push_back(std::move(split));
    input = (input + 1) % w.inputs;
  } while (seconds_since(start) < budget);
  std::vector<Metric> out = mean_metrics(splits);
  for (Metric& m : harness(w)) out.push_back(std::move(m));
  out.push_back({"obs.trace_overhead", median(ratios), "ratio", "wall"});
  return out;
}

// --exact: every clock-independent figure, one traced cold start per input.
std::vector<Metric> exact(const Workload& w, Tally& tally) {
  using Row = amuse::diagnostics::IterationReport;
  std::vector<std::vector<Metric>> per_input;
  for (int j = 0; j < w.inputs; ++j) {
    std::vector<Metric> split;
    ColdStart run = traced_cold_start(w, j, split);
    if (!tally.add(run, w.spec.iterations)) return {};
    std::vector<Metric> figures = {
        {"virtual_s_per_iter", steady_mean(run.result, &Row::seconds),
         "virtual_s", "virtual"},
        {"virtual_setup_s", run.setup_virtual, "virtual_s", "virtual"},
        {"wan_bytes_per_iter", steady_mean(run.result, &Row::wan_bytes), "B",
         "virtual"},
    };
    for (Metric& m : split) {
      if (m.clock != "wall") figures.push_back(std::move(m));
    }
    per_input.push_back(std::move(figures));
  }
  return mean_metrics(per_input);
}

// --hook-cost: does the timestamp hook (and the checkpoint digests it
// switches on) change total wall time? Alternating order, medians.
std::vector<Metric> hook_cost(const Workload& w, double budget, Tally& tally) {
  std::vector<double> with, without;
  Clock::time_point start = Clock::now();
  for (int k = 0; with.size() < 3 || seconds_since(start) < budget; ++k) {
    int input = k % w.inputs;
    for (bool hooked : {k % 2 == 0, k % 2 != 0}) {
      ColdStart run =
          cold_start(w, input, hooked ? Hook::timestamps : Hook::none);
      if (!tally.add(run, w.spec.iterations)) return {};
      (hooked ? with : without).push_back(run.total_wall);
    }
  }
  return {{"hooked_wall_s", median(with), "s", "wall"},
          {"unhooked_wall_s", median(without), "s", "wall"},
          {"hook_ratio", median(with) / median(without), "ratio", "wall"},
          {"pairs", static_cast<double>(with.size()), "count", "count"}};
}

std::string json_number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

template <typename T, typename F>
std::string json_list(const std::vector<T>& items, F&& format) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i ? ", " : "") + format(items[i]);
  }
  return out + "]";
}

int usage() {
  std::fprintf(stderr,
               "usage: ledger --workload NAME|all --seed N "
               "[--seconds S] [--trace 0|1 | --exact | --hook-cost]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, mode = "e2e";
  std::uint64_t seed = 0;
  bool have_seed = false;
  double seconds = 10.0;
  try {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        workload = value();
      } else if (arg == "--seed") {
        seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        seconds = std::stod(value());
      } else if (arg == "--trace") {
        std::string trace = value();
        if (trace != "0" && trace != "1") return usage();
        mode = trace == "1" ? "layers" : "e2e";
      } else if (arg == "--exact") {
        mode = "exact";
      } else if (arg == "--hook-cost") {
        mode = "hook-cost";
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (workload.empty() || !have_seed || !(seconds > 0.0)) return usage();

  std::vector<std::string> names =
      workload == "all" ? kWorkloads : std::vector<std::string>{workload};
  const unsigned lanes = util::ThreadPool::global().lanes();
  std::printf("perf ledger: seed=%llu lanes=%u mode=%s\n",
              static_cast<unsigned long long>(seed), lanes, mode.c_str());

  std::string metrics_json, energies_json;
  long attempted = 0, failed = 0;
  try {
    for (const std::string& name : names) {
      Workload w = make_workload(name, seed);
      Tally tally(w.inputs);
      double budget = seconds / static_cast<double>(names.size());
      std::vector<Metric> metrics =
          mode == "e2e"      ? end_to_end(w, budget, tally)
          : mode == "layers" ? layers(w, budget, tally)
          : mode == "exact"  ? exact(w, tally)
                             : hook_cost(w, budget, tally);
      attempted += tally.attempted;
      failed += tally.failed;
      for (const std::string& error : tally.errors) {
        std::fprintf(stderr, "%s: %s\n", name.c_str(), error.c_str());
      }
      std::printf("\n%s  (%d inputs, %ld bridge steps, %ld failed)\n",
                  name.c_str(), w.inputs, tally.attempted, tally.failed);
      std::string prefix = names.size() > 1 ? name + "/" : "";
      for (const Metric& m : metrics) {
        std::printf("  %-36s %-8s %-10s %.9g\n", m.name.c_str(),
                    m.clock.c_str(), m.unit.c_str(), m.value);
        metrics_json += (metrics_json.empty() ? "" : ", ") +
                        json_string(prefix + m.name) + ": {\"value\": " +
                        json_number(m.value) + ", \"unit\": " +
                        json_string(m.unit) + "}";
      }
      energies_json +=
          (energies_json.empty() ? "" : ", ") + json_string(name) + ": " +
          json_list(tally.energies, [](const std::vector<double>& input) {
            return json_list(input, json_number);
          });
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ledger: %s\n", error.what());
    return 1;
  }
  std::printf("{\"lanes\": %u, \"attempted\": %ld, \"failed\": %ld, "
              "\"energies\": {%s}, \"metrics\": {%s}}\n",
              lanes, attempted, failed, energies_json.c_str(),
              metrics_json.c_str());
  return 0;
}
