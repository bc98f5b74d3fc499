// The observability layer: spans across RPC hops, metrics correctness, the
// disabled fast path, structured logging, and the scheduler's
// modeled-vs-measured calibration loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <vector>

#include "amuse/clients.hpp"
#include "amuse/daemon.hpp"
#include "amuse/faultpoint.hpp"
#include "amuse/ic.hpp"
#include "amuse/scenario.hpp"
#include "amuse/workers.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/scheduler.hpp"
#include "util/logging.hpp"

using namespace jungle;
using namespace jungle::amuse;

// Allocation counter for the zero-allocation assertion on the disabled
// tracing path (this TU is its own test binary, so the override is local).
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* memory = std::malloc(size);
  if (memory == nullptr) throw std::bad_alloc();
  return memory;
}
void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* memory = std::malloc(size);
  if (memory == nullptr) throw std::bad_alloc();
  return memory;
}
void operator delete(void* memory) noexcept { std::free(memory); }
void operator delete(void* memory, std::size_t) noexcept { std::free(memory); }
void operator delete[](void* memory) noexcept { std::free(memory); }
void operator delete[](void* memory, std::size_t) noexcept {
  std::free(memory);
}

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
    obs::trace::bind_clock(
        this, [this] { return sim.now(); },
        [this] { return sim.current_name(); });
  }

  ~LocalWorld() {
    obs::trace::unbind_clock(this);
    sim.shutdown();
  }

  void run(std::function<void()> script) {
    desktop->spawn("script", std::move(script));
    sim.run();
  }
};

const obs::trace::SpanRecord* find_span(
    const std::vector<obs::trace::SpanRecord>& spans, const std::string& name,
    const std::string& category = "") {
  for (const auto& rec : spans) {
    if (rec.name == name && (category.empty() || rec.category == category)) {
      return &rec;
    }
  }
  return nullptr;
}

}  // namespace

// ----------------------------------------------------------------- metrics

TEST(Metrics, HistogramSummaryTracksMoments) {
  obs::metrics::Histogram histogram;
  for (int i = 1; i <= 100; ++i) histogram.observe(i * 0.01);  // 0.01..1.0
  auto summary = histogram.summary();
  EXPECT_EQ(summary.count, 100u);
  EXPECT_NEAR(summary.sum, 50.5, 1e-9);
  EXPECT_DOUBLE_EQ(summary.min, 0.01);
  EXPECT_DOUBLE_EQ(summary.max, 1.0);
  EXPECT_NEAR(summary.mean(), 0.505, 1e-9);
  // Quarter-decade buckets: percentiles land within one bucket's span.
  double resolution = std::pow(10.0, 1.0 / 4.0);
  EXPECT_GT(summary.p50, 0.5 / resolution);
  EXPECT_LT(summary.p50, 0.5 * resolution);
  EXPECT_GE(summary.p90, summary.p50);
  EXPECT_GE(summary.p99, summary.p90);
  histogram.reset();
  EXPECT_EQ(histogram.count(), 0u);
}

TEST(Metrics, RegistryCountsAndSnapshots) {
  obs::metrics::counter("test.hits").add(3.0);
  obs::metrics::counter("test.hits").increment();
  obs::metrics::gauge("test.depth").set(7.0);
  EXPECT_DOUBLE_EQ(obs::metrics::counter_value("test.hits"), 4.0);
  EXPECT_DOUBLE_EQ(obs::metrics::gauge_value("test.depth"), 7.0);
  EXPECT_DOUBLE_EQ(obs::metrics::counter_value("test.unregistered"), 0.0);
  std::string json = obs::metrics::snapshot_json();
  EXPECT_NE(json.find("\"test.hits\":4"), std::string::npos);
  EXPECT_NE(json.find("\"test.depth\":7"), std::string::npos);
}

// ------------------------------------------------------------------- spans

TEST(Trace, DisabledFastPathAllocatesNothing) {
  obs::trace::set_enabled(false);
  bool any_active = false;
  std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    obs::trace::Span span = obs::trace::span("hot-path", "test");
    any_active = any_active || span.active();
  }
  std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_FALSE(any_active);
  EXPECT_EQ(after, before);
  EXPECT_EQ(obs::trace::current_span(), 0u);
}

TEST(Trace, SpansNestAndRestoreTheCurrentContext) {
  obs::trace::reset();
  obs::trace::set_enabled(true);
  {
    obs::trace::Span outer = obs::trace::span("outer", "test");
    EXPECT_EQ(obs::trace::current_span(), outer.id());
    {
      obs::trace::Span inner = obs::trace::span("inner", "test");
      EXPECT_EQ(obs::trace::current_span(), inner.id());
    }
    EXPECT_EQ(obs::trace::current_span(), outer.id());
  }
  EXPECT_EQ(obs::trace::current_span(), 0u);
  auto spans = obs::trace::snapshot();
  const auto* outer = find_span(spans, "outer");
  const auto* inner = find_span(spans, "inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->parent, outer->id);
  EXPECT_EQ(outer->parent, 0u);
  obs::trace::set_enabled(false);
  obs::trace::reset();
}

TEST(Trace, SpansParentAcrossAnRpcHop) {
  obs::trace::reset();
  obs::trace::set_enabled(true);
  {
    LocalWorld world;
    world.run([&] {
      obs::trace::Span root = obs::trace::span("script-root", "test");
      WorkerSpec spec;
      spec.code = "phigrape";
      spec.ncores = 2;
      GravityClient gravity(start_local_worker(world.sockets, world.net,
                                               *world.desktop, *world.desktop,
                                               spec, ChannelKind::mpi));
      util::Rng rng(7);
      auto model = ic::plummer_sphere(32, rng);
      gravity.add_particles(model.mass, model.position, model.velocity);
      gravity.evolve(1.0 / 32.0);
      gravity.close();
    });
  }
  obs::trace::set_enabled(false);
  auto spans = obs::trace::snapshot();
  const auto* root = find_span(spans, "script-root");
  const auto* client = find_span(spans, "rpc:grav_evolve", "rpc");
  const auto* serve = find_span(spans, "grav_evolve", "serve");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(client, nullptr);
  ASSERT_NE(serve, nullptr);
  // The worker-side span parents under the in-flight client call (the span
  // id crossed the wire in the frame header), and the client recorded the
  // remote span for the exporter's flow arrow.
  EXPECT_EQ(client->parent, root->id);
  EXPECT_EQ(serve->parent, client->id);
  EXPECT_EQ(client->remote, serve->id);
  // Different simulated processes, one causal interval.
  EXPECT_NE(client->process, serve->process);
  EXPECT_GE(serve->sim_begin, client->sim_begin);
  EXPECT_LE(serve->sim_end, client->sim_end + 1e-12);
  // The worker's kernel compute span nests under the serve span.
  const auto* compute = find_span(spans, "compute", "kernel");
  ASSERT_NE(compute, nullptr);
  EXPECT_EQ(compute->parent, serve->id);
  obs::trace::reset();
}

TEST(Trace, TraceIdSurvivesStripedBulkTransfers) {
  obs::trace::reset();
  obs::trace::set_enabled(true);
  std::size_t state_size = 0;
  {
    LocalWorld world;
    world.run([&] {
      WorkerSpec spec;
      spec.code = "phigrape";
      spec.ncores = 2;
      GravityClient gravity(start_local_worker(world.sockets, world.net,
                                               *world.desktop, *world.desktop,
                                               spec, ChannelKind::mpi));
      util::Rng rng(9);
      // 2000 particles * 56 B > the 64 KiB stripe threshold: both the
      // request and the state reply cross as parallel stripes.
      auto model = ic::plummer_sphere(2000, rng);
      gravity.add_particles(model.mass, model.position, model.velocity);
      state_size = gravity.get_state().mass.size();
      gravity.close();
    });
  }
  obs::trace::set_enabled(false);
  EXPECT_EQ(state_size, 2000u);
  auto spans = obs::trace::snapshot();
  const auto* add_client = find_span(spans, "rpc:grav_add_particles", "rpc");
  const auto* add_serve = find_span(spans, "grav_add_particles", "serve");
  const auto* get_client = find_span(spans, "rpc:grav_get_state", "rpc");
  const auto* get_serve = find_span(spans, "grav_get_state", "serve");
  ASSERT_NE(add_client, nullptr);
  ASSERT_NE(add_serve, nullptr);
  ASSERT_NE(get_client, nullptr);
  ASSERT_NE(get_serve, nullptr);
  // Striping reassembles the frame before delivery, so the header's span id
  // still parents the serve span — in both directions.
  EXPECT_EQ(add_serve->parent, add_client->id);
  EXPECT_EQ(add_client->remote, add_serve->id);
  EXPECT_EQ(get_serve->parent, get_client->id);
  EXPECT_EQ(get_client->remote, get_serve->id);
  obs::trace::reset();
}

// ----------------------------------------------------------------- logging

TEST(Logging, ParseLevelCoversTheJungleLogValues) {
  EXPECT_EQ(log::parse_level("debug"), log::Level::debug);
  EXPECT_EQ(log::parse_level("info"), log::Level::info);
  EXPECT_EQ(log::parse_level("warn"), log::Level::warn);
  EXPECT_EQ(log::parse_level("error"), log::Level::error);
  EXPECT_EQ(log::parse_level("off"), log::Level::off);
  EXPECT_EQ(log::parse_level("nonsense", log::Level::info), log::Level::info);
}

TEST(Logging, StructuredSinkCarriesTheActiveSpan) {
  obs::trace::reset();
  obs::trace::set_enabled(true);
  std::vector<log::Record> records;
  {
    log::ScopedStructuredSink sink(
        [&](const log::Record& record) { records.push_back(record); });
    obs::trace::Span span = obs::trace::span("logging", "test");
    log::warn("obs-test") << "tagged line";
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].span, span.id());
    EXPECT_EQ(records[0].component, "obs-test");
    EXPECT_EQ(records[0].level, log::Level::warn);
    EXPECT_NE(records[0].message.find("tagged"), std::string::npos);
  }
  obs::trace::set_enabled(false);
  obs::trace::reset();
  // Without tracing, log records carry span 0 — lines stay tag-free.
  std::vector<log::Record> untraced;
  {
    log::ScopedStructuredSink sink(
        [&](const log::Record& record) { untraced.push_back(record); });
    log::warn("obs-test") << "plain line";
  }
  ASSERT_EQ(untraced.size(), 1u);
  EXPECT_EQ(untraced[0].span, 0u);
}

// -------------------------------------------------------------- rpc meters

TEST(Metrics, RpcClientMetersCallsBytesAndLatency) {
  double calls_before = obs::metrics::counter_value("rpc.obs-test.calls");
  double bytes_before = obs::metrics::counter_value("rpc.obs-test.bytes_out");
  double flops_before = obs::metrics::counter_value("worker.phigrape.flops");
  std::uint64_t latency_before =
      obs::metrics::histogram("rpc.obs-test.latency_s").count();
  {
    LocalWorld world;
    world.run([&] {
      WorkerSpec spec;
      spec.code = "phigrape";
      spec.ncores = 2;
      GravityClient gravity(start_local_worker(world.sockets, world.net,
                                               *world.desktop, *world.desktop,
                                               spec, ChannelKind::mpi));
      gravity.rpc().set_meter("obs-test");
      util::Rng rng(11);
      auto model = ic::plummer_sphere(64, rng);
      gravity.add_particles(model.mass, model.position, model.velocity);
      gravity.evolve(1.0 / 32.0);
      gravity.close();
    });
  }
  EXPECT_GE(obs::metrics::counter_value("rpc.obs-test.calls") - calls_before,
            2.0);
  EXPECT_GT(
      obs::metrics::counter_value("rpc.obs-test.bytes_out") - bytes_before,
      0.0);
  EXPECT_GT(obs::metrics::histogram("rpc.obs-test.latency_s").count(),
            latency_before);
  // The worker side metered kernel work under its code name (no spec.meter
  // set on a bare local worker).
  EXPECT_GT(obs::metrics::counter_value("worker.phigrape.flops") -
                flops_before,
            0.0);
}

// ------------------------------------------------- calibration (the loop)

TEST(Sched, CalibrationClampsAndDefaults) {
  sched::Calibration calibration;
  EXPECT_TRUE(calibration.empty());
  EXPECT_DOUBLE_EQ(calibration.scale_for("absent"), 1.0);
  calibration.set_scale("grav", 1000.0);
  EXPECT_DOUBLE_EQ(calibration.scale_for("grav"), 64.0);
  calibration.set_scale("grav", 1e-4);
  EXPECT_DOUBLE_EQ(calibration.scale_for("grav"), 1.0 / 64.0);
  calibration.set_scale("grav", 2.5);
  EXPECT_DOUBLE_EQ(calibration.scale_for("grav"), 2.5);
  calibration.set_scale("bad", -1.0);  // ignored, not clamped to the floor
  EXPECT_DOUBLE_EQ(calibration.scale_for("bad"), 1.0);
  EXPECT_FALSE(calibration.empty());
}

TEST(Sched, CalibrationScalesModeledCompute) {
  scenario::Options options;
  options.n_stars = 200;
  options.n_gas = 800;
  options.with_stellar_evolution = false;
  auto spec = scenario::classic_spec(scenario::Kind::autoplace, options);
  scenario::JungleTestbed bed;
  sched::Scheduler scheduler(bed.network(), bed.client_host(),
                             bed.deployer().resources());
  sched::Workload load = spec.workload();
  sched::Placement plan = scheduler.plan(load);

  sched::Calibration calibration;
  for (const auto& model : load.models) calibration.set_scale(model.name, 4.0);
  scheduler.set_calibration(calibration);
  sched::Placement scored = plan;
  scheduler.score(load, scored);
  for (std::size_t i = 0; i < plan.roles.size(); ++i) {
    if (plan.roles[i].compute_seconds <= 0.0) continue;
    EXPECT_NEAR(scored.roles[i].compute_seconds,
                4.0 * plan.roles[i].compute_seconds,
                1e-9 * plan.roles[i].compute_seconds)
        << "role " << plan.names[i];
  }
  EXPECT_GT(scored.modeled_seconds_per_iteration,
            plan.modeled_seconds_per_iteration);
}

TEST(Sched, FirstIterationCalibratesWithinTwofold) {
  // The regression the tracing layer exists to close: the static cost
  // model is off by an order of magnitude or more; after one measured
  // iteration the calibrated model must sit within 2x of measured.
  scenario::Options options;
  options.n_stars = 200;
  options.n_gas = 800;
  options.iterations = 2;
  options.with_stellar_evolution = false;
  std::vector<std::string> sched_lines;
  log::Level previous = log::threshold();
  log::set_threshold(log::Level::info);
  scenario::Result result;
  {
    log::ScopedStructuredSink sink([&](const log::Record& record) {
      if (record.component == "sched") sched_lines.push_back(record.message);
    });
    result = scenario::run_scenario(scenario::Kind::jungle, options);
  }
  log::set_threshold(previous);

  EXPECT_GT(result.precalibration_drift, 0.0);
  EXPECT_GT(result.compute_drift, 0.0);
  EXPECT_LE(result.compute_drift, 2.0);
  EXPECT_LE(result.compute_drift, result.precalibration_drift + 1e-12);
  EXPECT_GT(result.calibrated_seconds_per_iteration, 0.0);
  EXPECT_GT(obs::metrics::gauge_value("sched.compute_drift"), 0.0);
  EXPECT_GT(obs::metrics::gauge_value("sched.precalibration_drift"), 0.0);
  bool saw_cost_table = false;
  for (const std::string& line : sched_lines) {
    if (line.find("calibrated") != std::string::npos) saw_cost_table = true;
  }
  EXPECT_TRUE(saw_cost_table) << "no calibrated cost table in the sched log";
  // The per-iteration log covers the whole run, with no replays.
  ASSERT_EQ(result.iteration_log.size(), 2u);
  for (const auto& row : result.iteration_log) {
    EXPECT_FALSE(row.replay);
    EXPECT_GT(row.seconds, 0.0);
    EXPECT_GT(row.flops, 0.0);
    EXPECT_GT(row.rpc_calls, 0u);
  }
}

TEST(Diagnostics, IterationLogMarksReplayedStepsDistinctly) {
  // Same fault shape as the scenario recovery test: gravity's host dies
  // after step 1, step 2 rolls back and re-runs — the re-run must be
  // marked as a replay in the iteration log and the dashboard.
  scenario::Options options;
  options.n_stars = 600;
  options.n_gas = 2000;
  options.iterations = 3;
  options.with_stellar_evolution = false;
  scenario::JungleTestbed probe;
  auto plan =
      scenario::placement_for(probe, scenario::Kind::autoplace, options);
  auto stars = std::find(plan.names.begin(), plan.names.end(), "stars");
  ASSERT_NE(stars, plan.names.end());
  const sched::Assignment& gravity = plan.roles[stars - plan.names.begin()];
  ASSERT_NE(gravity.host, nullptr);
  std::string gravity_host = gravity.host->name();

  // The crash lands once, when step 2 reaches its top kick: right after
  // step 1, before step 2 sends any RPC.
  scenario::JungleTestbed bed;
  bool crashed = false;
  amuse::faultpoint::ScopedHook crash_after_step_1(
      [&](const amuse::faultpoint::Context& ctx) {
        if (crashed ||
            ctx.point != amuse::faultpoint::Point::step_top_kick ||
            ctx.iteration != 1) {
          return;
        }
        crashed = true;
        bed.network().host(gravity_host).crash();
      });
  scenario::Result result = experiment::run_experiment(
      bed, scenario::classic_spec(scenario::Kind::autoplace, options));
  EXPECT_GE(result.restarts, 1);
  ASSERT_EQ(result.iteration_log.size(), 3u);
  EXPECT_FALSE(result.iteration_log[0].replay);
  EXPECT_TRUE(result.iteration_log[1].replay);
  EXPECT_GE(result.iteration_log[1].restarts, 1);
  EXPECT_FALSE(result.iteration_log[2].replay);
  EXPECT_NE(result.dashboard.find("[REPLAY]"), std::string::npos);
  EXPECT_NE(result.dashboard.find("-- iterations --"), std::string::npos);
  // Rollback/replay surfaced on the registry too.
  EXPECT_GT(obs::metrics::counter_value("fault.rollbacks"), 0.0);
  EXPECT_GT(obs::metrics::counter_value("fault.replayed_steps"), 0.0);
  EXPECT_GT(obs::metrics::counter_value("fault.checkpoints"), 0.0);
}

TEST(Diagnostics, IterationFormattersRenderReplayRows) {
  std::vector<diagnostics::IterationReport> log(2);
  log[0].iteration = 1;
  log[0].seconds = 1.5;
  log[0].rpc_calls = 10;
  log[1].iteration = 2;
  log[1].seconds = 2.5;
  log[1].replay = true;
  log[1].restarts = 1;
  std::string table = diagnostics::iteration_table(log);
  EXPECT_NE(table.find("#1"), std::string::npos);
  EXPECT_NE(table.find("[REPLAY]"), std::string::npos);
  EXPECT_NE(table.find("[restarts=1]"), std::string::npos);
  std::string json = diagnostics::iteration_json(log);
  EXPECT_NE(json.find("\"replay\": true"), std::string::npos);
  EXPECT_NE(json.find("\"iteration\": 2"), std::string::npos);
}
