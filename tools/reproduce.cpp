// reproduce — the paper's §5–§7 evidence, re-measured and checked.
//
//   reproduce
//
// Runs each paper experiment (E1–E10) once on the simulated jungle and
// prints one table: the claim, the paper's value, ours, and whether the
// paper's shape holds in our run. Every value is either on the simulator's
// virtual clock or clock-free (bytes, fractions, radii), so it is
// deterministic and independent of the kernel thread count. Each row pins
// our value to ±1% and its expected status. Exits 1, naming the row, when
// a value leaves its tolerance or a status flips.

#include <array>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "amuse/bridge.hpp"
#include "amuse/clients.hpp"
#include "amuse/daemon.hpp"
#include "amuse/diagnostics.hpp"
#include "amuse/ic.hpp"
#include "amuse/scenario.hpp"
#include "smartsockets/smartsockets.hpp"

namespace {

using namespace jungle;
using namespace jungle::amuse;
using scenario::Kind;

// ------------------------------------------------------------ experiments

/// E1's paper-scale options, shared by the SC11 run of E3.
scenario::Options paper_options() {
  scenario::Options options;
  options.n_stars = 1000;
  options.n_gas = 10000;
  options.iterations = 2;
  return options;
}

/// E2: 32 messages of `message_bytes` over a 10 Gbit/s, 5 µs loopback
/// (throughput in Gbit/s), or 64 echoed 64-byte pings (round trip in µs).
double loopback(std::size_t message_bytes, bool echo) {
  sim::Simulation sim;
  sim::Network net{sim};
  smartsockets::SmartSockets sockets{net};
  net.add_site("local");
  sim::Host& host = net.add_host("laptop", "local", 4, 10);
  net.set_loopback(5e-6, 10e9 / 8);
  auto& server = sockets.listen(host, "daemon");
  host.spawn("daemon", [&] {
    auto conn = server.accept();
    while (auto bytes = conn->recv()) {
      if (echo) conn->send(std::move(*bytes));
    }
  });
  const int messages = echo ? 64 : 32;
  double rtt = 0;
  host.spawn("script", [&] {
    auto conn =
        sockets.connect(host, host, "daemon", sim::TrafficClass::control);
    double t0 = sim.now();
    for (int i = 0; i < messages; ++i) {
      conn->send(std::vector<std::uint8_t>(message_bytes, 7));
      if (echo) conn->recv();
    }
    rtt = (sim.now() - t0) / messages;
    conn->close();
  });
  sim.run();
  // Throughput over the whole run: the sender's clock stops before its
  // last message lands.
  if (echo) return rtt * 1e6;
  return 8.0 * static_cast<double>(message_bytes) * messages / sim.now() / 1e9;
}

/// E4/E10: one connection from "client" to "server" across a hub, then
/// 1 MiB in 64 KiB messages. `firewall`: 0 open, 1 server refuses inbound,
/// 2 also the client behind NAT.
struct Setup {
  std::string kind;
  double setup_ms = 0;
  double send_ms = 0;
};

Setup overlay_setup(int firewall) {
  sim::Simulation sim;
  sim::Network net{sim};
  smartsockets::SmartSockets sockets{net};
  net.add_site("vu");
  net.add_site("leiden");
  net.add_site("hub-site");
  sim::Host& client = net.add_host("client", "vu", 4, 10);
  sim::Host& server_host = net.add_host("server", "leiden", 8, 10);
  sim::Host& hub = net.add_host("hub-box", "hub-site", 4, 10);
  net.add_link("vu", "hub-site", 0.3e-3, 1e9 / 8, "vu-hub");
  net.add_link("hub-site", "leiden", 0.3e-3, 1e9 / 8, "hub-leiden");
  net.add_link("vu", "leiden", 0.5e-3, 1e9 / 8, "vu-leiden");
  if (firewall >= 1) server_host.firewall().allow_inbound = false;
  if (firewall >= 2) client.firewall().nat = true;
  sockets.start_hub(hub);
  sockets.start_hub(client);
  sockets.start_hub(server_host);

  Setup setup;
  auto& server = sockets.listen(server_host, "svc");
  double send_start = 0;
  double drained_at = 0;
  server_host.spawn("server", [&] {
    auto conn = server.accept();
    while (conn->recv()) {
    }
    drained_at = sim.now();
  });
  client.spawn("client", [&] {
    double t0 = sim.now();
    auto conn = sockets.connect(client, server_host, "svc",
                                sim::TrafficClass::ipl);
    setup.setup_ms = (sim.now() - t0) * 1e3;
    setup.kind = smartsockets::connection_kind_name(conn->kind());
    send_start = sim.now();
    for (int i = 0; i < 16; ++i) {
      conn->send(std::vector<std::uint8_t>(64 << 10, 1));
    }
    conn->close();
  });
  sim.run();
  setup.send_ms = (drained_at - send_start) * 1e3;
  return setup;
}

/// E5: the Fig-6 gas expulsion, all four models on the desktop; one
/// snapshot per visual stage (a–d), six bridge steps apart.
struct Stage {
  double bound_gas = 0;
  double r50_stars = 0;  // the cluster's half-mass radius
  double r50_gas = 0;
};

std::vector<Stage> gas_expulsion() {
  scenario::JungleTestbed bed;
  std::vector<Stage> stages;
  bed.simulation().spawn("script", [&] {
    auto local = [&](const WorkerSpec& spec) {
      return start_local_worker(bed.sockets(), bed.network(), bed.desktop(),
                                bed.desktop(), spec, ChannelKind::mpi);
    };
    GravityClient stars(local({.code = "phigrape", .ncores = 4}));
    HydroClient gas(local({.code = "gadget", .nranks = 2}));
    FieldClient coupler(local({.code = "fi", .ncores = 4}));
    StellarClient stellar(local({.code = "sse"}));

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
    config.myr_per_nbody_time = 8.0;  // the massive stars explode in-run
    config.feedback_efficiency = 0.5;
    config.wind_specific_energy = 100.0;
    config.supernova_energy = 100.0;
    Bridge bridge({{"stars", &stars}, {"gas", &gas}}, {{&coupler, 0, 1, 1}},
                  {{&stellar, &stars, &gas}}, config);

    for (int stage = 0; stage < 4; ++stage) {
      if (stage > 0) {
        for (int s = 0; s < 6; ++s) bridge.step();
      }
      auto star_state = stars.get_state();
      auto gas_state = gas.get_state();
      double half[] = {0.5};
      stages.push_back(Stage{
          diagnostics::bound_gas_fraction(
              gas_state.mass, gas_state.position, gas_state.velocity,
              gas_state.internal_energy, star_state.mass,
              star_state.position),
          diagnostics::lagrangian_radii(star_state.mass, star_state.position,
                                        half)[0],
          diagnostics::lagrangian_radii(gas_state.mass, gas_state.position,
                                        half)[0]});
    }
    stars.close();
    gas.close();
    coupler.close();
    stellar.close();
  });
  bed.simulation().run();
  return stages;
}

/// E7: RPC round trip (µs) and get_state of 1000 particles (ms) to a
/// phiGRAPE worker: on the client host over `kind` when `ibis_resource` is
/// null, else through the Ibis daemon onto that resource.
struct ChannelCost {
  double rtt_us = 0;
  double state_ms = 0;
};

ChannelCost channel_cost(ChannelKind kind, const char* ibis_resource) {
  scenario::JungleTestbed bed;
  if (ibis_resource != nullptr) bed.daemon(bed.desktop());
  ChannelCost cost;
  bed.simulation().spawn("script", [&] {
    std::optional<DaemonClient> daemon;
    WorkerSpec spec{.code = "phigrape"};
    std::unique_ptr<RpcClient> rpc;
    if (ibis_resource != nullptr) {
      daemon.emplace(bed.sockets(), bed.desktop());
      rpc = daemon->start_worker(spec, ibis_resource);
    } else {
      rpc = start_local_worker(bed.sockets(), bed.network(), bed.desktop(),
                               bed.desktop(), spec, kind);
    }
    GravityClient gravity(std::move(rpc));
    util::Rng rng(3);
    auto model = ic::plummer_sphere(1000, rng);
    gravity.add_particles(model.mass, model.position, model.velocity);
    double t0 = bed.simulation().now();
    for (int i = 0; i < 32; ++i) gravity.model_time();
    cost.rtt_us = (bed.simulation().now() - t0) / 32 * 1e6;
    double t1 = bed.simulation().now();
    for (int i = 0; i < 8; ++i) gravity.get_state();
    cost.state_ms = (bed.simulation().now() - t1) / 8 * 1e3;
    gravity.close();
  });
  bed.simulation().run();
  return cost;
}

/// E8: WAN megabytes of one Fig-7 cross-kick between 1000 stars on LGM and
/// `n_gas` gas particles on DAS-4 VU, with the coupling kernel next to the
/// script (Fi on the desktop) or on a remote GPU (Octgrav at Delft).
double cross_kick_wan_mb(std::size_t n_gas, bool remote_coupler) {
  scenario::JungleTestbed bed;
  bed.daemon(bed.desktop());
  double wan_mb = 0;
  bed.simulation().spawn("script", [&] {
    DaemonClient client(bed.sockets(), bed.desktop());
    GravityClient stars(client.start_worker({.code = "phigrape-gpu"}, "lgm"));
    HydroClient gas(client.start_worker(
        {.code = "gadget", .nranks = 8, .ncores = 8}, "das4-vu", 8));
    FieldClient coupler(
        remote_coupler
            ? client.start_worker({.code = "octgrav"}, "das4-delft")
            : start_local_worker(bed.sockets(), bed.network(), bed.desktop(),
                                 bed.desktop(), {.code = "fi", .ncores = 4},
                                 ChannelKind::mpi));

    util::Rng rng(3);
    auto model = ic::plummer_sphere(1000, rng);
    stars.add_particles(model.mass, model.position, model.velocity);
    auto cloud = ic::gas_sphere(n_gas, rng, 2.0, 1.5);
    gas.add_gas(cloud.mass, cloud.position, cloud.velocity,
                cloud.internal_energy);

    bed.network().reset_traffic();
    // Gather both states, ship sources, evaluate, kick.
    auto star_state = stars.get_state();
    auto gas_state = gas.get_state();
    coupler.set_sources(gas_state.mass, gas_state.position);
    auto on_stars = coupler.accel_at(star_state.position);
    coupler.set_sources(star_state.mass, star_state.position);
    auto on_gas = coupler.accel_at(gas_state.position);
    for (Vec3& a : on_stars) a = a * 0.01;
    for (Vec3& a : on_gas) a = a * 0.01;
    stars.kick(on_stars);
    gas.kick(on_gas);
    for (const auto& link : bed.network().traffic_report()) {
      if (link.wan()) wan_mb += link.total_bytes() / 1e6;
    }
    stars.close();
    gas.close();
    coupler.close();
  });
  bed.simulation().run();
  return wan_mb;
}

/// E9: virtual seconds of one 1/32 evolve of 16000 gas particles on a
/// Gadget worker with `nranks` ranks on DAS-4 VU.
double gadget_evolve_s(int nranks) {
  scenario::JungleTestbed bed;
  bed.daemon(bed.desktop());
  double evolve_s = 0;
  bed.simulation().spawn("script", [&] {
    DaemonClient client(bed.sockets(), bed.desktop());
    HydroClient gas(client.start_worker(
        {.code = "gadget", .nranks = nranks, .ncores = 8}, "das4-vu",
        nranks));
    util::Rng rng(3);
    auto cloud = ic::gas_sphere(16000, rng, 2.0, 1.5);
    gas.add_gas(cloud.mass, cloud.position, cloud.velocity,
                cloud.internal_energy);
    double t0 = bed.simulation().now();
    gas.evolve(1.0 / 32.0);
    evolve_s = bed.simulation().now() - t0;
    gas.close();
  });
  bed.simulation().run();
  return evolve_s;
}

/// Everything the table reads, each experiment run once.
struct Measured {
  // E1, in Kind order; E3 reuses the jungle run.
  std::array<scenario::Result, 6> e1;
  std::array<double, 3> loopback_gbit{};  // 64 KiB, 1 MiB, 16 MiB
  double loopback_rtt_us = 0;
  std::array<Setup, 3> overlay;           // open, firewalled, NAT
  std::vector<Stage> fig6;                // stages a–d
  std::array<ChannelCost, 4> channel;     // MPI, socket, campus, LGM
  std::array<double, 3> kick_local_mb{};  // N_gas 2k, 8k, 24k
  std::array<double, 3> kick_remote_mb{};
  std::array<scenario::Result, 4> size;   // N_stars 250, 500, 1000, 2000
  std::array<double, 4> gadget_s{};       // 1, 2, 4, 8 ranks

  double s_per_iter(Kind kind) const {
    return e1[static_cast<int>(kind)].seconds_per_iteration;
  }
  double wan_mb(Kind kind) const {
    return e1[static_cast<int>(kind)].wan_bytes / 1e6;
  }
};

Measured measure() {
  Measured m;
  for (Kind kind : {Kind::local_cpu, Kind::local_gpu, Kind::remote_gpu,
                    Kind::jungle, Kind::sc11, Kind::autoplace}) {
    m.e1[static_cast<int>(kind)] =
        scenario::run_scenario(kind, paper_options());
  }
  m.loopback_gbit = {loopback(64 << 10, false), loopback(1 << 20, false),
                     loopback(16 << 20, false)};
  m.loopback_rtt_us = loopback(64, true);
  m.overlay = {overlay_setup(0), overlay_setup(1), overlay_setup(2)};
  m.fig6 = gas_expulsion();
  m.channel = {channel_cost(ChannelKind::mpi, nullptr),
               channel_cost(ChannelKind::socket, nullptr),
               channel_cost(ChannelKind::mpi, "das4-vu"),
               channel_cost(ChannelKind::mpi, "lgm")};
  const std::size_t n_gas[] = {2000, 8000, 24000};
  for (int i = 0; i < 3; ++i) {
    m.kick_local_mb[i] = cross_kick_wan_mb(n_gas[i], false);
    m.kick_remote_mb[i] = cross_kick_wan_mb(n_gas[i], true);
  }
  const std::size_t n_stars[] = {250, 500, 1000, 2000};
  for (int i = 0; i < 4; ++i) {
    scenario::Options options;
    options.n_stars = n_stars[i];
    options.n_gas = n_stars[i] * 10;
    options.iterations = 1;
    options.with_stellar_evolution = false;
    m.size[i] = scenario::run_scenario(Kind::jungle, options);
  }
  for (int i = 0; i < 4; ++i) m.gadget_s[i] = gadget_evolve_s(1 << i);
  return m;
}

// ------------------------------------------------------------------ table

using M = Measured;
constexpr double kNone = std::numeric_limits<double>::quiet_NaN();
constexpr bool kHolds = true;
constexpr bool kDiffers = false;

/// |x - target| within `rel` of target.
bool near(double x, double target, double rel) {
  return std::abs(x - target) <= rel * std::abs(target);
}

/// One checked claim. `holds` decides the status from our run; `shape`
/// says the same in words. `paper` is NaN where the paper gives no number.
struct Row {
  const char* id;
  const char* where;
  const char* claim;
  double paper;
  const char* unit;
  const char* clock;  // "virtual", or "none" for clock-free quantities
  const char* shape;
  double (*ours)(const M&);
  bool (*holds)(double ours, const M&);
  double pinned;
  bool expect_holds;
  double tolerance = 0.01;
};

const Row kRows[] = {
    // E1 — the four configurations of §6.2, plus the scheduler's own.
    {"E1.local-cpu", "Sec 6.2", "desktop CPU: Fi + phiGRAPE", 353, "s/iter",
     "virtual", "> local-gpu",
     [](const M& m) { return m.s_per_iter(Kind::local_cpu); },
     [](double x, const M& m) { return x > m.s_per_iter(Kind::local_gpu); },
     75.62, kHolds},
    {"E1.local-gpu", "Sec 6.2", "desktop GPU: Octgrav + phiGRAPE-GPU", 89,
     "s/iter", "virtual", "> remote-gpu",
     [](const M& m) { return m.s_per_iter(Kind::local_gpu); },
     [](double x, const M& m) { return x > m.s_per_iter(Kind::remote_gpu); },
     18.91, kHolds},
    {"E1.remote-gpu", "Sec 6.2", "Octgrav on an LGM GPU 30 km away", 84,
     "s/iter", "virtual", "> jungle",
     [](const M& m) { return m.s_per_iter(Kind::remote_gpu); },
     [](double x, const M& m) { return x > m.s_per_iter(Kind::jungle); },
     18.85, kHolds},
    {"E1.jungle", "Sec 6.2", "four models on four sites (Fig 12)", 62.4,
     "s/iter", "virtual", "fastest of the four",
     [](const M& m) { return m.s_per_iter(Kind::jungle); },
     [](double x, const M& m) {
       return x < m.s_per_iter(Kind::local_cpu) &&
              x < m.s_per_iter(Kind::local_gpu) &&
              x < m.s_per_iter(Kind::remote_gpu);
     },
     3.832, kHolds},
    {"E1.autoplace", "Sec 7", "the scheduler places the four models", kNone,
     "s/iter", "virtual", "jungle +-5%",
     [](const M& m) { return m.s_per_iter(Kind::autoplace); },
     [](double x, const M& m) {
       return near(x, m.s_per_iter(Kind::jungle), 0.05);
     },
     3.837, kHolds},
    {"E1.cpu-to-gpu", "Sec 6.2", "GPUs cut the iteration (cpu/gpu)",
     353.0 / 89.0, "x", "virtual", "paper +-25%",
     [](const M& m) {
       return m.s_per_iter(Kind::local_cpu) / m.s_per_iter(Kind::local_gpu);
     },
     [](double x, const M&) { return near(x, 353.0 / 89.0, 0.25); }, 4.000,
     kHolds},
    {"E1.remote-to-local", "Sec 6.2", "a GPU 30 km away beats the local one",
     84.0 / 89.0, "x", "virtual", "< 1",
     [](const M& m) {
       return m.s_per_iter(Kind::remote_gpu) / m.s_per_iter(Kind::local_gpu);
     },
     [](double x, const M&) { return x < 1.0; }, 0.9971, kHolds},
    {"E1.gpu-to-jungle", "Sec 6.2", "the jungle beats the local GPU",
     89.0 / 62.4, "x", "virtual", "paper +-25%",
     [](const M& m) {
       return m.s_per_iter(Kind::local_gpu) / m.s_per_iter(Kind::jungle);
     },
     [](double x, const M&) { return near(x, 89.0 / 62.4, 0.25); }, 4.933,
     kDiffers},

    // E2 — the script-daemon loopback of §5.
    {"E2.loopback-64KiB", "Sec 5", "loopback runs over 8 Gbit/s", 8,
     "Gbit/s", "virtual", ">= 8",
     [](const M& m) { return m.loopback_gbit[0]; },
     [](double x, const M&) { return x >= 8.0; }, 9.906, kHolds},
    {"E2.loopback-1MiB", "Sec 5", "loopback runs over 8 Gbit/s", 8, "Gbit/s",
     "virtual", ">= 8", [](const M& m) { return m.loopback_gbit[1]; },
     [](double x, const M&) { return x >= 8.0; }, 9.992, kHolds},
    {"E2.loopback-16MiB", "Sec 5", "loopback runs over 8 Gbit/s", 8,
     "Gbit/s", "virtual", ">= 8",
     [](const M& m) { return m.loopback_gbit[2]; },
     [](double x, const M&) { return x >= 8.0; }, 9.999, kHolds},
    {"E2.loopback-rtt", "Sec 5", "with extremely small latency", kNone, "us",
     "virtual", "< 100 us", [](const M& m) { return m.loopback_rtt_us; },
     [](double x, const M&) { return x < 100.0; }, 10.15, kHolds},

    // E3 — the SC11 demo: coupler in Seattle, models in the Netherlands.
    {"E3.sc11", "Fig 9", "transatlantic coupler: the demo runs", kNone,
     "s/iter", "virtual", "> jungle",
     [](const M& m) { return m.s_per_iter(Kind::sc11); },
     [](double x, const M& m) { return x > m.s_per_iter(Kind::jungle); },
     4.296, kHolds},
    {"E3.sc11-to-jungle", "Fig 9", "the worst case stays feasible", kNone,
     "x", "virtual", "< 2",
     [](const M& m) {
       return m.s_per_iter(Kind::sc11) / m.s_per_iter(Kind::jungle);
     },
     [](double x, const M&) { return x < 2.0; }, 1.121, kHolds},
    {"E3.wan-sc11", "Fig 9", "WAN traffic, coupler in Seattle", kNone, "MB",
     "none", "> wan-jungle", [](const M& m) { return m.wan_mb(Kind::sc11); },
     [](double x, const M& m) { return x > m.wan_mb(Kind::jungle); }, 9.488,
     kHolds},
    {"E3.wan-jungle", "Fig 12", "WAN traffic, coupler at the VU", kNone, "MB",
     "none", "> 0", [](const M& m) { return m.wan_mb(Kind::jungle); },
     [](double x, const M&) { return x > 0.0; }, 4.744, kHolds},

    // E4 — SmartSockets connection setup through firewalls (Fig 10).
    {"E4.open", "Fig 10", "open -> open connects directly", kNone, "ms",
     "virtual", "kind direct",
     [](const M& m) { return m.overlay[0].setup_ms; },
     [](double, const M& m) { return m.overlay[0].kind == "direct"; }, 1.400,
     kHolds},
    {"E4.firewalled", "Fig 10", "open -> firewalled connects in reverse",
     kNone, "ms", "virtual", "kind reverse",
     [](const M& m) { return m.overlay[1].setup_ms; },
     [](double, const M& m) { return m.overlay[1].kind == "reverse"; }, 2.110,
     kHolds},
    {"E4.nat", "Fig 10", "NAT -> firewalled is relayed by a hub", kNone, "ms",
     "virtual", "kind relayed",
     [](const M& m) { return m.overlay[2].setup_ms; },
     [](double, const M& m) { return m.overlay[2].kind == "relayed"; },
     1.011, kHolds},

    // E10 — what each path costs to send 1 MiB (the Fig 11 traffic).
    {"E10.direct-1MiB", "Fig 11", "1 MiB over the direct 1 Gbit/s link",
     kNone, "ms", "virtual", ">= 8.39 (wire time)",
     [](const M& m) { return m.overlay[0].send_ms; },
     [](double x, const M&) { return x >= 8.0 * (1 << 20) / 1e9 * 1e3; },
     10.14, kHolds},
    {"E10.reverse-1MiB", "Fig 11", "a reversed connection is direct after",
     kNone, "ms", "virtual", "direct +-5%",
     [](const M& m) { return m.overlay[1].send_ms; },
     [](double x, const M& m) { return near(x, m.overlay[0].send_ms, 0.05); },
     10.14, kHolds},
    {"E10.relayed-1MiB", "Fig 11", "a relayed connection crosses the hub",
     kNone, "ms", "virtual", "1.5-2.5x direct",
     [](const M& m) { return m.overlay[2].send_ms; },
     [](double x, const M& m) {
       return x >= 1.5 * m.overlay[0].send_ms &&
              x <= 2.5 * m.overlay[0].send_ms;
     },
     19.90, kHolds},

    // E5 — the Fig 6 stages as numbers.
    {"E5.bound-gas-a", "Fig 6", "a) young stars embedded in gas", kNone,
     "fraction", "none", ">= 0.99",
     [](const M& m) { return m.fig6.front().bound_gas; },
     [](double x, const M&) { return x >= 0.99; }, 1.000, kHolds},
    {"E5.bound-gas-d", "Fig 6", "d) gas removed", kNone, "fraction", "none",
     "< stage a", [](const M& m) { return m.fig6.back().bound_gas; },
     [](double x, const M& m) { return x < m.fig6.front().bound_gas; },
     0.5600, kHolds},
    {"E5.gas-r50-a", "Fig 6", "a) a sphere of gas around the stars", kNone,
     "N-body", "none", "> cluster r50 a",
     [](const M& m) { return m.fig6.front().r50_gas; },
     [](double x, const M& m) { return x > m.fig6.front().r50_stars; },
     1.188, kHolds},
    {"E5.gas-r50-d", "Fig 6", "b) gas is expanding", kNone, "N-body", "none",
     "> stage a", [](const M& m) { return m.fig6.back().r50_gas; },
     [](double x, const M& m) { return x > m.fig6.front().r50_gas; }, 1.467,
     kHolds},
    {"E5.cluster-r50-a", "Fig 6", "a) a Plummer cluster", kNone, "N-body",
     "none", "0.77 +-10%",
     [](const M& m) { return m.fig6.front().r50_stars; },
     [](double x, const M&) { return near(x, 0.77, 0.10); }, 0.7275, kHolds},
    {"E5.cluster-r50-d", "Fig 6", "d) note the larger size of the cluster",
     kNone, "N-body", "none", "> stage a",
     [](const M& m) { return m.fig6.back().r50_stars; },
     [](double x, const M& m) { return x > m.fig6.front().r50_stars; },
     0.5325, kDiffers},

    // E7 — the worker channels of Fig 5, same phiGRAPE worker each time.
    {"E7.mpi-rtt", "Fig 5", "MPI channel, worker on the client host", kNone,
     "us", "virtual", "< 100 us",
     [](const M& m) { return m.channel[0].rtt_us; },
     [](double x, const M&) { return x < 100.0; }, 10.09, kHolds},
    {"E7.socket-rtt", "Fig 5", "socket channel, same host",
     kNone, "us", "virtual", "mpi +-10%",
     [](const M& m) { return m.channel[1].rtt_us; },
     [](double x, const M& m) { return near(x, m.channel[0].rtt_us, 0.1); },
     10.09, kHolds},
    {"E7.ibis-campus-rtt", "Fig 5", "Ibis via daemon + proxy costs little",
     kNone, "us", "virtual", "< 1000 us",
     [](const M& m) { return m.channel[2].rtt_us; },
     [](double x, const M&) { return x < 1000.0; }, 325.3, kHolds},
    {"E7.ibis-lgm-rtt", "Fig 5", "Ibis to Leiden adds the WAN hop", kNone,
     "us", "virtual", "> campus",
     [](const M& m) { return m.channel[3].rtt_us; },
     [](double x, const M& m) { return x > m.channel[2].rtt_us; }, 1423,
     kHolds},
    {"E7.mpi-state", "Fig 5", "get_state of 1000 stars over MPI", kNone, "ms",
     "virtual", "< 0.1 ms", [](const M& m) { return m.channel[0].state_ms; },
     [](double x, const M&) { return x < 0.1; }, 0.01576, kHolds},
    {"E7.socket-state", "Fig 5", "get_state over a socket", kNone, "ms",
     "virtual", "mpi +-10%", [](const M& m) { return m.channel[1].state_ms; },
     [](double x, const M& m) { return near(x, m.channel[0].state_ms, 0.1); },
     0.01576, kHolds},
    {"E7.ibis-campus-state", "Fig 5", "get_state over Ibis, campus", kNone,
     "ms", "virtual", "< 1 ms",
     [](const M& m) { return m.channel[2].state_ms; },
     [](double x, const M&) { return x < 1.0; }, 0.4008, kHolds},
    {"E7.ibis-lgm-state", "Fig 5", "get_state over Ibis, Leiden", kNone, "ms",
     "virtual", "> campus", [](const M& m) { return m.channel[3].state_ms; },
     [](double x, const M& m) { return x > m.channel[2].state_ms; }, 1.605,
     kHolds},

    // E8 — §4.1: all model-to-model data passes the coupler.
    {"E8.local-wan-2k", "Sec 4.1", "cross-kick, local coupler, 2k gas", kNone,
     "MB", "none", "> 0", [](const M& m) { return m.kick_local_mb[0]; },
     [](double x, const M&) { return x > 0.0; }, 0.2728, kHolds},
    {"E8.local-wan-8k", "Sec 4.1", "... 8k gas: bytes grow with N_gas",
     kNone, "MB", "none", "> 2k", [](const M& m) { return m.kick_local_mb[1]; },
     [](double x, const M& m) { return x > m.kick_local_mb[0]; }, 0.8491,
     kHolds},
    {"E8.local-wan-24k", "Sec 4.1", "... 24k gas", kNone, "MB", "none", "> 8k",
     [](const M& m) { return m.kick_local_mb[2]; },
     [](double x, const M& m) { return x > m.kick_local_mb[1]; }, 2.385,
     kHolds},
    {"E8.remote-wan-2k", "Sec 4.1", "remote GPU coupler ships every state",
     kNone, "MB", "none", "> local",
     [](const M& m) { return m.kick_remote_mb[0]; },
     [](double x, const M& m) { return x > m.kick_local_mb[0]; }, 0.5134,
     kHolds},
    {"E8.remote-wan-8k", "Sec 4.1", "... 8k gas", kNone, "MB", "none",
     "> 2k, > local", [](const M& m) { return m.kick_remote_mb[1]; },
     [](double x, const M& m) {
       return x > m.kick_remote_mb[0] && x > m.kick_local_mb[1];
     },
     1.570, kHolds},
    {"E8.remote-wan-24k", "Sec 4.1", "... 24k gas: the bottleneck", kNone,
     "MB", "none", "> 8k, > local",
     [](const M& m) { return m.kick_remote_mb[2]; },
     [](double x, const M& m) {
       return x > m.kick_remote_mb[1] && x > m.kick_local_mb[2];
     },
     4.386, kHolds},

    // E9 — §7's scale-up: problem size, then Gadget ranks.
    {"E9.size-250", "Sec 7", "jungle, 250 stars + 2500 gas", kNone, "s/iter",
     "virtual", "> 0",
     [](const M& m) { return m.size[0].seconds_per_iteration; },
     [](double x, const M&) { return x > 0.0; }, 0.08034, kHolds},
    {"E9.size-500", "Sec 7", "... 500 stars: cost grows with N", kNone,
     "s/iter", "virtual", "> half N",
     [](const M& m) { return m.size[1].seconds_per_iteration; },
     [](double x, const M& m) { return x > m.size[0].seconds_per_iteration; },
     1.017, kHolds},
    {"E9.size-1000", "Sec 7", "... 1000 stars", kNone, "s/iter", "virtual",
     "> half N", [](const M& m) { return m.size[2].seconds_per_iteration; },
     [](double x, const M& m) { return x > m.size[1].seconds_per_iteration; },
     4.730, kHolds},
    {"E9.size-2000", "Sec 7", "... 2000 stars", kNone, "s/iter", "virtual",
     "> half N", [](const M& m) { return m.size[3].seconds_per_iteration; },
     [](double x, const M& m) { return x > m.size[2].seconds_per_iteration; },
     28.61, kHolds},
    {"E9.wan-250", "Sec 7", "WAN traffic, 250 stars", kNone, "MB", "none",
     "> 0", [](const M& m) { return m.size[0].wan_bytes / 1e6; },
     [](double x, const M&) { return x > 0.0; }, 0.8361, kHolds},
    {"E9.wan-500", "Sec 7", "... 500 stars: linear in N", kNone, "MB", "none",
     "2x half N +-10%", [](const M& m) { return m.size[1].wan_bytes / 1e6; },
     [](double x, const M& m) {
       return near(x, 2.0 * m.size[0].wan_bytes / 1e6, 0.1);
     },
     1.668, kHolds},
    {"E9.wan-1000", "Sec 7", "... 1000 stars", kNone, "MB", "none",
     "2x half N +-10%", [](const M& m) { return m.size[2].wan_bytes / 1e6; },
     [](double x, const M& m) {
       return near(x, 2.0 * m.size[1].wan_bytes / 1e6, 0.1);
     },
     3.333, kHolds},
    {"E9.wan-2000", "Sec 7", "... 2000 stars", kNone, "MB", "none",
     "2x half N +-10%", [](const M& m) { return m.size[3].wan_bytes / 1e6; },
     [](double x, const M& m) {
       return near(x, 2.0 * m.size[2].wan_bytes / 1e6, 0.1);
     },
     6.662, kHolds},
    {"E9.gadget-1", "Sec 7", "Gadget evolve, 16k gas, 1 rank", kNone, "s",
     "virtual", "> 0", [](const M& m) { return m.gadget_s[0]; },
     [](double x, const M&) { return x > 0.0; }, 0.6426, kHolds},
    {"E9.gadget-2", "Sec 7", "... 2 ranks", kNone, "s", "virtual",
     "< 1 rank", [](const M& m) { return m.gadget_s[1]; },
     [](double x, const M& m) { return x < m.gadget_s[0]; }, 0.3252, kHolds},
    {"E9.gadget-4", "Sec 7", "... 4 ranks", kNone, "s", "virtual",
     "< 2 ranks", [](const M& m) { return m.gadget_s[2]; },
     [](double x, const M& m) { return x < m.gadget_s[1]; }, 0.1666, kHolds},
    {"E9.gadget-8", "Sec 7", "... 8 ranks", kNone, "s", "virtual",
     "< 4 ranks", [](const M& m) { return m.gadget_s[3]; },
     [](double x, const M& m) { return x < m.gadget_s[2]; }, 0.09004,
     kHolds},
    {"E9.gadget-speedup", "Sec 7", "Gadget scales to 8 ranks", kNone, "x",
     "virtual", ">= 6 (75% of 8)",
     [](const M& m) { return m.gadget_s[0] / m.gadget_s[3]; },
     [](double x, const M&) { return x >= 6.0; }, 7.137, kHolds},
};

const char* status_name(bool holds) { return holds ? "holds" : "differs"; }

}  // namespace

int main() {
  const Measured m = measure();
  std::printf("%-20s %-8s %-40s %8s %9s %-8s %-8s %-20s %s\n", "id", "where",
              "claim", "paper", "ours", "unit", "clock", "shape", "status");
  std::vector<std::string> failures;
  int holding = 0;
  for (const Row& row : kRows) {
    double ours = row.ours(m);
    bool holds = row.holds(ours, m);
    holding += holds ? 1 : 0;
    char paper[16] = "-";
    if (!std::isnan(row.paper)) {
      std::snprintf(paper, sizeof paper, "%.4g", row.paper);
    }
    std::printf("%-20s %-8s %-40s %8s %9.4g %-8s %-8s %-20s %s\n", row.id,
                row.where, row.claim, paper, ours, row.unit, row.clock,
                row.shape, status_name(holds));
    if (!near(ours, row.pinned, row.tolerance)) {
      char line[160];
      std::snprintf(line, sizeof line, "%s: ours %.6g is outside %.4g +-%g%%",
                    row.id, ours, row.pinned, row.tolerance * 100);
      failures.push_back(line);
    }
    if (holds != row.expect_holds) {
      failures.push_back(std::string(row.id) + ": status is " +
                         status_name(holds) + ", pinned " +
                         status_name(row.expect_holds));
    }
  }
  std::printf("\n%zu rows: %d hold, %zu differ\n", std::size(kRows), holding,
              std::size(kRows) - holding);
  for (const std::string& failure : failures) {
    std::fprintf(stderr, "reproduce: %s\n", failure.c_str());
  }
  return failures.empty() ? 0 : 1;
}
