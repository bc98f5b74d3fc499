#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "amuse/bridge.hpp"
#include "amuse/clients.hpp"
#include "amuse/daemon.hpp"
#include "amuse/faultpoint.hpp"
#include "amuse/faults.hpp"
#include "amuse/ic.hpp"
#include "amuse/workers.hpp"
#include "util/fnv.hpp"
#include "zorilla/zorilla.hpp"

using namespace jungle;
using namespace jungle::amuse;

namespace {

/// Fig-12-like lab: desktop client at VU, LGM GPU cluster in Leiden,
/// DAS-4 CPU cluster in Amsterdam.
struct Lab {
  sim::Simulation sim;
  sim::Network net{sim};
  smartsockets::SmartSockets sockets{net};
  sim::Host* desktop;
  sim::Host* lgm_frontend;
  sim::Host* lgm_node;
  std::vector<sim::Host*> das_nodes;
  std::unique_ptr<deploy::Deployer> deployer;
  std::unique_ptr<IbisDaemon> daemon;

  Lab() {
    net.add_site("vu", 0.1e-3, 1e9 / 8);
    net.add_site("leiden", 0.1e-3, 1e9 / 8);
    net.add_site("uva", 2e-6, 32e9 / 8);
    desktop = &net.add_host("desktop", "vu", 4, 10);
    lgm_frontend = &net.add_host("fs-lgm", "leiden", 8, 10);
    lgm_frontend->firewall().allow_inbound = false;  // ssh only
    lgm_node = &net.add_host("lgm-node", "leiden", 8, 10);
    lgm_node->set_gpu(sim::GpuSpec{"tesla-c2050", 500});
    for (int i = 0; i < 8; ++i) {
      das_nodes.push_back(
          &net.add_host("das" + std::to_string(i), "uva", 8, 10));
    }
    net.add_link("vu", "leiden", 0.5e-3, 1e9 / 8, "vu-leiden");
    net.add_link("vu", "uva", 0.2e-3, 10e9 / 8, "vu-uva");

    deployer = std::make_unique<deploy::Deployer>(net, sockets, *desktop);
    gat::Resource local;
    local.name = "local";
    local.middleware = "local";
    local.frontend = desktop;
    deployer->add_resource(local);

    gat::Resource lgm;
    lgm.name = "lgm";
    lgm.middleware = "sge";
    lgm.frontend = lgm_frontend;
    lgm.nodes = {lgm_node};
    lgm.queue_base_delay = 0.5;
    lgm.queue = std::make_shared<gat::ClusterQueue>(sim);
    lgm.queue->set_nodes(lgm.nodes);
    deployer->add_resource(lgm);

    gat::Resource das;
    das.name = "das4";
    das.middleware = "sge";
    das.frontend = das_nodes[0];
    das.nodes = das_nodes;
    das.queue_base_delay = 0.5;
    das.queue = std::make_shared<gat::ClusterQueue>(sim);
    das.queue->set_nodes(das.nodes);
    deployer->add_resource(das);

    daemon = std::make_unique<IbisDaemon>(*deployer, net, sockets, *desktop);
  }

  ~Lab() { sim.shutdown(); }

  void run(std::function<void()> script) {
    desktop->spawn("script", std::move(script));
    sim.run();
  }
};

}  // namespace

TEST(Distributed, RemoteGravityWorkerViaDaemon) {
  Lab lab;
  double drift = 1.0;
  lab.run([&] {
    DaemonClient client(lab.sockets, *lab.desktop);
    WorkerSpec spec;
    spec.code = "phigrape-gpu";
    GravityClient gravity(client.start_worker(spec, "lgm"));
    util::Rng rng(1);
    auto model = ic::plummer_sphere(64, rng);
    gravity.add_particles(model.mass, model.position, model.velocity);
    auto [k0, p0] = gravity.energies();
    gravity.evolve(0.25);
    auto [k1, p1] = gravity.energies();
    drift = std::abs((k1 + p1) - (k0 + p0)) / std::abs(k0 + p0);
    gravity.close();
  });
  EXPECT_LT(drift, 1e-2);
  // The worker ran on the GPU node, remotely.
  EXPECT_GT(lab.lgm_node->gpu_busy_seconds(), 0.0);
  // RPC frames crossed the WAN as IPL traffic.
  double wan_ipl = 0;
  for (const auto& link : lab.net.traffic_report()) {
    if (link.name == "vu-leiden") {
      wan_ipl = link.bytes_by_class[static_cast<int>(sim::TrafficClass::ipl)];
    }
  }
  EXPECT_GT(wan_ipl, 1000.0);
}

TEST(Distributed, WorkerStartupFailureReportsError) {
  Lab lab;
  bool threw = false;
  std::string message;
  lab.run([&] {
    DaemonClient client(lab.sockets, *lab.desktop);
    WorkerSpec spec;
    spec.code = "octgrav";  // needs a GPU
    try {
      client.start_worker(spec, "das4");  // CPU-only cluster
    } catch (const CodeError& failure) {
      threw = true;
      message = failure.what();
    }
  });
  EXPECT_TRUE(threw);
  EXPECT_NE(message.find("GPU"), std::string::npos);
}

TEST(Distributed, ParallelGadgetOverIbisChannel) {
  Lab lab;
  double thermal = -1;
  lab.run([&] {
    DaemonClient client(lab.sockets, *lab.desktop);
    WorkerSpec spec;
    spec.code = "gadget";
    spec.nranks = 8;
    HydroClient hydro(client.start_worker(spec, "das4", /*nodes=*/8));
    util::Rng rng(2);
    auto gas = ic::gas_sphere(240, rng, 1.0, 1.0, 0.5);
    hydro.add_gas(gas.mass, gas.position, gas.velocity, gas.internal_energy);
    hydro.evolve(0.01);
    auto [kin, therm, pot] = hydro.energies();
    (void)kin;
    (void)pot;
    thermal = therm;
    hydro.close();
  });
  EXPECT_GT(thermal, 0.0);
  // MPI traffic stayed inside the cluster LAN.
  for (const auto& link : lab.net.traffic_report()) {
    if (link.name == "lan:uva") {
      EXPECT_GT(link.bytes_by_class[static_cast<int>(sim::TrafficClass::mpi)],
                0.0);
    }
    if (link.name == "vu-uva") {
      EXPECT_DOUBLE_EQ(
          link.bytes_by_class[static_cast<int>(sim::TrafficClass::mpi)], 0.0);
    }
  }
}

namespace {

/// The requests a rig's clients sent, by function id (first transmissions
/// and resends apart), plus an optional one-shot reply delay.
struct CallLog {
  std::map<Fn, int> sent;
  /// Replies that reached a client, by the function of their request.
  std::map<Fn, int> replied;
  /// Every first transmission and reply in wire order: (fn, is_reply).
  std::vector<std::pair<Fn, bool>> order;
  int resends = 0;
  /// Hold the reply to the next `delay_fn` request for `delay_s` virtual
  /// seconds once it reaches the client.
  std::optional<Fn> delay_fn;
  double delay_s = 0.0;
};

/// Client-side pipe that feeds a CallLog: the round-trip tests count calls
/// per function on the wire instead of inferring them from timings.
class CountingPipe : public MessagePipe {
 public:
  CountingPipe(std::unique_ptr<MessagePipe> inner, CallLog& log,
               sim::Simulation& sim)
      : inner_(std::move(inner)), log_(log), sim_(sim) {}

  void send_bytes(std::vector<std::uint8_t> bytes) override {
    // Request header: [u32 id][u16 fn][u16 flags] ...
    std::uint32_t id = 0;
    std::uint16_t fn_bits = 0;
    std::memcpy(&id, bytes.data(), sizeof(id));
    std::memcpy(&fn_bits, bytes.data() + 4, sizeof(fn_bits));
    auto fn = static_cast<Fn>(fn_bits);
    if (bytes[6] & rpc_flags::resend) {
      ++log_.resends;
    } else {
      ++log_.sent[fn];
      log_.order.emplace_back(fn, false);
      request_fn_[id] = fn;
      if (log_.delay_fn == fn) {
        delayed_ = id;
        log_.delay_fn.reset();
      }
    }
    inner_->send_bytes(std::move(bytes));
  }

  std::optional<std::vector<std::uint8_t>> recv_bytes() override {
    auto bytes = inner_->recv_bytes();
    if (!bytes) return bytes;
    std::uint32_t id = 0;
    std::memcpy(&id, bytes->data(), sizeof(id));
    if (delayed_ != 0 && id == delayed_) {
      delayed_ = 0;
      sim_.sleep(log_.delay_s);  // the pump, and every reply behind, waits
    }
    // A resent request's duplicate reply is dropped by the client: count
    // each request's first reply only.
    if (auto it = request_fn_.find(id); it != request_fn_.end()) {
      ++log_.replied[it->second];
      log_.order.emplace_back(it->second, true);
      request_fn_.erase(it);
    }
    return bytes;
  }

  void close() override { inner_->close(); }

 private:
  std::unique_ptr<MessagePipe> inner_;
  CallLog& log_;
  sim::Simulation& sim_;
  std::uint32_t delayed_ = 0;
  std::map<std::uint32_t, Fn> request_fn_;  // requests awaiting a reply
};

/// start_local_worker with the client end wrapped in a CountingPipe. The
/// worker runs on `where` (the desktop by default).
std::unique_ptr<RpcClient> start_counted_worker(Lab& lab,
                                                const WorkerSpec& spec,
                                                CallLog& log,
                                                sim::Host* where = nullptr) {
  static int sequence = 0;
  sim::Host& host = where != nullptr ? *where : *lab.desktop;
  std::string service = "counted-worker-" + std::to_string(++sequence);
  auto& listener = lab.sockets.listen(host, service);
  host.spawn("worker:" + spec.code, [&lab, &listener, &host, spec, service] {
    auto connection = listener.accept();
    lab.sockets.unlisten(host, service);
    run_worker(std::make_unique<ConnectionPipe>(std::move(connection)), spec,
               {&host}, lab.net);
  });
  auto connection = lab.sockets.connect(*lab.desktop, host, service,
                                        sim::TrafficClass::mpi);
  return std::make_unique<RpcClient>(
      *lab.desktop,
      std::make_unique<CountingPipe>(
          std::make_unique<ConnectionPipe>(std::move(connection)), log,
          lab.sim),
      spec.code);
}

/// A small embedded-cluster setup with all four models on local workers.
/// With a CallLog every client's requests are counted into it.
struct BridgeRig {
  std::unique_ptr<GravityClient> stars;
  std::unique_ptr<HydroClient> gas;
  std::unique_ptr<FieldClient> coupler;
  std::unique_ptr<StellarClient> se;

  /// `dynamics_host`, when set, runs the stars and the gas there (their
  /// calls then cross that host's WAN link); every worker runs on the
  /// desktop otherwise.
  BridgeRig(Lab& lab, int n_stars = 32, int n_gas = 96,
            CallLog* log = nullptr, sim::Host* dynamics_host = nullptr) {
    WorkerSpec grav{.code = "phigrape", .ncores = 2};
    WorkerSpec hydro{.code = "gadget"};
    WorkerSpec field{.code = "fi"};
    WorkerSpec sse{.code = "sse"};
    auto start = [&](const WorkerSpec& spec, sim::Host* where = nullptr) {
      if (log != nullptr) return start_counted_worker(lab, spec, *log, where);
      return start_local_worker(lab.sockets, lab.net, *lab.desktop,
                                where != nullptr ? *where : *lab.desktop,
                                spec, ChannelKind::mpi);
    };
    stars = std::make_unique<GravityClient>(start(grav, dynamics_host));
    gas = std::make_unique<HydroClient>(start(hydro, dynamics_host));
    coupler = std::make_unique<FieldClient>(start(field));
    se = std::make_unique<StellarClient>(start(sse));

    util::Rng rng(5);
    auto model = ic::plummer_sphere(n_stars, rng);
    stars->add_particles(model.mass, model.position, model.velocity);
    auto cloud = ic::gas_sphere(n_gas, rng, 2.0, 1.5);
    gas->add_gas(cloud.mass, cloud.position, cloud.velocity,
                 cloud.internal_energy);
    std::vector<double> zams = ic::salpeter_masses(n_stars, rng);
    zams[0] = 20.0;  // guarantee one massive star
    se->add_stars(zams);
  }

  /// The classic Fig-7 graph: stars and gas coupled through one field
  /// kernel, SE masses into the stars with feedback into the gas.
  Bridge bridge(const Bridge::Config& config) {
    return Bridge({{"stars", stars.get()}, {"gas", gas.get()}},
                  {{coupler.get(), 0, 1}},
                  {{se.get(), stars.get(), gas.get()}}, config);
  }

  void close() {
    stars->close();
    gas->close();
    coupler->close();
    se->close();
  }
};

/// The bridge of the trajectory tests: SE every other step, with strong
/// wind and supernova feedback so the mass and feedback channels both fire.
Bridge::Config feedback_config() {
  Bridge::Config config;
  config.dt = 1.0 / 64.0;
  config.se_every = 2;
  config.myr_per_nbody_time = 4.0;
  config.feedback_efficiency = 0.5;
  config.wind_specific_energy = 50.0;
  config.supernova_energy = 50.0;
  return config;
}

/// FNV-1a over the bit patterns of every field of the final star and gas
/// states.
std::uint64_t trajectory_digest(const GravityState& stars,
                                const HydroState& gas) {
  util::Fnv1a hash;
  for (const auto* values : {&stars.mass, &gas.mass, &gas.internal_energy,
                             &gas.density}) {
    hash.mix_all(*values);
  }
  for (const auto* rows : {&stars.position, &stars.velocity, &gas.position,
                           &gas.velocity}) {
    hash.mix_all(*rows);
  }
  return hash.hash;
}

/// trajectory_digest of a BridgeRig run of four feedback_config steps,
/// recorded from the synchronous full-fetch data path (serial RPCs, full
/// state fetches, full-array mass updates) at commit c943bd4, where the
/// pipelined path matched it bit for bit. The serial path was retired
/// after that commit; this value is what it proved.
constexpr std::uint64_t kSynchronousTrajectoryDigest = 0x4566125471a4adb0ULL;

using Calls = std::map<Fn, int>;

int count(const Calls& calls, Fn fn) {
  auto it = calls.find(fn);
  return it == calls.end() ? 0 : it->second;
}

Calls since(const Calls& now, const Calls& then) {
  Calls delta;
  for (const auto& [fn, n] : now) {
    if (int d = n - count(then, fn); d != 0) delta[fn] = d;
  }
  return delta;
}

/// The requests of one bridge step, split at the faultpoints that open its
/// phases: top kick, evolve, bottom kick and stellar update (empty when the
/// step has none).
struct StepCalls {
  Calls top, evolve, bottom, stellar;
};

StepCalls counted_step(Bridge& bridge, const CallLog& log) {
  Calls at_top, at_evolve, at_bottom;
  std::optional<Calls> at_stellar;
  {
    faultpoint::ScopedHook hook([&](const faultpoint::Context& at) {
      switch (at.point) {
        case faultpoint::Point::step_top_kick: at_top = log.sent; break;
        case faultpoint::Point::step_evolve: at_evolve = log.sent; break;
        case faultpoint::Point::step_bottom_kick: at_bottom = log.sent; break;
        case faultpoint::Point::step_stellar: at_stellar = log.sent; break;
        default: break;
      }
    });
    bridge.step();
  }
  return {since(at_evolve, at_top), since(at_bottom, at_evolve),
          since(at_stellar.value_or(log.sent), at_bottom),
          since(log.sent, at_stellar.value_or(log.sent))};
}

}  // namespace

TEST(Distributed, BridgeFollowsFig7Schedule) {
  Lab lab;
  std::vector<std::string> trace;
  lab.run([&] {
    BridgeRig rig(lab);
    Bridge::Config config;
    config.dt = 1.0 / 128.0;
    config.se_every = 2;
    config.myr_per_nbody_time = 1.0;
    Bridge bridge = rig.bridge(config);
    bridge.step();
    bridge.step();
    trace = bridge.trace();
    rig.close();
  });
  // One step: kick pair, parallel evolve, kick pair. SE joins every 2nd.
  std::vector<std::string> expected_step1{
      "kick:gas->stars", "kick:stars->gas", "evolve:parallel",
      "kick:gas->stars", "kick:stars->gas"};
  ASSERT_GE(trace.size(), 10u);
  for (std::size_t i = 0; i < expected_step1.size(); ++i) {
    EXPECT_EQ(trace[i], expected_step1[i]) << "position " << i;
  }
  // Step 2 ends with the stellar-evolution exchange (Fig 7: "performed at a
  // slower rate, only exchanging state every n-th time step").
  auto se_count = std::count(trace.begin(), trace.end(), "se:evolve");
  EXPECT_EQ(se_count, 1);
  EXPECT_NE(std::find(trace.begin(), trace.end(), "se:masses->gravity"),
            trace.end());
}

TEST(Distributed, BridgeParallelEvolveOverlapsAcrossResources) {
  // Gravity on the remote GPU, gas locally: the two evolve calls overlap in
  // virtual time (the Jungle payoff the paper demonstrates).
  Lab lab;
  double overlapped = -1, sequential = -1;
  lab.run([&] {
    DaemonClient client(lab.sockets, *lab.desktop);
    WorkerSpec grav{.code = "phigrape-gpu"};
    GravityClient stars(client.start_worker(grav, "lgm"));
    WorkerSpec hydro{.code = "gadget", .ncores = 2};
    HydroClient gas(start_local_worker(lab.sockets, lab.net, *lab.desktop,
                                       *lab.desktop, hydro,
                                       ChannelKind::mpi));
    util::Rng rng(5);
    auto model = ic::plummer_sphere(128, rng);
    stars.add_particles(model.mass, model.position, model.velocity);
    auto cloud = ic::gas_sphere(256, rng, 2.0, 1.5);
    gas.add_gas(cloud.mass, cloud.position, cloud.velocity,
                cloud.internal_energy);

    double t0 = lab.sim.now();
    Future fs = stars.evolve_async(0.05);
    Future fg = gas.evolve_async(0.05);
    fs.get();
    fg.get();
    overlapped = lab.sim.now() - t0;

    double t1 = lab.sim.now();
    stars.evolve(0.1);
    gas.evolve(0.1);
    sequential = lab.sim.now() - t1;
    stars.close();
    gas.close();
  });
  EXPECT_GT(overlapped, 0.0);
  EXPECT_LT(overlapped, 0.9 * sequential);
}

TEST(Distributed, WorkerHostCrashPoisonsFutures) {
  Lab lab;
  bool threw = false;
  std::string dead_worker, dead_host;
  auto cause = WorkerDiedError::Cause::unknown;
  lab.run([&] {
    DaemonClient client(lab.sockets, *lab.desktop);
    WorkerSpec spec;
    spec.code = "phigrape-gpu";
    GravityClient gravity(client.start_worker(spec, "lgm"));
    util::Rng rng(1);
    auto model = ic::plummer_sphere(256, rng);
    gravity.add_particles(model.mass, model.position, model.velocity);
    // ~0.019 virtual s on the LGM GPU: still running when the host dies.
    Future future = gravity.evolve_async(0.5);
    lab.sim.sleep(0.01);
    lab.lgm_node->crash();
    try {
      future.get();
    } catch (const WorkerDiedError& failure) {
      threw = true;
      dead_worker = failure.worker();
      dead_host = failure.host();
      cause = failure.cause();
    }
  });
  EXPECT_TRUE(threw);
  // The error identifies the worker *and* the machine that died, and tells
  // a host crash from a link fault — what the scheduler's fault path keys
  // its exclusions on.
  EXPECT_EQ(dead_worker, "phigrape-gpu@lgm");
  EXPECT_EQ(dead_host, "lgm-node");
  EXPECT_EQ(cause, WorkerDiedError::Cause::host_crash);
}

TEST(Distributed, FaultPolicyRestartsOnReplacementResource) {
  // The paper's §7 wish, implemented: checkpoint, detect death, restart on
  // another resource, continue.
  Lab lab;
  double final_time = -1;
  bool restarted = false;
  lab.run([&] {
    DaemonClient client(lab.sockets, *lab.desktop);
    WorkerSpec spec;
    spec.code = "phigrape";  // CPU: can run on das4 too
    auto gravity = std::make_unique<GravityClient>(
        client.start_worker(spec, "lgm"));
    util::Rng rng(1);
    auto model = ic::plummer_sphere(64, rng);
    gravity->add_particles(model.mass, model.position, model.velocity);
    gravity->evolve(0.05);
    GravityCheckpoint save = checkpoint_gravity(*gravity);

    lab.lgm_node->crash();
    try {
      gravity->evolve(0.1);
      // Depending on message timing the evolve call may appear to succeed
      // (reply sent before the crash); the next call then fails.
      gravity->get_state();
    } catch (const CodeError&) {
      gravity = std::make_unique<GravityClient>(
          client.start_worker(spec, "das4"));
      restore_gravity(*gravity, save);
      restarted = true;
    }
    // Continue the run on the replacement: it resumes on the absolute
    // clock (model time = the checkpoint's), so the next target is simply
    // the original end time.
    gravity->evolve(0.1);
    final_time = gravity->model_time();
    gravity->close();
  });
  EXPECT_TRUE(restarted);
  EXPECT_NEAR(final_time, 0.1, 1e-9);
}

TEST(Distributed, ClosingAPoisonedClientReleasesItsDaemonRelay) {
  // The worker's host dies: the daemon reports it and half-closes its end,
  // and the client is poisoned. Closing the client skips the stop frame
  // but still closes the pipe, so the daemon's relay for it winds down
  // now, while the client object is still alive.
  Lab lab;
  bool poisoned = false;
  std::vector<std::string> before;
  std::vector<std::string> after;
  lab.run([&] {
    DaemonClient client(lab.sockets, *lab.desktop);
    WorkerSpec spec;
    spec.code = "phigrape";
    GravityClient gravity(client.start_worker(spec, "lgm"));
    util::Rng rng(1);
    auto model = ic::plummer_sphere(16, rng);
    gravity.add_particles(model.mass, model.position, model.velocity);
    lab.lgm_node->crash();
    try {
      gravity.evolve(0.05);
      gravity.get_state();
    } catch (const CodeError&) {
    }
    poisoned = !gravity.rpc().alive();
    before = lab.sim.live_process_names();
    gravity.close();
    lab.sim.sleep(1.0);
    after = lab.sim.live_process_names();
  });
  // The daemon's relay for this client (its serving process, the upstream
  // pump and its reply port) and the client's own pump.
  const std::vector<std::string> relay = {
      "desktop/amuse-daemon-client", "desktop/daemon-upstream:1",
      "desktop/ipl-recvport:rep-1", "desktop/rpc-pump:phigrape@lgm"};
  auto running = [](const std::vector<std::string>& names,
                    const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  EXPECT_TRUE(poisoned);
  for (const std::string& name : relay) {
    EXPECT_TRUE(running(before, name)) << name;
    EXPECT_FALSE(running(after, name)) << name;
  }
}

TEST(Distributed, DeathNoticePoisonsInFlightBatch) {
  // The pipelined cross-kick keeps several futures in flight at once; a
  // death notice arriving mid-batch must fail every one of them with the
  // host and cause intact (the fault path keys its exclusions on those).
  Lab lab;
  int failed = 0;
  std::vector<std::string> hosts;
  std::vector<WorkerDiedError::Cause> causes;
  lab.run([&] {
    DaemonClient client(lab.sockets, *lab.desktop);
    WorkerSpec spec;
    spec.code = "phigrape-gpu";
    GravityClient gravity(client.start_worker(spec, "lgm"));
    util::Rng rng(1);
    auto model = ic::plummer_sphere(256, rng);
    gravity.add_particles(model.mass, model.position, model.velocity);
    // An evolve that outlasts the sleep below (~0.019 virtual s on the LGM
    // GPU) plus a pipelined batch queued behind it.
    Future evolving = gravity.evolve_async(0.5);
    Future state = gravity.request_state(jungle::amuse::state_field::coupling);
    std::vector<Vec3> kicks(model.mass.size(), Vec3{1e-3, 0, 0});
    Future kicked = gravity.kick_async(kicks);
    lab.sim.sleep(0.01);
    lab.lgm_node->crash();
    for (Future* future : {&evolving, &state, &kicked}) {
      try {
        future->get();
      } catch (const WorkerDiedError& death) {
        ++failed;
        hosts.push_back(death.host());
        causes.push_back(death.cause());
      }
    }
  });
  EXPECT_EQ(failed, 3);
  for (const std::string& host : hosts) EXPECT_EQ(host, "lgm-node");
  for (auto cause : causes) {
    EXPECT_EQ(cause, WorkerDiedError::Cause::host_crash);
  }
}

TEST(Distributed, DeltaExchangeTracksChangesAndKickRepeats) {
  Lab lab;
  lab.run([&] {
    WorkerSpec spec{.code = "phigrape", .ncores = 2};
    GravityClient gravity(start_local_worker(lab.sockets, lab.net,
                                             *lab.desktop, *lab.desktop, spec,
                                             ChannelKind::mpi));
    util::Rng rng(9);
    auto model = ic::plummer_sphere(32, rng);
    gravity.add_particles(model.mass, model.position, model.velocity);
    GravityState before = gravity.get_state();
    auto id_before = gravity.position_id();
    gravity.evolve(0.125);
    GravityState after = gravity.get_state();
    // Positions moved and the delta cache tracked them.
    EXPECT_NE(before.position[0].x, after.position[0].x);
    EXPECT_NE(gravity.position_id(), id_before);
    EXPECT_EQ(after.mass, before.mass);  // masses unchanged, still correct

    // An identical kick sent twice: the second rides the repeat path and
    // must still be applied (velocities advance twice).
    std::vector<Vec3> kicks(model.mass.size(), Vec3{0.5, 0, 0});
    gravity.kick(kicks);
    double vx_once = gravity.get_state().velocity[0].x;
    gravity.kick(kicks);
    double vx_twice = gravity.get_state().velocity[0].x;
    EXPECT_DOUBLE_EQ(vx_twice - vx_once, 0.5);
    gravity.close();
  });
}

TEST(Distributed, FieldAccelForCachesUnchangedInputs) {
  using jungle::amuse::make_state_id;
  Lab lab;
  lab.run([&] {
    DaemonClient client(lab.sockets, *lab.desktop);
    WorkerSpec spec{.code = "octgrav"};
    FieldClient field(client.start_worker(spec, "lgm"));
    util::Rng rng(3);
    auto model = ic::plummer_sphere(2000, rng);
    std::vector<Vec3> points{{1, 0, 0}, {0, 2, 0}, {0, 0, 3}};
    FieldClient::System sources{0, make_state_id(7, 1), model.mass,
                                make_state_id(7, 1), model.position};
    FieldClient::System targets{1, 0, {}, make_state_id(8, 1), points};

    double t0 = lab.sim.now();
    FieldClient::Pending first = field.accel_for_async(targets, {sources});
    std::vector<Vec3> accel_first = field.finish_accel(first);
    double first_cost = lab.sim.now() - t0;

    // Same content ids: nothing is uploaded, nothing recomputed, and the
    // cached accelerations come back bit-identical. The client holds the
    // accel of these very ids, so no RPC is issued at all.
    double t1 = lab.sim.now();
    FieldClient::Pending second = field.accel_for_async(targets, {sources});
    const std::vector<Vec3>& accel_second = field.finish_accel(second);
    double second_cost = lab.sim.now() - t1;
    ASSERT_EQ(accel_second.size(), accel_first.size());
    for (std::size_t i = 0; i < accel_first.size(); ++i) {
      EXPECT_EQ(accel_second[i].x, accel_first[i].x);
    }
    EXPECT_LT(second_cost, 0.5 * first_cost);
    EXPECT_FALSE(second.reply.has_value());

    // Changed masses (new id): recompute with the fresh upload.
    std::vector<double> doubled = model.mass;
    for (double& m : doubled) m *= 2.0;
    sources.mass_id = make_state_id(7, 2);
    sources.mass = doubled;
    FieldClient::Pending third = field.accel_for_async(targets, {sources});
    const std::vector<Vec3>& accel_third = field.finish_accel(third);
    EXPECT_NEAR(accel_third[0].x, 2.0 * accel_first[0].x,
                1e-9 * std::abs(accel_first[0].x));
    field.close();
  });
}

TEST(Distributed, RestartedWorkerMintsFreshStateIds) {
  // The rollback/replay invalidation story: content ids carry a worker
  // instance nonce, so a replacement worker serving the very same particle
  // data can never alias the dead worker's entries in downstream caches
  // (the coupler's held systems and the field client's accel shortcuts).
  Lab lab;
  lab.run([&] {
    WorkerSpec spec{.code = "phigrape", .ncores = 2};
    util::Rng rng(4);
    auto model = ic::plummer_sphere(16, rng);
    GravityClient first(start_local_worker(lab.sockets, lab.net, *lab.desktop,
                                           *lab.desktop, spec,
                                           ChannelKind::mpi));
    first.add_particles(model.mass, model.position, model.velocity);
    first.get_state();
    GravityClient second(start_local_worker(lab.sockets, lab.net,
                                            *lab.desktop, *lab.desktop, spec,
                                            ChannelKind::mpi));
    second.add_particles(model.mass, model.position, model.velocity);
    second.get_state();
    EXPECT_NE(first.mass_id(), second.mass_id());
    EXPECT_NE(first.position_id(), second.position_id());
    first.close();
    second.close();
  });
}

TEST(Distributed, PipelinedBridgeMatchesSynchronousBitExact) {
  // Acceptance: the pipelined/delta data path is a pure wire optimization —
  // the physics trajectory, stellar feedback and all, lands bit for bit on
  // the serial full-fetch one.
  Lab lab;
  GravityState stars;
  HydroState gas;
  lab.run([&] {
    BridgeRig rig(lab);
    Bridge bridge = rig.bridge(feedback_config());
    for (int i = 0; i < 4; ++i) bridge.step();
    stars = rig.stars->get_state();
    gas = rig.gas->get_state();
    rig.close();
  });
  ASSERT_EQ(stars.mass.size(), 32u);
  ASSERT_EQ(gas.mass.size(), 96u);
  EXPECT_EQ(trajectory_digest(stars, gas), kSynchronousTrajectoryDigest);
}

TEST(Distributed, WanBridgeWaitsOnlyOnTheDataItConsumes) {
  // Stars and gas across the vu-leiden link. The bottom kick's coupling
  // fetch goes out behind the evolve, before the evolve's reply lands, and
  // a step returns with its bottom-kick acks still in flight; settle()
  // collects them. The trajectory stays bit-identical to the serial path.
  Lab lab;
  GravityState stars;
  HydroState gas;
  lab.run([&] {
    CallLog log;
    BridgeRig rig(lab, 32, 96, &log, lab.lgm_node);
    Bridge bridge = rig.bridge(feedback_config());
    // Position of the first (fn, is_reply) entry at or after `from`.
    auto find = [&](Fn fn, bool reply, std::size_t from) {
      auto it = std::find(log.order.begin() + static_cast<long>(from),
                          log.order.end(), std::pair{fn, reply});
      return static_cast<std::size_t>(it - log.order.begin());
    };
    for (int i = 0; i < 4; ++i) {
      std::size_t mark = log.order.size();
      bridge.step();
      for (auto [evolve, fetch] : {std::pair{Fn::grav_evolve,
                                             Fn::grav_get_state},
                                   std::pair{Fn::hydro_evolve,
                                             Fn::hydro_get_state}}) {
        std::size_t sent = find(evolve, false, mark);
        ASSERT_LT(sent, log.order.size()) << "step " << i;
        EXPECT_LT(find(fetch, false, sent), find(evolve, true, sent))
            << "step " << i << ": fetch waited for the evolve";
      }
      EXPECT_LT(log.replied[Fn::grav_kick_all], log.sent[Fn::grav_kick_all])
          << "step " << i << " waited for its stars kick ack";
      EXPECT_LT(log.replied[Fn::hydro_kick_all], log.sent[Fn::hydro_kick_all])
          << "step " << i << " waited for its gas kick ack";
    }
    bridge.settle();
    EXPECT_EQ(log.replied, log.sent);  // every call answered, none lost
    stars = rig.stars->get_state();
    gas = rig.gas->get_state();
    rig.close();
  });
  ASSERT_EQ(stars.mass.size(), 32u);
  ASSERT_EQ(gas.mass.size(), 96u);
  EXPECT_EQ(trajectory_digest(stars, gas), kSynchronousTrajectoryDigest);
}

TEST(Distributed, ResourceSelectorFindsReplacement) {
  Lab lab;
  zorilla::Overlay overlay(lab.net, 7);
  auto& origin = overlay.add_node(*lab.desktop);
  overlay.add_node(*lab.lgm_node, &origin);
  overlay.add_node(*lab.das_nodes[0], &origin);
  overlay.gossip_until_converged();
  zorilla::ResourceSelector selector(overlay);
  zorilla::Requirements req;
  req.needs_gpu = true;
  auto* gpu_node = selector.select(req);
  ASSERT_NE(gpu_node, nullptr);
  EXPECT_EQ(gpu_node->host().name(), "lgm-node");
  // After that node dies, selection falls back to nothing (no other GPU).
  lab.lgm_node->crash();
  EXPECT_EQ(selector.select(req), nullptr);
}

TEST(Distributed, DashboardReflectsWorkerJobs) {
  Lab lab;
  lab.run([&] {
    DaemonClient client(lab.sockets, *lab.desktop);
    WorkerSpec spec;
    spec.code = "sse";
    StellarClient stellar(client.start_worker(spec, "lgm"));
    std::vector<double> zams{1.0};
    stellar.add_stars(zams);
    stellar.evolve_to(1.0);
    std::string dashboard = lab.deployer->dashboard();
    EXPECT_NE(dashboard.find("sse-"), std::string::npos);
    EXPECT_NE(dashboard.find("RUNNING"), std::string::npos);
    stellar.close();
  });
}

TEST(Distributed, SteadyTopKickIssuesNoDataFreeRoundTrips) {
  // The top half-kick of a steady step waits on no round trip: both caches
  // are current since the previous bottom kick, the field client answers
  // from its cached accel, and the kick acks are collected during the
  // evolve. The
  // bottom kick's state fetch goes out behind the evolve, so the bottom
  // window itself sends only the field queries and the kicks.
  Lab lab;
  lab.run([&] {
    CallLog log;
    BridgeRig rig(lab, 32, 96, &log);
    Bridge::Config config;
    config.dt = 1.0 / 128.0;
    config.se_every = 2;
    config.myr_per_nbody_time = 4.0;
    Bridge bridge = rig.bridge(config);

    // Step 1 starts from freshly loaded particles: everything is fetched.
    StepCalls first = counted_step(bridge, log);
    EXPECT_EQ(count(first.top, Fn::grav_get_state), 1);
    EXPECT_EQ(count(first.top, Fn::hydro_get_state), 1);
    EXPECT_EQ(count(first.top, Fn::field_accel_for), 2);

    // Step 2 is steady: only the two kick frames go out at the top.
    StepCalls steady = counted_step(bridge, log);
    EXPECT_EQ(count(steady.top, Fn::grav_get_state), 0);
    EXPECT_EQ(count(steady.top, Fn::hydro_get_state), 0);
    EXPECT_EQ(count(steady.top, Fn::field_accel_for), 0);
    EXPECT_EQ(count(steady.top, Fn::grav_kick_all), 1);
    EXPECT_EQ(count(steady.top, Fn::hydro_kick_all), 1);
    // The evolve and the bottom kick keep their full work.
    EXPECT_EQ(count(steady.evolve, Fn::grav_evolve), 1);
    EXPECT_EQ(count(steady.evolve, Fn::hydro_evolve), 1);
    EXPECT_EQ(count(steady.evolve, Fn::grav_get_state), 1);
    EXPECT_EQ(count(steady.evolve, Fn::hydro_get_state), 1);
    EXPECT_EQ(count(steady.bottom, Fn::grav_get_state), 0);
    EXPECT_EQ(count(steady.bottom, Fn::hydro_get_state), 0);
    EXPECT_EQ(count(steady.bottom, Fn::field_accel_for), 2);
    // Its stellar update reads both current caches instead of fetching.
    EXPECT_EQ(count(steady.stellar, Fn::grav_get_state), 0);
    EXPECT_EQ(count(steady.stellar, Fn::hydro_get_state), 0);
    EXPECT_EQ(count(steady.stellar, Fn::grav_set_masses_sparse), 1);

    // Step 2 ended with a stellar mass update into the stars, so step 3's
    // top kick fetches them again. The feedback fetch left the gas current
    // and injected only thermal energy: no gas fetch.
    StepCalls after_se = counted_step(bridge, log);
    EXPECT_EQ(count(after_se.top, Fn::grav_get_state), 1);
    EXPECT_EQ(count(after_se.top, Fn::hydro_get_state), 0);
    rig.close();
  });
}

TEST(Distributed, EveryStateMovingCallMakesTheNextCouplingFetch) {
  // The cache-currency rule, entry by entry: after any client call that can
  // move mass or position, the next coupling phase must fetch that system.
  Lab lab;
  lab.run([&] {
    CallLog log;
    BridgeRig rig(lab, 32, 96, &log);
    GravityClient& stars = *rig.stars;
    HydroClient& gas = *rig.gas;
    Bridge::Config config;
    config.dt = 1.0 / 128.0;
    Bridge bridge({{"stars", &stars}, {"gas", &gas}},
                  {{rig.coupler.get(), 0, 1}}, {}, config);

    // Reload a snapshot with raw RPCs, behind the client's back, so the
    // only invalidating client call of its case is the one under test.
    auto reload_raw = [&](const GravityCheckpoint& save) {
      util::ByteWriter particles = RpcClient::request();
      particles.put_span(std::span<const double>(save.state.mass));
      particles.put_span(std::span<const Vec3>(save.state.position));
      particles.put_span(std::span<const Vec3>(save.state.velocity));
      stars.rpc().call_sync(Fn::grav_add_particles, std::move(particles));
      util::ByteWriter dynamics = RpcClient::request();
      dynamics.put<double>(save.model_time);
      dynamics.put_span(std::span<const Vec3>(save.acc));
      dynamics.put_span(std::span<const Vec3>(save.jerk));
      stars.rpc().call_sync(Fn::grav_set_dynamics, std::move(dynamics));
    };

    struct Case {
      std::string name;
      Fn fetch;
      std::function<void()> call;
    };
    const std::vector<Case> cases = {
        {"gravity evolve_async", Fn::grav_get_state,
         [&] { stars.evolve(bridge.time()); }},
        {"add_particles", Fn::grav_get_state,
         [&] { stars.add_particles({}, {}, {}); }},
        {"set_masses", Fn::grav_get_state,
         [&] {
           std::vector<double> mass = stars.cached_state().mass;
           stars.set_masses(mass);
         }},
        {"set_masses_sparse", Fn::grav_get_state,
         [&] { stars.set_masses_sparse({}, {}); }},
        {"set_dynamics", Fn::grav_get_state,
         [&] {
           GravityCheckpoint save = checkpoint_gravity(stars);
           stars.set_dynamics(save.acc, save.jerk, save.model_time);
         }},
        {"reset_model", Fn::grav_get_state,
         [&] {
           GravityCheckpoint save = checkpoint_gravity(stars);
           stars.reset_model();
           reload_raw(save);
         }},
        {"set_shard", Fn::grav_get_state,
         [&] { stars.set_shard(0, stars.cached_state().mass.size()); }},
        {"ghost_update_async", Fn::grav_get_state,
         [&] {
           GravityState state = stars.get_state();
           stars.ghost_update_async(0, state.position, state.velocity, false)
               .get();
         }},
        {"gravity reset_delta_caches", Fn::grav_get_state,
         [&] { stars.reset_delta_caches(); }},
        {"hydro evolve_async", Fn::hydro_get_state,
         [&] { gas.evolve(bridge.time()); }},
        {"add_gas", Fn::hydro_get_state,
         [&] { gas.add_gas({}, {}, {}, {}); }},
        {"hydro reset_delta_caches", Fn::hydro_get_state,
         [&] { gas.reset_delta_caches(); }},
    };

    counted_step(bridge, log);  // the first step fetches the fresh load
    for (const Case& entry : cases) {
      StepCalls steady = counted_step(bridge, log);
      ASSERT_EQ(count(steady.top, entry.fetch), 0)
          << "not steady before " << entry.name;
      entry.call();
      StepCalls next = counted_step(bridge, log);
      EXPECT_EQ(count(next.top, entry.fetch), 1) << entry.name;
    }

    // A reply to a request that an evolve overtook proves nothing.
    Future reply = stars.request_state(state_field::coupling);
    Future evolving = stars.evolve_async(bridge.time());
    stars.merge_state(reply, state_field::coupling);
    evolving.get();
    EXPECT_FALSE(stars.coupling_current());
    rig.close();
  });
}

TEST(Distributed, DelayedTopKickAckAppliesTheKickOnceBeforeTheEvolve) {
  // The top kick is sent ahead of the evolve and its ack collected during
  // it. Hold that ack past the client's soft retry deadline: the client
  // resends, the worker answers the resend from its replay cache, and the
  // trajectory stays bit-identical to the undelayed run — the kick ran
  // exactly once, and before the evolve queued behind it.
  auto run = [](bool delay) {
    Lab lab;
    GravityState stars;
    int resends = -1;
    lab.run([&] {
      CallLog log;
      BridgeRig rig(lab, 32, 96, &log);
      Bridge::Config config;
      config.dt = 1.0 / 128.0;
      config.se_every = 1000;
      Bridge bridge = rig.bridge(config);
      bridge.step();
      if (delay) {
        log.delay_fn = Fn::grav_kick_all;  // step 2's top kick
        log.delay_s = 2.5;                 // soft deadline: 1 s +-50%
      }
      bridge.step();
      bridge.step();
      stars = rig.stars->get_state();
      resends = log.resends;
      rig.close();
    });
    return std::pair{stars, resends};
  };
  auto [plain, plain_resends] = run(false);
  auto [delayed, delayed_resends] = run(true);
  EXPECT_EQ(plain_resends, 0);
  EXPECT_GE(delayed_resends, 1);
  ASSERT_EQ(plain.position.size(), delayed.position.size());
  for (std::size_t i = 0; i < plain.position.size(); ++i) {
    EXPECT_EQ(plain.position[i].x, delayed.position[i].x) << i;
    EXPECT_EQ(plain.position[i].y, delayed.position[i].y) << i;
    EXPECT_EQ(plain.velocity[i].x, delayed.velocity[i].x) << i;
    EXPECT_EQ(plain.velocity[i].z, delayed.velocity[i].z) << i;
  }
}
