#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <functional>

#include "amuse/experiment.hpp"
#include "amuse/faultpoint.hpp"
#include "amuse/faults.hpp"
#include "amuse/scenario.hpp"
#include "obs/metrics.hpp"
#include "sim/network.hpp"

using namespace jungle;
using namespace jungle::amuse;
using namespace jungle::amuse::experiment;

// Standalone regression cases for interleavings the fault-schedule explorer
// (src/explore/) found and this PR fixed. Each test installs a faultpoint
// hook directly — no Explorer involved — so the cases stay runnable and
// debuggable as ordinary unit tests. The invariant throughout: whatever the
// schedule breaks, recovery must land the physics bit-for-bit back on the
// fault-free trajectory (same checkpoint-digest hash family as the
// protocol itself) without leaking simulated processes.

namespace {

util::Config source_file(const std::string& relative) {
  return util::Config::load(std::string(JUNGLE_SOURCE_DIR) + "/" + relative);
}

util::Config example_ini(const std::string& name) {
  return source_file("examples/experiments/" + name);
}

/// One injection: crash a host (or cut a WAN link) the `occurrence`-th time
/// the run reaches (point, iteration). Iteration -1 addresses points hit
/// outside a bridge step (recovery internals, worker spawn); occurrence -1
/// means "the first reach after the previous shot fired" — handy for points
/// like spawn.worker that also fire during startup, where the absolute
/// occurrence index depends on the topology rather than the scenario.
struct Shot {
  faultpoint::Point point;
  int iteration = 0;
  int occurrence = 0;
  bool cut_link = false;
  std::string victim;
  /// Process-tier victim (PR 8): when non-empty, kill this process on the
  /// victim host (e.g. "amuse-daemon", "job", "worker") instead of
  /// crashing the machine — the supervised in-place recovery tier.
  std::string kill_process;
};

struct Outcome {
  bool completed = false;
  std::string error;
  int restarts = 0;
  int fired = 0;
  std::uint64_t digest = 0;
  double energy = 0.0;
  std::size_t live = 0;
  std::string placement;
  // Deltas of the process-global fault/RPC counters across this run.
  double rollbacks = 0.0;
  double rpc_retries = 0.0;
  double supervisor_restarts = 0.0;
  double degraded_iterations = 0.0;
};

/// A network fault the run suffers after step `step`: it fires once, the
/// first time step `step` + 1 reaches its top kick — the same virtual
/// instant, before that step sends any RPC. A replayed step does not fire
/// it again.
struct AfterStep {
  int step = 0;
  std::function<void(sim::Network&)> inject;
};

Outcome run_example(const std::string& ini, const std::vector<Shot>& shots,
                    const std::function<void(ExperimentSpec&)>& mutate = {},
                    const AfterStep& after = {}) {
  util::Config config = example_ini(ini);
  ExperimentSpec spec = ExperimentSpec::from_config(config);
  spec.checkpointing = true;
  if (mutate) mutate(spec);

  double rollbacks0 = obs::metrics::counter_value("fault.rollbacks");
  double retries0 = obs::metrics::counter_value("rpc.retries");
  double restarts0 = obs::metrics::counter_value("fault.supervisor_restarts");
  double degraded0 = obs::metrics::counter_value("fault.degraded_iterations");

  JungleTestbed bed(config);
  Outcome out;
  std::map<std::pair<int, int>, int> seen;
  std::size_t next = 0;
  bool after_fired = false;
  {
    faultpoint::ScopedHook guard([&](const faultpoint::Context& ctx) {
      int occurrence = seen[{static_cast<int>(ctx.point), ctx.iteration}]++;
      if (after.inject && !after_fired &&
          ctx.point == faultpoint::Point::step_top_kick &&
          ctx.iteration == after.step) {
        after_fired = true;
        after.inject(bed.network());
      }
      if (next >= shots.size()) return;
      const Shot& shot = shots[next];
      if (shot.point != ctx.point || shot.iteration != ctx.iteration) return;
      if (shot.occurrence >= 0 && shot.occurrence != occurrence) return;
      ++next;
      if (shot.cut_link) {
        bed.network().set_link_down(shot.victim, true);
      } else {
        sim::Host* victim = bed.network().find_host(shot.victim);
        if (victim != nullptr && victim->is_up()) {
          if (shot.kill_process.empty()) {
            victim->crash();
          } else {
            victim->kill_process(shot.kill_process);
          }
        }
      }
    });
    try {
      Result result = run_experiment(bed, spec);
      out.completed = true;
      out.restarts = result.restarts;
      out.placement = result.placement;
      for (const ModelResult& model : result.models) {
        out.energy += model.kinetic + model.potential + model.thermal;
      }
      // "Matches the fault-free run" means bit-for-bit, not approximately.
      out.digest = final_digest(result);
    } catch (const std::exception& error) {
      out.error = error.what();
    }
  }
  out.fired = static_cast<int>(next);
  out.live = bed.simulation().live_processes();
  out.rollbacks = obs::metrics::counter_value("fault.rollbacks") - rollbacks0;
  out.rpc_retries = obs::metrics::counter_value("rpc.retries") - retries0;
  out.supervisor_restarts =
      obs::metrics::counter_value("fault.supervisor_restarts") - restarts0;
  out.degraded_iterations =
      obs::metrics::counter_value("fault.degraded_iterations") - degraded0;
  return out;
}

Outcome run_triple_plummer(
    const std::vector<Shot>& shots,
    const std::function<void(ExperimentSpec&)>& mutate = {},
    const AfterStep& after = {}) {
  return run_example("triple-plummer.ini", shots, mutate, after);
}

const Outcome& golden() {
  static Outcome gold = run_triple_plummer({});
  return gold;
}

void expect_recovered_on_golden(const Outcome& out) {
  ASSERT_TRUE(out.completed) << out.error;
  EXPECT_EQ(out.digest, golden().digest);
  EXPECT_NEAR(out.energy, golden().energy,
              1e-8 * std::max(1.0, std::fabs(golden().energy)));
  // Crashed hosts take their own processes down, so fewer survivors than
  // the golden run is fine; more means recovery leaked one.
  EXPECT_LE(out.live, golden().live);
}

}  // namespace

TEST(Faults, FaultFreeBaselineIsHealthy) {
  const Outcome& gold = golden();
  ASSERT_TRUE(gold.completed) << gold.error;
  EXPECT_EQ(gold.restarts, 0);
  EXPECT_NE(gold.digest, 0u);
  EXPECT_LT(gold.energy, 0.0);  // three bound clusters
}

TEST(Faults, CrashDuringCommitRollsBackAtomically) {
  // Explorer schedule "ckpt.commit@0#0=crash:node0": the field worker's
  // host dies inside the per-model commit loop of epoch 1, with a bridge
  // step still to run. The graph-wide atomic commit must not leave a
  // half-staged snapshot behind: the next step's death notice triggers a
  // re-place and a rollback onto a *consistent* epoch, landing the replay
  // on the golden trajectory — a partial commit would leave mixed-epoch
  // checkpoints and a diverged final digest.
  Outcome out = run_triple_plummer(
      {Shot{faultpoint::Point::ckpt_commit, 0, 0, false, "node0"}});
  EXPECT_EQ(out.fired, 1);
  EXPECT_GE(out.restarts, 1);
  expect_recovered_on_golden(out);
}

TEST(Faults, CrashDuringCaptureReplaysBitExact) {
  // Explorer schedule "ckpt.capture@0#0=crash:node0": death while the very
  // first checkpoint is being captured forces a rollback to the initial
  // conditions. This is the interleaving that exposed the corrector-force
  // hole: a restored integrator that re-evaluates forces instead of
  // carrying the checkpointed ones diverges by roundoff in its first step.
  Outcome out = run_triple_plummer(
      {Shot{faultpoint::Point::ckpt_capture, 0, 0, false, "node0"}});
  EXPECT_EQ(out.fired, 1);
  EXPECT_GE(out.restarts, 1);
  expect_recovered_on_golden(out);
}

TEST(Faults, DoubleFaultDuringReplaceRecovers) {
  // Explorer schedule "step.evolve@1#0=crash:node0;
  // recover.replace@-1#0=crash:node1": the second cluster node dies while
  // recovery is still re-placing the victims of the first crash. The
  // replace loop must fold the new death into its exclusions and keep
  // going, not wedge on a worker it was about to start.
  Outcome out = run_triple_plummer(
      {Shot{faultpoint::Point::step_evolve, 1, 0, false, "node0"},
       Shot{faultpoint::Point::recover_replace, -1, 0, false, "node1"}});
  EXPECT_EQ(out.fired, 2);
  EXPECT_GE(out.restarts, 1);
  expect_recovered_on_golden(out);
}

TEST(Faults, WanCutMidStepBreaksIdleConnectionsToo) {
  // Explorer schedule "step.evolve@0#0=link:metro-wan": cutting the only
  // WAN link strands the cluster-side workers. Connections with a frame in
  // flight notice via retry exhaustion, but *idle* pipes (and receive-port
  // readers parked behind them) used to block forever — the leaked-process
  // hole. The link watcher's keepalive timeout must break them so every
  // stranded reader unwinds with a ConnectError and recovery proceeds.
  Outcome out = run_triple_plummer(
      {Shot{faultpoint::Point::step_evolve, 0, 0, true, "metro-wan"}});
  EXPECT_EQ(out.fired, 1);
  EXPECT_GE(out.restarts, 1);
  expect_recovered_on_golden(out);
}

TEST(Faults, CrashDuringReplaceSpawnRetries) {
  // Explorer schedule "spawn.worker@-1#0=crash:node1" layered after a
  // first crash: the daemon's bounded spawn retry must absorb a resource
  // dying at the worst moment — exactly when a replacement is being
  // started on it — and fall back to another node.
  Outcome out = run_triple_plummer(
      {Shot{faultpoint::Point::step_top_kick, 1, 0, false, "node0"},
       Shot{faultpoint::Point::spawn_worker, -1, -1, false, "node1"}});
  EXPECT_GE(out.fired, 1);  // second shot only fires if recovery respawns
  EXPECT_GE(out.restarts, 1);
  expect_recovered_on_golden(out);
}

TEST(Faults, CrashAfterFirstSpawnRetriesTheInitialLoad) {
  // Explorer schedule "spawn.worker@-1#1=crash:core-gpu0" on the deep-WAN
  // ring with 256 bodies per cluster: the first model's planned host dies
  // as the second START goes out. Starting and loading are both part of
  // bringing a model up, so the model is re-placed, started and loaded
  // again instead of the run ending on an unretried first call. All STARTs
  // go out before any job holds a node, so this takes the path of the
  // test below.
  auto enlarge = [](ExperimentSpec& spec) {
    for (ModelSpec& model : spec.models) {
      if (model.role == sched::Role::gravity) model.n = 256;
    }
  };
  Outcome gold = run_example("deep-wan-ring.ini", {}, enlarge);
  ASSERT_TRUE(gold.completed) << gold.error;
  Outcome out = run_example(
      "deep-wan-ring.ini",
      {Shot{faultpoint::Point::spawn_worker, -1, 1, false, "core-gpu0"}},
      enlarge);
  EXPECT_EQ(out.fired, 1);
  ASSERT_TRUE(out.completed) << out.error;
  EXPECT_GE(out.restarts, 1);
  EXPECT_EQ(out.digest, gold.digest);
  EXPECT_LE(out.live, gold.live);
}

TEST(Faults, CrashAtFirstSpawnReplacesInsteadOfHanging) {
  // Explorer schedule "spawn.worker@-1#0=crash:core-gpu0" on the same ring:
  // the GPU host dies as the first START goes out, before any job holds a
  // node. One gravity job takes the surviving GPU node and the next one
  // queues for it behind a job that never ends. The bounded queue wait
  // turns that into a startup failure, which blames the host that went
  // down rather than the whole cluster, so the model is re-placed onto a
  // CPU node of the same cluster instead of waiting forever.
  auto enlarge = [](ExperimentSpec& spec) {
    for (ModelSpec& model : spec.models) {
      if (model.role == sched::Role::gravity) model.n = 256;
    }
  };
  Outcome gold = run_example("deep-wan-ring.ini", {}, enlarge);
  ASSERT_TRUE(gold.completed) << gold.error;
  Outcome out = run_example(
      "deep-wan-ring.ini",
      {Shot{faultpoint::Point::spawn_worker, -1, 0, false, "core-gpu0"}},
      enlarge);
  EXPECT_EQ(out.fired, 1);
  ASSERT_TRUE(out.completed) << out.error;
  EXPECT_GE(out.restarts, 1);
  EXPECT_EQ(out.digest, gold.digest);
  EXPECT_LE(out.live, gold.live);
  // Only the dead node was blamed: the queued model moves to a CPU node of
  // the same cluster.
  EXPECT_NE(out.placement.find("beta=phigrape@core-cluster/core0"),
            std::string::npos)
      << out.placement;
}

TEST(Faults, WanCutDuringConcurrentStartsMovesEveryStrandedModel) {
  // The client's only WAN link goes down as the last START goes out, while
  // the first gravity jobs are already booting on the far side. Their
  // proxies lose the registry before the daemon's pool view reaches them:
  // waiting for a member that can never appear fails the job instead of
  // leaving the daemon polling for it forever. Every stage-in behind the
  // cut fails too, both resources are excluded, and each stranded model
  // must still find a place (the client) although the others are pinned
  // to the excluded resources until their own turn.
  Outcome gold = run_example("deep-wan-ring.ini", {});
  ASSERT_TRUE(gold.completed) << gold.error;
  Outcome out = run_example(
      "deep-wan-ring.ini",
      {Shot{faultpoint::Point::spawn_worker, -1, 3, true, "edge-haul"}});
  EXPECT_EQ(out.fired, 1);
  ASSERT_TRUE(out.completed) << out.error;
  EXPECT_GE(out.restarts, 4);
  EXPECT_EQ(out.digest, gold.digest);
  EXPECT_LE(out.live, gold.live);
}

TEST(Faults, CrashAfterLastCommitRecoversTheFinalRead) {
  // A gravity host dies while the last step's checkpoint commits. The run
  // has no step left to fail in: the loss surfaces when the final state is
  // read, which recovers like any step, onto the checkpoint just committed.
  Outcome gold = run_example("deep-wan-ring.ini", {});
  ASSERT_TRUE(gold.completed) << gold.error;
  Outcome out = run_example(
      "deep-wan-ring.ini",
      {Shot{faultpoint::Point::ckpt_commit, 1, 0, false, "core-gpu0"}});
  EXPECT_EQ(out.fired, 1);
  ASSERT_TRUE(out.completed) << out.error;
  EXPECT_GE(out.restarts, 1);
  EXPECT_EQ(out.digest, gold.digest);
  EXPECT_LE(out.live, gold.live);
}

TEST(Faults, NonDefaultPhysicsSurviveAReplace) {
  // Physics parameters travel only in the WorkerSpec: every start and
  // re-place builds its worker from it, and a checkpoint restore sends
  // state alone. Crash the gravity host in step 1 of an embedded cluster
  // whose gravity and hydro run non-default eps2/eta/theta: both dynamic
  // models roll back onto fresh workers, and the replay must land on the
  // fault-free bits — which differ from the default-physics run's. (Step 1
  // rolls back to the initial conditions: a hydro restore at a later epoch
  // is not bit-exact, the SPH smoothing lengths are not checkpointed.)
  scenario::Options options;
  options.n_stars = 600;  // enough that gravity goes to a remote GPU
  options.n_gas = 2000;
  options.iterations = 2;
  options.with_stellar_evolution = false;
  ExperimentSpec plain = scenario::classic_spec(scenario::Kind::autoplace,
                                                options);
  ExperimentSpec tuned = plain;
  for (ModelSpec& model : tuned.models) {
    if (model.role == sched::Role::gravity) {
      model.eps2 = 4e-4;
      model.eta = 0.03;
    } else if (model.role == sched::Role::hydro) {
      model.eps2 = 4e-4;
      model.theta = 0.7;
    }
  }
  JungleTestbed probe;
  const sched::Placement plan = plan_experiment(probe, tuned);
  auto stars = std::find(plan.names.begin(), plan.names.end(), "stars");
  ASSERT_NE(stars, plan.names.end());
  const sched::Assignment& gravity = plan.roles[stars - plan.names.begin()];
  ASSERT_NE(gravity.host, nullptr);
  ASSERT_FALSE(gravity.resource.empty())
      << "the fault needs gravity on a remote resource";
  const std::string victim = gravity.host->name();

  // The crash lands once, when step 1 reaches its top kick.
  auto run = [](const ExperimentSpec& spec, const std::string& crash) {
    JungleTestbed bed;
    bool fired = false;
    faultpoint::ScopedHook hook([&](const faultpoint::Context& ctx) {
      if (crash.empty() || fired ||
          ctx.point != faultpoint::Point::step_top_kick ||
          ctx.iteration != 0) {
        return;
      }
      fired = true;
      bed.network().host(crash).crash();
    });
    return run_experiment(bed, spec);
  };
  Result clean = run(tuned, "");
  Result recovered = run(tuned, victim);
  EXPECT_EQ(clean.restarts, 0);
  EXPECT_GE(recovered.restarts, 1);
  EXPECT_EQ(recovered.placement.find(victim), std::string::npos);
  EXPECT_EQ(final_digest(recovered), final_digest(clean));
  EXPECT_NE(final_digest(clean), final_digest(run(plain, "")));
}

// ---------------------------------------------------------------------------
// PR 8: the process-fault tier. Victims are single processes (daemon
// accept loop, worker proxy, native worker) killed while their host stays
// up; the supervisors must recover *in place* — same hosts, same placement,
// no exclusions — and land the run back on the golden bits.
// ---------------------------------------------------------------------------

TEST(Faults, DaemonKillRestartsInPlace) {
  // Kill the daemon's accept loop mid-run. Nothing is listening while the
  // supervisor's backoff runs, but connect() backlogs into the server
  // socket's mailbox, so the restart is invisible to everyone — no
  // rollback, no re-placement, identical physics.
  Outcome out = run_triple_plummer(
      {Shot{faultpoint::Point::step_evolve, 0, 0, false, "edge",
            "amuse-daemon"}});
  EXPECT_EQ(out.fired, 1);
  ASSERT_TRUE(out.completed) << out.error;
  EXPECT_EQ(out.restarts, 0);  // host not excluded, nothing re-placed
  EXPECT_GE(out.supervisor_restarts, 1.0);
  EXPECT_EQ(out.digest, golden().digest);
  EXPECT_EQ(out.placement, golden().placement);
  EXPECT_LE(out.live, golden().live);
}

TEST(Faults, DaemonDoubleKillWithReplacementTraffic) {
  // The double-fault case from the issue: the daemon is killed once per
  // iteration (the second kill lands just after the first supervised
  // restart, doubling the backoff), and then a node crash forces a
  // re-place *through* the daemon while its second restart is still
  // pending. start_worker's connect backlogs in the accept queue until
  // the next accept-loop generation picks it up.
  Outcome out = run_triple_plummer(
      {Shot{faultpoint::Point::step_top_kick, 0, 0, false, "edge",
            "amuse-daemon"},
       Shot{faultpoint::Point::step_top_kick, 1, 0, false, "edge",
            "amuse-daemon"},
       Shot{faultpoint::Point::step_evolve, 1, -1, false, "node0"}});
  EXPECT_GE(out.fired, 2);
  EXPECT_GE(out.restarts, 1);
  EXPECT_GE(out.supervisor_restarts, 2.0);
  expect_recovered_on_golden(out);
}

TEST(Faults, ProxyKillRecoversInPlaceWithoutReplacement) {
  // Kill the worker proxy (the gat job process) on the GPU node. The
  // daemon's per-channel supervisor redeploys it on the *same* node and
  // reports process_crash on the still-open relay; the script revives the
  // client, restores the committed state into the blank replacement and
  // replays — no exclusion, no re-placement.
  Outcome out = run_triple_plummer(
      {Shot{faultpoint::Point::step_evolve, 1, 0, false, "node0", "job"}});
  EXPECT_EQ(out.fired, 1);
  ASSERT_TRUE(out.completed) << out.error;
  EXPECT_GE(out.restarts, 1);  // a rollback+replay, but in place
  EXPECT_GE(out.supervisor_restarts, 1.0);
  EXPECT_EQ(out.digest, golden().digest);
  EXPECT_EQ(out.placement, golden().placement);
  EXPECT_LE(out.live, golden().live);
}

TEST(Faults, WorkerKillEscalatesToSupervisedRestart) {
  // Kill the *native worker* process, not its proxy. The proxy's loopback
  // pump sees the abnormal break, escalates (aborts its registry
  // connection and unwinds the relay), the registry broadcasts died, and
  // from there recovery is the same supervised in-place path.
  Outcome out = run_triple_plummer(
      {Shot{faultpoint::Point::step_evolve, 1, 0, false, "node0", "worker"}});
  EXPECT_EQ(out.fired, 1);
  ASSERT_TRUE(out.completed) << out.error;
  EXPECT_GE(out.restarts, 1);
  EXPECT_GE(out.supervisor_restarts, 1.0);
  EXPECT_EQ(out.digest, golden().digest);
  EXPECT_EQ(out.placement, golden().placement);
  EXPECT_LE(out.live, golden().live);
}

TEST(Faults, LinkFlapCompletesThroughRetriesWithoutRollback) {
  // Flap the WAN link for less than the outage grace budget. Safe calls
  // ride out the outage through hop retries plus idempotent resends; no
  // worker is declared dead, nothing rolls back, and the physics is
  // untouched — only the clock stretches.
  Outcome out = run_triple_plummer(
      {}, {}, AfterStep{1, [](sim::Network& net) {
                          net.flap_link("metro-wan", 2.0);
                        }});
  ASSERT_TRUE(out.completed) << out.error;
  EXPECT_EQ(out.restarts, 0);
  EXPECT_EQ(out.rollbacks, 0.0);
  EXPECT_GE(out.rpc_retries, 1.0);
  EXPECT_EQ(out.digest, golden().digest);
  EXPECT_EQ(out.placement, golden().placement);
}

TEST(Faults, ProxyKillMidStripedTransferDegradesAndRecovers) {
  // Large model: its state crosses the WAN striped over parallel streams.
  // After iteration 1, most of the link's streams fail (they stay failed),
  // so every later bulk transfer runs degraded on the survivors — and in
  // the middle of the degraded checkpoint capture the proxy is killed.
  // Both machineries must compose: degraded stripes for the bytes, the
  // supervised in-place restart for the process.
  auto enlarge = [](ExperimentSpec& spec) {
    spec.models[0].n = 1400;  // 7 doubles/particle: ~78 KiB, > the 64 KiB stripe threshold
  };
  Outcome baseline = run_triple_plummer({}, enlarge);
  ASSERT_TRUE(baseline.completed) << baseline.error;
  Outcome out = run_triple_plummer(
      {Shot{faultpoint::Point::ckpt_capture, 1, 0, false, "node0", "job"}},
      enlarge, AfterStep{1, [](sim::Network& net) {
                           // Stay failed for the rest of the run.
                           net.fail_streams("metro-wan", 6, 0.0);
                         }});
  ASSERT_TRUE(out.completed) << out.error;
  EXPECT_EQ(out.fired, 1);
  EXPECT_GE(out.degraded_iterations, 1.0);
  EXPECT_EQ(out.digest, baseline.digest);
  EXPECT_LE(out.live, baseline.live);
}

// ---------------------------------------------------------------------------
// Deferred acks: a bridge step returns with its bottom-kick and mass-update
// acks still in flight, and the checkpoint collects them (Bridge::settle)
// before it commits. A death that lands in that window must roll back like
// any other, and without checkpoints it must surface, not hang.
// ---------------------------------------------------------------------------

namespace {

struct ClassicOutcome {
  bool completed = false;
  bool worker_died = false;
  std::string error;
  int restarts = 0;
  int fired = 0;
  std::uint64_t digest = 0;
};

/// The classic embedded cluster (stars, gas, coupler, SE) autoplaced on the
/// 3-hop deep-WAN topology with the stars on its core cluster and a
/// stellar update every step. With a shot, the stars' host crashes the
/// first time the run reaches it.
ClassicOutcome run_deep_wan_classic(
    bool checkpointing,
    std::optional<std::pair<faultpoint::Point, int>> shot = std::nullopt) {
  util::Config config = source_file("examples/topologies/deep-wan-3hop.ini");
  scenario::Options options;
  options.n_stars = 64;
  options.n_gas = 256;
  options.iterations = 3;
  options.se_every = 1;
  ExperimentSpec spec =
      scenario::classic_spec(scenario::Kind::autoplace, options);
  spec.checkpointing = checkpointing;
  // Off the client, so their host can die, and on the CPU kernel, so a
  // re-placed worker runs the same numerics wherever it lands.
  const std::string victim = "core0";
  spec.models[0].place = "core-cluster/" + victim;
  spec.models[0].kernel = "phigrape";

  JungleTestbed bed(config);
  ClassicOutcome out;
  faultpoint::ScopedHook guard([&](const faultpoint::Context& ctx) {
    if (!shot || out.fired > 0) return;
    if (ctx.point != shot->first || ctx.iteration != shot->second) return;
    ++out.fired;
    bed.network().host(victim).crash();
  });
  try {
    Result result = run_experiment(bed, spec);
    out.completed = true;
    out.restarts = result.restarts;
    out.digest = final_digest(result);
  } catch (const WorkerDiedError& death) {
    out.worker_died = true;
    out.error = death.what();
  } catch (const std::exception& error) {
    out.error = error.what();
  }
  return out;
}

}  // namespace

TEST(Faults, StarsCrashWithAcksInFlightRollsBackOnGolden) {
  // At the first capture the step's bottom kicks and its stellar mass
  // update are unacked. The stars' host dies there: the checkpoint must
  // not commit, and the rollback to the initial conditions replays onto
  // the fault-free digest.
  ClassicOutcome gold = run_deep_wan_classic(true);
  ASSERT_TRUE(gold.completed) << gold.error;
  ClassicOutcome out = run_deep_wan_classic(
      true, std::pair{faultpoint::Point::ckpt_capture, 0});
  EXPECT_EQ(out.fired, 1);
  ASSERT_TRUE(out.completed) << out.error;
  EXPECT_GE(out.restarts, 1);
  EXPECT_EQ(out.digest, gold.digest);
}

TEST(Faults, StarsCrashWithAcksInFlightWithoutCheckpointsThrows) {
  // No checkpoints: the step after the crash finds the stars' acks poisoned
  // and the run ends with the worker's death instead of waiting forever.
  ClassicOutcome out = run_deep_wan_classic(
      false, std::pair{faultpoint::Point::step_top_kick, 1});
  EXPECT_EQ(out.fired, 1);
  EXPECT_FALSE(out.completed);
  EXPECT_TRUE(out.worker_died) << out.error;
}
