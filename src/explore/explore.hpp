#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "amuse/experiment.hpp"
#include "amuse/faultpoint.hpp"
#include "util/config.hpp"

namespace jungle::explore {

/// Systematic fault-schedule exploration over the deterministic simulator
/// (the SimGrid DFS-explorer idea applied to our checkpoint / re-place /
/// rollback protocol). A *schedule* is a list of injections, each addressed
/// by the (protocol point, bridge iteration, occurrence) tuple at which it
/// fires and naming a victim (a host to crash or a WAN link to cut). The
/// explorer runs an experiment once fault-free (the golden run), then
/// enumerates schedules depth-first — every fault point of the golden run
/// times every victim, extended through the fault points recovery itself
/// exposes (death during checkpoint commit, a second death while re-placing
/// the first, a link cut racing a re-place, a frontend dying mid-rollback)
/// — and checks after every run that recovery landed the physics bit-for-bit
/// on the golden trajectory, energy drift stays bounded, and no simulated
/// process leaked. Runs are deterministic, so any schedule is a one-line
/// repro (`explore --replay "<schedule>"`).

/// One injected fault.
struct Injection {
  amuse::faultpoint::Point point = amuse::faultpoint::Point::step_top_kick;
  /// Bridge-step index the protocol was working on (-1 for points reached
  /// outside a specific step, e.g. recovery internals).
  int iteration = 0;
  /// n-th time the run reaches (point, iteration); replays re-visit the
  /// same point after a rollback, so the occurrence index disambiguates.
  int occurrence = 0;
  /// Victim tiers (PR 8 added the process-level and timer tiers):
  ///   crash  — whole host down (the PR 2 scenario)
  ///   link   — WAN link cut, stays down
  ///   daemon — kill the amuse-daemon process on the host, machine stays up
  ///   proxy  — kill the worker-proxy job process on the host
  ///   worker — kill the native worker process on the host
  ///   timer  — host crash, but *between* protocol points: fires a fixed
  ///            skew after the addressed point instead of synchronously at
  ///            it, exercising the windows the 12 points straddle.
  enum class Kind { crash, link, daemon, proxy, worker, timer };
  Kind kind = Kind::crash;
  /// Host name (crash/daemon/proxy/worker/timer) or WAN link name (link).
  std::string victim;
};

using Schedule = std::vector<Injection>;

/// One-line replay format:
///   point@iteration#occurrence=kind:victim[;...]
/// e.g. "ckpt.commit@1#0=crash:node0;recover.replace@-1#0=link:metro-wan"
std::string format_schedule(const Schedule& schedule);
Schedule parse_schedule(const std::string& text);  // throws ConfigError
/// The format's name of a victim kind ("crash", "link", "daemon", ...);
/// false when `text` names none.
bool parse_kind(const std::string& text, Injection::Kind& kind);

/// Fault-point hook that fires a schedule and records the trace of every
/// fault point the run reached (the DFS frontier for deeper schedules).
/// Install via faultpoint::ScopedHook for the duration of one run.
class ScheduleInjector {
 public:
  ScheduleInjector(sim::Network& net, Schedule schedule);

  amuse::faultpoint::Hook hook();

  struct TraceEntry {
    amuse::faultpoint::Point point;
    int iteration = 0;
    int occurrence = 0;
    /// Injections already fired when this point was reached — extensions
    /// of a schedule only make sense at points past its last injection.
    int fired = 0;
  };

  int fired() const noexcept { return fired_; }
  const std::vector<TraceEntry>& trace() const noexcept { return trace_; }
  /// Digest of the committed graph checkpoint per epoch, in commit order.
  /// An epoch re-committed after a rollback must re-land on the same bits.
  const std::vector<std::pair<int, std::uint64_t>>& commits() const noexcept {
    return commits_;
  }

 private:
  void fire(const Injection& injection);

  sim::Network* net_;
  Schedule schedule_;
  int fired_ = 0;
  std::map<std::pair<int, int>, int> counts_;  // (point, iteration) -> seen
  std::vector<TraceEntry> trace_;
  std::vector<std::pair<int, std::uint64_t>> commits_;
};

/// Everything one deterministic run tells the explorer.
struct RunReport {
  bool completed = false;  // ran all iterations and shut down cleanly
  std::string error;       // exception text when !completed
  int fired = 0;           // injections that actually fired
  int restarts = 0;
  std::vector<std::pair<int, std::uint64_t>> commits;  // epoch -> digest
  std::uint64_t final_digest = 0;  // digest over the final model states
  double energy = 0.0;             // sum of model energies at the end
  std::size_t live_processes = 0;  // simulated processes still alive
  std::vector<std::string> live_names;  // their names (leak diagnostics)
  std::string placement;           // placement that finished the run
  std::vector<ScheduleInjector::TraceEntry> trace;
  /// State hash for DFS pruning: schedules that leave the jungle in an
  /// equivalent state (same victims down per iteration, same surviving
  /// placement, same recovery count) are explored deeper only once.
  std::uint64_t resume_hash = 0;
};

struct Violation {
  std::string schedule;  // format_schedule() of the failing run
  std::string what;
};

struct Options {
  int max_faults = 2;      // DFS depth bound
  int max_schedules = 0;   // stop after this many runs (0 = unbounded)
  int iterations = 0;      // override the spec's iteration count (0 = keep)
  /// Restrict the victim set to these kinds (empty = every kind). The CLI
  /// spells Kind::crash "host".
  std::set<Injection::Kind> victim_kinds;
};

class Explorer {
 public:
  /// `config` is a full experiment INI (topology + resources + graph),
  /// e.g. examples/experiments/triple-plummer.ini.
  Explorer(util::Config config, Options options);

  /// One deterministic run under `schedule` on a fresh testbed.
  RunReport run_schedule(const Schedule& schedule);

  struct Summary {
    int schedules = 0;  // fault schedules run (golden run not counted)
    int pruned = 0;     // extensions skipped via state-hash pruning
    std::vector<Violation> violations;
  };

  /// Golden run + DFS enumeration. Throws CodeError when the golden run
  /// itself fails (the explorer needs a healthy baseline).
  Summary explore();

  /// Check one report against the golden run's invariants; appends to
  /// `violations` when the run broke one. Runs the golden run on demand.
  void check(const Schedule& schedule, const RunReport& report,
             std::vector<Violation>& violations);

  const RunReport& golden();
  const std::vector<Injection>& candidate_victims() const noexcept {
    return victims_;
  }

 private:
  void dfs(const Schedule& base,
           const std::vector<ScheduleInjector::TraceEntry>& frontier,
           Summary& summary);
  bool budget_left(const Summary& summary) const;

  util::Config config_;
  Options options_;
  amuse::experiment::ExperimentSpec spec_;
  std::vector<Injection> victims_;  // point/iteration/occurrence unset
  bool have_golden_ = false;
  RunReport golden_;
  std::set<std::uint64_t> seen_;
};

}  // namespace jungle::explore
