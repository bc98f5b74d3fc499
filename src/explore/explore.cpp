#include "explore/explore.hpp"

#include <charconv>
#include <cmath>
#include <sstream>
#include <string_view>
#include <utility>

#include "sim/network.hpp"
#include "util/error.hpp"
#include "util/fnv.hpp"

namespace jungle::explore {

namespace faultpoint = amuse::faultpoint;

// ---------------------------------------------------------------------------
// Schedule format
// ---------------------------------------------------------------------------

namespace {

/// The schedule format's name of each victim kind.
constexpr std::pair<Injection::Kind, const char*> kKindNames[] = {
    {Injection::Kind::crash, "crash"},   {Injection::Kind::link, "link"},
    {Injection::Kind::daemon, "daemon"}, {Injection::Kind::proxy, "proxy"},
    {Injection::Kind::worker, "worker"}, {Injection::Kind::timer, "timer"},
};

const char* kind_name(Injection::Kind kind) {
  for (const auto& [each, name] : kKindNames) {
    if (each == kind) return name;
  }
  return "crash";
}

/// Timer-tier skew: off the protocol-point grid on purpose. Not a multiple
/// of the 0.05 s hop-retry tick, so the crash lands *between* whatever the
/// addressed point and its successor are doing.
constexpr double kTimerSkew = 0.075;

/// The whole field must be a decimal integer (a recovery point's
/// iteration is -1): "1x" and "" are rejected, not read as 1 and 0.
bool parse_int(std::string_view text, int& value) {
  auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  return error == std::errc() && end == text.data() + text.size();
}

void mix_string(util::Fnv1a& hash, const std::string& text) {
  hash.mix_bytes(text.data(), text.size());
  hash.mix_bytes("\0", 1);  // delimit: ("ab","c") != ("a","bc")
}

}  // namespace

bool parse_kind(const std::string& text, Injection::Kind& kind) {
  for (const auto& [each, name] : kKindNames) {
    if (text == name) {
      kind = each;
      return true;
    }
  }
  return false;
}

std::string format_schedule(const Schedule& schedule) {
  std::ostringstream out;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Injection& inj = schedule[i];
    if (i) out << ";";
    out << faultpoint::name(inj.point) << "@" << inj.iteration << "#"
        << inj.occurrence << "=" << kind_name(inj.kind) << ":" << inj.victim;
  }
  return out.str();
}

Schedule parse_schedule(const std::string& text) {
  Schedule schedule;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ';')) {
    if (item.empty()) continue;
    auto fail = [&](const std::string& why) {
      throw ConfigError("bad schedule entry \"" + item + "\": " + why);
    };
    auto at = item.find('@');
    auto hash = item.find('#', at == std::string::npos ? 0 : at);
    auto eq = item.find('=', hash == std::string::npos ? 0 : hash);
    auto colon = item.find(':', eq == std::string::npos ? 0 : eq);
    if (at == std::string::npos || hash == std::string::npos ||
        eq == std::string::npos || colon == std::string::npos)
      fail("expected point@iteration#occurrence=kind:victim");
    Injection inj;
    if (!faultpoint::parse(item.substr(0, at), inj.point))
      fail("unknown fault point \"" + item.substr(0, at) + "\"");
    std::string_view fields(item);
    if (!parse_int(fields.substr(at + 1, hash - at - 1), inj.iteration) ||
        !parse_int(fields.substr(hash + 1, eq - hash - 1), inj.occurrence))
      fail("iteration/occurrence must be integers");
    std::string kind = item.substr(eq + 1, colon - eq - 1);
    if (!parse_kind(kind, inj.kind))
      fail("kind must be crash, link, daemon, proxy, worker or timer, "
           "got \"" + kind + "\"");
    inj.victim = item.substr(colon + 1);
    if (inj.victim.empty()) fail("empty victim");
    schedule.push_back(std::move(inj));
  }
  return schedule;
}

// ---------------------------------------------------------------------------
// ScheduleInjector
// ---------------------------------------------------------------------------

ScheduleInjector::ScheduleInjector(sim::Network& net, Schedule schedule)
    : net_(&net), schedule_(std::move(schedule)) {}

void ScheduleInjector::fire(const Injection& injection) {
  sim::Host* victim = injection.kind == Injection::Kind::link
                          ? nullptr
                          : net_->find_host(injection.victim);
  switch (injection.kind) {
    case Injection::Kind::crash:
      if (victim && victim->is_up()) victim->crash();
      break;
    case Injection::Kind::link:
      net_->set_link_down(injection.victim, true);
      break;
    // Process-tier victims: kill one process, leave the machine up. A miss
    // (no such process on this host right now) is a deliberate no-op — the
    // DFS addresses every host at every point, and most are empty.
    case Injection::Kind::daemon:
      if (victim && victim->is_up()) victim->kill_process("amuse-daemon");
      break;
    case Injection::Kind::proxy:
      if (victim && victim->is_up()) victim->kill_process("job");
      break;
    case Injection::Kind::worker:
      if (victim && victim->is_up()) victim->kill_process("worker");
      break;
    case Injection::Kind::timer:
      // Crash *between* protocol points: schedule it a fixed skew after
      // this one instead of synchronously at it.
      if (victim && victim->is_up()) {
        net_->simulation().after(kTimerSkew, [victim] {
          if (victim->is_up()) victim->crash();
        });
      }
      break;
  }
}

amuse::faultpoint::Hook ScheduleInjector::hook() {
  return [this](const faultpoint::Context& ctx) {
    if (ctx.point == faultpoint::Point::ckpt_committed)
      commits_.emplace_back(ctx.iteration + 1, ctx.digest);
    int occurrence = counts_[{static_cast<int>(ctx.point), ctx.iteration}]++;
    trace_.push_back(TraceEntry{ctx.point, ctx.iteration, occurrence, fired_});
    // Injections fire in schedule order: the next pending one whose address
    // matches this visit. Out-of-order entries simply never fire (reported
    // via fired(), so the explorer can tell a stale schedule from a hit).
    if (static_cast<std::size_t>(fired_) < schedule_.size()) {
      const Injection& next = schedule_[static_cast<std::size_t>(fired_)];
      if (next.point == ctx.point && next.iteration == ctx.iteration &&
          next.occurrence == occurrence) {
        ++fired_;
        trace_.back().fired = fired_;
        fire(next);
      }
    }
  };
}

// ---------------------------------------------------------------------------
// Explorer
// ---------------------------------------------------------------------------

Explorer::Explorer(util::Config config, Options options)
    : config_(std::move(config)), options_(options) {
  spec_ = amuse::experiment::ExperimentSpec::from_config(config_);
  // The explorer supplies all faults itself, on top of a checkpointing run.
  spec_.checkpointing = true;
  if (options_.iterations > 0) spec_.iterations = options_.iterations;
  spec_.validate();

  // Candidate victims: every host except the client machine (crashing the
  // script is game over, not a protocol scenario) and every WAN link. LAN
  // links and the loopback stay up — they model a machine's own wiring.
  // The process tier (PR 8): the daemon lives on the client machine — that
  // kill is survivable, so the client IS a daemon-victim; proxy/worker
  // kills address the non-client hosts (a miss is a no-op); timer crashes
  // address the same hosts as the crash tier, just off the point grid.
  amuse::experiment::JungleTestbed bed(config_);
  std::string client = bed.client_host().name();
  auto add = [&](Injection::Kind kind, const std::string& victim) {
    if (!options_.victim_kinds.empty() &&
        options_.victim_kinds.count(kind) == 0) {
      return;
    }
    Injection inj;
    inj.kind = kind;
    inj.victim = victim;
    victims_.push_back(std::move(inj));
  };
  add(Injection::Kind::daemon, client);
  for (const std::string& host : bed.network().host_names()) {
    if (host == client) continue;
    add(Injection::Kind::crash, host);
    add(Injection::Kind::timer, host);
    add(Injection::Kind::proxy, host);
    add(Injection::Kind::worker, host);
  }
  for (const auto& link : bed.network().traffic_report()) {
    if (link.wan()) add(Injection::Kind::link, link.name);
  }
}

RunReport Explorer::run_schedule(const Schedule& schedule) {
  amuse::experiment::JungleTestbed bed(config_);
  ScheduleInjector injector(bed.network(), schedule);
  RunReport report;
  {
    faultpoint::ScopedHook guard(injector.hook());
    try {
      amuse::experiment::Result result =
          amuse::experiment::run_experiment(bed, spec_);
      report.completed = true;
      report.restarts = result.restarts;
      report.placement = result.placement;
      for (const auto& model : result.models) {
        report.energy += model.kinetic + model.potential + model.thermal;
      }
      // Bit-for-bit comparison against the golden run.
      report.final_digest = amuse::experiment::final_digest(result);
    } catch (const std::exception& error) {
      report.error = error.what();
    }
  }
  report.fired = injector.fired();
  report.trace = injector.trace();
  report.commits = injector.commits();
  report.live_processes = bed.simulation().live_processes();
  report.live_names = bed.simulation().live_process_names();

  // Interleaving-equivalence hash: two schedules that killed the same
  // victims around the same iterations and recovered onto the same
  // placement leave the run in the same state — whatever protocol point the
  // fault hit on the way. Extensions are explored from one representative.
  util::Fnv1a hash;
  for (int i = 0; i < report.fired; ++i) {
    const Injection& inj = schedule[static_cast<std::size_t>(i)];
    hash.mix(inj.iteration);
    hash.mix(static_cast<int>(inj.kind));
    mix_string(hash, inj.victim);
  }
  mix_string(hash, report.placement);
  hash.mix(report.restarts);
  report.resume_hash = hash.hash;
  return report;
}

const RunReport& Explorer::golden() {
  if (!have_golden_) {
    golden_ = run_schedule({});
    if (!golden_.completed)
      throw CodeError("golden (fault-free) run failed: " + golden_.error);
    have_golden_ = true;
  }
  return golden_;
}

/// Energy drift a recovered run may show, relative to the golden run's total
/// energy.
constexpr double kEnergyTolerance = 1e-8;

void Explorer::check(const Schedule& schedule, const RunReport& report,
                     std::vector<Violation>& violations) {
  golden();
  const std::string text = format_schedule(schedule);
  auto flag = [&](const std::string& what) {
    violations.push_back(Violation{text, what});
  };
  if (!report.completed) {
    flag("run did not complete: " + report.error);
    return;
  }
  // Every committed checkpoint must land on the golden bits for its epoch —
  // including epochs re-committed after a rollback.
  for (const auto& [epoch, digest] : report.commits) {
    for (const auto& [gold_epoch, gold_digest] : golden_.commits) {
      if (gold_epoch != epoch) continue;
      if (gold_digest != digest)
        flag("checkpoint digest diverged from golden run at epoch " +
             std::to_string(epoch));
      break;
    }
  }
  if (report.final_digest != golden_.final_digest)
    flag("final particle state diverged from golden run");
  double drift = std::fabs(report.energy - golden_.energy);
  double scale = std::fabs(golden_.energy);
  if (scale < 1.0) scale = 1.0;
  if (drift > kEnergyTolerance * scale)
    flag("energy drift " + std::to_string(drift) + " exceeds tolerance");
  // Crashed hosts take their processes down, so fewer survivors than the
  // golden run is expected; *more* means recovery leaked a worker, socket
  // loop or daemon relay.
  if (report.live_processes > golden_.live_processes) {
    // Name the leaks: whatever survives here but not in the golden run.
    std::vector<std::string> extra = report.live_names;
    for (const std::string& name : golden_.live_names) {
      auto it = std::find(extra.begin(), extra.end(), name);
      if (it != extra.end()) extra.erase(it);
    }
    std::string names;
    for (const std::string& name : extra) {
      if (!names.empty()) names += ", ";
      names += name;
    }
    flag("leaked " +
         std::to_string(report.live_processes - golden_.live_processes) +
         " simulated process(es) after recovery: " + names);
  }
}

bool Explorer::budget_left(const Summary& summary) const {
  return options_.max_schedules <= 0 ||
         summary.schedules < options_.max_schedules;
}

void Explorer::dfs(const Schedule& base,
                   const std::vector<ScheduleInjector::TraceEntry>& frontier,
                   Summary& summary) {
  for (const auto& entry : frontier) {
    // Only extend past the point where the base schedule finished firing:
    // earlier points belong to runs already explored at shallower depth.
    if (entry.fired != static_cast<int>(base.size())) continue;
    for (const Injection& victim : victims_) {
      // Re-killing a dead victim is a no-op run: skip it statically. The
      // process tier is exempt — a supervised restart brings the victim
      // back, and killing it *again* (the double-fault mid-backoff case)
      // is exactly what this tier is here to exercise.
      bool repeatable = victim.kind == Injection::Kind::daemon ||
                        victim.kind == Injection::Kind::proxy ||
                        victim.kind == Injection::Kind::worker;
      bool already = false;
      if (!repeatable) {
        for (const Injection& prior : base)
          already |=
              prior.kind == victim.kind && prior.victim == victim.victim;
      }
      if (already) continue;
      if (!budget_left(summary)) return;

      Schedule schedule = base;
      Injection inj = victim;
      inj.point = entry.point;
      inj.iteration = entry.iteration;
      inj.occurrence = entry.occurrence;
      schedule.push_back(inj);

      RunReport report = run_schedule(schedule);
      ++summary.schedules;
      check(schedule, report, summary.violations);

      if (static_cast<int>(schedule.size()) >= options_.max_faults) continue;
      if (report.fired != static_cast<int>(schedule.size())) continue;
      if (!seen_.insert(report.resume_hash).second) {
        ++summary.pruned;
        continue;
      }
      dfs(schedule, report.trace, summary);
    }
  }
}

Explorer::Summary Explorer::explore() {
  Summary summary;
  const RunReport& gold = golden();
  seen_.clear();
  seen_.insert(gold.resume_hash);
  dfs({}, gold.trace, summary);
  return summary;
}

}  // namespace jungle::explore
