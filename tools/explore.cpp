// explore — fault-schedule explorer CLI.
//
//   explore <experiment.ini> [--max-faults N] [--max-schedules N]
//           [--iterations N] [--fail-out FILE]
//           [--victims host,daemon,proxy,worker,timer,link]
//   explore <experiment.ini> --replay "<schedule>"
//
// Enumerates fault schedules against the experiment's checkpoint /
// re-place / rollback protocol and verifies the recovery invariants after
// every run (see DESIGN.md, "Fault model & schedule exploration"). Exits 1
// when any schedule violates an invariant; each violating schedule is a
// one-line repro for --replay. --fail-out appends violating schedules to a
// file (one per line) for CI artifact upload. --victims restricts the
// victim kinds (default: all); "host" is the whole-machine crash tier,
// written "crash" in schedules, and a list without "link" keeps every WAN
// link up. A file that cannot be read or parsed exits 2.

#include <charconv>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "explore/explore.hpp"
#include "util/error.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " <experiment.ini> [--max-faults N] [--max-schedules N]"
               " [--iterations N] [--fail-out FILE]"
               " [--victims host,daemon,proxy,worker,timer,link]"
               " [--replay \"<schedule>\"]\n";
  return 2;
}

/// --victims value: comma-separated kinds in the schedule format's names,
/// plus "host" for the whole-machine crash tier (Kind::crash).
std::set<jungle::explore::Injection::Kind> parse_victims(
    const std::string& text) {
  std::set<jungle::explore::Injection::Kind> kinds;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (item.empty()) continue;
    jungle::explore::Injection::Kind kind;
    if (!jungle::explore::parse_kind(item == "host" ? "crash" : item, kind)) {
      std::cerr << "unknown victim kind \"" << item
                << "\" (host, daemon, proxy, worker, timer, link)\n";
      std::exit(2);
    }
    kinds.insert(kind);
  }
  return kinds;
}

void describe(const jungle::explore::RunReport& report) {
  std::cout << "  completed:      " << (report.completed ? "yes" : "no")
            << (report.completed ? "" : " (" + report.error + ")") << "\n"
            << "  faults fired:   " << report.fired << "\n"
            << "  recoveries:     " << report.restarts << "\n"
            << "  final digest:   " << std::hex << report.final_digest
            << std::dec << "\n"
            << "  live processes: " << report.live_processes << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string ini_path;
  std::string replay;
  std::string fail_out;
  jungle::explore::Options options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (++i >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[i];
    };
    // The whole value must be a decimal integer: "abc" and "3x" are errors.
    auto number = [&]() -> int {
      std::string text = value();
      int parsed = 0;
      auto [end, error] =
          std::from_chars(text.data(), text.data() + text.size(), parsed);
      if (error != std::errc() || end != text.data() + text.size()) {
        std::cerr << arg << " needs an integer, not \"" << text << "\"\n";
        std::exit(usage(argv[0]));
      }
      return parsed;
    };
    if (arg == "--max-faults")
      options.max_faults = number();
    else if (arg == "--max-schedules")
      options.max_schedules = number();
    else if (arg == "--iterations")
      options.iterations = number();
    else if (arg == "--victims")
      options.victim_kinds = parse_victims(value());
    else if (arg == "--replay")
      replay = value();
    else if (arg == "--fail-out")
      fail_out = value();
    else if (arg == "--help" || arg == "-h")
      return usage(argv[0]);
    else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option " << arg << "\n";
      return usage(argv[0]);
    } else if (ini_path.empty())
      ini_path = arg;
    else
      return usage(argv[0]);
  }
  if (ini_path.empty()) return usage(argv[0]);

  try {
    jungle::explore::Explorer explorer(jungle::util::Config::load(ini_path),
                                       options);

    if (!replay.empty()) {
      // One deterministic run of the given schedule, checked against the
      // golden run — the repro path for explorer- or CI-found violations.
      jungle::explore::Schedule schedule =
          jungle::explore::parse_schedule(replay);
      jungle::explore::RunReport report = explorer.run_schedule(schedule);
      std::cout << "replay " << jungle::explore::format_schedule(schedule)
                << "\n";
      describe(report);
      std::vector<jungle::explore::Violation> violations;
      explorer.check(schedule, report, violations);
      for (const auto& violation : violations)
        std::cout << "VIOLATION: " << violation.what << "\n";
      return violations.empty() ? 0 : 1;
    }

    jungle::explore::Explorer::Summary summary = explorer.explore();
    std::cout << "golden run:\n";
    describe(explorer.golden());
    std::cout << "explored " << summary.schedules << " fault schedule(s), "
              << summary.pruned << " pruned as equivalent, "
              << summary.violations.size() << " invariant violation(s)\n";
    if (!summary.violations.empty()) {
      std::ofstream fail;
      if (!fail_out.empty()) fail.open(fail_out, std::ios::app);
      for (const auto& violation : summary.violations) {
        std::cout << "VIOLATION: " << violation.what << "\n"
                  << "  replay: --replay \"" << violation.schedule << "\"\n";
        if (fail.is_open())
          fail << violation.schedule << "  # " << violation.what << "\n";
      }
      return 1;
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "explore: " << error.what() << "\n";
    return 2;
  }
}
