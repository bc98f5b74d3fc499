#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace jungle::sim {

/// Thrown *into* a simulated process when it is killed (host crash or
/// simulation shutdown). Unwinds the process body; never escapes run().
/// Deliberately not derived from jungle::Error so that subsystem catch
/// blocks (`catch (const Error&)`) do not swallow a kill.
struct ProcessKilled {};

class Simulation;

/// Identifies a spawned process. Index into the simulation's table.
using ProcessId = std::uint32_t;

/// A virtual-time condition variable. Processes block on it with wait();
/// any code (process or event callback) wakes them with notify_one/all.
/// Follows CP.42: every wait has an explicit condition at the call site.
class Signal {
 public:
  explicit Signal(Simulation& sim) : sim_(&sim) {}
  Signal(const Signal&) = delete;
  Signal& operator=(const Signal&) = delete;

  /// Block the calling process until notified. Only valid inside a process.
  void wait();

  /// Block until notified or until `timeout_s` of virtual time passes.
  /// Returns true if notified, false on timeout.
  bool wait_for(double timeout_s);

  void notify_one();
  void notify_all();

 private:
  Simulation* sim_;
  std::vector<ProcessId> waiters_;
};

/// Deterministic discrete-event simulator with cooperative processes.
///
/// Exactly one context holds the "baton" at any moment: the run() caller or
/// one simulated process. Whoever gives it up — a process that blocks or
/// finishes, or run() starting — pops the event queue itself, runs due
/// callbacks inline and hands the baton straight to the process owning the
/// next live wake (itself included, with no context switch). Events at equal
/// times fire in scheduling order, so runs are replayable. Each process is a
/// stackful fiber on the thread that calls run(), which lets protocol code
/// (RPC, MPI, sockets) be written as straight-line blocking code (CP.4:
/// think in tasks); a handoff is a user-space context switch.
class Simulation {
 public:
  Simulation();
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current virtual time in seconds.
  double now() const noexcept { return now_; }

  /// Create a process; it becomes runnable at the current time (or at
  /// `start_at` if given). The body runs on its own stack, as a fiber of the
  /// run() caller's thread.
  ProcessId spawn(std::string name, std::function<void()> body);
  ProcessId spawn_at(double start_at, std::string name,
                     std::function<void()> body);

  /// Schedule a non-blocking callback (timers, message delivery). Callbacks
  /// run on the stack of whichever context holds the baton, but always in
  /// the run() caller's context: in_process() is false, current_name() is
  /// empty and the trace span is the caller's. They must not call blocking
  /// primitives.
  void at(double time, std::function<void()> callback);
  void after(double delay, std::function<void()> callback);

  /// Drive the simulation until no events remain (or `until` is reached;
  /// an `until` in the past leaves the clock alone). Rethrows the first
  /// uncaught exception from a process or callback. Throws when called from
  /// a process or a callback.
  void run();
  void run_until(double until);

  /// Block the calling process for `seconds` of virtual time.
  void sleep(double seconds);

  /// Yield the baton, becoming runnable again at the same timestamp (after
  /// already-scheduled same-time events).
  void yield_now();

  /// Kill a process: ProcessKilled is raised at its next (or current)
  /// blocking point. Killing a finished process is a no-op.
  void kill(ProcessId pid);

  /// Kill the first live process whose name is `prefix` + `segment`, or
  /// `prefix` + `segment` + ":...". Segment matching (rather than substring)
  /// keeps victims crisp: "amuse-daemon" never matches
  /// "amuse-daemon-client", while "worker" matches "worker:phigrape".
  /// Returns false when nothing matched (the process-level analog of a
  /// crash injection against an already-dead host).
  bool kill_matching(const std::string& prefix, const std::string& segment);

  /// True when the *calling* process has been killed and is (or should be)
  /// unwinding. Protocol teardown consults this to pick the abnormal path:
  /// a killed process gets no goodbye frames — its peers must find out the
  /// hard way, exactly like a SIGKILLed daemon on a real machine.
  bool kill_pending() const noexcept;

  /// Observe kills injected with kill()/kill_matching() (not the mass
  /// teardown of shutdown(), which owners sequence explicitly). Fired after
  /// the kill is marked, before a self-kill unwinds. Return false to
  /// unregister (defunct watchers prune themselves).
  void on_kill(std::function<bool(ProcessId)> observer);

  /// Run `callback` (as a scheduled event) when `pid` finishes — the
  /// supervision primitive: no polling, so an idle simulation still drains.
  /// Fires immediately (well: at the current timestamp) if `pid` already
  /// finished.
  void watch_exit(ProcessId pid, std::function<void()> callback);

  /// Kill and fully unwind every live process *now*. Owners of a
  /// Simulation must call this before destroying objects that process
  /// unwind paths may still touch (sockets, networks, daemons): the
  /// destructor also unwinds, but by then sibling members are gone.
  /// Throws when called from a process or a callback.
  void shutdown();

  /// True while called from inside a simulated process.
  static bool in_process() noexcept;

  /// Name of the currently running process ("" outside processes).
  std::string current_name() const;
  ProcessId current_pid() const;

  bool finished(ProcessId pid) const;

  /// Number of processes that have not finished.
  std::size_t live_processes() const;
  /// Names of the unfinished processes — the resource-leak diagnostics the
  /// fault explorer prints when a recovery leaves orphans behind.
  std::vector<std::string> live_process_names() const;

 private:
  friend class Signal;

  enum class PState { created, runnable, blocked, finished };

  // A saved execution context: the registers, stack and per-context thread
  // state of a process fiber or of the run() caller. Defined in the source
  // file, which alone deals in ucontext and sanitizer hooks.
  struct Context;
  using ContextPtr = std::unique_ptr<Context>;

  struct Pcb {
    std::string name;
    ContextPtr context;        // its fiber; released once it finishes
    bool kill = false;         // raise ProcessKilled at next wait
    std::uint64_t wake_gen = 0;  // invalidates stale wake events
    PState state = PState::created;
    std::function<void()> body;
    std::vector<std::function<void()>> exit_watchers;
  };

  struct Event {
    double time;
    std::uint64_t seq;
    // Either a callback, or a process wake (callback empty).
    std::function<void()> callback;
    ProcessId pid = 0;
    std::uint64_t wake_gen = 0;
    bool is_wake = false;
  };

  struct EventOrder {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  // Schedule a wake event for `pid` at `time`, tagged with its current wake
  // generation. The generation is bumped when the process resumes, so every
  // other wake still pending for the same block turns stale.
  void schedule_wake(double time, ProcessId pid);

  // Block the current process until a wake of its generation fires,
  // scheduling one at `wake_at` first if given. Returns at once (scheduling
  // nothing) when the process is being killed; throws ProcessKilled when a
  // kill arrives while blocked.
  void block_current(std::optional<double> wake_at = std::nullopt);

  // Called by the baton holder: pops events in (time, seq) order, running
  // due callbacks inline, until it finds a live wake. Returns that process,
  // or nullptr when the baton goes back to the run() caller: queue drained,
  // `until` reached, a failure to rethrow, or no run() driving (shutdown).
  Pcb* next_holder();
  // Run an event callback in the run() caller's context; returns what it
  // threw, for run_until() to rethrow.
  std::exception_ptr run_callback(const std::function<void()>& callback);

  // Give the baton to `next` (nullptr: the run() caller) and suspend the
  // running context until it gets the baton back.
  void switch_to(Pcb* next);
  // Give the baton away from a finished process, never to return. Its
  // context is released after the switch, by whoever resumes.
  [[noreturn]] void exit_to(Pcb* next);
  // First thing a context does on getting the baton: finish the switch and
  // release the context of a process that finished on the way.
  void land(Context& self);
  Context& context_of(Pcb* pcb) const;

  // Body of every process fiber: runs the process, then passes the baton on.
  [[noreturn]] void trampoline();
  static void fiber_entry();
  void notify_kill_observers(ProcessId pid);

  ContextPtr driver_;                // the run() or shutdown() caller
  Pcb* running_ = nullptr;           // baton holder (nullptr: the driver)
  Context* leaving_ = nullptr;       // context of the switch in progress
  ContextPtr finished_;              // a finished fiber, released on landing
  bool driving_ = false;             // inside run_until()
  double until_ = 0.0;               // horizon of the current run_until()
  obs::trace::SpanId driver_span_ = 0;  // run()'s caller's span, for callbacks
  std::exception_ptr error_;         // first failure of the current run

  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventOrder> events_;
  std::vector<std::unique_ptr<Pcb>> processes_;
  std::vector<std::function<bool(ProcessId)>> kill_observers_;
  bool shutting_down_ = false;
};

}  // namespace jungle::sim
