#include "sim/simulation.hpp"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <cxxabi.h>
#include <limits>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

namespace jungle::sim {

namespace {
// Which process (if any) is executing on this thread. Lets blocking
// primitives find their context without passing handles everywhere. Every
// switch saves these for the context it leaves and restores the ones of the
// context it resumes.
thread_local Simulation* t_sim = nullptr;
thread_local ProcessId t_pid = 0;
thread_local bool t_in_process = false;

// A process stack: the glibc default for a thread's, reserved without swap
// backing so only touched pages count, above one PROT_NONE guard page.
constexpr std::size_t kStackSize = std::size_t{8} << 20;

// libstdc++'s per-thread exception state behind abi::__cxa_get_globals(): the
// stack of caught exceptions (what `throw;` rethrows) and the uncaught count
// (std::uncaught_exceptions()). The header leaves the type incomplete; this
// is its layout on every target without the ARM EABI unwinder.
struct EhGlobals {
  void* caught_exceptions;
  unsigned int uncaught_exceptions;
};

// The thread state that belongs to whichever context is running.
struct ThreadState {
  Simulation* sim = nullptr;
  ProcessId pid = 0;
  bool in_process = false;
  obs::trace::SpanId span = 0;
  EhGlobals eh{};
};

void save(ThreadState& state) {
  state.sim = t_sim;
  state.pid = t_pid;
  state.in_process = t_in_process;
  state.span = obs::trace::current_span();
  std::memcpy(&state.eh, abi::__cxa_get_globals(), sizeof state.eh);
}

void restore(const ThreadState& state) {
  t_sim = state.sim;
  t_pid = state.pid;
  t_in_process = state.in_process;
  obs::trace::exchange_current(state.span);
  std::memcpy(abi::__cxa_get_globals(), &state.eh, sizeof state.eh);
}
}  // namespace

// The driver's context (the run() or shutdown() caller) runs on the thread's
// own stack and only saves registers and thread state; a process fiber also
// owns its stack mapping.
struct Simulation::Context {
  Context() = default;
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;
  ~Context() {
    if (mapping != nullptr) munmap(mapping, mapping_size);
  }

  // Map a fresh fiber stack with its guard page.
  static ContextPtr fiber() {
    auto context = std::make_unique<Context>();
    const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    const std::size_t size = kStackSize + page;
    void* mapping = mmap(nullptr, size, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE |
                             MAP_STACK,
                         -1, 0);
    if (mapping == MAP_FAILED) {
      throw Error(std::string("Simulation: cannot map a process stack: ") +
                  std::strerror(errno));
    }
    context->mapping = mapping;
    context->mapping_size = size;
    if (mprotect(mapping, page, PROT_NONE) != 0) {
      throw Error(std::string("Simulation: cannot map a stack guard page: ") +
                  std::strerror(errno));
    }
    context->stack = static_cast<char*>(mapping) + page;
    context->stack_size = kStackSize;
    return context;
  }

  // Point the fiber at the start of a process body, for process `pid`.
  void launch(Simulation* sim, ProcessId pid) {
    state = ThreadState{sim, pid, /*in_process=*/true, 0, EhGlobals{}};
    fake_stack = nullptr;
    if (getcontext(&registers) != 0) throw Error("Simulation: getcontext");
    registers.uc_stack.ss_sp = stack;
    registers.uc_stack.ss_size = stack_size;
    registers.uc_link = nullptr;
    makecontext(&registers, &Simulation::fiber_entry, 0);
#if defined(__SANITIZE_ADDRESS__)
    // The mapping may sit where an unmapped fiber's stack was, whose frames
    // never returned to clear their redzones.
    ASAN_UNPOISON_MEMORY_REGION(stack, stack_size);
#endif
#if defined(__SANITIZE_THREAD__)
    tsan_fiber = __tsan_create_fiber(0);
#endif
  }

  // The process on this fiber finished and the fiber is no longer running.
  void retire() {
#if defined(__SANITIZE_THREAD__)
    __tsan_destroy_fiber(tsan_fiber);
    tsan_fiber = nullptr;
#endif
  }

  // Tell the sanitizers that this context is about to switch to `to`. A
  // dying context is never resumed, so ASan may drop its fake frames.
  void leave_for([[maybe_unused]] Context& to, [[maybe_unused]] bool dying) {
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_start_switch_fiber(dying ? nullptr : &fake_stack, to.stack,
                                   to.stack_size);
#endif
#if defined(__SANITIZE_THREAD__)
    if (mapping == nullptr) tsan_fiber = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(to.tsan_fiber, 0);
#endif
  }

  // Complete the switch into this context from `from`. ASan reports the
  // stack left behind, which is how the driver's stack becomes known.
  void arrive_from([[maybe_unused]] Context& from) {
#if defined(__SANITIZE_ADDRESS__)
    const void* bottom = nullptr;
    std::size_t size = 0;
    __sanitizer_finish_switch_fiber(fake_stack, &bottom, &size);
    if (from.mapping == nullptr) {
      from.stack = const_cast<void*>(bottom);
      from.stack_size = size;
    }
#endif
  }

  ucontext_t registers{};
  ThreadState state;
  void* mapping = nullptr;  // guard page + stack; null for the driver
  std::size_t mapping_size = 0;
  void* stack = nullptr;    // usable stack, above the guard page
  std::size_t stack_size = 0;
  void* fake_stack = nullptr;  // ASan's fake frames while suspended
  void* tsan_fiber = nullptr;
};

Simulation::Simulation() : driver_(std::make_unique<Context>()) {}

Simulation::~Simulation() {
  shutdown();
  shutting_down_ = true;
}

void Simulation::shutdown() {
  if (t_in_process) {
    throw Error("Simulation::shutdown() called from inside a process");
  }
  if (driving_) {
    throw Error("Simulation::shutdown() called from inside a callback");
  }
  // Index loop: a dying process's destructors may spawn further entries.
  // With no run() driving, a killed process dispatches nothing: it unwinds
  // and hands the baton straight back here.
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    Pcb& pcb = *processes_[i];
    if (pcb.state == PState::finished) continue;
    pcb.kill = true;
    switch_to(&pcb);
  }
}

bool Simulation::in_process() noexcept { return t_in_process; }

std::string Simulation::current_name() const {
  if (!t_in_process || t_sim != this) return "";
  return processes_.at(t_pid)->name;
}

ProcessId Simulation::current_pid() const {
  assert(t_in_process && t_sim == this);
  return t_pid;
}

bool Simulation::finished(ProcessId pid) const {
  return processes_.at(pid)->state == PState::finished;
}

std::size_t Simulation::live_processes() const {
  std::size_t live = 0;
  for (const auto& pcb : processes_) {
    if (pcb->state != PState::finished) ++live;
  }
  return live;
}

std::vector<std::string> Simulation::live_process_names() const {
  std::vector<std::string> names;
  for (const auto& pcb : processes_) {
    if (pcb->state != PState::finished) names.push_back(pcb->name);
  }
  return names;
}

ProcessId Simulation::spawn(std::string name, std::function<void()> body) {
  return spawn_at(now_, std::move(name), std::move(body));
}

ProcessId Simulation::spawn_at(double start_at, std::string name,
                               std::function<void()> body) {
  auto pcb = std::make_unique<Pcb>();
  pcb->name = std::move(name);
  pcb->body = std::move(body);
  auto pid = static_cast<ProcessId>(processes_.size());
  if (shutting_down_) {
    pcb->state = PState::finished;  // too late to run anything
    processes_.push_back(std::move(pcb));
    return pid;
  }
  pcb->context = Context::fiber();
  pcb->context->launch(this, pid);
  events_.push(Event{std::max(start_at, now_), next_seq_++, {}, pid,
                     pcb->wake_gen, true});
  processes_.push_back(std::move(pcb));
  return pid;
}

void Simulation::at(double time, std::function<void()> callback) {
  if (shutting_down_) return;
  events_.push(
      Event{std::max(time, now_), next_seq_++, std::move(callback), 0, 0, false});
}

void Simulation::after(double delay, std::function<void()> callback) {
  at(now_ + delay, std::move(callback));
}

void Simulation::schedule_wake(double time, ProcessId pid) {
  if (shutting_down_) return;
  Pcb& pcb = *processes_.at(pid);
  events_.push(
      Event{std::max(time, now_), next_seq_++, {}, pid, pcb.wake_gen, true});
}

void Simulation::run() { run_until(std::numeric_limits<double>::infinity()); }

void Simulation::run_until(double until) {
  if (t_in_process) {
    throw Error("Simulation::run() called from inside a process");
  }
  if (driving_) {
    throw Error("Simulation::run() called from inside a callback");
  }
  driving_ = true;
  until_ = std::max(until, now_);
  driver_span_ = obs::trace::current_span();
  // Back here once the run is over: drained, at `until_`, or failed.
  if (Pcb* next = next_holder()) switch_to(next);
  driving_ = false;
  if (std::exception_ptr error = std::exchange(error_, nullptr)) {
    std::rethrow_exception(error);
  }
}

Simulation::Pcb* Simulation::next_holder() {
  if (!driving_) return nullptr;
  while (!error_ && !events_.empty() && events_.top().time <= until_) {
    // Moving the callback out leaves time and seq, all pop() compares.
    Event ev = std::move(const_cast<Event&>(events_.top()));
    events_.pop();
    now_ = ev.time;
    if (!ev.is_wake) {
      error_ = run_callback(ev.callback);
      continue;
    }
    Pcb* pcb = processes_[ev.pid].get();
    // Otherwise stale: the process already resumed via another event.
    if (pcb->state != PState::finished && ev.wake_gen == pcb->wake_gen) {
      return pcb;
    }
  }
  if (!error_ && until_ != std::numeric_limits<double>::infinity()) {
    now_ = until_;
  }
  return nullptr;
}

std::exception_ptr Simulation::run_callback(
    const std::function<void()>& callback) {
  // The dispatching context may be a blocked process; the callback must not
  // see it. Out of process context, kill() of that process is no self-kill,
  // blocking primitives throw, and spans and log records parent under the
  // run() caller's span, exactly as when the caller dispatches.
  const bool in_process = std::exchange(t_in_process, false);
  const obs::trace::SpanId span = obs::trace::exchange_current(driver_span_);
  std::exception_ptr error;
  try {
    callback();
  } catch (...) {
    error = std::current_exception();
  }
  obs::trace::exchange_current(span);
  t_in_process = in_process;
  return error;
}

Simulation::Context& Simulation::context_of(Pcb* pcb) const {
  return pcb != nullptr ? *pcb->context : *driver_;
}

void Simulation::switch_to(Pcb* next) {
  Context& from = context_of(running_);
  Context& to = context_of(next);
  running_ = next;
  // The resumed context's thread state goes in before the switch: a fresh
  // fiber finds its Simulation through t_sim.
  save(from.state);
  restore(to.state);
  leaving_ = &from;
  from.leave_for(to, /*dying=*/false);
  if (swapcontext(&from.registers, &to.registers) != 0) std::abort();
  land(from);
}

void Simulation::exit_to(Pcb* next) {
  Context& to = context_of(next);
  assert(finished_ == nullptr);
  // Nothing is saved: this stack is dead once the switch is made.
  finished_ = std::move(running_->context);
  running_ = next;
  restore(to.state);
  leaving_ = finished_.get();
  finished_->leave_for(to, /*dying=*/true);
  setcontext(&to.registers);
  std::abort();  // setcontext returns only when it fails
}

void Simulation::land(Context& self) {
  self.arrive_from(*leaving_);
  if (finished_ == nullptr) return;
  // The stack that just switched here for the last time is free to go.
  finished_->retire();
  finished_.reset();
}

void Simulation::fiber_entry() { t_sim->trampoline(); }

void Simulation::block_current(std::optional<double> wake_at) {
  assert(t_in_process && t_sim == this);
  Pcb& pcb = *processes_.at(t_pid);
  if (pcb.kill) return;  // unwinding after a kill: do not block again
  if (wake_at) {
    events_.push(Event{std::max(*wake_at, now_), next_seq_++, {}, t_pid,
                       pcb.wake_gen, true});
  }
  pcb.state = PState::blocked;
  // When our own wake is the next live event, keep running: no handoff.
  if (Pcb* next = next_holder(); next != &pcb) switch_to(next);
  ++pcb.wake_gen;  // invalidate any other pending wake events
  pcb.state = PState::runnable;
  if (pcb.kill) throw ProcessKilled{};
}

void Simulation::sleep(double seconds) {
  if (!t_in_process || t_sim != this) {
    throw Error("sleep() outside a simulated process");
  }
  block_current(now_ + seconds);
}

void Simulation::yield_now() {
  if (!t_in_process || t_sim != this) {
    throw Error("yield_now() outside a simulated process");
  }
  block_current(now_);
}

void Simulation::kill(ProcessId pid) {
  bool self = t_in_process && t_sim == this && pid == t_pid;
  Pcb& pcb = *processes_.at(pid);
  if (pcb.state == PState::finished) return;
  // Marked even for a self-kill, so blocking primitives reached during the
  // unwind return immediately instead of re-blocking, and kill_pending()
  // tells teardown code to take the abnormal (no-goodbye) path.
  pcb.kill = true;
  if (!self && !shutting_down_) {
    events_.push(Event{now_, next_seq_++, {}, pid, pcb.wake_gen, true});
  }
  notify_kill_observers(pid);
  if (self) throw ProcessKilled{};  // killing yourself: unwind right here
}

void Simulation::notify_kill_observers(ProcessId pid) {
  // Index loop: observers call back into the simulation (breaking pipes
  // schedules wake events) and may register further observers. Defunct ones
  // (returning false) are compacted afterwards.
  for (std::size_t i = 0; i < kill_observers_.size(); ++i) {
    if (!kill_observers_[i]) continue;
    if (!kill_observers_[i](pid)) kill_observers_[i] = nullptr;
  }
  std::erase_if(kill_observers_,
                [](const std::function<bool(ProcessId)>& observer) {
                  return observer == nullptr;
                });
}

void Simulation::on_kill(std::function<bool(ProcessId)> observer) {
  kill_observers_.push_back(std::move(observer));
}

bool Simulation::kill_matching(const std::string& prefix,
                               const std::string& segment) {
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    const Pcb& pcb = *processes_[i];
    if (pcb.state == PState::finished) continue;
    const std::string& name = pcb.name;
    if (name.size() < prefix.size() + segment.size()) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.compare(prefix.size(), segment.size(), segment) != 0) continue;
    std::size_t end = prefix.size() + segment.size();
    if (end != name.size() && name[end] != ':') continue;
    kill(static_cast<ProcessId>(i));
    return true;
  }
  return false;
}

bool Simulation::kill_pending() const noexcept {
  if (!t_in_process || t_sim != this) return false;
  return processes_[t_pid]->kill;
}

void Simulation::watch_exit(ProcessId pid, std::function<void()> callback) {
  if (shutting_down_) return;
  Pcb& pcb = *processes_.at(pid);
  if (pcb.state == PState::finished) {
    events_.push(Event{now_, next_seq_++, std::move(callback), 0, 0, false});
    return;
  }
  pcb.exit_watchers.push_back(std::move(callback));
}

void Simulation::trampoline() {
  Pcb* next = nullptr;
  {  // Everything with a destructor dies here: this frame never returns.
    land(*running_->context);
    Pcb& pcb = *running_;
    ++pcb.wake_gen;
    pcb.state = PState::runnable;
    std::exception_ptr error;
    if (!pcb.kill) {
      try {
        pcb.body();
      } catch (const ProcessKilled&) {
        // normal teardown path
      } catch (...) {
        error = std::current_exception();
      }
    }
    pcb.state = PState::finished;
    // Exit watchers (supervision) fire as ordinary events at the death
    // timestamp — never during shutdown, when supervisors must not respawn.
    if (!shutting_down_) {
      for (auto& watcher : pcb.exit_watchers) {
        events_.push(
            Event{now_, next_seq_++, std::move(watcher), 0, 0, false});
      }
    }
    pcb.exit_watchers.clear();
    // A failure ends the run for run_until() to rethrow; one raised while
    // shutdown() unwinds the process has nobody to report to.
    if (driving_) error_ = error;
    next = next_holder();
  }
  exit_to(next);
}

void Signal::wait() {
  if (!Simulation::in_process() || t_sim != sim_) {
    throw Error("Signal::wait() outside a simulated process");
  }
  if (sim_->kill_pending()) return;
  ProcessId self = sim_->current_pid();
  waiters_.push_back(self);
  sim_->block_current();
  // notify_* removes the pid before scheduling the wake; erase is a no-op on
  // the normal path but cleans up after a kill-driven resume.
  std::erase(waiters_, self);
}

bool Signal::wait_for(double timeout_s) {
  if (!Simulation::in_process() || t_sim != sim_) {
    throw Error("Signal::wait_for() outside a simulated process");
  }
  if (sim_->kill_pending()) return false;
  ProcessId self = sim_->current_pid();
  waiters_.push_back(self);
  sim_->block_current(sim_->now() + timeout_s);
  // notify_* removes us from waiters_ before waking us; if we are still
  // registered, the timeout fired first.
  auto it = std::find(waiters_.begin(), waiters_.end(), self);
  if (it != waiters_.end()) {
    waiters_.erase(it);
    return false;
  }
  return true;
}

void Signal::notify_one() {
  if (waiters_.empty()) return;
  ProcessId pid = waiters_.front();
  waiters_.erase(waiters_.begin());
  sim_->schedule_wake(sim_->now(), pid);
}

void Signal::notify_all() {
  std::vector<ProcessId> pids = std::move(waiters_);
  waiters_.clear();
  for (ProcessId pid : pids) sim_->schedule_wake(sim_->now(), pid);
}

}  // namespace jungle::sim
