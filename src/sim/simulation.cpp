#include "sim/simulation.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

namespace jungle::sim {

namespace {
// Which process (if any) the *current thread* is executing. Lets blocking
// primitives find their context without passing handles everywhere.
thread_local Simulation* t_sim = nullptr;
thread_local ProcessId t_pid = 0;
thread_local bool t_in_process = false;
}  // namespace

Simulation::Simulation() = default;

Simulation::~Simulation() {
  shutdown();
  {
    std::unique_lock lock(mutex_);
    shutting_down_ = true;
  }
  for (auto& pcb : processes_) {
    if (pcb->thread.joinable()) pcb->thread.join();
  }
}

void Simulation::shutdown() {
  if (t_in_process) {
    throw Error("Simulation::shutdown() called from inside a process");
  }
  std::unique_lock lock(mutex_);
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
    lock.unlock();
    grant(&pcb);
    driver_.acquire();
    lock.lock();
  }
}

bool Simulation::in_process() noexcept { return t_in_process; }

Simulation::Pcb* Simulation::pcb_of(ProcessId pid) const {
  std::unique_lock lock(mutex_);
  return processes_.at(pid).get();
}

std::string Simulation::current_name() const {
  if (!t_in_process || t_sim != this) return "";
  return pcb_of(t_pid)->name;
}

ProcessId Simulation::current_pid() const {
  assert(t_in_process && t_sim == this);
  return t_pid;
}

bool Simulation::finished(ProcessId pid) const {
  std::unique_lock lock(mutex_);
  return processes_.at(pid)->state == PState::finished;
}

std::size_t Simulation::live_processes() const {
  std::unique_lock lock(mutex_);
  std::size_t live = 0;
  for (const auto& pcb : processes_) {
    if (pcb->state != PState::finished) ++live;
  }
  return live;
}

std::vector<std::string> Simulation::live_process_names() const {
  std::unique_lock lock(mutex_);
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
  std::unique_lock lock(mutex_);
  auto pcb = std::make_unique<Pcb>();
  pcb->name = std::move(name);
  pcb->body = std::move(body);
  auto pid = static_cast<ProcessId>(processes_.size());
  if (shutting_down_) {
    pcb->state = PState::finished;  // too late to run anything
    processes_.push_back(std::move(pcb));
    return pid;
  }
  processes_.push_back(std::move(pcb));
  Pcb& ref = *processes_.back();
  ref.thread = std::thread([this, pid] { trampoline(pid); });
  events_.push(Event{std::max(start_at, now_), next_seq_++, {}, pid,
                     ref.wake_gen, true});
  return pid;
}

void Simulation::at(double time, std::function<void()> callback) {
  std::unique_lock lock(mutex_);
  if (shutting_down_) return;
  events_.push(
      Event{std::max(time, now_), next_seq_++, std::move(callback), 0, 0, false});
}

void Simulation::after(double delay, std::function<void()> callback) {
  at(now_ + delay, std::move(callback));
}

void Simulation::schedule_wake(double time, ProcessId pid) {
  std::unique_lock lock(mutex_);
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
  std::unique_lock lock(mutex_);
  if (driving_) {
    throw Error("Simulation::run() called from inside a callback");
  }
  driving_ = true;
  until_ = std::max(until, now_);
  driver_span_ = obs::trace::current_span();
  if (Pcb* next = next_holder(lock)) {
    lock.unlock();
    grant(next);
    driver_.acquire();  // the run is over: drained, at `until_`, or failed
    lock.lock();
  }
  driving_ = false;
  if (std::exception_ptr error = std::exchange(error_, nullptr)) {
    lock.unlock();
    std::rethrow_exception(error);
  }
}

Simulation::Pcb* Simulation::next_holder(std::unique_lock<std::mutex>& lock) {
  if (!driving_) return nullptr;
  while (!error_ && !events_.empty() && events_.top().time <= until_) {
    // Moving the callback out leaves time and seq, all pop() compares.
    Event ev = std::move(const_cast<Event&>(events_.top()));
    events_.pop();
    now_ = ev.time;
    if (!ev.is_wake) {
      lock.unlock();
      std::exception_ptr error = run_callback(ev.callback);
      lock.lock();
      error_ = error;
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
  // The dispatching thread may be a blocked process; the callback must not
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

void Simulation::grant(Pcb* next) {
  (next != nullptr ? next->resume : driver_).release();
}

void Simulation::block_current(std::optional<double> wake_at) {
  assert(t_in_process && t_sim == this);
  std::unique_lock lock(mutex_);
  Pcb& pcb = *processes_.at(t_pid);
  if (pcb.kill) return;  // unwinding after a kill: do not block again
  if (wake_at) {
    events_.push(Event{std::max(*wake_at, now_), next_seq_++, {}, t_pid,
                       pcb.wake_gen, true});
  }
  pcb.state = PState::blocked;
  // When our own wake is the next live event, keep running: no handoff.
  if (Pcb* next = next_holder(lock); next != &pcb) {
    lock.unlock();
    grant(next);
    pcb.resume.acquire();
    lock.lock();
  }
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
  {
    std::unique_lock lock(mutex_);
    Pcb& pcb = *processes_.at(pid);
    if (pcb.state == PState::finished) return;
    // Marked even for a self-kill, so blocking primitives reached during the
    // unwind return immediately instead of re-blocking, and kill_pending()
    // tells teardown code to take the abnormal (no-goodbye) path.
    pcb.kill = true;
    if (!self && !shutting_down_) {
      events_.push(Event{now_, next_seq_++, {}, pid, pcb.wake_gen, true});
    }
  }
  notify_kill_observers(pid);
  if (self) throw ProcessKilled{};  // killing yourself: unwind right here
}

void Simulation::notify_kill_observers(ProcessId pid) {
  // Index loop without the lock: observers call back into the simulation
  // (breaking pipes schedules wake events) and may register further
  // observers. Defunct ones (returning false) are compacted afterwards.
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
  ProcessId victim = 0;
  bool found = false;
  {
    std::unique_lock lock(mutex_);
    for (std::size_t i = 0; i < processes_.size(); ++i) {
      const Pcb& pcb = *processes_[i];
      if (pcb.state == PState::finished) continue;
      const std::string& name = pcb.name;
      if (name.size() < prefix.size() + segment.size()) continue;
      if (name.compare(0, prefix.size(), prefix) != 0) continue;
      if (name.compare(prefix.size(), segment.size(), segment) != 0) continue;
      std::size_t end = prefix.size() + segment.size();
      if (end != name.size() && name[end] != ':') continue;
      victim = static_cast<ProcessId>(i);
      found = true;
      break;
    }
  }
  if (found) kill(victim);
  return found;
}

bool Simulation::kill_pending() const noexcept {
  if (!t_in_process || t_sim != this) return false;
  std::unique_lock lock(mutex_);
  return processes_.at(t_pid)->kill;
}

void Simulation::watch_exit(ProcessId pid, std::function<void()> callback) {
  std::unique_lock lock(mutex_);
  if (shutting_down_) return;
  Pcb& pcb = *processes_.at(pid);
  if (pcb.state == PState::finished) {
    events_.push(Event{now_, next_seq_++, std::move(callback), 0, 0, false});
    return;
  }
  pcb.exit_watchers.push_back(std::move(callback));
}

void Simulation::trampoline(ProcessId pid) {
  t_sim = this;
  t_pid = pid;
  t_in_process = true;
  Pcb& pcb = *pcb_of(pid);
  pcb.resume.acquire();
  {
    std::unique_lock lock(mutex_);
    ++pcb.wake_gen;
    pcb.state = PState::runnable;
  }
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
  std::unique_lock lock(mutex_);
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
  Pcb* next = next_holder(lock);
  lock.unlock();
  grant(next);  // the last touch of `this`: the owner may now destroy it
}

void Signal::wait() {
  if (!Simulation::in_process() || t_sim != sim_) {
    throw Error("Signal::wait() outside a simulated process");
  }
  ProcessId self = sim_->current_pid();
  if (sim_->pcb_of(self)->kill) return;
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
  ProcessId self = sim_->current_pid();
  if (sim_->pcb_of(self)->kill) return false;
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
