#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace jungle::obs::trace {

/// Low-overhead span tracer. Spans carry *two* clocks: the simulated time
/// (the timeline the Chrome/Perfetto export draws, because that is the
/// quantity the scheduler models) and the real steady-clock time (what the
/// numerics actually cost on this machine). Tracing is off by default; the
/// disabled fast path allocates nothing and touches one relaxed atomic.
///
/// Span ids are process-global 8-byte values. The RPC layer propagates the
/// caller's current span id in the frame header, so worker-side spans
/// (evolve, get_state, accel_for) parent under the client call that caused
/// them — across simulated hosts.

using SpanId = std::uint64_t;

struct SpanRecord {
  SpanId id = 0;
  SpanId parent = 0;   // 0 = root
  /// For client RPC spans: the server-side span that handled the call (the
  /// exporter draws a flow arrow client -> worker).
  SpanId remote = 0;
  std::string name;
  std::string category;
  std::string process;      // simulated "host/process" that opened the span
  double sim_begin = 0.0;   // virtual seconds
  double sim_end = 0.0;
  std::uint64_t wall_begin_ns = 0;  // steady clock
  std::uint64_t wall_end_ns = 0;
};

bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// Bind the virtual clock + process-identity sources (normally a
/// Simulation's now()/current_name()). `owner` disambiguates nested
/// lifetimes: unbind_clock is a no-op unless called with the owner that
/// bound last. Unbound, spans carry sim time 0 and an empty process name.
void bind_clock(const void* owner, std::function<double()> now,
                std::function<std::string()> process);
void unbind_clock(const void* owner);

/// The current span id on this thread (0 = none). Simulated processes are
/// fibers sharing their run() caller's thread; the simulator saves and
/// restores this value for each of them at every switch.
SpanId current_span() noexcept;

/// Make `id` this thread's current span; returns the previous one. The
/// simulator swaps it at every fiber switch, and swaps in the run()
/// caller's span around event callbacks.
SpanId exchange_current(SpanId id) noexcept;

class Span {
 public:
  Span() = default;
  ~Span() { end(); }
  Span(Span&& other) noexcept { *this = std::move(other); }
  Span& operator=(Span&& other) noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const noexcept { return rec_ != nullptr; }
  SpanId id() const noexcept;

  /// Record the server-side span that answered this (client RPC) span.
  void note_remote(SpanId remote) noexcept;

  /// Close the span (idempotent; the destructor calls it). A *scoped* span
  /// must end on the thread that opened it; async spans may end anywhere.
  void end();

 private:
  friend Span begin(std::string_view, std::string_view, SpanId, bool);
  std::unique_ptr<SpanRecord> rec_;
  bool scoped_ = false;
  SpanId saved_ = 0;  // previous thread-current span, restored at end
};

/// Nested scoped span: parent = this thread's current span, and it becomes
/// the current span until it ends. Inactive (no allocation) when disabled.
Span span(std::string_view name, std::string_view category = "");

/// Scoped span parented under a wire-propagated foreign id (the worker side
/// of an RPC hop).
Span server_span(std::string_view name, std::string_view category,
                 SpanId parent);

/// Non-scoped span (an RPC in flight): parent = current, but it does NOT
/// become the thread's current span, and may be ended from another process.
Span async_span(std::string_view name, std::string_view category);

std::vector<SpanRecord> snapshot();
std::size_t recorded() noexcept;
/// Drop recorded spans (enabled flag and clock binding survive).
void reset();

/// Serialize recorded spans as Chrome trace-event JSON ("X" complete events
/// on the simulated-time axis, wall durations in args, "M" metadata naming
/// simulated hosts/processes, flow arrows client->worker for RPC spans).
/// Loadable in chrome://tracing and Perfetto.
std::string chrome_trace_json();
void write_chrome_trace(const std::string& path);

}  // namespace jungle::obs::trace
