#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/mailbox.hpp"
#include "smartsockets/connection.hpp"
#include "util/bytebuffer.hpp"
#include "util/error.hpp"

namespace jungle::amuse {

/// AMUSE communicates with workers "in an RPC-like method. Both synchronous
/// and asynchronous calls are supported" (paper §4.1). This is that layer:
/// framed request/reply with correlation ids, futures for async calls, and
/// a worker-side dispatch loop.

/// Function ids. Ranges per interface keep dispatch tables readable.
enum class Fn : std::uint16_t {
  ping = 0,
  stop = 1,

  // GravitationalDynamics (phiGRAPE)
  grav_set_params = 10,
  grav_add_particles = 11,
  grav_evolve = 12,
  grav_get_state = 13,
  grav_get_energies = 14,
  grav_kick_all = 15,
  grav_set_masses = 16,
  grav_get_time = 17,
  /// Sparse mass update: [i32 indices][f64 masses] — the delta-compressed
  /// form of the stellar-evolution mass channel.
  grav_set_masses_sparse = 18,
  /// Dynamic integrator state for bit-exact restart: the corrector-stage
  /// accelerations/jerks carried across evolve() calls plus the absolute
  /// model time. Fetched at checkpoint capture, installed into a fresh
  /// replacement so the replayed step resumes golden's exact substep
  /// sequence instead of re-deriving forces (and diverging by roundoff).
  grav_get_dynamics = 19,
  grav_set_dynamics = 20,
  /// Drop all particles and reset the model clock/owned range (params and
  /// meters survive). Shard (re)priming: reset + add_particles + set_shard.
  grav_reset = 21,
  /// Domain decomposition: [u64 lo][u64 hi] — this worker holds all N
  /// particles but integrates only rows [lo, hi) of the Morton-ordered
  /// arrays. The delta-state reply then serves the owned slice only.
  grav_set_shard = 22,
  /// Ghost refresh from the coordinating client: [u64 base][u64 flags]
  /// [pos span][vel span] written at index `base`. flags bit 0 = positions
  /// arrive as f32 (truncated on a low-bandwidth link). No epoch bump —
  /// ghosts are not this shard's state to publish.
  grav_ghost_update = 23,

  // GravityField (Octgrav / Fi)
  field_set_sources = 30,
  field_accel_at = 31,
  /// One-shot cross-gravity query: epoch-tagged sources + evaluation points
  /// in a single frame (both directions of a cross-kick pipeline as two
  /// concurrent calls), with worker-side caching of unchanged inputs.
  field_accel_for = 32,

  // Hydrodynamics (Gadget)
  hydro_set_params = 50,
  hydro_add_gas = 51,
  hydro_evolve = 52,
  hydro_get_state = 53,
  hydro_get_energies = 54,
  hydro_kick_all = 55,
  hydro_inject = 56,
  hydro_get_time = 57,
  /// Absolute-clock restore for checkpoint restart (SPH re-derives density
  /// and forces every substep; the clock is its only carried dynamic state).
  hydro_set_time = 58,

  // StellarEvolution (SSE)
  se_add_stars = 70,
  se_evolve_to = 71,
  se_get_masses = 72,
  se_get_supernovae = 73,
  se_get_mass_loss = 74,
  se_get_luminosities = 75,
  /// Delta-compressed mass fetch: only masses that changed since the last
  /// exchange travel ([u64 flags][indices][values], or a full array).
  se_get_mass_updates = 76,
};

/// Short name of a function id, for span labels and log lines.
const char* fn_name(Fn fn) noexcept;

/// The descriptor of one function id. Adding an RPC adds one row to the
/// table behind fn_table().
struct FnInfo {
  Fn fn;
  const char* name;
  bool retry_safe;
};

/// One row per Fn enumerator, in enum order.
std::span<const FnInfo> fn_table() noexcept;

/// Reply status on the wire.
enum class RpcStatus : std::uint8_t { ok = 0, code_error = 1, worker_died = 2 };

/// Fixed frame headers; the payload is simply the rest of the frame (no
/// inner length prefix, no extra payload copy):
///   request: [u32 request_id][u16 fn][u16 flags][u64 span_id][f64 deadline] + payload
///   reply:   [u32 request_id][u8 status][u8 cause][u16 zero][u64 span_id]   + payload
/// span_id is the trace context: requests carry the caller's current span
/// so worker-side spans parent under the client call across hosts; replies
/// echo the server-side span that handled the call (0 = untraced). The
/// request id doubles as the call's *idempotency token*: a client-side
/// resend reuses the id (with the resend flag set) and the worker replays
/// the cached reply instead of executing twice. `deadline` is the absolute
/// virtual time after which the client gives up (0 = none); a worker that
/// receives an already-expired request refuses it instead of mutating state
/// the caller is about to restore elsewhere. Both header sizes are multiples
/// of 8, which keeps payload array fields 8-aligned in the receive buffer —
/// that is what makes ByteReader::get_span views legal.
constexpr std::size_t kFrameHeaderBytes = 16;    // reply header
constexpr std::size_t kRequestHeaderBytes = 24;  // request header

/// Request header flag bits.
namespace rpc_flags {
/// The call may execute at most once but be *asked* more than once: the
/// worker caches the reply bytes keyed by request id so a resend replays
/// the answer instead of re-executing.
constexpr std::uint16_t idempotent = 1;
/// This frame is a client-side retransmission of an earlier request (same
/// id). The worker serves it from the replay cache when possible.
constexpr std::uint16_t resend = 2;
}  // namespace rpc_flags

/// Whether a function is safe to retry across a transport wobble: state
/// fetches and field queries (re-execution returns the same answer) and the
/// repeat-kicks (the worker-side replay cache makes them exactly-once).
/// Everything that advances model state irreversibly — evolve, set_masses,
/// add_particles — is excluded and surfaces WorkerDiedError instead.
bool retry_safe(Fn fn) noexcept;

struct RpcReply {
  RpcStatus status = RpcStatus::ok;
  /// The received frame; payload starts at `payload_offset` (the reply is
  /// handed to the caller as a reader over this buffer — no copy).
  std::vector<std::uint8_t> frame;
  std::size_t payload_offset = 0;
  // Filled for worker_died: where and why the worker was lost, so the
  // thrown WorkerDiedError lets recovery exclude the right resource.
  std::string died_host;
  WorkerDiedError::Cause died_cause = WorkerDiedError::Cause::unknown;
};

/// Frames whose request id is this value are connection-level death notices
/// (sent by the daemon when the registry reports a worker's host died), not
/// replies: header cause byte is set, payload = host string, detail string.
constexpr std::uint32_t kDeathNoticeId = 0;

/// Abstract bidirectional message transport the RPC layer runs over. The
/// three AMUSE channels (MPI, socket, Ibis-via-daemon) all reduce to this.
class MessagePipe {
 public:
  virtual ~MessagePipe() = default;
  virtual void send_bytes(std::vector<std::uint8_t> bytes) = 0;
  /// Blocking; nullopt on orderly close. Throws ConnectError when broken.
  virtual std::optional<std::vector<std::uint8_t>> recv_bytes() = 0;
  virtual void close() = 0;
};

/// MessagePipe over a SmartSockets connection.
class ConnectionPipe : public MessagePipe {
 public:
  explicit ConnectionPipe(std::shared_ptr<smartsockets::ConnectionEnd> conn)
      : conn_(std::move(conn)) {}
  void send_bytes(std::vector<std::uint8_t> bytes) override {
    conn_->send(std::move(bytes));
  }
  std::optional<std::vector<std::uint8_t>> recv_bytes() override {
    return conn_->recv();
  }
  void close() override { conn_->close(); }

 private:
  std::shared_ptr<smartsockets::ConnectionEnd> conn_;
};

/// Client-side future (CP.60). get() blocks the calling process until the
/// reply lands; throws CodeError when the worker reported an error or died.
/// When the issuing client set a call timeout, get() waits at most that
/// many virtual seconds and then reports the worker dead (cause=timeout) —
/// a hung-but-alive worker surfaces as a WorkerDiedError the fault path
/// can recover from instead of deadlocking the bridge. A Future must not
/// outlive the RpcClient that issued it (the pump feeds it).
class Future {
 public:
  struct State {
    explicit State(sim::Simulation& sim) : box(sim) {}
    sim::Mailbox<RpcReply> box;
    std::string worker;  // label of the client that issued the call
    std::uint32_t request_id = 0;
    double timeout_s = 0.0;  // 0 = wait forever
    double t_sent = 0.0;     // virtual send time (latency histogram)
    /// Client-side RPC span, open while the call is in flight (the pump
    /// ends it on reply or poison). Inactive when tracing is off.
    obs::trace::Span span;
    /// Poisons the issuing client when the wait expires, so every other
    /// outstanding call on the same pipe fails too (one hung worker, one
    /// death report — not one timeout per call).
    std::function<void()> on_timeout;
    /// Retry plumbing, installed by the client for retry_safe calls: get()
    /// waits in soft-deadline slices of (jittered, doubling) `soft_delay_s`
    /// and invokes `resend(attempt)` between slices — the callback ships the
    /// original frame again with the resend flag set and returns false once
    /// the retry budget is spent or the pipe is unusable.
    double soft_delay_s = 0.0;  // 0 = no client-side resends
    std::function<bool(int)> resend;
  };

  explicit Future(std::shared_ptr<State> state) : state_(std::move(state)) {}

  util::ByteReader get();
  bool ready() const noexcept { return !state_->box.empty(); }

 private:
  std::shared_ptr<State> state_;
};

/// Client endpoint: correlates replies with requests and hands out futures.
/// A pump process (spawned on `home`) drains the pipe. Multiple calls may be
/// outstanding — that is what makes the bridge's parallel evolve work.
class RpcClient {
 public:
  RpcClient(sim::Host& home, std::unique_ptr<MessagePipe> pipe,
            std::string label);
  ~RpcClient();
  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// Argument writer with the request header pre-reserved: call() patches
  /// the id/function into it and ships the buffer as-is — the payload is
  /// never copied into a second framing buffer.
  static util::ByteWriter request() {
    return util::ByteWriter(kRequestHeaderBytes);
  }

  Future call(Fn fn, util::ByteWriter arguments);
  util::ByteReader call_sync(Fn fn, util::ByteWriter arguments);

  /// Send the stop function and close the pipe.
  void close();
  bool alive() const noexcept { return !dead_; }
  const std::string& label() const noexcept { return label_; }

  /// Per-call reply deadline in virtual seconds (0 = wait forever, the
  /// default). Applies to calls issued after the setter.
  void set_call_timeout(double timeout_s) noexcept {
    call_timeout_s_ = timeout_s;
  }
  double call_timeout() const noexcept { return call_timeout_s_; }

  /// What poisoned this client (meaningful once !alive()): recovery uses
  /// the cause per worker, not just the first error it happened to catch.
  WorkerDiedError::Cause death_cause() const noexcept { return death_cause_; }
  const std::string& death_host() const noexcept { return death_host_; }

  /// Fail every outstanding and future call (used by the daemon client when
  /// the registry reports the worker died). `cause`/`host` record what the
  /// transport knew about the failure for WorkerDiedError.
  void poison(const std::string& reason,
              WorkerDiedError::Cause cause = WorkerDiedError::Cause::unknown,
              const std::string& host = "");

  /// Un-poison after a supervised in-place restart (cause=process_crash):
  /// the pipe to the daemon stayed open and a fresh worker now answers on
  /// it, so this client can carry on — the caller is responsible for
  /// restoring model state into the blank worker. Outstanding calls were
  /// already failed by poison(); nothing is replayed.
  void revive();

  /// Client-side resend policy for retry_safe calls: after `soft_delay_s`
  /// of virtual time without a reply the frame is retransmitted (same
  /// request id, resend flag), with deterministic jitter and doubling
  /// backoff, up to `max_resends` times. The default soft delay is far
  /// above a healthy reply's latency, so fault-free runs never resend and
  /// golden digests are unaffected. `max_resends = 0` disables retries.
  void set_retry_policy(double soft_delay_s, int max_resends) noexcept {
    retry_soft_delay_s_ = soft_delay_s;
    retry_max_resends_ = max_resends;
  }

  /// Name this client's metrics series rpc.<meter>.{calls,bytes_out,
  /// bytes_in,latency_s}. Defaults to the label; the experiment runner sets
  /// the model name so worker meters and RPC meters line up.
  void set_meter(const std::string& meter);

 private:
  void pump();
  RpcReply death_reply() const;
  void remember_completed(std::uint32_t request_id);
  bool recently_completed(std::uint32_t request_id) const noexcept;

  sim::Host& home_;
  std::unique_ptr<MessagePipe> pipe_;
  std::string label_;
  double call_timeout_s_ = 0.0;
  double retry_soft_delay_s_ = 1.0;
  int retry_max_resends_ = 6;
  std::uint32_t next_request_ = 1;
  std::map<std::uint32_t, std::shared_ptr<Future::State>> pending_;
  /// Ring of recently answered request ids: a duplicate reply (the original
  /// answer of a call that was also resent) is dropped quietly instead of
  /// warning about an unknown request.
  std::array<std::uint32_t, 64> recent_{};
  std::size_t recent_pos_ = 0;
  bool dead_ = false;
  std::string death_reason_;
  std::string death_host_;
  WorkerDiedError::Cause death_cause_ = WorkerDiedError::Cause::unknown;
  sim::ProcessId pump_pid_ = 0;
  bool closed_ = false;
  obs::metrics::Counter* m_calls_ = nullptr;
  obs::metrics::Counter* m_bytes_out_ = nullptr;
  obs::metrics::Counter* m_bytes_in_ = nullptr;
  obs::metrics::Histogram* m_latency_ = nullptr;
};

/// Global (not per-meter) retry telemetry — what the fault story is judged
/// by: a flapping link shows up as rpc.retries > 0 with zero rollbacks, a
/// hung worker as rpc.deadline_misses > 0.
inline obs::metrics::Counter& rpc_retries_counter() {
  return obs::metrics::counter("rpc.retries");
}
inline obs::metrics::Counter& rpc_deadline_misses_counter() {
  return obs::metrics::counter("rpc.deadline_misses");
}

/// Worker-side dispatcher: maps a function id + argument reader to a result.
/// Throwing CodeError inside produces an error reply (not a crash). Build
/// results with reply_writer() so the server can patch the frame header in
/// place and send them without another framing copy.
using Dispatcher =
    std::function<util::ByteWriter(Fn, util::ByteReader&)>;

/// Result writer for dispatchers with the reply header pre-reserved.
inline util::ByteWriter reply_writer() {
  return util::ByteWriter(kFrameHeaderBytes);
}

/// Worker-side request loop. Runs on the worker's own process until the
/// client sends `stop` or the pipe closes/breaks. Requests flagged
/// idempotent have their reply bytes cached by request id; a flagged resend
/// is answered from that cache without re-executing — the exactly-once
/// guarantee that makes client-side retries of state-touching-but-safe
/// calls (repeat kicks) sound. When a `clock` is provided, requests whose
/// wire deadline already passed are refused with a code error instead of
/// executed: the client has given up and is restoring state elsewhere.
class WorkerServer {
 public:
  WorkerServer(std::unique_ptr<MessagePipe> pipe, Dispatcher dispatcher,
               std::function<double()> clock = {})
      : pipe_(std::move(pipe)),
        dispatcher_(std::move(dispatcher)),
        clock_(std::move(clock)) {}

  /// Blocking; returns when the worker is told to stop.
  void run();

 private:
  /// Replay cache entries kept (FIFO). Deep enough to cover every call a
  /// client can have in flight at once; old entries cannot be resent anyway
  /// once their reply was consumed.
  static constexpr std::size_t kReplayCacheEntries = 64;

  void cache_reply(std::uint32_t request_id,
                   const std::vector<std::uint8_t>& bytes);

  std::unique_ptr<MessagePipe> pipe_;
  Dispatcher dispatcher_;
  std::function<double()> clock_;
  std::map<std::uint32_t, std::vector<std::uint8_t>> replay_;
  std::deque<std::uint32_t> replay_order_;
};

}  // namespace jungle::amuse
