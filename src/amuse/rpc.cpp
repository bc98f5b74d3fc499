#include "amuse/rpc.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace jungle::amuse {

namespace {

// Header field offsets (see the frame layout note in rpc.hpp).
constexpr std::size_t kIdOffset = 0;
constexpr std::size_t kFnOffset = 4;
constexpr std::size_t kFlagsOffset = 6;
constexpr std::size_t kStatusOffset = 4;
constexpr std::size_t kSpanOffset = 8;
constexpr std::size_t kDeadlineOffset = 16;

/// Frame a header-only reply (ping, death notices built client-side).
util::ByteWriter make_reply_frame(std::uint32_t request_id, RpcStatus status) {
  util::ByteWriter frame(kFrameHeaderBytes);
  frame.patch<std::uint32_t>(kIdOffset, request_id);
  frame.patch<std::uint8_t>(kStatusOffset,
                            static_cast<std::uint8_t>(status));
  return frame;
}

/// Error reply with a message payload.
util::ByteWriter make_error_frame(std::uint32_t request_id,
                                  const std::string& what) {
  util::ByteWriter reply = make_reply_frame(request_id, RpcStatus::code_error);
  reply.put_bytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(what.data()), what.size()));
  return reply;
}

/// Deterministic backoff jitter in [0.5, 1.5): an FNV-1a hash of (worker
/// label, request id, attempt) — no RNG, so a replayed fault schedule
/// resends at bit-identical times, but concurrent retryers still spread out
/// instead of thundering in lockstep.
double jitter_factor(const std::string& label, std::uint32_t request_id,
                     int attempt) noexcept {
  std::uint64_t hash = 1469598103934665603ULL;
  auto mix = [&hash](std::uint8_t byte) {
    hash ^= byte;
    hash *= 1099511628211ULL;
  };
  for (char c : label) mix(static_cast<std::uint8_t>(c));
  for (int i = 0; i < 4; ++i) {
    mix(static_cast<std::uint8_t>(request_id >> (8 * i)));
  }
  mix(static_cast<std::uint8_t>(attempt));
  return 0.5 + static_cast<double>(hash % 1024) / 1024.0;
}

// One row per function id. The names label trace spans (`rpc:<name>` on
// the client, `<name>` on the worker), so they must not change. retry_safe
// marks the calls a client may resend (see the declaration in rpc.hpp).
constexpr FnInfo kFnTable[] = {
    {Fn::ping, "ping", true},
    {Fn::stop, "stop", false},
    {Fn::grav_set_params, "grav_set_params", false},
    {Fn::grav_add_particles, "grav_add_particles", false},
    {Fn::grav_evolve, "grav_evolve", false},
    {Fn::grav_get_state, "grav_get_state", true},
    {Fn::grav_get_energies, "grav_get_energies", true},
    // repeat-kick: the replay cache makes it exactly-once
    {Fn::grav_kick_all, "grav_kick_all", true},
    {Fn::grav_set_masses, "grav_set_masses", false},
    {Fn::grav_get_time, "grav_get_time", true},
    {Fn::grav_set_masses_sparse, "grav_set_masses_sparse", false},
    {Fn::grav_get_dynamics, "grav_get_dynamics", true},
    {Fn::grav_set_dynamics, "grav_set_dynamics", false},
    {Fn::grav_reset, "grav_reset", false},
    // last-write-wins range assignment
    {Fn::grav_set_shard, "grav_set_shard", true},
    // absolute-index overwrite, replay-cached
    {Fn::grav_ghost_update, "grav_ghost_update", true},
    {Fn::field_set_sources, "field_set_sources", false},
    {Fn::field_accel_at, "field_accel_at", true},
    {Fn::field_accel_for, "field_accel_for", true},
    {Fn::hydro_set_params, "hydro_set_params", false},
    {Fn::hydro_add_gas, "hydro_add_gas", false},
    {Fn::hydro_evolve, "hydro_evolve", false},
    {Fn::hydro_get_state, "hydro_get_state", true},
    {Fn::hydro_get_energies, "hydro_get_energies", true},
    {Fn::hydro_kick_all, "hydro_kick_all", true},
    {Fn::hydro_inject, "hydro_inject", false},
    {Fn::hydro_get_time, "hydro_get_time", true},
    {Fn::hydro_set_time, "hydro_set_time", false},
    {Fn::se_add_stars, "se_add_stars", false},
    {Fn::se_evolve_to, "se_evolve_to", false},
    {Fn::se_get_masses, "se_get_masses", true},
    {Fn::se_get_supernovae, "se_get_supernovae", true},
    {Fn::se_get_mass_loss, "se_get_mass_loss", true},
    {Fn::se_get_luminosities, "se_get_luminosities", true},
    {Fn::se_get_mass_updates, "se_get_mass_updates", true},
};

const FnInfo* find_fn(Fn fn) noexcept {
  for (const FnInfo& row : kFnTable) {
    if (row.fn == fn) return &row;
  }
  return nullptr;
}

}  // namespace

std::span<const FnInfo> fn_table() noexcept { return kFnTable; }

bool retry_safe(Fn fn) noexcept {
  const FnInfo* row = find_fn(fn);
  return row != nullptr && row->retry_safe;
}

const char* fn_name(Fn fn) noexcept {
  const FnInfo* row = find_fn(fn);
  return row != nullptr ? row->name : "unknown";
}

util::ByteReader Future::get() {
  RpcReply reply;
  bool have = false;
  bool expired = false;
  double remaining = state_->timeout_s;  // 0 = wait forever
  if (state_->resend && state_->soft_delay_s > 0.0) {
    // Idempotent call: wait in soft-deadline slices, retransmitting the
    // frame between slices (same request id, resend flag) with jittered,
    // doubling backoff. A reply that was merely delayed — daemon restart,
    // flapping link — lands during one of the waits; the worker dedups the
    // extra frames and the pump drops the extra replies.
    double base = state_->soft_delay_s;
    for (int attempt = 0;; ++attempt) {
      double wait =
          base * jitter_factor(state_->worker, state_->request_id, attempt);
      if (state_->timeout_s > 0.0) {
        if (remaining <= 0.0) {
          expired = true;
          break;
        }
        wait = std::min(wait, remaining);
      }
      auto maybe = state_->box.get_for(wait);
      if (state_->timeout_s > 0.0) remaining -= wait;
      if (maybe) {
        reply = std::move(*maybe);
        have = true;
        break;
      }
      if (!state_->resend(attempt)) break;  // budget spent or pipe unusable
      base *= 2.0;
    }
  }
  if (!have) {
    if (state_->timeout_s > 0.0) {
      if (!expired) {
        auto maybe = state_->box.get_for(std::max(remaining, 0.0));
        if (maybe) {
          reply = std::move(*maybe);
          have = true;
        } else {
          expired = true;
        }
      }
      if (expired) {
        // Hard deadline passed with no reply: poison the issuing client.
        // That deposits a death reply for this call too (it is still
        // pending), which the zero-wait get below picks up immediately.
        rpc_deadline_misses_counter().increment();
        if (state_->on_timeout) state_->on_timeout();
        auto maybe = state_->box.get_for(0.0);
        if (!maybe) {
          // The call was no longer pending (defensive; should not happen).
          throw WorkerDiedError(state_->worker, "",
                                WorkerDiedError::Cause::timeout,
                                "no reply within " +
                                    std::to_string(state_->timeout_s) + " s");
        }
        reply = std::move(*maybe);
      }
    } else {
      reply = state_->box.get();
    }
  }
  if (reply.status == RpcStatus::ok) {
    return util::ByteReader(std::move(reply.frame), reply.payload_offset);
  }
  std::string message(reply.frame.begin() +
                          static_cast<std::ptrdiff_t>(reply.payload_offset),
                      reply.frame.end());
  if (reply.status == RpcStatus::worker_died) {
    throw WorkerDiedError(state_->worker, reply.died_host, reply.died_cause,
                          message);
  }
  throw CodeError(message);
}

RpcClient::RpcClient(sim::Host& home, std::unique_ptr<MessagePipe> pipe,
                     std::string label)
    : home_(home), pipe_(std::move(pipe)), label_(std::move(label)) {
  set_meter(label_);
  pump_pid_ = home_.spawn("rpc-pump:" + label_, [this] { pump(); });
}

void RpcClient::set_meter(const std::string& meter) {
  m_calls_ = &obs::metrics::counter("rpc." + meter + ".calls");
  m_bytes_out_ = &obs::metrics::counter("rpc." + meter + ".bytes_out");
  m_bytes_in_ = &obs::metrics::counter("rpc." + meter + ".bytes_in");
  m_latency_ = &obs::metrics::histogram("rpc." + meter + ".latency_s");
}

RpcClient::~RpcClient() {
  home_.simulation().kill(pump_pid_);
  if (!closed_) {
    try {
      // Even after poisoning, closing tells a still-alive peer (e.g. the
      // daemon's relay loop) to wind down.
      pipe_->close();
    } catch (const Error&) {
      // already gone; nothing to release
    }
  }
}

void RpcClient::pump() {
  try {
    while (true) {
      auto bytes = pipe_->recv_bytes();
      if (!bytes) {
        poison("worker closed the connection");
        return;
      }
      util::ByteReader reader(std::move(*bytes));
      auto request_id = reader.get<std::uint32_t>();
      auto status = static_cast<RpcStatus>(reader.get<std::uint8_t>());
      auto cause = static_cast<WorkerDiedError::Cause>(
          reader.get<std::uint8_t>());
      reader.get<std::uint16_t>();  // header padding
      auto reply_span = reader.get<std::uint64_t>();
      if (request_id == kDeathNoticeId) {
        // Connection-level death notice from the daemon: the registry saw
        // the worker's host die. Carries the host name and cause.
        std::string host = reader.get_string();
        std::string detail = reader.get_string();
        poison(detail, cause, host);
        continue;  // keep draining until the daemon closes the pipe
      }
      auto it = pending_.find(request_id);
      if (it == pending_.end()) {
        if (recently_completed(request_id)) {
          // The duplicate answer of a call that was also resent (or that
          // raced a poison): expected traffic, drop it quietly.
          log::debug("amuse") << label_ << ": dropped duplicate reply for "
                              << request_id;
        } else {
          log::warn("amuse") << label_ << ": reply for unknown request "
                             << request_id;
        }
        continue;
      }
      Future::State& state = *it->second;
      if (state.span.active()) {
        state.span.note_remote(reply_span);
        state.span.end();
      }
      m_latency_->observe(home_.simulation().now() - state.t_sent);
      RpcReply reply;
      reply.status = status;
      // Hand the whole frame over; the payload is read in place behind the
      // header — the reply bytes are never copied out of the receive buffer.
      reply.payload_offset = reader.cursor();
      reply.frame = std::move(reader).release();
      m_bytes_in_->add(static_cast<double>(reply.frame.size()));
      state.box.put(std::move(reply));
      remember_completed(request_id);
      pending_.erase(it);
    }
  } catch (const ConnectError& failure) {
    poison(failure.what(), WorkerDiedError::Cause::link_fault);
  }
}

RpcReply RpcClient::death_reply() const {
  RpcReply reply;
  reply.status = RpcStatus::worker_died;
  reply.frame.assign(death_reason_.begin(), death_reason_.end());
  reply.payload_offset = 0;
  reply.died_host = death_host_;
  reply.died_cause = death_cause_;
  return reply;
}

void RpcClient::poison(const std::string& reason, WorkerDiedError::Cause cause,
                       const std::string& host) {
  if (!dead_) {  // first report wins: it is closest to the root cause
    dead_ = true;
    death_reason_ = reason;
    death_cause_ = cause;
    death_host_ = host;
  }
  for (auto& [id, state] : pending_) {
    state->span.end();  // never answered; close so the trace stays balanced
    state->box.put(death_reply());
    // A late real reply (e.g. sent just before the worker died) should be
    // dropped as a duplicate, not warned about as unknown.
    remember_completed(id);
  }
  pending_.clear();
}

void RpcClient::revive() {
  if (closed_) return;  // a closed client is gone for good
  dead_ = false;
  death_reason_.clear();
  death_host_.clear();
  death_cause_ = WorkerDiedError::Cause::unknown;
}

void RpcClient::remember_completed(std::uint32_t request_id) {
  recent_[recent_pos_] = request_id;
  recent_pos_ = (recent_pos_ + 1) % recent_.size();
}

bool RpcClient::recently_completed(std::uint32_t request_id) const noexcept {
  if (request_id == 0) return false;
  return std::find(recent_.begin(), recent_.end(), request_id) !=
         recent_.end();
}

Future RpcClient::call(Fn fn, util::ByteWriter arguments) {
  auto state = std::make_shared<Future::State>(home_.simulation());
  state->worker = label_;
  if (call_timeout_s_ > 0.0) {
    state->timeout_s = call_timeout_s_;
    state->on_timeout = [this] {
      poison("no reply within " + std::to_string(call_timeout_s_) +
                 " s (worker hung or route black-holed)",
             WorkerDiedError::Cause::timeout);
    };
  }
  if (dead_) {
    state->box.put(death_reply());
    return Future(state);
  }
  std::uint32_t request_id = next_request_++;
  state->request_id = request_id;
  state->t_sent = home_.simulation().now();
  state->span =
      obs::trace::async_span(std::string("rpc:") + fn_name(fn), "rpc");
  pending_[request_id] = state;
  // Writers built via request() already reserve the header: patch it in
  // place and ship the buffer — the payload is not copied again. Plain
  // writers (e.g. the empty `{}` of parameterless calls) get wrapped.
  util::ByteWriter frame;
  if (arguments.prefix() >= kRequestHeaderBytes) {
    frame = std::move(arguments);
  } else {
    frame = util::ByteWriter(kRequestHeaderBytes);
    frame.append(std::move(arguments));
  }
  bool retryable = retry_safe(fn) && retry_max_resends_ > 0;
  frame.patch<std::uint32_t>(kIdOffset, request_id);
  frame.patch<std::uint16_t>(kFnOffset, static_cast<std::uint16_t>(fn));
  frame.patch<std::uint16_t>(
      kFlagsOffset, retryable ? rpc_flags::idempotent : std::uint16_t{0});
  // Trace context: the worker-side span parents under this in-flight call.
  frame.patch<std::uint64_t>(kSpanOffset, state->span.id());
  frame.patch<double>(kDeadlineOffset,
                      call_timeout_s_ > 0.0 ? state->t_sent + call_timeout_s_
                                            : 0.0);
  auto bytes = std::move(frame).take();
  if (retryable) {
    // Keep a copy of the exact frame for retransmission. Reusing the id is
    // the idempotency token: the worker replays the cached reply instead of
    // executing again, and stale duplicates are dropped by the recent ring.
    state->soft_delay_s = retry_soft_delay_s_;
    state->resend = [this, request_id, fn, copy = bytes](int attempt) {
      if (attempt >= retry_max_resends_) return false;
      if (dead_ || closed_) return false;
      if (pending_.find(request_id) == pending_.end()) return false;
      auto resend_bytes = copy;
      // Flags live at a little-endian u16; the resend bit fits the low byte.
      resend_bytes[kFlagsOffset] |= rpc_flags::resend;
      rpc_retries_counter().increment();
      log::debug("amuse") << label_ << ": resend " << fn_name(fn) << " #"
                          << request_id << " (attempt " << attempt + 1 << ")";
      try {
        pipe_->send_bytes(std::move(resend_bytes));
      } catch (const ConnectError&) {
        return false;  // pipe is gone; the pump will poison shortly
      }
      return true;
    };
  }
  m_calls_->increment();
  m_bytes_out_->add(static_cast<double>(bytes.size()));
  try {
    pipe_->send_bytes(std::move(bytes));
  } catch (const ConnectError& failure) {
    pending_.erase(request_id);
    poison(failure.what(), WorkerDiedError::Cause::link_fault);
    state->span.end();
    state->box.put(death_reply());
  }
  return Future(state);
}

util::ByteReader RpcClient::call_sync(Fn fn, util::ByteWriter arguments) {
  return call(fn, std::move(arguments)).get();
}

void RpcClient::close() {
  if (closed_ || dead_) return;
  closed_ = true;
  try {
    util::ByteWriter frame(kRequestHeaderBytes);
    frame.patch<std::uint32_t>(kIdOffset, 0);
    frame.patch<std::uint16_t>(kFnOffset,
                               static_cast<std::uint16_t>(Fn::stop));
    pipe_->send_bytes(std::move(frame).take());
    pipe_->close();
  } catch (const ConnectError&) {
    // Worker already unreachable.
  }
  home_.simulation().kill(pump_pid_);
}

void WorkerServer::cache_reply(std::uint32_t request_id,
                               const std::vector<std::uint8_t>& bytes) {
  if (replay_.emplace(request_id, bytes).second) {
    replay_order_.push_back(request_id);
    while (replay_order_.size() > kReplayCacheEntries) {
      replay_.erase(replay_order_.front());
      replay_order_.pop_front();
    }
  }
}

void WorkerServer::run() {
  try {
    while (true) {
      auto bytes = pipe_->recv_bytes();
      if (!bytes) return;  // client closed
      util::ByteReader reader(std::move(*bytes));
      auto request_id = reader.get<std::uint32_t>();
      auto fn = static_cast<Fn>(reader.get<std::uint16_t>());
      auto flags = reader.get<std::uint16_t>();
      auto wire_span = reader.get<std::uint64_t>();
      auto deadline = reader.get<double>();
      if (fn == Fn::stop) return;
      if (flags & rpc_flags::resend) {
        auto cached = replay_.find(request_id);
        if (cached != replay_.end()) {
          // Retransmission of a call that already executed: replay the
          // cached reply bytes verbatim. Exactly-once execution is what
          // makes retrying flagged state-touching calls (repeat kicks)
          // safe; the client's recent-id ring absorbs the duplicates.
          pipe_->send_bytes(cached->second);
          continue;
        }
        // Not executed yet (the original frame is still in flight behind
        // this one, or was never delivered): fall through and execute — the
        // idempotent flag below caches this execution for later duplicates.
      }
      if (deadline > 0.0 && clock_ && clock_() > deadline) {
        // The caller's hard deadline already passed: it has declared this
        // worker dead and is recovering elsewhere. Refuse instead of
        // executing — mutating state now would race the restore.
        pipe_->send_bytes(
            make_error_frame(request_id, "deadline expired before execution")
                .take());
        continue;
      }
      // The worker-side span parents under the wire-propagated client span,
      // so kernel spans opened inside the dispatcher nest correctly across
      // hosts. Its id is echoed in the reply header for the flow arrow.
      obs::trace::Span serve =
          obs::trace::server_span(fn_name(fn), "serve", wire_span);
      util::ByteWriter reply;
      if (fn == Fn::ping) {
        reply = make_reply_frame(request_id, RpcStatus::ok);
      } else {
        try {
          // The reader sits at the payload; dispatchers consume it in place
          // (span reads stay views into the receive buffer).
          util::ByteWriter result = dispatcher_(fn, reader);
          if (result.prefix() >= kFrameHeaderBytes) {
            reply = std::move(result);
          } else {
            reply = util::ByteWriter(kFrameHeaderBytes);
            reply.append(std::move(result));
          }
          reply.patch<std::uint32_t>(kIdOffset, request_id);
          reply.patch<std::uint8_t>(kStatusOffset,
                                    static_cast<std::uint8_t>(RpcStatus::ok));
        } catch (const Error& failure) {
          reply = make_error_frame(request_id, failure.what());
        }
      }
      reply.patch<std::uint64_t>(kSpanOffset, serve.id());
      serve.end();
      auto reply_bytes = std::move(reply).take();
      if (flags & rpc_flags::idempotent) cache_reply(request_id, reply_bytes);
      pipe_->send_bytes(std::move(reply_bytes));
    }
  } catch (const ConnectError&) {
    // Client side vanished; worker just exits.
  }
}

}  // namespace jungle::amuse
