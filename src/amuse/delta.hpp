#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "kernels/vec3.hpp"
#include "util/bytebuffer.hpp"
#include "util/error.hpp"

namespace jungle::amuse {

/// Epoch-tagged delta state exchange (the wide-area data path's traffic
/// diet): workers stamp every mutation with an epoch, clients remember what
/// they last fetched, and a get_state only moves the fields that changed
/// since. Per-iteration WAN traffic is what the paper's coupling scheme must
/// minimize (§4.1); this protocol is how we minimize it.

/// Field bits shared by the gravity (mass|position|velocity) and hydro
/// (+internal_energy|density) state exchanges.
namespace state_field {
inline constexpr std::uint64_t mass = 1;
inline constexpr std::uint64_t position = 2;
inline constexpr std::uint64_t velocity = 4;
inline constexpr std::uint64_t internal_energy = 8;
inline constexpr std::uint64_t density = 16;

inline constexpr std::uint64_t gravity_all = mass | position | velocity;
inline constexpr std::uint64_t hydro_all =
    mass | position | velocity | internal_energy | density;
/// What the bridge's cross-kick actually consumes.
inline constexpr std::uint64_t coupling = mass | position;

inline constexpr int kCount = 5;

/// Modifier bit in a request's want_mask (not a field): the client asks for
/// the position span truncated to f32 on the wire — half the bytes of the
/// dominant field, for couplings crossing a low-bandwidth link that opted in
/// via `fp_truncate` on the topology link. The reply's sent/stale masks and
/// per-field StateIds never carry the bit; precision loss is confined to the
/// wire format of one reply.
inline constexpr std::uint64_t fp32_positions = 32;
}  // namespace state_field

/// The f32 position stream: the wire form of a position span on an
/// fp32_positions reply and of a ghost update's positions when its flag is
/// set. Layout: [u64 float count = 3n][f32 x, y, z per position], then a
/// u32 zero pad when n is odd, so whatever follows stays 8-byte aligned for
/// zero-copy reads.
inline void put_positions_f32(util::ByteWriter& out,
                              std::span<const kernels::Vec3> positions) {
  std::vector<float> packed;
  packed.reserve(positions.size() * 3);
  for (const kernels::Vec3& p : positions) {
    packed.push_back(static_cast<float>(p.x));
    packed.push_back(static_cast<float>(p.y));
    packed.push_back(static_cast<float>(p.z));
  }
  out.put_vector(packed);
  if (positions.size() % 2 != 0) out.put<std::uint32_t>(0);  // realign
}

/// Read an f32 position stream, widened to f64, into `into` (resized to the
/// position count). A float count that is not whole positions, or an odd
/// count without its zero pad, is a malformed frame: CodeError.
inline void get_positions_f32(util::ByteReader& in,
                              std::vector<kernels::Vec3>& into) {
  auto packed = in.get_span<float>();
  if (packed.size() % 3 != 0) {
    throw CodeError("f32 positions: " + std::to_string(packed.size()) +
                    " floats are not whole positions");
  }
  const std::size_t count = packed.size() / 3;
  if (count % 2 != 0 && (in.remaining() < sizeof(std::uint32_t) ||
                         in.get<std::uint32_t>() != 0)) {
    throw CodeError("f32 positions: no realign pad after an odd count");
  }
  into.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    into[i] = kernels::Vec3{static_cast<double>(packed[3 * i]),
                            static_cast<double>(packed[3 * i + 1]),
                            static_cast<double>(packed[3 * i + 2])};
  }
}

/// 64-bit content identity: a worker-instance nonce in the top half, the
/// epoch at which the content last changed in the bottom half. Zero means
/// "unknown" and never matches. A restarted worker mints a fresh instance,
/// so ids from before a fault-path rollback can never be mistaken for
/// current content — that is what invalidates every downstream cache
/// (client state caches, the coupler's held systems and accel shortcuts) on
/// rollback/replay.
using StateId = std::uint64_t;

inline StateId make_state_id(std::uint32_t instance,
                             std::uint32_t epoch) noexcept {
  return (static_cast<std::uint64_t>(instance) << 32) | epoch;
}

inline std::uint32_t state_id_instance(StateId id) noexcept {
  return static_cast<std::uint32_t>(id >> 32);
}

/// Identity of a combination of same-instance fields: within one instance
/// the last-changed epochs are totally ordered, so the max changes exactly
/// when any member does.
inline StateId combine_state_ids(StateId a, StateId b) noexcept {
  return a > b ? a : b;
}

/// Worker-side bookkeeping: one epoch counter, bumped on every mutation,
/// plus the epoch at which each field last changed.
struct StateEpochs {
  std::uint32_t instance;
  std::uint32_t epoch = 1;
  std::array<std::uint32_t, state_field::kCount> changed{};

  StateEpochs() : instance(next_instance()) {}

  void bump(std::uint64_t fields) {
    ++epoch;
    for (int i = 0; i < state_field::kCount; ++i) {
      if (fields & (1ULL << i)) changed[static_cast<std::size_t>(i)] = epoch;
    }
  }

  StateId id() const noexcept { return make_state_id(instance, epoch); }
  StateId field_id(int index) const noexcept {
    return make_state_id(instance, changed[static_cast<std::size_t>(index)]);
  }

  /// Should `bit` travel to a client that holds `have_mask` at `have_id`?
  bool field_changed_since(int index, StateId have_id) const noexcept {
    if (state_id_instance(have_id) != instance) return true;
    return field_id(index) > have_id;
  }

 private:
  static std::uint32_t next_instance() noexcept {
    static std::atomic<std::uint32_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
  }
};

/// Flag bits of the kick exchange. Kicks travel as *accel + dt* and the
/// worker multiplies (Δv_i = a_i * dt): the frame is
///   [u64 flags][f64 dt] (+ [accel span] unless `repeat`).
/// A half-kick whose acceleration is unchanged (the common case right after
/// an all-cache-hit coupling phase) replays the worker's cached accel under
/// the frame's dt — 16 payload bytes instead of the whole array.
namespace kick_flags {
inline constexpr std::uint64_t repeat = 1;
}

/// Flag bits of the delta stellar-mass exchange (se_get_mass_updates): a
/// `full` reply carries every mass; otherwise only [indices][values] of the
/// stars whose mass changed since the last exchange travel.
namespace se_mass_flags {
inline constexpr std::uint64_t full = 1;
}

/// Flag bits of the field_accel_for exchange: one per array the frame
/// carries. A frame asks for the summed accel of one kicked system (the
/// target) in the field of its sources, in coupling order. The coupler
/// holds one copy of each coupled system's masses and positions; a frame
/// ships an array only when the coupler does not hold it under the id the
/// frame names. The frame is
///   [u64 target system][StateId target position id]
///   [u64 source count << kShift | target flags]
/// then, per source in coupling order,
///   [u64 source system << kShift | source flags]
///   [StateId source mass id][StateId source position id]
/// then [target positions] and, per source in the same order, [source
/// masses] [source positions], each present only when its flag is set. A
/// one-source frame is six words. A source named twice is summed twice; its
/// second mention may read an array the first one shipped.
namespace accel_flags {
inline constexpr std::uint64_t source_mass = 1;
inline constexpr std::uint64_t source_position = 2;
inline constexpr std::uint64_t target_position = 4;
/// The flag bits sit below this shift; a count or system index above it.
inline constexpr int kShift = 8;
inline constexpr std::uint64_t kMask = (std::uint64_t{1} << kShift) - 1;
}

}  // namespace jungle::amuse
