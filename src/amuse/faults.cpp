#include "amuse/faults.hpp"

#include <cstring>

#include "amuse/faultpoint.hpp"

namespace jungle::amuse {

namespace {

// FNV-1a, 64-bit.
constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void mix_bytes(std::uint64_t& hash, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= kFnvPrime;
  }
}

void mix_doubles(std::uint64_t& hash, const std::vector<double>& values) {
  mix_bytes(hash, values.data(), values.size() * sizeof(double));
}

void mix_vecs(std::uint64_t& hash, const std::vector<Vec3>& values) {
  for (const Vec3& v : values) {
    mix_bytes(hash, &v.x, sizeof(double));
    mix_bytes(hash, &v.y, sizeof(double));
    mix_bytes(hash, &v.z, sizeof(double));
  }
}

}  // namespace

namespace {

void mix_gravity(std::uint64_t& hash, const GravityCheckpoint& g) {
  mix_doubles(hash, g.state.mass);
  mix_vecs(hash, g.state.position);
  mix_vecs(hash, g.state.velocity);
  mix_bytes(hash, &g.model_time, sizeof(double));
}

void mix_hydro(std::uint64_t& hash, const HydroCheckpoint& h) {
  mix_doubles(hash, h.state.mass);
  mix_vecs(hash, h.state.position);
  mix_vecs(hash, h.state.velocity);
  mix_doubles(hash, h.state.internal_energy);
  mix_doubles(hash, h.state.density);
  mix_bytes(hash, &h.model_time, sizeof(double));
}

void mix_field(std::uint64_t& hash, const FieldCheckpoint& f) {
  mix_doubles(hash, f.source_mass);
  mix_vecs(hash, f.source_position);
}

}  // namespace

std::uint64_t digest(const GravityCheckpoint& save) {
  std::uint64_t hash = kFnvOffset;
  mix_gravity(hash, save);
  return hash;
}

std::uint64_t digest(const HydroCheckpoint& save) {
  std::uint64_t hash = kFnvOffset;
  mix_hydro(hash, save);
  return hash;
}

std::uint64_t digest(const FieldCheckpoint& save) {
  std::uint64_t hash = kFnvOffset;
  mix_field(hash, save);
  return hash;
}

std::uint64_t digest(const GraphCheckpoint& save) {
  std::uint64_t hash = kFnvOffset;
  mix_bytes(hash, &save.epoch, sizeof(save.epoch));
  for (const GravityCheckpoint& g : save.gravity) mix_gravity(hash, g);
  for (const HydroCheckpoint& h : save.hydro) mix_hydro(hash, h);
  for (const FieldCheckpoint& f : save.field) mix_field(hash, f);
  return hash;
}

GravityCheckpoint checkpoint_gravity(GravityClient& gravity) {
  PendingCapture reads = request_checkpoint(gravity);
  return finish_checkpoint(gravity, reads);
}

PendingCapture request_checkpoint(GravityClient& gravity) {
  PendingCapture reads;
  reads.state = gravity.request_state(state_field::gravity_all);
  reads.clock = gravity.request_dynamics();
  return reads;
}

PendingCapture request_checkpoint(HydroClient& hydro) {
  PendingCapture reads;
  reads.state = hydro.request_state(state_field::hydro_all);
  reads.clock = hydro.request_time();
  return reads;
}

GravityCheckpoint finish_checkpoint(GravityClient& gravity,
                                    PendingCapture& reads) {
  GravityCheckpoint save;
  save.state = gravity.finish_state(*reads.state, state_field::gravity_all);
  gravity.finish_dynamics(*reads.clock, save.acc, save.jerk, save.model_time);
  return save;
}

HydroCheckpoint finish_checkpoint(HydroClient& hydro, PendingCapture& reads) {
  HydroCheckpoint save;
  save.state = hydro.finish_state(*reads.state, state_field::hydro_all);
  save.model_time = HydroClient::finish_time(*reads.clock);
  return save;
}

FieldCheckpoint checkpoint_field(FieldClient& field) {
  FieldCheckpoint save;
  save.source_mass = field.last_source_mass();
  save.source_position = field.last_source_position();
  return save;
}

void restore_gravity(GravityClient& gravity, const GravityCheckpoint& save) {
  faultpoint::reach(faultpoint::Point::recover_restore, -1,
                    gravity.rpc().label());
  gravity.add_particles(save.state.mass, save.state.position,
                        save.state.velocity);
  if (!save.acc.empty()) {
    // Install the checkpointed dynamics verbatim — absolute clock plus the
    // corrector-stage forces — so the replacement resumes the exact substep
    // sequence of the integrator it replaces (bit-for-bit replay).
    gravity.set_dynamics(save.acc, save.jerk, save.model_time);
  } else {
    // Initial-conditions checkpoint (epoch 0): the fault-free integrator at
    // t=0 has not evaluated forces yet — it does so inside the first evolve,
    // *after* the opening kick. Leave the restored one equally unprimed so
    // the replay matches bit-for-bit.
  }
}

void restore_hydro(HydroClient& hydro, const HydroCheckpoint& save) {
  faultpoint::reach(faultpoint::Point::recover_restore, -1,
                    hydro.rpc().label());
  hydro.add_gas(save.state.mass, save.state.position, save.state.velocity,
                save.state.internal_energy);
  // Absolute-clock restart: the replacement accepts the same evolve targets
  // as the worker it replaces. The clock is not the only carried state: the
  // old worker's smoothing lengths `h_` seed its density fixed point, and
  // the checkpoint does not hold them, so the fresh worker restarts from
  // its seed h and a restore after epoch 0 is not bit-exact.
  hydro.set_time(save.model_time);
}

void restore_field(FieldClient& field, const FieldCheckpoint& save) {
  faultpoint::reach(faultpoint::Point::recover_restore, -1,
                    field.rpc().label());
  if (!save.source_mass.empty()) {
    field.set_sources(save.source_mass, save.source_position);
  }
}

}  // namespace jungle::amuse
