#include "amuse/faults.hpp"

#include "amuse/faultpoint.hpp"
#include "util/fnv.hpp"

namespace jungle::amuse {

namespace {

void mix_gravity(util::Fnv1a& hash, const GravityCheckpoint& g) {
  hash.mix_all(g.state.mass);
  hash.mix_all(g.state.position);
  hash.mix_all(g.state.velocity);
  hash.mix(g.model_time);
}

void mix_hydro(util::Fnv1a& hash, const HydroCheckpoint& h) {
  hash.mix_all(h.state.mass);
  hash.mix_all(h.state.position);
  hash.mix_all(h.state.velocity);
  hash.mix_all(h.state.internal_energy);
  hash.mix_all(h.state.density);
  hash.mix(h.model_time);
}

}  // namespace

std::uint64_t digest(const GravityCheckpoint& save) {
  util::Fnv1a hash;
  mix_gravity(hash, save);
  return hash.hash;
}

std::uint64_t digest(const HydroCheckpoint& save) {
  util::Fnv1a hash;
  mix_hydro(hash, save);
  return hash.hash;
}

std::uint64_t digest(const GraphCheckpoint& save) {
  util::Fnv1a hash;
  hash.mix(save.epoch);
  for (const GravityCheckpoint& g : save.gravity) mix_gravity(hash, g);
  for (const HydroCheckpoint& h : save.hydro) mix_hydro(hash, h);
  return hash.hash;
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

}  // namespace jungle::amuse
