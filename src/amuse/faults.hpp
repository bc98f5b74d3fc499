#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "amuse/clients.hpp"

namespace jungle::amuse {

/// Fault-tolerance extension (the paper's §7 future work: "In theory it
/// should be possible to transparently find a replacement machine"). The
/// script checkpoints worker state after each bridge step; when a worker
/// dies (WorkerDiedError from the RPC layer), it starts a replacement on
/// another resource and reloads the checkpoint. Both evolving model kinds
/// are covered — gravity (phiGRAPE) and hydro (Gadget). The coupling field
/// kernel (Octgrav/Fi) needs no checkpoint: it holds only copies of the
/// coupled systems' masses and positions, and a replaced or revived
/// coupler's client starts with empty records, so its first query ships
/// every array it names. Together this
/// lets the placement scheduler re-place any kernel mid-run, not just the
/// star cluster.
///
/// Checkpoints hold model state only. Physics parameters (eps2, eta, theta)
/// live in the WorkerSpec every start, re-place and supervised restart
/// builds its worker from, so a replacement already runs the same physics.

struct GravityCheckpoint {
  GravityState state;
  double model_time = 0.0;
  /// Corrector-stage forces the integrator carries across evolve() calls
  /// (evaluated at *predicted* positions — a fresh evaluation at the
  /// corrected state differs by roundoff). Restored verbatim so a replayed
  /// step resumes the checkpointed substep sequence bit-for-bit. Not part
  /// of the digest: two runs agreeing on mass/position/velocity/time agree
  /// on these by construction.
  std::vector<Vec3> acc;
  std::vector<Vec3> jerk;
};

struct HydroCheckpoint {
  HydroState state;
  double model_time = 0.0;
};

/// One consistent snapshot of the *whole* model graph. Slot-indexed in
/// declaration order; exactly one of the per-slot entries is meaningful,
/// matching the model's role (stellar models re-derive from their ZAMS
/// masses instead, and couplers hold no state to save). Capture stages into
/// a fresh GraphCheckpoint and the runner installs it with a single move —
/// all models commit or none, so a death anywhere during checkpointing can
/// never leave mixed-epoch saves.
struct GraphCheckpoint {
  /// Bridge steps the snapshot describes (0 = initial conditions). The
  /// rollback target is *this* number — pairing the clock with the states
  /// it belongs to by construction.
  int epoch = 0;
  /// The bridge clock at commit, bit-exact (epoch * dt re-derived by
  /// multiplication can differ from the accumulated sum in the last ulp).
  /// The rebuilt bridge restarts from these exact bits so every subsequent
  /// evolve target matches the fault-free run's.
  double time = 0.0;
  std::vector<GravityCheckpoint> gravity;
  std::vector<HydroCheckpoint> hydro;

  void resize(std::size_t n_models) {
    gravity.resize(n_models);
    hydro.resize(n_models);
  }
};

/// FNV-1a over the checkpoint's raw state (bit patterns of every particle
/// array plus the epoch). Two runs landing on the same digest at the same
/// epoch carry bit-for-bit identical physics — the golden-run invariant the
/// fault-schedule explorer checks after every recovery.
std::uint64_t digest(const GraphCheckpoint& save);
/// Per-model digests (same hash family) — lets the explorer pinpoint
/// *which* model diverged, not just that the graph did.
std::uint64_t digest(const GravityCheckpoint& save);
std::uint64_t digest(const HydroCheckpoint& save);

/// Snapshot live workers.
GravityCheckpoint checkpoint_gravity(GravityClient& gravity);

/// The same snapshots in two halves. request_checkpoint issues one model's
/// reads (its full state, then its dynamics or clock) without waiting;
/// finish_checkpoint consumes them. Requesting every model before
/// finishing any makes a graph checkpoint cost one round trip.
struct PendingCapture {
  std::optional<Future> state;
  std::optional<Future> clock;
};
PendingCapture request_checkpoint(GravityClient& gravity);
PendingCapture request_checkpoint(HydroClient& hydro);
GravityCheckpoint finish_checkpoint(GravityClient& gravity,
                                    PendingCapture& reads);
HydroCheckpoint finish_checkpoint(HydroClient& hydro, PendingCapture& reads);

/// Restore a checkpoint into a *fresh* worker (local or remote). The
/// restored worker resumes on the *absolute* clock: its model time is the
/// checkpoint's, it accepts the same evolve targets as the worker it
/// replaces, and (for gravity) it carries the checkpointed corrector-stage
/// forces — so the replayed steps are bit-for-bit the fault-free ones. The
/// fresh worker must be started from the WorkerSpec of the one it replaces:
/// a restore sends state, not physics parameters.
void restore_gravity(GravityClient& gravity, const GravityCheckpoint& save);
void restore_hydro(HydroClient& hydro, const HydroCheckpoint& save);

}  // namespace jungle::amuse
