#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "amuse/clients.hpp"

namespace jungle::amuse {

/// The combined multi-model solver of Fig 7 (Pelupessy & Portegies Zwart
/// 2011), generalized from the hard-wired stars+gas pair to a *vector* of
/// coupled systems: a BRIDGE-style kick–evolve–kick scheme where tree
/// *coupling* kernels (Octgrav or Fi) provide the cross-gravity between any
/// pair of evolving systems (phiGRAPE star clusters, Gadget gas, ...). Every
/// coupling kicks both of its systems by dt/2 at the top and the bottom of
/// every step; only stellar evolution (SSE) runs at a slower rate, folded
/// into its target system every n-th step. The classic embedded-cluster
/// bridge is the two-system, one-coupling instance of this scheme and its
/// physics is bit-identical to the pre-generalization code path (tested).
///
/// The coupling data path is pipelined: each cross-kick phase (state fetch,
/// field queries, kicks) issues every system's calls as concurrent futures,
/// and the delta state exchange keeps unchanged fields off the wire. A step
/// only waits on a reply it consumes:
///  - a fetch of a system whose cached coupling fields are current is
///    skipped, and a field query whose inputs the field client's cached
///    accel was computed from is answered by that client;
///  - the top kicks ride ahead of the evolves on each worker's FIFO pipe,
///    and the bottom kick's state fetch rides right behind them;
///  - the bottom kicks, the stellar mass update and the feedback are not
///    waited on. Their acks are collected by the next step's evolve wait or
///    by settle(), which a caller runs before it commits a checkpoint.
/// A steady step therefore waits on one round trip for the evolve (with the
/// fetch behind it) and one for the bottom kick's field queries; the
/// stellar update adds none on a remote model. A field worker holds one
/// copy of each coupled system's masses and positions, named by the
/// system's index in `systems` and its content ids, for every coupling and
/// direction that names the system: a step ships each system's fresh
/// positions to it once, and masses only after a mass update. Each kicked
/// system costs one field query per step and phase, whatever number of
/// couplings kick it: the worker sums the accels of all its sources on that
/// worker, in coupling order.
class Bridge {
 public:
  /// One evolving model in the graph. The name feeds the call trace
  /// ("kick:gas->stars") and error messages.
  struct System {
    std::string name;
    DynamicsClient* dynamics = nullptr;
  };

  /// One pairwise coupling: `field` evaluates the cross-gravity between
  /// systems `a` and `b`, which it kicks by dt/2 at the top and the bottom
  /// of every bridge step (Fig 7).
  struct Coupling {
    FieldClient* field = nullptr;
    int a = 0;
    int b = 1;
  };

  /// Stellar-evolution wiring: SSE masses flow into the gravity system
  /// `into`; wind/supernova feedback (if any) heats the hydro system
  /// `feedback`.
  struct Stellar {
    StellarClient* client = nullptr;
    GravityClient* into = nullptr;
    HydroClient* feedback = nullptr;
  };

  struct Config {
    double dt = 1.0 / 64.0;       // bridge timestep (N-body units)
    int se_every = 4;             // stellar evolution cadence (paper: n-th)
    double myr_per_nbody_time = 1.0;  // converter: SE ages are in Myr
    /// Thermal feedback efficiency: fraction of wind/SN energy retained by
    /// the gas. 0 disables feedback.
    double feedback_efficiency = 0.1;
    /// Energy per unit wind mass loss (N-body specific-energy units) and
    /// per supernova (N-body energy units); set by the example from
    /// physical numbers through the converter.
    double wind_specific_energy = 0.0;
    double supernova_energy = 0.0;
    /// Restart support (the bit-exact rollback convention): a bridge
    /// rebuilt after a fault begins at the committed checkpoint — its clock
    /// at these exact bits, its step count (which sets the SE cadence phase
    /// and the fault points' step index) at `step_offset`. Workers restored
    /// at the same absolute time then receive evolve targets identical to
    /// the fault-free run's. Both stay 0 for a fresh run.
    double t_start = 0.0;
    int step_offset = 0;
  };

  /// The classic Fig-7 bridge is the two-system instance: systems
  /// {stars, gas}, one coupling {&coupler, 0, 1}, and optionally one
  /// stellar link {&se, &stars, &gas}.
  Bridge(std::vector<System> systems, std::vector<Coupling> couplings,
         std::vector<Stellar> stellar, Config config);

  /// One Fig-7 iteration. All systems' evolve calls run concurrently
  /// (async futures) — the "evolve step can be done in parallel" of the
  /// paper.
  void step();

  /// Wait for the acks of every call the last step sent without waiting
  /// (its bottom kicks, mass update and feedback), rethrowing the first
  /// error. Each worker pipe is FIFO, so any later call to a worker already
  /// sees their effect; this only proves they succeeded. Call it before
  /// committing a checkpoint or ending a run.
  void settle();

  double time() const noexcept { return time_; }

  /// Call-sequence trace ("kick:gas->stars", "evolve:parallel", ...) — the
  /// E6 experiment asserts this matches the Fig-7 schedule.
  const std::vector<std::string>& trace() const noexcept { return trace_; }

  // No state accessors here on purpose: the pipelined path fetches only
  // mass+position, and only when they may have moved, so the clients'
  // caches can hold stale velocities/energies between full fetches.
  // Diagnostics must ask the clients for a full get_state() instead (the
  // experiment runner does).

  /// The MSun <-> N-body mass mapping fixed at the first stellar update of
  /// link `link` (0 = the classic single SE channel). A bridge rebuilt
  /// after a worker restart must inherit it — the current dynamical masses
  /// are no longer the ZAMS masses.
  std::pair<std::vector<double>, std::vector<double>> se_mapping(
      std::size_t link = 0) const;
  void set_se_mapping(std::vector<double> zams_se,
                      std::vector<double> zams_dynamical,
                      std::size_t link = 0);

 private:
  /// Per-link SE bookkeeping (the MSun <-> N-body mapping).
  struct StellarLink {
    Stellar wiring;
    std::vector<double> zams_se;
    std::vector<double> zams_dynamical;
  };

  /// Coupling-state replies in flight, indexed by system (nullopt: none).
  using StateFetches = std::vector<std::optional<Future>>;

  /// Runs one coupling phase up to sending its kicks and returns the kick
  /// acks still in flight. `fetched` holds coupling-state requests the
  /// caller already sent; the phase sends the rest.
  std::vector<Future> cross_kick(StateFetches fetched = {});
  void stellar_update();
  void stellar_update_one(StellarLink& link);
  /// The state a stellar update reads from `client` (gravity or hydro).
  template <typename Client>
  const auto& current_state(Client& client);

  std::vector<System> systems_;
  std::vector<Coupling> couplings_;
  /// Per system: whether any coupling kicks it (fixed at construction).
  std::vector<bool> coupled_;
  std::vector<StellarLink> stellar_;
  Config config_;
  double time_ = 0.0;
  int steps_ = 0;
  std::vector<std::string> trace_;
  /// Acks of calls sent but not yet waited on: bottom kicks, mass updates
  /// and feedback. Collected by the next evolve wait or by settle().
  std::vector<Future> unacked_;
};

}  // namespace jungle::amuse
