#pragma once

#include <string>
#include <utility>
#include <vector>

#include "amuse/clients.hpp"

namespace jungle::amuse {

/// The combined multi-model solver of Fig 7 (Pelupessy & Portegies Zwart
/// 2011), generalized from the hard-wired stars+gas pair to a *vector* of
/// coupled systems: a BRIDGE-style kick–evolve–kick scheme where tree
/// *coupling* kernels (Octgrav or Fi) provide the cross-gravity between any
/// pair of evolving systems (phiGRAPE star clusters, Gadget gas, ...), and
/// stellar evolution (SSE) is folded into its target system every n-th step
/// at a slower rate. The classic embedded-cluster bridge is the two-system,
/// one-coupling instance of this scheme and its physics is bit-identical to
/// the pre-generalization code path (tested).
///
/// The coupling data path is pipelined: each cross-kick phase (state fetch,
/// field queries, kicks) issues every system's calls as concurrent futures,
/// and the delta state exchange keeps unchanged fields off the wire. A step
/// only waits on round trips whose answer the client cannot already know:
/// a fetch of a system whose cached coupling fields are current is skipped,
/// a field query the coupler would answer "unchanged" is answered by the
/// field client, and the top kicks ride ahead of the evolves on each
/// worker's FIFO pipe with their acks collected during the evolve. A steady
/// step therefore pays no round trip for its top half-kick, one for the
/// evolve and three for the bottom half-kick. The pre-overhaul serial path
/// is kept behind Config::synchronous_datapath as the baseline the
/// data-path bench compares against (bit-identical physics, more round
/// trips and bytes).
class Bridge {
 public:
  /// One evolving model in the graph. The name feeds the call trace
  /// ("kick:gas->stars") and error messages.
  struct System {
    std::string name;
    DynamicsClient* dynamics = nullptr;
  };

  /// One pairwise coupling: `field` evaluates the cross-gravity between
  /// systems `a` and `b` every `every`-th bridge step (1 = the classic
  /// every-step Fig-7 cadence; a larger cadence pays kicks of every*dt/2 at
  /// the boundaries of its window, nested-BRIDGE style).
  struct Coupling {
    FieldClient* field = nullptr;
    int a = 0;
    int b = 1;
    int every = 1;
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
    /// at these exact bits, its step count (which sets the SE and coupling
    /// cadence phase) at `step_offset`. Workers restored at the same
    /// absolute time then receive evolve targets identical to the
    /// fault-free run's. Both stay 0 for a fresh run.
    double t_start = 0.0;
    int step_offset = 0;
    /// Run the pre-overhaul serial coupling path (full state fetches, one
    /// RPC at a time). Benchmarks and the bit-exactness test use it.
    bool synchronous_datapath = false;
  };

  /// The classic Fig-7 bridge is the two-system instance: systems
  /// {stars, gas}, one coupling {&coupler, 0, 1, 1}, and optionally one
  /// stellar link {&se, &stars, &gas}.
  Bridge(std::vector<System> systems, std::vector<Coupling> couplings,
         std::vector<Stellar> stellar, Config config);

  /// One Fig-7 iteration. All systems' evolve calls run concurrently
  /// (async futures) — the "evolve step can be done in parallel" of the
  /// paper.
  void step();

  double time() const noexcept { return time_; }
  int steps_done() const noexcept { return steps_; }

  /// Call-sequence trace ("kick:gas->stars", "evolve:parallel", ...) — the
  /// E6 experiment asserts this matches the Fig-7 schedule.
  const std::vector<std::string>& trace() const noexcept { return trace_; }
  void clear_trace() { trace_.clear(); }

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

  /// Couplings that fire on a phase, given the step they belong to.
  std::vector<int> active_couplings(int step_index, bool bottom) const;
  /// Runs one coupling phase up to sending its kicks and returns the kick
  /// acks still in flight (none on the synchronous path, which waits).
  std::vector<Future> cross_kick(const std::vector<int>& active);
  void cross_kick_synchronous(const std::vector<int>& active);
  void stellar_update();
  void stellar_update_one(StellarLink& link);

  std::vector<System> systems_;
  std::vector<Coupling> couplings_;
  std::vector<StellarLink> stellar_;
  Config config_;
  double time_ = 0.0;
  int steps_ = 0;
  std::vector<std::string> trace_;
};

}  // namespace jungle::amuse
