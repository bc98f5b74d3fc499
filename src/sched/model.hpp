#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "sim/host.hpp"
#include "sim/network.hpp"

namespace jungle::sched {

/// The model-kernel classes the scheduler knows how to place. `gravity`
/// and `hydro` evolve concurrently (bridge phase 2); `coupler` sits on the
/// serial coupling path; `stellar` exchanges state every n-th step.
enum class Role : int { gravity = 0, hydro = 1, coupler = 2, stellar = 3 };
inline constexpr int kRoles = 4;
const char* role_name(Role role) noexcept;

/// One model of an experiment graph, in the numbers the cost model prices.
struct ModelLoad {
  std::string name;
  Role role = Role::gravity;
  std::size_t n = 0;     // particles (gravity/hydro) or stars (stellar)
  int of = -1;           // stellar: index of the gravity model SE feeds
  /// Kernel restriction ("" = any candidate of the role; otherwise only
  /// candidates whose worker code matches, e.g. "phigrape-gpu").
  std::string kernel;
  /// Explicit MPI width for hydro (0 = let the scheduler size it).
  int nranks = 0;
  /// Domain decomposition (gravity only): shard the model across this many
  /// workers, each integrating a contiguous Morton range. Candidates need
  /// that many live CPU nodes on one resource; compute divides by the shard
  /// count and the per-step ghost exchange is priced on the client wire.
  int workers = 1;
};

/// One pairwise coupling of the graph: `field` (an index into models, role
/// coupler) bridges dynamic models `a` and `b` on every step.
struct CouplingLoad {
  int field = -1;
  int a = -1;
  int b = -1;
};

/// What one bridge iteration of an experiment does, in numbers the cost
/// model can price: the model graph (particle counts and coupling shape),
/// the bridge timestep (which sets the kernels' substep counts) and the
/// run length (which sets the horizon queue delays amortize over).
/// ExperimentSpec::workload() builds it from a declared experiment; a
/// placement has one slot per entry of `models`, in the same order.
struct Workload {
  double dt = 1.0 / 32.0;
  int iterations = 2;
  int se_every = 4;

  std::vector<ModelLoad> models;
  std::vector<CouplingLoad> couplings;
};

// ---- calibration constants (see DESIGN.md, "Placement cost model") ----
// Substep counts per unit of N-body time, matching the kernels' observed
// behaviour at the embedded-cluster scales (eta=0.02, standard Courant).
inline constexpr double kGravSubstepsPerTime = 256.0;
inline constexpr double kSphSubstepsPerTime = 64.0;
/// SPH neighbour count the density/force loops touch per particle.
inline constexpr double kSphNeighbours = 32.0;
/// Barnes-Hut interactions per target scale ~ c * log2(n_sources) at
/// theta=0.6; this is c.
inline constexpr double kTreeInteractionsPerTargetLog = 28.0;
/// Placement decisions are made for production runs (the paper's runs last
/// "about half a day"), so one-time costs — queue decisions, file staging —
/// amortize over at least this many iterations even when the measured run
/// is shorter.
inline constexpr double kAmortizeIterationsFloor = 64.0;
/// Traffic that cannot connect directly (firewall/NAT) detours through the
/// SmartSockets hub overlay; one extra store-and-forward hop ~ 1.5x the
/// direct round-trip.
inline constexpr double kTunnelRttFactor = 1.5;
/// Nominal input-file staging per deployed worker (matches the daemon's
/// JobDescription::stage_in_bytes).
inline constexpr double kStageInBytes = 1e6;

/// Wire characteristics between the coupling script and a worker host, with
/// the NAT/inbound detour folded in. All scheduler communication costs are
/// priced through this.
struct LinkCost {
  static constexpr int kMaxStreams = 8;  // == smartsockets::kMaxStripes

  double rtt_s = 0.0;
  double bandwidth_Bps = 0.0;
  /// Path throughput when a transfer rides 1..kMaxStreams parallel streams
  /// (per-stream caps on long fat links aggregate — smartsockets
  /// striping). bandwidth_by_streams[0] == bandwidth_Bps.
  std::array<double, kMaxStreams> bandwidth_by_streams{};
  bool tunneled = false;
  bool reachable = true;
  /// The path crosses a link flagged `fp_truncate`: position arrays travel
  /// as f32 (12 B/particle instead of 24 B) — state fetches and ghost
  /// pushes are priced at the narrowed volume.
  bool fp_truncate = false;

  /// Duration of one synchronous RPC moving `bytes` (request + reply),
  /// priced at the stripe count the transport would actually use for this
  /// payload (smartsockets::stripe_count).
  double call_seconds(double bytes) const;
};

/// Measure the path client->host (rtt, bottleneck bandwidth, tunneling).
LinkCost link_between(const sim::Network& net, const sim::Host& client,
                      const sim::Host& host);

// ---- per-iteration wire volume of the pipelined delta data path ----
// The communication term prices what the overhauled path actually ships
// (measured against scenario runs: see DESIGN.md "Wide-area data path"),
// not the naive full-state volumes. One bridge step runs two cross-kicks:
// the post-evolve one moves changed positions, each coupled system's fresh
// positions to its coupler once and fresh accel+dt kicks; the post-kick one
// is all cache hits — header-only RPCs and 16-byte kick repeats.

/// Fixed per-RPC overhead: frame header (16 bytes each direction, with the
/// trace span id) + connection framing + the delta bookkeeping fields
/// (ids/masks) of a state exchange.
inline constexpr double kCallOverheadBytes = 120.0;
/// Payload of a kick frame beyond the accel span: [u64 flags][f64 dt].
inline constexpr double kKickHeaderBytes = 16.0;

// Per-call payload volumes, mirroring the frame layouts in
// amuse/clients.cpp. `n_a`/`n_b` are the two coupled systems' sizes.
/// Changed positions after an evolve: 24 B/particle, or 12 B/particle when
/// the path opted into f32 truncation.
double state_fetch_bytes(std::size_t n, bool fp_truncate);
/// One field worker's post-evolve queries: `queries` calls, one per system
/// its couplings kick, that together upload the fresh positions of the
/// coupled systems it holds, `held_particles` in total, each system once.
double coupling_upload_bytes(std::size_t held_particles, int queries);
/// Their replies: one summed accel per kicked system, `kicked_particles`
/// rows in total.
double coupling_reply_bytes(std::size_t kicked_particles);
double kick_bytes(std::size_t n);                           // accel + dt

/// Per-iteration ghost-exchange wire volume of a `workers`-shard gravity
/// model, both halves priced on the coordinating client's wire: the pull
/// (every shard's owned position+velocity slice, n particles total) and the
/// push (each shard's (K-1)/K ghost rows, (K-1)*n particles total, with
/// positions narrowed when the path opted into f32 truncation).
double ghost_pull_bytes(std::size_t n, int workers);
double ghost_push_bytes(std::size_t n, int workers, bool fp_truncate);

/// Mean Barnes-Hut interactions per evaluation point against `n_sources`.
double tree_interactions_per_target(std::size_t n_sources);

/// Effective device rate in flops/second for a kernel charged to `host`
/// (paper device model: effective rates, not peaks). GPU rates ignore
/// `ncores`; throws nothing — a missing GPU yields 0 (infeasible).
double device_rate_flops(const sim::Host& host, bool gpu, int ncores);

// Per-iteration *compute* seconds of each model kernel on a device of
// `rate` flops/s. The formulas mirror the flop charges in amuse/workers.cpp.
double gravity_compute_seconds(std::size_t n, double dt, double rate);
/// One cross-gravity recompute between systems of `n_a` and `n_b`
/// particles: rebuild both source trees, evaluate both directions. The
/// coupler recomputes once per bridge step (the other cross-kick is a
/// cache hit).
double coupler_compute_seconds(std::size_t n_a, std::size_t n_b, double rate);
double stellar_compute_seconds(std::size_t n, int se_every, double rate);
/// `nranks` partitions the SPH phases; `interconnect` prices the slice
/// exchanges between ranks (the resource's LAN, or loopback when single).
double hydro_compute_seconds(std::size_t n, double dt, double rate,
                             int nranks, const LinkCost& interconnect);

/// Measured-vs-modeled compute correction, fed back from the first traced
/// iteration: per-model multipliers the scorer applies to its modeled
/// compute seconds (the substep-count formulas above systematically
/// underestimate the kernels' adaptive stepping). Scales clamp to
/// [1/64, 64] so one bad measurement cannot wedge the planner.
struct Calibration {
  static constexpr double kMinScale = 1.0 / 64.0;
  static constexpr double kMaxScale = 64.0;

  std::map<std::string, double> compute_scale;  // model name -> multiplier

  bool empty() const noexcept { return compute_scale.empty(); }
  void set_scale(const std::string& model, double scale) {
    if (!(scale > 0.0)) return;  // reject nonsense (<=0, NaN)
    compute_scale[model] = std::clamp(scale, kMinScale, kMaxScale);
  }
  double scale_for(const std::string& model) const noexcept {
    auto it = compute_scale.find(model);
    return it != compute_scale.end() ? it->second : 1.0;
  }
};

}  // namespace jungle::sched
