#pragma once

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "amuse/delta.hpp"
#include "amuse/rpc.hpp"
#include "kernels/vec3.hpp"

namespace jungle::amuse {

using kernels::Vec3;

/// Typed client-side proxies over the RPC protocol — what an AMUSE script
/// holds instead of raw channels. All bulk state moves as flat arrays (the
/// real AMUSE does the same for performance).
///
/// The gravity and hydro proxies keep an epoch-tagged *state cache*: a
/// get_state tells the worker what the client already holds, and only the
/// fields that changed since travel back (delta exchange). They also know
/// when that cache's coupling fields provably equal the worker's, so the
/// bridge can skip a fetch whose reply would carry nothing. The field proxy
/// keeps per-direction source/point/accel caches mirroring the coupler
/// worker's and answers a query whose reply would be "unchanged" itself.
/// `set_delta_exchange(false)` restores the pre-delta full-fetch wire
/// behaviour (the synchronous baseline the benches compare against).

struct GravityState {
  std::vector<double> mass;
  std::vector<Vec3> position;
  std::vector<Vec3> velocity;
};

struct HydroState {
  std::vector<double> mass;
  std::vector<Vec3> position;
  std::vector<Vec3> velocity;
  std::vector<double> internal_energy;
  std::vector<double> density;
};

/// Client half of the delta state exchange, shared by the gravity and hydro
/// proxies: what we hold, at which content id, and the per-field change ids
/// the last reply reported (these feed the coupler's source/point tags).
/// Cache invalidation is by construction, not by reset: the fault path
/// builds fresh clients (empty caches) and restarted workers mint fresh
/// state-id instances, so stale entries can never match.
struct DeltaCacheInfo {
  StateId id = 0;
  std::uint64_t mask = 0;
  std::array<StateId, state_field::kCount> field_ids{};
  bool delta_enabled = true;
};

/// Lifecycle surface every model client shares, whatever its role: the
/// worker RPC, the channel the fault machinery watches, shutdown, and the
/// delta-exchange switches. The Experiment runner owns each model through
/// one pointer to this base; only IC generation, checkpoints and final
/// observables need the typed client.
class ModelClient {
 public:
  virtual ~ModelClient() = default;
  ModelClient(const ModelClient&) = delete;
  ModelClient& operator=(const ModelClient&) = delete;

  virtual RpcClient& rpc() noexcept { return *rpc_; }
  /// The RPC whose death/liveness the fault machinery should watch. For a
  /// plain client this is rpc(); a sharded facade reports the first dead
  /// shard's RPC so death_cause/try_revive see the actual casualty.
  virtual RpcClient& fault_rpc() { return rpc(); }
  virtual void close() { rpc_->close(); }

  /// `false` restores the pre-delta full-fetch wire behaviour (the
  /// synchronous baseline the benches compare against).
  virtual void set_delta_exchange(bool enabled) = 0;
  /// Forget everything the delta protocol believes the *worker* holds —
  /// called after a supervised in-place worker restart (cause=
  /// process_crash), where the client object survives but the worker came
  /// back blank. Client-side copies that a restore replays from (a state
  /// cache, the last field sources) are kept. (The state-id instance nonce
  /// already makes stale ids unmatchable; this clears the client half
  /// explicitly.)
  virtual void reset_delta_caches() = 0;

 protected:
  /// Facades (ShardedGravityClient) own no single worker RPC; they
  /// override every member that would touch rpc_.
  ModelClient() = default;
  explicit ModelClient(std::unique_ptr<RpcClient> rpc)
      : rpc_(std::move(rpc)) {}

  std::unique_ptr<RpcClient> rpc_;
};

/// Role-generic client surface of an *evolving* model (a system the Bridge
/// can couple): concurrent evolve, pipelined delta state exchange of the
/// coupling fields (mass + position), accel+dt kicks, and a model clock.
/// GravityClient and HydroClient implement it; the generalized Bridge and
/// the Experiment runner hold systems through this interface instead of
/// being hard-wired to exactly one gravity and one hydro proxy.
class DynamicsClient : public ModelClient {
 public:
  using ModelClient::ModelClient;

  virtual Future evolve_async(double t_end) = 0;
  void evolve(double t_end) { evolve_async(t_end).get(); }

  /// Pipelined fetch: issue now, merge the delta into the cache later.
  virtual Future request_state(std::uint64_t want_mask) = 0;
  virtual void merge_state(Future& reply, std::uint64_t want_mask) = 0;
  /// True while the cached mass and position provably equal the worker's:
  /// a merge that covered state_field::coupling sets it (unless a call
  /// that can move mass or position was issued after its request), and
  /// every such call clears it. A coupling fetch of a current system would
  /// carry no field, so the bridge skips it.
  virtual bool coupling_current() const noexcept { return coupling_current_; }
  /// Every state field this model exchanges (the full-fetch mask).
  virtual std::uint64_t full_mask() const = 0;

  /// Views over the cached coupling fields (valid until the next merge).
  virtual std::span<const double> mass() const = 0;
  virtual std::span<const Vec3> position() const = 0;

  /// Content ids for the coupler's caches (0 until the field was fetched).
  virtual StateId coupling_sources_id() const {
    return combine_state_ids(info_.field_ids[0], info_.field_ids[1]);
  }
  virtual StateId position_id() const { return info_.field_ids[1]; }

  /// Apply Δv_i = accel_i * dt, multiplied on the worker. An unchanged
  /// accel travels as a 16-byte repeat frame regardless of dt.
  virtual Future kick_async(std::span<const Vec3> accel, double dt) = 0;
  void kick(std::span<const Vec3> delta_v) { kick_async(delta_v, 1.0).get(); }

  virtual double model_time() = 0;
  /// Opt-in wire truncation: request position arrays as f32 (half the bytes
  /// of the dominant coupling field) — set by the runner when the model sits
  /// across a link flagged `fp_truncate` in the topology. Default off; the
  /// cached state is still held as f64, only the wire format narrows.
  virtual void set_fp32_positions(bool enabled) { fp32_positions_ = enabled; }

  void set_delta_exchange(bool enabled) override {
    info_.delta_enabled = enabled;
    kick_primed_ = false;
    invalidate_coupling();
  }
  /// The state cache itself is kept: it is what gets restored into the
  /// fresh worker.
  void reset_delta_caches() override {
    bool delta = info_.delta_enabled;
    info_ = DeltaCacheInfo{};
    info_.delta_enabled = delta;
    last_kick_.clear();
    kick_primed_ = false;
    invalidate_coupling();
  }

 protected:
  /// What a delta get_state reply says about the fields it carries.
  struct DeltaHeader {
    StateId state_id;
    std::uint64_t sent_mask;
    std::uint64_t stale_mask;
  };

  /// The request half of the delta exchange under `fn`; asks for f32
  /// positions on the wire when set_fp32_positions is on.
  Future send_state_request(Fn fn, std::uint64_t want_mask);
  /// The reply half shared by every role: the header, then whichever of
  /// mass/position/velocity it carries. Role-specific fields follow in
  /// `reader`; merge them, then commit_state.
  DeltaHeader merge_motion(util::ByteReader& reader, std::vector<double>& mass,
                           std::vector<Vec3>& position,
                           std::vector<Vec3>& velocity);
  void commit_state(const DeltaHeader& header, std::uint64_t want_mask);
  /// Kick with repeat-suppression: an unchanged acceleration (the first
  /// half-kick of a step whose coupling inputs did not change) travels as
  /// a 16-byte "repeat" frame even when the half-kick dt differs
  /// (couplings firing at different cadences).
  Future send_kick(Fn fn, std::span<const Vec3> accel, double dt);
  /// Called by every call that can move mass or position on the worker.
  void invalidate_coupling() noexcept {
    coupling_current_ = false;
    moved_since_request_ = true;
  }

  DeltaCacheInfo info_;
  std::vector<Vec3> last_kick_;
  bool kick_primed_ = false;
  bool fp32_positions_ = false;
  bool coupling_current_ = false;
  /// Set by invalidate_coupling, cleared by each state request: a reply to
  /// a request that an invalidating call overtook proves nothing.
  bool moved_since_request_ = true;
};

/// GravitationalDynamics interface (phiGRAPE worker). The bulk operations
/// are virtual so ShardedGravityClient can present K shard workers as one
/// logical model behind the same typed surface.
class GravityClient : public DynamicsClient {
 public:
  explicit GravityClient(std::unique_ptr<RpcClient> rpc)
      : DynamicsClient(std::move(rpc)) {}

  virtual void set_params(double eps2, double eta);
  virtual void add_particles(std::span<const double> masses,
                             std::span<const Vec3> positions,
                             std::span<const Vec3> velocities);
  Future evolve_async(double t_end) override;

  /// Sync full-state fetch (delta-aware: only changed fields travel).
  GravityState get_state();
  Future request_state(std::uint64_t want_mask) override;
  Future request_state() { return request_state(state_field::gravity_all); }
  virtual const GravityState& finish_state(Future& reply,
                                           std::uint64_t want_mask);
  void merge_state(Future& reply, std::uint64_t want_mask) override {
    finish_state(reply, want_mask);
  }
  std::uint64_t full_mask() const override { return state_field::gravity_all; }
  const GravityState& cached_state() const noexcept { return cache_; }
  std::span<const double> mass() const override { return cache_.mass; }
  std::span<const Vec3> position() const override { return cache_.position; }

  /// (kinetic, potential) in N-body units.
  virtual std::pair<double, double> energies();
  using DynamicsClient::kick;
  Future kick_async(std::span<const Vec3> accel, double dt) override;
  Future kick_async(std::span<const Vec3> delta_v) {
    return kick_async(delta_v, 1.0);
  }
  virtual void set_masses(std::span<const double> masses);
  /// Delta-compressed mass channel: update only the listed particles.
  virtual void set_masses_sparse(std::span<const std::int32_t> indices,
                                 std::span<const double> masses);
  double model_time() override;
  /// Fetch the integrator's dynamic state — corrector-stage forces plus the
  /// absolute model time — for checkpointing, in two halves so a checkpoint
  /// can have every model's reads in flight at once.
  virtual Future request_dynamics();
  virtual void finish_dynamics(Future& reply, std::vector<Vec3>& acc,
                               std::vector<Vec3>& jerk, double& model_time);
  /// Install checkpointed dynamics into a fresh worker: the replayed step
  /// then resumes the checkpointed integrator's exact substep sequence.
  virtual void set_dynamics(std::span<const Vec3> acc,
                            std::span<const Vec3> jerk, double model_time);

  // -- shard-worker primitives (used by ShardedGravityClient) --
  /// Drop the worker's particles/clock/owned range (params survive).
  void reset_model();
  /// Assign the worker its owned row range of the Morton-ordered arrays.
  void set_shard(std::size_t lo, std::size_t hi);
  /// Push fresh ghost rows [base, base+positions.size()): the other shards'
  /// positions/velocities from the coordinator's merged view. `fp32`
  /// truncates positions to f32 on the wire.
  Future ghost_update_async(std::size_t base, std::span<const Vec3> positions,
                            std::span<const Vec3> velocities, bool fp32);

 protected:
  /// For facades (ShardedGravityClient) that have no single worker RPC of
  /// their own; every member that touches rpc_ is virtual in that case.
  GravityClient() = default;

  GravityState cache_;
};

/// GravityField interface (Octgrav / Fi worker) — the coupling kernel.
class FieldClient : public ModelClient {
 public:
  explicit FieldClient(std::unique_ptr<RpcClient> rpc)
      : ModelClient(std::move(rpc)) {}

  void set_sources(std::span<const double> masses,
                   std::span<const Vec3> positions);
  /// Client-side copy of the last sources sent — what a checkpoint of this
  /// otherwise stateless-per-kick worker consists of.
  const std::vector<double>& last_source_mass() const noexcept {
    return last_mass_;
  }
  const std::vector<Vec3>& last_source_position() const noexcept {
    return last_position_;
  }
  std::vector<Vec3> accel_at(std::span<const Vec3> points) {
    return decode_accel(accel_at_async(points).get());
  }
  Future accel_at_async(std::span<const Vec3> points);
  static std::vector<Vec3> decode_accel(util::ByteReader reader);

  /// One-shot epoch-tagged cross-gravity query (the pipelined data path):
  /// sources and points are only uploaded when their content id differs
  /// from what the worker already caches under `tag`, and a reply of
  /// "unchanged" re-uses the locally cached accel of the same inputs. When
  /// the last accel under `tag` was computed for exactly these (nonzero)
  /// ids, the worker's answer is known to be "unchanged": no RPC is issued
  /// and nullopt comes back for finish_accel to resolve locally.
  std::optional<Future> accel_for_async(FieldTag tag, StateId sources_id,
                                        std::span<const double> source_mass,
                                        std::span<const Vec3> source_position,
                                        StateId points_id,
                                        std::span<const Vec3> points);
  const std::vector<Vec3>& finish_accel(FieldTag tag,
                                        std::optional<Future>& reply);

  void set_delta_exchange(bool enabled) override { delta_enabled_ = enabled; }
  /// The last sources sent survive: they are the checkpoint to restore from.
  void reset_delta_caches() override { tags_.clear(); }

 private:
  struct TagRecord {
    StateId sources_id = 0;
    StateId points_id = 0;
    std::vector<Vec3> accel;
    /// The ids `accel` was computed for (what the worker's tag cache holds
    /// after the last answered query); 0 until a reply landed.
    StateId accel_sources_id = 0;
    StateId accel_points_id = 0;
  };

  std::vector<double> last_mass_;
  std::vector<Vec3> last_position_;
  std::map<std::uint64_t, TagRecord> tags_;
  bool delta_enabled_ = true;
};

/// Hydrodynamics interface (Gadget worker).
class HydroClient : public DynamicsClient {
 public:
  explicit HydroClient(std::unique_ptr<RpcClient> rpc)
      : DynamicsClient(std::move(rpc)) {}

  void set_params(double eps2, double theta);
  void add_gas(std::span<const double> masses,
               std::span<const Vec3> positions,
               std::span<const Vec3> velocities,
               std::span<const double> internal_energies);
  Future evolve_async(double t_end) override;

  HydroState get_state();
  Future request_state(std::uint64_t want_mask) override;
  Future request_state() { return request_state(state_field::hydro_all); }
  const HydroState& finish_state(Future& reply, std::uint64_t want_mask);
  void merge_state(Future& reply, std::uint64_t want_mask) override {
    finish_state(reply, want_mask);
  }
  std::uint64_t full_mask() const override { return state_field::hydro_all; }
  const HydroState& cached_state() const noexcept { return cache_; }
  std::span<const double> mass() const override { return cache_.mass; }
  std::span<const Vec3> position() const override { return cache_.position; }

  /// (kinetic, thermal, potential) in N-body units.
  std::tuple<double, double, double> energies();
  using DynamicsClient::kick;
  Future kick_async(std::span<const Vec3> accel, double dt) override;
  Future kick_async(std::span<const Vec3> delta_v) {
    return kick_async(delta_v, 1.0);
  }
  void inject(std::span<const std::int32_t> indices,
              std::span<const double> delta_u);
  double model_time() override;
  /// The model_time read in two halves, for the one-round-trip checkpoint.
  Future request_time();
  static double finish_time(Future& reply) { return reply.get().get<double>(); }
  /// Restore the absolute model clock into a fresh worker (checkpoint
  /// restart) so it accepts the same absolute evolve targets as the one it
  /// replaces.
  void set_time(double model_time);

 private:
  HydroState cache_;
};

/// StellarEvolution interface (SSE worker). The mass channel is
/// delta-compressed: masses() normally fetches only the stars whose mass
/// changed since the previous exchange (most stars sit quietly on the main
/// sequence between SE steps) and merges them into a client-side cache.
class StellarClient : public ModelClient {
 public:
  explicit StellarClient(std::unique_ptr<RpcClient> rpc)
      : ModelClient(std::move(rpc)) {}

  void add_stars(std::span<const double> zams_masses);
  void evolve_to(double age_myr);
  const std::vector<double>& masses();
  std::vector<double> luminosities();
  /// Stars that exploded during the last evolve_to.
  std::vector<std::int32_t> supernovae();
  double mass_loss();

  void set_delta_exchange(bool enabled) override { delta_enabled_ = enabled; }
  /// Drops the mass cache: the next masses() exchange fetches the full
  /// array from the restarted (blank) worker.
  void reset_delta_caches() override { mass_cache_.clear(); }

 private:
  std::vector<double> mass_cache_;
  bool delta_enabled_ = true;
};

}  // namespace jungle::amuse
