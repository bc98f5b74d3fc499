#pragma once

#include <memory>
#include <vector>

#include "amuse/clients.hpp"

namespace jungle::amuse {

/// Domain-decomposed gravity model: K phiGRAPE shard workers presented as
/// ONE logical GravityClient. Every shard holds all N particles (Morton-
/// ordered by the runner) but integrates only its contiguous owned row
/// range; before each evolve the facade pulls every shard's owned
/// position/velocity slice (delta exchange), merges them into the full-size
/// cached state, and pushes each shard the rows it does *not* own as two
/// contiguous ghost frames. Couplings, checkpoint/rollback, energy probes
/// and the fault machinery all see a single model: the facade slices kicks,
/// concatenates dynamics, broadcasts restores, and reports the first dead
/// shard's RPC as the model's fault channel.
///
/// With K = 1 the single shard owns [0, N): no ghost frames travel and the
/// worker takes the exact unsharded code path, so a 1-shard model is
/// bit-identical to a plain worker (the shard-count-independence anchor).
class ShardedGravityClient : public GravityClient {
 public:
  explicit ShardedGravityClient(
      std::vector<std::unique_ptr<GravityClient>> shards);
  ~ShardedGravityClient() override;

  int shard_count() const noexcept { return static_cast<int>(subs_.size()); }
  GravityClient& shard(int k) { return *subs_.at(static_cast<std::size_t>(k)); }

  void set_params(double eps2, double eta) override;
  /// Prime every shard: reset, load the full (Morton-ordered) arrays, and
  /// assign its owned range. Also the restore path — a revived blank worker
  /// treats the reset as a no-op and the survivors roll back with it.
  void add_particles(std::span<const double> masses,
                     std::span<const Vec3> positions,
                     std::span<const Vec3> velocities) override;

  /// Ghost-exchange + fan-out evolve. Returns shard 0's future; the other
  /// shards' futures drain at the next operation (per-connection FIFO
  /// already orders each shard's ghost frames before its evolve).
  Future evolve_async(double t_end) override;

  Future request_state(std::uint64_t want_mask) override;
  const GravityState& finish_state(Future& reply,
                                   std::uint64_t want_mask) override;

  StateId coupling_sources_id() const override;
  StateId position_id() const override;
  /// Current only when every shard's owned slice is.
  bool coupling_current() const noexcept override;

  /// Full-system energies: refresh shard 0's ghosts with every owned slice,
  /// then one O(N^2) probe there.
  std::pair<double, double> energies() override;
  Future kick_async(std::span<const Vec3> accel, double dt) override;
  using GravityClient::kick_async;
  void set_masses(std::span<const double> masses) override;
  void set_masses_sparse(std::span<const std::int32_t> indices,
                         std::span<const double> masses) override;
  double model_time() override;
  /// Every shard's read in flight at once; finish concatenates the owned
  /// slices in shard order.
  Future request_dynamics() override;
  void finish_dynamics(Future& reply, std::vector<Vec3>& acc,
                       std::vector<Vec3>& jerk, double& model_time) override;
  void set_dynamics(std::span<const Vec3> acc, std::span<const Vec3> jerk,
                    double model_time) override;

  void set_fp32_positions(bool enabled) override;
  void set_delta_exchange(bool enabled) override;
  void reset_delta_caches() override;
  RpcClient& rpc() noexcept override;
  RpcClient& fault_rpc() override;
  void close() override;

 private:
  /// Block on every stashed future (evolves/kicks/ghost pushes of shards
  /// other than the one whose future was handed to the caller). The first
  /// error is rethrown after all are drained, so one dead shard cannot leave
  /// siblings' futures dangling.
  void drain_pending();
  /// Pull each shard's owned position/velocity slice into the merged cache,
  /// then push every shard its ghost rows as two contiguous frames.
  void exchange_ghosts();
  void pull_owned(std::uint64_t want_mask);

  std::vector<std::unique_ptr<GravityClient>> subs_;
  std::vector<std::pair<std::size_t, std::size_t>> ranges_;
  std::vector<Future> pending_;
  std::vector<Future> pending_state_;  // shards 1.. of an open request_state
  std::vector<Future> pending_dynamics_;  // same, for request_dynamics
};

}  // namespace jungle::amuse
