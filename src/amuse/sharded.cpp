#include "amuse/sharded.hpp"

#include <algorithm>
#include <exception>

#include "kernels/morton.hpp"

namespace jungle::amuse {

namespace {

/// Copy a shard's owned slice into the merged full-size array. A shard that
/// has never exchanged this field holds an empty (or wrong-sized) vector —
/// skip it; the merged view keeps whatever it had.
template <typename T>
void merge_slice(std::vector<T>& merged, const std::vector<T>& slice,
                 std::size_t lo, std::size_t count) {
  if (slice.size() != count || merged.size() < lo + count) return;
  std::copy(slice.begin(), slice.end(), merged.begin() + lo);
}

}  // namespace

ShardedGravityClient::ShardedGravityClient(
    std::vector<std::unique_ptr<GravityClient>> shards)
    : subs_(std::move(shards)) {
  if (subs_.empty()) {
    throw CodeError("sharded gravity: at least one shard client required");
  }
}

ShardedGravityClient::~ShardedGravityClient() = default;

void ShardedGravityClient::drain_pending() {
  std::exception_ptr first;
  for (Future& pending : pending_) {
    try {
      pending.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  pending_.clear();
  if (first) std::rethrow_exception(first);
}

void ShardedGravityClient::set_params(double eps2, double eta) {
  drain_pending();
  for (auto& sub : subs_) sub->set_params(eps2, eta);
}

void ShardedGravityClient::add_particles(std::span<const double> masses,
                                         std::span<const Vec3> positions,
                                         std::span<const Vec3> velocities) {
  drain_pending();
  cache_.mass.assign(masses.begin(), masses.end());
  cache_.position.assign(positions.begin(), positions.end());
  cache_.velocity.assign(velocities.begin(), velocities.end());
  ranges_ = kernels::shard_ranges(masses.size(), shard_count());
  for (std::size_t k = 0; k < subs_.size(); ++k) {
    subs_[k]->reset_model();
    subs_[k]->add_particles(masses, positions, velocities);
    subs_[k]->set_shard(ranges_[k].first, ranges_[k].second);
  }
}

void ShardedGravityClient::pull_owned(std::uint64_t want_mask) {
  std::vector<Future> replies;
  replies.reserve(subs_.size());
  for (auto& sub : subs_) replies.push_back(sub->request_state(want_mask));
  for (std::size_t k = 0; k < subs_.size(); ++k) {
    const GravityState& slice = subs_[k]->finish_state(replies[k], want_mask);
    const auto [lo, hi] = ranges_[k];
    const std::size_t count = hi - lo;
    if (want_mask & state_field::mass) {
      merge_slice(cache_.mass, slice.mass, lo, count);
    }
    if (want_mask & state_field::position) {
      merge_slice(cache_.position, slice.position, lo, count);
    }
    if (want_mask & state_field::velocity) {
      merge_slice(cache_.velocity, slice.velocity, lo, count);
    }
  }
}

void ShardedGravityClient::exchange_ghosts() {
  const std::size_t n = cache_.position.size();
  if (n == 0 || subs_.size() == 1) return;  // one shard owns [0, n): no ghosts
  pull_owned(state_field::position | state_field::velocity);
  const std::span<const Vec3> pos{cache_.position};
  const std::span<const Vec3> vel{cache_.velocity};
  for (std::size_t k = 0; k < subs_.size(); ++k) {
    const auto [lo, hi] = ranges_[k];
    if (lo > 0) {
      pending_.push_back(subs_[k]->ghost_update_async(
          0, pos.first(lo), vel.first(lo), fp32_positions_));
    }
    if (hi < n) {
      pending_.push_back(subs_[k]->ghost_update_async(
          hi, pos.subspan(hi), vel.subspan(hi), fp32_positions_));
    }
  }
}

Future ShardedGravityClient::evolve_async(double t_end) {
  drain_pending();
  // Per-connection FIFO orders each shard's ghost frames (still in flight in
  // pending_) before its evolve — no barrier needed between push and evolve.
  exchange_ghosts();
  Future head = subs_[0]->evolve_async(t_end);
  for (std::size_t k = 1; k < subs_.size(); ++k) {
    pending_.push_back(subs_[k]->evolve_async(t_end));
  }
  return head;
}

Future ShardedGravityClient::request_state(std::uint64_t want_mask) {
  // Do NOT drain here: state requests deliberately pipeline behind in-flight
  // evolves on each shard's connection. finish_state drains.
  pending_state_.clear();
  Future head = subs_[0]->request_state(want_mask);
  for (std::size_t k = 1; k < subs_.size(); ++k) {
    pending_state_.push_back(subs_[k]->request_state(want_mask));
  }
  return head;
}

const GravityState& ShardedGravityClient::finish_state(
    Future& reply, std::uint64_t want_mask) {
  drain_pending();
  for (std::size_t k = 0; k < subs_.size(); ++k) {
    Future& shard_reply = (k == 0) ? reply : pending_state_[k - 1];
    const GravityState& slice =
        subs_[k]->finish_state(shard_reply, want_mask);
    const auto [lo, hi] = ranges_[k];
    const std::size_t count = hi - lo;
    if (want_mask & state_field::mass) {
      merge_slice(cache_.mass, slice.mass, lo, count);
    }
    if (want_mask & state_field::position) {
      merge_slice(cache_.position, slice.position, lo, count);
    }
    if (want_mask & state_field::velocity) {
      merge_slice(cache_.velocity, slice.velocity, lo, count);
    }
  }
  pending_state_.clear();
  return cache_;
}

StateId ShardedGravityClient::coupling_sources_id() const {
  StateId id = 0;
  for (const auto& sub : subs_) {
    id = combine_state_ids(id, sub->coupling_sources_id());
  }
  return id;
}

StateId ShardedGravityClient::position_id() const {
  StateId id = 0;
  for (const auto& sub : subs_) {
    id = combine_state_ids(id, sub->position_id());
  }
  return id;
}

bool ShardedGravityClient::coupling_current() const noexcept {
  return std::all_of(subs_.begin(), subs_.end(), [](const auto& sub) {
    return sub->coupling_current();
  });
}

std::pair<double, double> ShardedGravityClient::energies() {
  drain_pending();
  if (subs_.size() == 1) return subs_[0]->energies();
  // Shard 0 holds all N rows; refresh its ghost rows [hi_0, n) with the
  // other shards' current state, then one full-system O(N^2) probe there.
  pull_owned(state_field::position | state_field::velocity);
  const std::size_t n = cache_.position.size();
  const auto [lo0, hi0] = ranges_[0];
  if (hi0 < n) {
    subs_[0]
        ->ghost_update_async(hi0,
                             std::span<const Vec3>{cache_.position}.subspan(hi0),
                             std::span<const Vec3>{cache_.velocity}.subspan(hi0),
                             fp32_positions_)
        .get();
  }
  return subs_[0]->energies();
}

Future ShardedGravityClient::kick_async(std::span<const Vec3> accel,
                                        double dt) {
  drain_pending();
  Future head =
      subs_[0]->kick_async(accel.subspan(ranges_[0].first,
                                         ranges_[0].second - ranges_[0].first),
                           dt);
  for (std::size_t k = 1; k < subs_.size(); ++k) {
    const auto [lo, hi] = ranges_[k];
    pending_.push_back(subs_[k]->kick_async(accel.subspan(lo, hi - lo), dt));
  }
  return head;
}

void ShardedGravityClient::set_masses(std::span<const double> masses) {
  drain_pending();
  cache_.mass.assign(masses.begin(), masses.end());
  for (auto& sub : subs_) sub->set_masses(masses);
}

void ShardedGravityClient::set_masses_sparse(
    std::span<const std::int32_t> indices, std::span<const double> masses) {
  drain_pending();
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const auto index = static_cast<std::size_t>(indices[i]);
    if (index < cache_.mass.size()) cache_.mass[index] = masses[i];
  }
  for (auto& sub : subs_) sub->set_masses_sparse(indices, masses);
}

double ShardedGravityClient::model_time() {
  drain_pending();
  return subs_[0]->model_time();
}

Future ShardedGravityClient::request_dynamics() {
  // Like request_state: pipelines behind in-flight work, finish drains.
  pending_dynamics_.clear();
  Future head = subs_[0]->request_dynamics();
  for (std::size_t k = 1; k < subs_.size(); ++k) {
    pending_dynamics_.push_back(subs_[k]->request_dynamics());
  }
  return head;
}

void ShardedGravityClient::finish_dynamics(Future& reply,
                                           std::vector<Vec3>& acc,
                                           std::vector<Vec3>& jerk,
                                           double& model_time) {
  drain_pending();
  acc.clear();
  jerk.clear();
  model_time = 0.0;
  for (std::size_t k = 0; k < subs_.size(); ++k) {
    Future& shard_reply = (k == 0) ? reply : pending_dynamics_[k - 1];
    std::vector<Vec3> shard_acc, shard_jerk;
    double shard_time = 0.0;
    subs_[k]->finish_dynamics(shard_reply, shard_acc, shard_jerk, shard_time);
    if (k == 0) model_time = shard_time;
    acc.insert(acc.end(), shard_acc.begin(), shard_acc.end());
    jerk.insert(jerk.end(), shard_jerk.begin(), shard_jerk.end());
  }
  pending_dynamics_.clear();
}

void ShardedGravityClient::set_dynamics(std::span<const Vec3> acc,
                                        std::span<const Vec3> jerk,
                                        double model_time) {
  drain_pending();
  // Full arrays travel; a sharded worker zeroes the ghost rows on receipt so
  // the restored shard replays bit-identically to the one it replaces.
  for (auto& sub : subs_) sub->set_dynamics(acc, jerk, model_time);
}

void ShardedGravityClient::set_fp32_positions(bool enabled) {
  fp32_positions_ = enabled;
  for (auto& sub : subs_) sub->set_fp32_positions(enabled);
}

void ShardedGravityClient::set_delta_exchange(bool enabled) {
  GravityClient::set_delta_exchange(enabled);
  for (auto& sub : subs_) sub->set_delta_exchange(enabled);
}

void ShardedGravityClient::reset_delta_caches() {
  // Fault path: pending futures may belong to a poisoned pipe — drain them
  // quietly (the fault machinery has already diagnosed the death).
  for (Future& pending : pending_) {
    try {
      pending.get();
    } catch (...) {
    }
  }
  pending_.clear();
  for (auto* stash : {&pending_state_, &pending_dynamics_}) {
    for (Future& pending : *stash) {
      try {
        pending.get();
      } catch (...) {
      }
    }
    stash->clear();
  }
  GravityClient::reset_delta_caches();
  for (auto& sub : subs_) sub->reset_delta_caches();
}

RpcClient& ShardedGravityClient::rpc() noexcept { return subs_[0]->rpc(); }

RpcClient& ShardedGravityClient::fault_rpc() {
  for (auto& sub : subs_) {
    if (!sub->rpc().alive()) return sub->rpc();
  }
  return subs_[0]->rpc();
}

void ShardedGravityClient::close() {
  for (Future& pending : pending_) {
    try {
      pending.get();
    } catch (...) {
    }
  }
  pending_.clear();
  pending_state_.clear();
  pending_dynamics_.clear();
  for (auto& sub : subs_) sub->close();
}

}  // namespace jungle::amuse
