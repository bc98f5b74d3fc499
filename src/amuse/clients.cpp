#include "amuse/clients.hpp"

#include <algorithm>
#include <cstring>

namespace jungle::amuse {

namespace {

template <typename T>
void put_span_of(util::ByteWriter& writer, std::span<const T> values) {
  writer.put_span(values);
}

template <typename T>
bool same_content(const std::vector<T>& cached, std::span<const T> values) {
  return cached.size() == values.size() &&
         (values.empty() ||
          std::memcmp(cached.data(), values.data(),
                      values.size() * sizeof(T)) == 0);
}

/// One field of a delta get_state reply on the client side: where the
/// decoded span lands in the cache.
template <typename T>
void merge_field(util::ByteReader& reader, std::vector<T>& into) {
  auto values = reader.get_span<T>();
  into.assign(values.begin(), values.end());
}

}  // namespace

Future DynamicsClient::send_state_request(Fn fn, std::uint64_t want_mask) {
  // The fp32 modifier rides only on the wire request; the cache mask and
  // commit bookkeeping stay in terms of real fields.
  if (fp32_positions_ && (want_mask & state_field::position)) {
    want_mask |= state_field::fp32_positions;
  }
  util::ByteWriter args = RpcClient::request();
  args.put<StateId>(info_.id);
  args.put<std::uint64_t>(info_.mask);
  args.put<std::uint64_t>(want_mask);
  moved_since_request_ = false;
  return rpc_->call(fn, std::move(args));
}

DynamicsClient::DeltaHeader DynamicsClient::merge_motion(
    util::ByteReader& reader, std::vector<double>& mass,
    std::vector<Vec3>& position, std::vector<Vec3>& velocity) {
  DeltaHeader header;
  header.state_id = reader.get<StateId>();
  header.sent_mask = reader.get<std::uint64_t>();
  header.stale_mask = reader.get<std::uint64_t>();
  for (StateId& id : info_.field_ids) id = reader.get<StateId>();
  if (header.sent_mask & state_field::mass) merge_field(reader, mass);
  if (header.sent_mask & state_field::position) {
    if (fp32_positions_) {
      get_positions_f32(reader, position);
    } else {
      merge_field(reader, position);
    }
  }
  if (header.sent_mask & state_field::velocity) merge_field(reader, velocity);
  return header;
}

void DynamicsClient::commit_state(const DeltaHeader& header,
                                  std::uint64_t want_mask) {
  want_mask &= ~state_field::fp32_positions;
  info_.mask = (info_.mask & ~header.stale_mask) | want_mask | header.sent_mask;
  info_.id = header.state_id;
  if ((want_mask & state_field::coupling) == state_field::coupling &&
      !moved_since_request_) {
    coupling_current_ = true;
  }
}

Future DynamicsClient::send_kick(Fn fn, std::span<const Vec3> accel,
                                 double dt) {
  // Kicks travel as accel + dt; the worker multiplies Δv_i = a_i * dt.
  util::ByteWriter args = RpcClient::request();
  if (kick_primed_ && same_content(last_kick_, accel)) {
    args.put<std::uint64_t>(kick_flags::repeat);
    args.put<double>(dt);
  } else {
    args.put<std::uint64_t>(0);
    args.put<double>(dt);
    args.put_span(accel);
    last_kick_.assign(accel.begin(), accel.end());
    kick_primed_ = true;
  }
  return rpc_->call(fn, std::move(args));
}

void GravityClient::add_particles(std::span<const double> masses,
                                  std::span<const Vec3> positions,
                                  std::span<const Vec3> velocities) {
  util::ByteWriter args = RpcClient::request();
  put_span_of(args, masses);
  put_span_of(args, positions);
  put_span_of(args, velocities);
  invalidate_coupling();
  rpc_->call_sync(Fn::grav_add_particles, std::move(args));
}

Future GravityClient::evolve_async(double t_end) {
  util::ByteWriter args = RpcClient::request();
  args.put<double>(t_end);
  invalidate_coupling();
  return rpc_->call(Fn::grav_evolve, std::move(args));
}

Future GravityClient::request_state(std::uint64_t want_mask) {
  return send_state_request(Fn::grav_get_state, want_mask);
}

const GravityState& GravityClient::finish_state(Future& reply,
                                                std::uint64_t want_mask) {
  util::ByteReader reader = reply.get();
  DeltaHeader header =
      merge_motion(reader, cache_.mass, cache_.position, cache_.velocity);
  commit_state(header, want_mask);
  return cache_;
}

GravityState GravityClient::get_state() {
  Future reply = request_state(state_field::gravity_all);
  return finish_state(reply, state_field::gravity_all);
}

std::pair<double, double> GravityClient::energies() {
  auto reader = rpc_->call_sync(Fn::grav_get_energies, {});
  double kinetic = reader.get<double>();
  double potential = reader.get<double>();
  return {kinetic, potential};
}

Future GravityClient::kick_async(std::span<const Vec3> accel, double dt) {
  return send_kick(Fn::grav_kick_all, accel, dt);
}

void GravityClient::set_masses(std::span<const double> masses) {
  util::ByteWriter args = RpcClient::request();
  put_span_of(args, masses);
  invalidate_coupling();
  rpc_->call_sync(Fn::grav_set_masses, std::move(args));
}

Future GravityClient::set_masses_sparse_async(
    std::span<const std::int32_t> indices, std::span<const double> masses) {
  util::ByteWriter args = RpcClient::request();
  put_span_of(args, indices);
  put_span_of(args, masses);
  invalidate_coupling();
  return rpc_->call(Fn::grav_set_masses_sparse, std::move(args));
}

double GravityClient::model_time() {
  return rpc_->call_sync(Fn::grav_get_time, {}).get<double>();
}

Future GravityClient::request_dynamics() {
  return rpc_->call(Fn::grav_get_dynamics, {});
}

void GravityClient::finish_dynamics(Future& reply, std::vector<Vec3>& acc,
                                    std::vector<Vec3>& jerk,
                                    double& model_time) {
  util::ByteReader reader = reply.get();
  model_time = reader.get<double>();
  acc = reader.get_vector<Vec3>();
  jerk = reader.get_vector<Vec3>();
}

void GravityClient::set_dynamics(std::span<const Vec3> acc,
                                 std::span<const Vec3> jerk,
                                 double model_time) {
  util::ByteWriter args = RpcClient::request();
  args.put<double>(model_time);
  put_span_of(args, acc);
  put_span_of(args, jerk);
  invalidate_coupling();
  rpc_->call_sync(Fn::grav_set_dynamics, std::move(args));
}

void GravityClient::reset_model() {
  invalidate_coupling();
  rpc_->call_sync(Fn::grav_reset, {});
}

void GravityClient::set_shard(std::size_t lo, std::size_t hi) {
  util::ByteWriter args = RpcClient::request();
  args.put<std::uint64_t>(lo);
  args.put<std::uint64_t>(hi);
  invalidate_coupling();
  rpc_->call_sync(Fn::grav_set_shard, std::move(args));
}

Future GravityClient::ghost_update_async(std::size_t base,
                                         std::span<const Vec3> positions,
                                         std::span<const Vec3> velocities,
                                         bool fp32) {
  util::ByteWriter args = RpcClient::request();
  args.put<std::uint64_t>(base);
  args.put<std::uint64_t>(fp32 ? 1 : 0);
  if (fp32) {
    put_positions_f32(args, positions);
  } else {
    put_span_of(args, positions);
  }
  put_span_of(args, velocities);
  invalidate_coupling();
  return rpc_->call(Fn::grav_ghost_update, std::move(args));
}

FieldClient::Pending FieldClient::accel_for_async(
    const System& target, const std::vector<System>& sources) {
  std::vector<int> key{target.index};
  std::vector<StateId> ids{target.position_id};
  for (const System& source : sources) {
    key.push_back(source.index);
    ids.push_back(source.mass_id);
    ids.push_back(source.position_id);
  }
  Pending query;
  query.record = &records_[key];
  query.record->asked = ids;
  // The worker would compute the accel of these same nonzero ids again:
  // answer here, without the RPC.
  if (std::find(ids.begin(), ids.end(), StateId{0}) == ids.end() &&
      query.record->answered == ids) {
    return query;
  }
  // An array ships when the worker does not hold it under `id`; shipping
  // it replaces what the worker holds (a zero id is held as unknown).
  auto ships = [](StateId id, StateId& held) {
    bool ship = id == 0 || held != id;
    if (ship) held = id;
    return ship;
  };
  bool ship_points = ships(target.position_id, held_[target.index].position_id);
  std::vector<std::uint64_t> flags;
  for (const System& source : sources) {
    Held& held = held_[source.index];
    flags.push_back(
        (ships(source.mass_id, held.mass_id) ? accel_flags::source_mass : 0) |
        (ships(source.position_id, held.position_id)
             ? accel_flags::source_position
             : 0));
  }
  util::ByteWriter args = RpcClient::request();
  args.put<std::uint64_t>(static_cast<std::uint64_t>(target.index));
  args.put<StateId>(target.position_id);
  args.put<std::uint64_t>(sources.size() << accel_flags::kShift |
                          (ship_points ? accel_flags::target_position : 0));
  for (std::size_t s = 0; s < sources.size(); ++s) {
    args.put<std::uint64_t>(static_cast<std::uint64_t>(sources[s].index)
                                << accel_flags::kShift |
                            flags[s]);
    args.put<StateId>(sources[s].mass_id);
    args.put<StateId>(sources[s].position_id);
  }
  if (ship_points) put_span_of(args, target.position);
  for (std::size_t s = 0; s < sources.size(); ++s) {
    if (flags[s] & accel_flags::source_mass) put_span_of(args, sources[s].mass);
    if (flags[s] & accel_flags::source_position) {
      put_span_of(args, sources[s].position);
    }
  }
  query.reply = rpc_->call(Fn::field_accel_for, std::move(args));
  return query;
}

const std::vector<Vec3>& FieldClient::finish_accel(Pending& query) {
  Record& record = *query.record;
  if (!query.reply) return record.accel;  // known "unchanged", answered locally
  util::ByteReader reader = query.reply->get();
  record.accel = reader.get_vector<Vec3>();
  record.answered = record.asked;
  return record.accel;
}

void HydroClient::add_gas(std::span<const double> masses,
                          std::span<const Vec3> positions,
                          std::span<const Vec3> velocities,
                          std::span<const double> internal_energies) {
  util::ByteWriter args = RpcClient::request();
  put_span_of(args, masses);
  put_span_of(args, positions);
  put_span_of(args, velocities);
  put_span_of(args, internal_energies);
  invalidate_coupling();
  rpc_->call_sync(Fn::hydro_add_gas, std::move(args));
}

Future HydroClient::evolve_async(double t_end) {
  util::ByteWriter args = RpcClient::request();
  args.put<double>(t_end);
  invalidate_coupling();
  return rpc_->call(Fn::hydro_evolve, std::move(args));
}

Future HydroClient::request_state(std::uint64_t want_mask) {
  return send_state_request(Fn::hydro_get_state, want_mask);
}

const HydroState& HydroClient::finish_state(Future& reply,
                                            std::uint64_t want_mask) {
  util::ByteReader reader = reply.get();
  DeltaHeader header =
      merge_motion(reader, cache_.mass, cache_.position, cache_.velocity);
  if (header.sent_mask & state_field::internal_energy) {
    merge_field(reader, cache_.internal_energy);
  }
  if (header.sent_mask & state_field::density) {
    merge_field(reader, cache_.density);
  }
  commit_state(header, want_mask);
  return cache_;
}

HydroState HydroClient::get_state() {
  Future reply = request_state(state_field::hydro_all);
  return finish_state(reply, state_field::hydro_all);
}

std::tuple<double, double, double> HydroClient::energies() {
  auto reader = rpc_->call_sync(Fn::hydro_get_energies, {});
  double kinetic = reader.get<double>();
  double thermal = reader.get<double>();
  double potential = reader.get<double>();
  return {kinetic, thermal, potential};
}

Future HydroClient::kick_async(std::span<const Vec3> accel, double dt) {
  return send_kick(Fn::hydro_kick_all, accel, dt);
}

Future HydroClient::inject_async(std::span<const std::int32_t> indices,
                                std::span<const double> delta_u) {
  util::ByteWriter args = RpcClient::request();
  put_span_of(args, indices);
  put_span_of(args, delta_u);
  return rpc_->call(Fn::hydro_inject, std::move(args));
}

double HydroClient::model_time() {
  Future reply = request_time();
  return finish_time(reply);
}

Future HydroClient::request_time() {
  return rpc_->call(Fn::hydro_get_time, {});
}

void HydroClient::set_time(double model_time) {
  util::ByteWriter args = RpcClient::request();
  args.put<double>(model_time);
  rpc_->call_sync(Fn::hydro_set_time, std::move(args));
}

void StellarClient::add_stars(std::span<const double> zams_masses) {
  util::ByteWriter args = RpcClient::request();
  put_span_of(args, zams_masses);
  rpc_->call_sync(Fn::se_add_stars, std::move(args));
}

void StellarClient::evolve_to(double age_myr) {
  util::ByteWriter args = RpcClient::request();
  args.put<double>(age_myr);
  rpc_->call_sync(Fn::se_evolve_to, std::move(args));
}

const std::vector<double>& StellarClient::masses() {
  // Delta exchange: tell the worker how many masses we hold; only changed
  // ones (usually the handful of evolved stars) come back.
  util::ByteWriter args = RpcClient::request();
  args.put<std::uint64_t>(mass_cache_.size());
  auto reader = rpc_->call_sync(Fn::se_get_mass_updates, std::move(args));
  auto flags = reader.get<std::uint64_t>();
  if (flags & se_mass_flags::full) {
    mass_cache_ = reader.get_vector<double>();
    return mass_cache_;
  }
  auto indices = reader.get_span<std::int32_t>();
  auto values = reader.get_vector<double>();
  for (std::size_t i = 0; i < indices.size(); ++i) {
    mass_cache_.at(static_cast<std::size_t>(indices[i])) = values[i];
  }
  return mass_cache_;
}

std::vector<std::int32_t> StellarClient::supernovae() {
  return rpc_->call_sync(Fn::se_get_supernovae, {})
      .get_vector<std::int32_t>();
}

}  // namespace jungle::amuse
