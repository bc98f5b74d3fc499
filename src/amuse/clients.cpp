#include "amuse/clients.hpp"

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

/// Decode an f32-truncated position span (fp32_positions was requested) and
/// widen into the f64 cache. The worker pads odd counts to keep whatever
/// span follows 8-byte aligned; consume the pad here.
void merge_positions_fp32(util::ByteReader& reader, std::vector<Vec3>& into) {
  auto packed = reader.get_vector<float>();
  const std::size_t count = packed.size() / 3;
  into.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    into[i] = Vec3{static_cast<double>(packed[3 * i]),
                   static_cast<double>(packed[3 * i + 1]),
                   static_cast<double>(packed[3 * i + 2])};
  }
  if (count % 2 != 0) reader.get<std::uint32_t>();  // realign pad
}

}  // namespace

Future DynamicsClient::send_state_request(Fn fn, std::uint64_t want_mask) {
  // The fp32 modifier rides only on the wire request; the cache mask and
  // commit bookkeeping stay in terms of real fields.
  if (fp32_positions_ && (want_mask & state_field::position)) {
    want_mask |= state_field::fp32_positions;
  }
  util::ByteWriter args = RpcClient::request();
  args.put<StateId>(info_.delta_enabled ? info_.id : 0);
  args.put<std::uint64_t>(info_.delta_enabled ? info_.mask : 0);
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
      merge_positions_fp32(reader, position);
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
  if (info_.delta_enabled && kick_primed_ && same_content(last_kick_, accel)) {
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

void GravityClient::set_params(double eps2, double eta) {
  util::ByteWriter args = RpcClient::request();
  args.put<double>(eps2);
  args.put<double>(eta);
  rpc_->call_sync(Fn::grav_set_params, std::move(args));
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

void GravityClient::set_masses_sparse(std::span<const std::int32_t> indices,
                                      std::span<const double> masses) {
  util::ByteWriter args = RpcClient::request();
  put_span_of(args, indices);
  put_span_of(args, masses);
  invalidate_coupling();
  rpc_->call_sync(Fn::grav_set_masses_sparse, std::move(args));
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
    std::vector<float> packed;
    packed.reserve(positions.size() * 3);
    for (const Vec3& p : positions) {
      packed.push_back(static_cast<float>(p.x));
      packed.push_back(static_cast<float>(p.y));
      packed.push_back(static_cast<float>(p.z));
    }
    args.put_vector(packed);
    if (positions.size() % 2 != 0) args.put<std::uint32_t>(0);  // realign
  } else {
    put_span_of(args, positions);
  }
  put_span_of(args, velocities);
  invalidate_coupling();
  return rpc_->call(Fn::grav_ghost_update, std::move(args));
}

void FieldClient::set_sources(std::span<const double> masses,
                              std::span<const Vec3> positions) {
  util::ByteWriter args = RpcClient::request();
  put_span_of(args, masses);
  put_span_of(args, positions);
  last_mass_.assign(masses.begin(), masses.end());
  last_position_.assign(positions.begin(), positions.end());
  rpc_->call_sync(Fn::field_set_sources, std::move(args));
}

Future FieldClient::accel_at_async(std::span<const Vec3> points) {
  util::ByteWriter args = RpcClient::request();
  put_span_of(args, points);
  return rpc_->call(Fn::field_accel_at, std::move(args));
}

std::vector<Vec3> FieldClient::decode_accel(util::ByteReader reader) {
  return reader.get_vector<Vec3>();
}

std::optional<Future> FieldClient::accel_for_async(
    FieldTag tag, StateId sources_id, std::span<const double> source_mass,
    std::span<const Vec3> source_position, StateId points_id,
    std::span<const Vec3> points) {
  if (!delta_enabled_) {
    sources_id = 0;
    points_id = 0;
  }
  TagRecord& record = tags_[static_cast<std::uint64_t>(tag)];
  // The worker would find the same nonzero ids its cached accel was
  // computed for and reply "unchanged": answer that here, without the RPC.
  if (sources_id != 0 && points_id != 0 &&
      record.accel_sources_id == sources_id &&
      record.accel_points_id == points_id) {
    return std::nullopt;
  }
  bool send_sources = sources_id == 0 || record.sources_id != sources_id;
  bool send_points = points_id == 0 || record.points_id != points_id;
  util::ByteWriter args = RpcClient::request();
  args.put<std::uint64_t>(static_cast<std::uint64_t>(tag));
  args.put<StateId>(sources_id);
  args.put<StateId>(points_id);
  std::uint64_t flags = (send_sources ? accel_flags::has_sources : 0) |
                        (send_points ? accel_flags::has_points : 0);
  args.put<std::uint64_t>(flags);
  if (send_sources) {
    put_span_of(args, source_mass);
    put_span_of(args, source_position);
    record.sources_id = sources_id;
    // The checkpoint view of this stateless-per-kick worker: the last
    // source set that actually travelled.
    last_mass_.assign(source_mass.begin(), source_mass.end());
    last_position_.assign(source_position.begin(), source_position.end());
  }
  if (send_points) {
    put_span_of(args, points);
    record.points_id = points_id;
  }
  return rpc_->call(Fn::field_accel_for, std::move(args));
}

const std::vector<Vec3>& FieldClient::finish_accel(
    FieldTag tag, std::optional<Future>& reply) {
  TagRecord& record = tags_[static_cast<std::uint64_t>(tag)];
  if (!reply) return record.accel;  // known "unchanged", answered locally
  util::ByteReader reader = reply->get();
  auto flags = reader.get<std::uint64_t>();
  if (flags & accel_reply_flags::unchanged) {
    if (record.accel_sources_id == 0) {
      throw CodeError("field: unchanged reply without a cached accel");
    }
    return record.accel;
  }
  record.accel = reader.get_vector<Vec3>();
  // accel_for_async left the query's ids in sources_id/points_id.
  record.accel_sources_id = record.sources_id;
  record.accel_points_id = record.points_id;
  return record.accel;
}

void HydroClient::set_params(double eps2, double theta) {
  util::ByteWriter args = RpcClient::request();
  args.put<double>(eps2);
  args.put<double>(theta);
  rpc_->call_sync(Fn::hydro_set_params, std::move(args));
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

void HydroClient::inject(std::span<const std::int32_t> indices,
                         std::span<const double> delta_u) {
  util::ByteWriter args = RpcClient::request();
  put_span_of(args, indices);
  put_span_of(args, delta_u);
  rpc_->call_sync(Fn::hydro_inject, std::move(args));
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
  if (!delta_enabled_) {
    mass_cache_ = rpc_->call_sync(Fn::se_get_masses, {}).get_vector<double>();
    return mass_cache_;
  }
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

std::vector<double> StellarClient::luminosities() {
  return rpc_->call_sync(Fn::se_get_luminosities, {}).get_vector<double>();
}

std::vector<std::int32_t> StellarClient::supernovae() {
  return rpc_->call_sync(Fn::se_get_supernovae, {})
      .get_vector<std::int32_t>();
}

double StellarClient::mass_loss() {
  return rpc_->call_sync(Fn::se_get_mass_loss, {}).get<double>();
}

}  // namespace jungle::amuse
