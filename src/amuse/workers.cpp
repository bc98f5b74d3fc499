#include "amuse/workers.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <map>

#include "amuse/delta.hpp"
#include "kernels/bhtree.hpp"
#include "kernels/hermite.hpp"
#include "kernels/sph.hpp"
#include "kernels/sse.hpp"
#include "mpi/mpi.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"

namespace jungle::amuse {

using kernels::Vec3;

namespace {

/// Where and how a worker's compute is charged in the jungle model.
struct WorkerCost {
  sim::Host* host = nullptr;
  sim::DeviceKind device = sim::DeviceKind::cpu;
  int ncores = 1;
  /// Worker-side meters (null = unmetered). run_worker wires them to
  /// worker.<meter>.{flops,compute_s,substeps} so the scheduler can compare
  /// measured compute against its model per role.
  obs::metrics::Counter* flops = nullptr;
  obs::metrics::Counter* compute_s = nullptr;
  obs::metrics::Counter* substeps = nullptr;
};

// Charge `flops` to the worker's host/device, blocking its process for the
// modelled duration. Small trivial calls stay cheap via a floor of zero.
// Metered cost structs also record the flops and modeled seconds, and the
// blocking interval shows up as a "compute" span nested under the serving
// RPC span.
void charge(const WorkerCost& cost, double flops) {
  if (flops <= 0.0 || cost.host == nullptr) return;
  if (cost.flops != nullptr) {
    cost.flops->add(flops);
    cost.compute_s->add(
        cost.host->compute_time(flops, cost.device, cost.ncores));
  }
  obs::trace::Span span = obs::trace::span("compute", "kernel");
  cost.host->compute(flops, cost.device, cost.ncores);
}

// ---------------------------------------------- delta state exchange

/// One field of a delta get_state reply: its bit, its index in the epochs
/// table, and a writer that frames the current content (as a borrowed view
/// where the kernel exposes stable storage). The writer receives the
/// request's modifier bits (state_field::fp32_positions et al.) so a field
/// can pick a truncated wire format.
struct StateFieldWriter {
  std::uint64_t bit;
  int index;
  std::function<void(util::ByteWriter&, std::uint64_t)> write;
};

/// Frame a position array, full f64 by default or as the f32 stream when
/// the request carried the fp32_positions modifier (opt-in on
/// low-bandwidth links).
void put_positions(util::ByteWriter& out, std::span<const Vec3> positions,
                   std::uint64_t modifiers) {
  if (modifiers & state_field::fp32_positions) {
    put_positions_f32(out, positions);
  } else {
    out.put_span_view(positions);
  }
}

/// Serve a delta get_state: reply only the requested fields that changed
/// since the client's cached id, and tell it which cached fields went stale.
/// Layout: [u64 state_id][u64 sent_mask][u64 stale_mask]
///         [u64 field_id x kCount] [span per sent field, bit order].
util::ByteWriter delta_state_reply(const StateEpochs& epochs,
                                   util::ByteReader& args,
                                   std::span<const StateFieldWriter> fields) {
  auto have_id = args.get<StateId>();
  auto have_mask = args.get<std::uint64_t>();
  auto want_mask = args.get<std::uint64_t>();
  const std::uint64_t modifiers = want_mask & state_field::fp32_positions;
  want_mask &= ~state_field::fp32_positions;

  std::uint64_t sent_mask = 0;
  std::uint64_t stale_mask = 0;
  for (const StateFieldWriter& field : fields) {
    bool have = (have_mask & field.bit) != 0;
    bool changed = epochs.field_changed_since(field.index, have_id);
    if ((want_mask & field.bit) && (!have || changed)) {
      sent_mask |= field.bit;
    } else if (have && !(want_mask & field.bit) && changed) {
      stale_mask |= field.bit;
    }
  }

  util::ByteWriter result = reply_writer();
  result.put<StateId>(epochs.id());
  result.put<std::uint64_t>(sent_mask);
  result.put<std::uint64_t>(stale_mask);
  for (int i = 0; i < state_field::kCount; ++i) {
    result.put<StateId>(epochs.field_id(i));
  }
  for (const StateFieldWriter& field : fields) {
    if (sent_mask & field.bit) field.write(result, modifiers);
  }
  return result;
}

// A malformed update frame is rejected whole, before any of it is applied:
// the client gets an error reply and the model is left as it was.

/// A frame of `rows` consecutive rows from `base` on must fit the `count`
/// rows it targets.
void check_rows(const char* what, std::size_t rows, std::size_t count,
                std::size_t base = 0) {
  if (base > count || rows > count - base) {
    throw CodeError(std::string(what) + ": " + std::to_string(rows) +
                    " rows from row " + std::to_string(base) + " for " +
                    std::to_string(count) + " particles");
  }
}

/// The parallel arrays of one frame need one entry per row each.
void check_columns(const char* what, std::initializer_list<std::size_t> sizes) {
  for (std::size_t size : sizes) {
    if (size != *sizes.begin()) {
      std::string lengths;
      for (std::size_t each : sizes) {
        if (!lengths.empty()) lengths += '/';
        lengths += std::to_string(each);
      }
      throw CodeError(std::string(what) + ": column lengths " + lengths +
                      " differ");
    }
  }
}

/// An indexed frame needs one value per index, each index a particle.
void check_indexed(const char* what, std::span<const std::int32_t> indices,
                   std::size_t values, std::size_t count) {
  if (indices.size() != values) {
    throw CodeError(std::string(what) + ": " +
                    std::to_string(indices.size()) + " indices but " +
                    std::to_string(values) + " values");
  }
  for (std::int32_t index : indices) {
    if (index < 0 || static_cast<std::size_t>(index) >= count) {
      throw CodeError(std::string(what) + ": index " + std::to_string(index) +
                      " out of range for " + std::to_string(count) +
                      " particles");
    }
  }
}

/// Apply a kick frame to `rows` consecutive rows of `kernel` from `base` on:
/// Δv_i = accel_i * dt, with either the shipped accel array (cached for
/// later) or a replay of the previous one (flags: kick_flags::repeat) under
/// the dt that always rides along.
template <typename Kernel>
void kick_rows(const char* what, util::ByteReader& args,
               std::vector<Vec3>& cache, Kernel& kernel, std::size_t base,
               std::size_t rows) {
  auto flags = args.get<std::uint64_t>();
  double dt = args.get<double>();
  if (flags & kick_flags::repeat) {
    if (cache.empty()) throw CodeError("kick repeat with no cached kick");
  } else {
    auto accel = args.get_span<Vec3>();
    cache.assign(accel.begin(), accel.end());
  }
  check_rows(what, cache.size(), rows);
  for (std::size_t i = 0; i < cache.size(); ++i) {
    kernel.kick(static_cast<int>(base + i), cache[i] * dt);
  }
}

/// The mass, position and velocity fields of a get_state reply, framed from
/// the given rows of a kernel's arrays.
std::vector<StateFieldWriter> motion_fields(std::span<const double> mass,
                                            std::span<const Vec3> position,
                                            std::span<const Vec3> velocity) {
  return {
      {state_field::mass, 0,
       [mass](util::ByteWriter& out, std::uint64_t) {
         out.put_span_view(mass);
       }},
      {state_field::position, 1,
       [position](util::ByteWriter& out, std::uint64_t modifiers) {
         put_positions(out, position, modifiers);
       }},
      {state_field::velocity, 2,
       [velocity](util::ByteWriter& out, std::uint64_t) {
         out.put_span_view(velocity);
       }},
  };
}

/// phiGRAPE worker: direct N-body over the RPC protocol.
Dispatcher make_gravity_dispatcher(
    std::shared_ptr<kernels::HermiteIntegrator> integrator, WorkerCost cost) {
  auto epochs = std::make_shared<StateEpochs>();
  auto kick_cache = std::make_shared<std::vector<Vec3>>();
  return [integrator, cost, epochs,
          kick_cache](Fn fn, util::ByteReader& args) -> util::ByteWriter {
    util::ByteWriter result = reply_writer();
    switch (fn) {
      case Fn::grav_add_particles: {
        auto masses = args.get_span<double>();
        auto positions = args.get_span<Vec3>();
        auto velocities = args.get_span<Vec3>();
        check_columns("grav_add_particles",
                      {masses.size(), positions.size(), velocities.size()});
        for (std::size_t i = 0; i < masses.size(); ++i) {
          integrator->add_particle(masses[i], positions[i], velocities[i]);
        }
        epochs->bump(state_field::gravity_all);
        return result;
      }
      case Fn::grav_evolve: {
        double t_end = args.get<double>();
        auto before = integrator->pair_evaluations();
        auto steps_before = integrator->substeps();
        integrator->evolve(t_end);
        if (cost.substeps != nullptr) {
          cost.substeps->add(
              static_cast<double>(integrator->substeps() - steps_before));
        }
        charge(cost, static_cast<double>(integrator->pair_evaluations() -
                                         before) *
                         kernels::HermiteIntegrator::kFlopsPerPair);
        epochs->bump(state_field::position | state_field::velocity);
        return result;
      }
      case Fn::grav_get_state: {
        // A sharded worker publishes only its owned slice: the coordinating
        // client owns the merged full-size view and the ghost rows here are
        // its property, not ours to re-export.
        const std::size_t lo = integrator->owned_lo();
        const std::size_t count = integrator->owned_count();
        return delta_state_reply(
            *epochs, args,
            motion_fields(
                std::span<const double>(integrator->masses())
                    .subspan(lo, count),
                std::span<const Vec3>(integrator->positions())
                    .subspan(lo, count),
                std::span<const Vec3>(integrator->velocities())
                    .subspan(lo, count)));
      }
      case Fn::grav_get_energies: {
        // Energies cost one O(N^2) potential pass.
        double n = static_cast<double>(integrator->size());
        charge(cost, n * n * 12.0);
        result.put<double>(integrator->kinetic_energy());
        result.put<double>(integrator->potential_energy());
        return result;
      }
      case Fn::grav_kick_all: {
        // Sharded: the frame carries the owned slice of the full accel
        // array, applied at the owned offset.
        kick_rows("grav_kick_all", args, *kick_cache, *integrator,
                  integrator->owned_lo(), integrator->owned_count());
        epochs->bump(state_field::velocity);
        return result;
      }
      case Fn::grav_set_masses: {
        auto masses = args.get_span<double>();
        check_rows("grav_set_masses", masses.size(), integrator->size());
        for (std::size_t i = 0; i < masses.size(); ++i) {
          integrator->set_mass(static_cast<int>(i), masses[i]);
        }
        epochs->bump(state_field::mass);
        return result;
      }
      case Fn::grav_set_masses_sparse: {
        auto indices = args.get_span<std::int32_t>();
        // An odd index count leaves the next span 4-byte aligned; copy out.
        auto masses = args.get_vector<double>();
        check_indexed("grav_set_masses_sparse", indices, masses.size(),
                      integrator->size());
        for (std::size_t i = 0; i < indices.size(); ++i) {
          integrator->set_mass(indices[i], masses[i]);
        }
        // Same side effect as the full-array channel even when nothing
        // changed: the next evolve starts from a fresh force evaluation,
        // keeping the delta-compressed form bit-identical to the baseline.
        integrator->invalidate_forces();
        if (!indices.empty()) epochs->bump(state_field::mass);
        return result;
      }
      case Fn::grav_get_time: {
        result.put<double>(integrator->time());
        return result;
      }
      case Fn::grav_get_dynamics: {
        const std::size_t lo = integrator->owned_lo();
        const std::size_t count = integrator->owned_count();
        result.put<double>(integrator->time());
        result.put_span_view(
            std::span<const Vec3>(integrator->accelerations())
                .subspan(lo, count));
        result.put_span_view(
            std::span<const Vec3>(integrator->jerks()).subspan(lo, count));
        return result;
      }
      case Fn::grav_set_dynamics: {
        double time = args.get<double>();
        auto acc = args.get_vector<Vec3>();
        auto jerk = args.get_vector<Vec3>();
        // Installed forces mark the integrator clean: the next evolve reads
        // and writes a row of each for every particle.
        check_columns("grav_set_dynamics",
                      {acc.size(), jerk.size(), integrator->size()});
        if (integrator->sharded()) {
          // A running shard keeps zero acc/jerk in ghost rows (the force
          // pass never fills them); a restored shard must match, or the
          // ghost drift between updates would differ from the original's
          // and break bit-exact replay.
          const std::size_t lo = integrator->owned_lo();
          const std::size_t hi = integrator->owned_hi();
          for (std::size_t i = 0; i < acc.size(); ++i) {
            if (i < lo || i >= hi) {
              acc[i] = Vec3{};
              jerk[i] = Vec3{};
            }
          }
        }
        integrator->restore_dynamics(std::move(acc), std::move(jerk), time);
        return result;
      }
      case Fn::grav_reset: {
        integrator->clear();
        epochs->bump(state_field::gravity_all);
        return result;
      }
      case Fn::grav_set_shard: {
        auto lo = args.get<std::uint64_t>();
        auto hi = args.get<std::uint64_t>();
        if (lo > hi || hi > integrator->size()) {
          throw CodeError("grav_set_shard: rows [" + std::to_string(lo) +
                          ", " + std::to_string(hi) + ") of " +
                          std::to_string(integrator->size()) + " particles");
        }
        integrator->set_owned_range(static_cast<std::size_t>(lo),
                                    static_cast<std::size_t>(hi));
        return result;
      }
      case Fn::grav_ghost_update: {
        // Ghost refresh: overwrite [base, base+count) positions/velocities
        // with the coordinator's merged view. No epoch bump — ghosts are
        // not this shard's state to publish; set_position/velocity mark the
        // forces dirty so the next evolve sees the new neighbours.
        auto base = args.get<std::uint64_t>();
        auto flags = args.get<std::uint64_t>();
        std::vector<Vec3> unpacked;
        std::span<const Vec3> positions;
        if (flags & 1) {  // the f32 stream (low-bandwidth link)
          get_positions_f32(args, unpacked);
          positions = unpacked;
        } else {
          positions = args.get_span<Vec3>();
        }
        auto velocities = args.get_vector<Vec3>();
        check_columns("grav_ghost_update",
                      {positions.size(), velocities.size()});
        check_rows("grav_ghost_update", positions.size(), integrator->size(),
                   base);
        for (std::size_t i = 0; i < positions.size(); ++i) {
          integrator->set_position(static_cast<int>(base + i), positions[i]);
          integrator->set_velocity(static_cast<int>(base + i), velocities[i]);
        }
        return result;
      }
      default:
        throw CodeError("phigrape: unsupported function id " +
                        std::to_string(static_cast<int>(fn)));
    }
  };
}

/// The coupler worker's copy of one coupled system's masses and positions,
/// each under the content id it arrived with (0: unknown, never matches).
/// Every query that names the system, as sources or as points, reads this
/// one copy, so a client ships each array once per change. Whether a
/// query's answer is already known is the client's decision alone: every
/// query that arrives is computed.
struct HeldSystem {
  std::vector<double> mass;
  StateId mass_id = 0;
  std::vector<Vec3> position;
  StateId position_id = 0;
};

/// What the coupler holds: one entry per coupled system, by bridge system
/// index, and the last reply's payload, which the reply frame points at.
struct FieldHolding {
  std::map<std::uint64_t, HeldSystem> systems;
  std::vector<Vec3> accel;
  std::vector<Vec3> term;  // one source's accel, folded into `accel`
};

/// One array of one system as a field_accel_for frame resolves it: the
/// held copy, or the frame's own copy once a mention shipped one (later
/// mentions of the system then read that).
template <typename T>
struct FrameArray {
  std::span<const T> values;
  StateId id = 0;
  bool shipped = false;

  /// The array a mention names under `id`: the frame's copy when the
  /// mention ships one, else the resolved copy, which must be under `id`.
  std::span<const T> resolve(util::ByteReader& args, bool ships, StateId want,
                             std::uint64_t system, const char* what) {
    if (ships) {
      values = args.get_span<T>();
      id = want;
      shipped = true;
    } else if (id == 0 || id != want) {
      throw CodeError("field: system " + std::to_string(system) + "'s " +
                      what + " under id " + std::to_string(want) +
                      " are not held");
    }
    return values;
  }
};

struct FrameSystem {
  FrameArray<double> mass;
  FrameArray<Vec3> position;
};

/// Octgrav/Fi worker: tree gravity field evaluations.
Dispatcher make_field_dispatcher(
    std::shared_ptr<kernels::BarnesHutTree> field, WorkerCost cost) {
  auto holding = std::make_shared<FieldHolding>();
  return [field, cost, holding](Fn fn,
                                util::ByteReader& args) -> util::ByteWriter {
    util::ByteWriter result = reply_writer();
    switch (fn) {
      case Fn::field_accel_for: {
        struct Source {
          std::uint64_t system;
          std::uint64_t flags;
          StateId mass_id;
          StateId position_id;
          std::span<const double> mass;
          std::span<const Vec3> position;
        };
        auto target = args.get<std::uint64_t>();
        auto points_id = args.get<StateId>();
        auto head = args.get<std::uint64_t>();
        std::uint64_t count = head >> accel_flags::kShift;
        constexpr std::uint64_t kSourceWords = 3 * sizeof(std::uint64_t);
        if (count == 0 || count > args.remaining() / kSourceWords) {
          throw CodeError("field: " + std::to_string(count) +
                          " sources do not fit the frame");
        }
        std::vector<Source> sources(count);
        for (Source& source : sources) {
          auto word = args.get<std::uint64_t>();
          source.system = word >> accel_flags::kShift;
          source.flags = word & accel_flags::kMask;
          source.mass_id = args.get<StateId>();
          source.position_id = args.get<StateId>();
          if (source.system == target) {
            throw CodeError("field: system " + std::to_string(target) +
                            " is both a source and the target");
          }
        }
        // Resolve every array before changing any held one: a frame that
        // names an id the coupler does not hold changes nothing.
        std::map<std::uint64_t, FrameSystem> frame;
        auto resolved = [&](std::uint64_t system) -> FrameSystem& {
          auto [at, fresh] = frame.try_emplace(system);
          auto held = holding->systems.find(system);
          if (fresh && held != holding->systems.end()) {
            at->second.mass = {held->second.mass, held->second.mass_id};
            at->second.position = {held->second.position,
                                   held->second.position_id};
          }
          return at->second;
        };
        auto points = resolved(target).position.resolve(
            args, head & accel_flags::target_position, points_id, target,
            "positions");
        for (Source& source : sources) {
          FrameSystem& at = resolved(source.system);
          source.mass =
              at.mass.resolve(args, source.flags & accel_flags::source_mass,
                              source.mass_id, source.system, "masses");
          source.position = at.position.resolve(
              args, source.flags & accel_flags::source_position,
              source.position_id, source.system, "positions");
          check_columns("field_accel_for",
                        {source.mass.size(), source.position.size()});
        }
        // Each source's field at the target's points, folded left in frame
        // order: acc = a0, then acc[i] = acc[i] + a1[i], and so on.
        holding->accel.resize(points.size());
        for (std::size_t s = 0; s < sources.size(); ++s) {
          field->build(sources[s].position, sources[s].mass);
          charge(cost, static_cast<double>(sources[s].position.size()) *
                           kernels::BarnesHutTree::kBuildFlopsPerParticle);
          auto before = field->interactions();
          std::vector<Vec3>& out = s == 0 ? holding->accel : holding->term;
          out.resize(points.size());
          field->accel_at(points, out);
          charge(cost, static_cast<double>(field->interactions() - before) *
                           kernels::BarnesHutTree::kFlopsPerInteraction);
          if (s == 0) continue;
          for (std::size_t i = 0; i < out.size(); ++i) {
            holding->accel[i] = holding->accel[i] + out[i];
          }
        }
        // Hold what the frame shipped (views into the receive buffer).
        for (const auto& [system, arrays] : frame) {
          HeldSystem& held = holding->systems[system];
          if (arrays.mass.shipped) {
            held.mass.assign(arrays.mass.values.begin(),
                             arrays.mass.values.end());
            held.mass_id = arrays.mass.id;
          }
          if (arrays.position.shipped) {
            held.position.assign(arrays.position.values.begin(),
                                 arrays.position.values.end());
            held.position_id = arrays.position.id;
          }
        }
        result.put_span_view(std::span<const Vec3>(holding->accel));
        return result;
      }
      default:
        throw CodeError("field: unsupported function id " +
                        std::to_string(static_cast<int>(fn)));
    }
  };
}

/// SSE worker: parameterized stellar evolution (compute cost ~ trivial).
Dispatcher make_se_dispatcher(
    std::shared_ptr<kernels::StellarEvolution> stellar, WorkerCost cost) {
  // Masses as of the last delta exchange: the baseline the changed-star
  // diff is taken against. A restarted worker starts empty, so the first
  // exchange after a fault rollback is always a full one.
  auto reported = std::make_shared<std::vector<double>>();
  return [stellar, cost,
          reported](Fn fn, util::ByteReader& args) -> util::ByteWriter {
    util::ByteWriter result = reply_writer();
    switch (fn) {
      case Fn::se_add_stars: {
        auto masses = args.get_vector<double>();
        for (double mass : masses) stellar->add_star(mass);
        return result;
      }
      case Fn::se_get_mass_updates: {
        auto client_holds = args.get<std::uint64_t>();
        std::vector<double> current = stellar->masses();
        if (client_holds != current.size() ||
            reported->size() != current.size()) {
          result.put<std::uint64_t>(se_mass_flags::full);
          result.put_vector(current);
        } else {
          std::vector<std::int32_t> indices;
          std::vector<double> values;
          for (std::size_t i = 0; i < current.size(); ++i) {
            if (current[i] != (*reported)[i]) {
              indices.push_back(static_cast<std::int32_t>(i));
              values.push_back(current[i]);
            }
          }
          result.put<std::uint64_t>(0);
          result.put_vector(indices);
          result.put_vector(values);
        }
        *reported = std::move(current);
        return result;
      }
      case Fn::se_evolve_to: {
        double age = args.get<double>();
        stellar->evolve_to(age);
        // "nearly trivial" lookups: ~500 flops per star.
        charge(cost, static_cast<double>(stellar->size()) * 500.0);
        return result;
      }
      case Fn::se_get_masses: {
        result.put_vector(stellar->masses());
        return result;
      }
      case Fn::se_get_supernovae: {
        std::vector<std::int32_t> indices(
            stellar->recent_supernovae().begin(),
            stellar->recent_supernovae().end());
        result.put_vector(indices);
        return result;
      }
      default:
        throw CodeError("sse: unsupported function id " +
                        std::to_string(static_cast<int>(fn)));
    }
  };
}

constexpr std::uint64_t kHydroEvolveBumps =
    state_field::position | state_field::velocity |
    state_field::internal_energy | state_field::density;

/// How a gadget worker runs hydro_evolve: advance the model to t_end and
/// return the flops left to charge (a rank-parallel model charges each rank
/// as it goes and returns 0).
using HydroEvolve = std::function<double(double t_end)>;

/// Gadget worker, serial or rank-parallel: only `evolve` differs.
Dispatcher make_hydro_dispatcher(std::shared_ptr<kernels::SphSystem> sph,
                                 HydroEvolve evolve, WorkerCost cost) {
  auto epochs = std::make_shared<StateEpochs>();
  auto kick_cache = std::make_shared<std::vector<Vec3>>();
  return [sph, evolve = std::move(evolve), cost, epochs, kick_cache](
             Fn fn, util::ByteReader& args) -> util::ByteWriter {
    util::ByteWriter result = reply_writer();
    switch (fn) {
      case Fn::hydro_evolve: {
        double t_end = args.get<double>();
        auto steps_before = sph->substeps();
        double flops = evolve(t_end);
        if (cost.substeps != nullptr) {
          cost.substeps->add(
              static_cast<double>(sph->substeps() - steps_before));
        }
        charge(cost, flops);
        epochs->bump(kHydroEvolveBumps);
        return result;
      }
      case Fn::hydro_add_gas: {
        auto masses = args.get_span<double>();
        auto positions = args.get_span<Vec3>();
        auto velocities = args.get_span<Vec3>();
        auto energies = args.get_span<double>();
        check_columns("hydro_add_gas", {masses.size(), positions.size(),
                                        velocities.size(), energies.size()});
        for (std::size_t i = 0; i < masses.size(); ++i) {
          sph->add_particle(masses[i], positions[i], velocities[i],
                            energies[i]);
        }
        epochs->bump(state_field::hydro_all);
        return result;
      }
      case Fn::hydro_get_state: {
        // internal_energies() materializes (u is stored as entropy inside);
        // keep the copy alive across the reply serialization.
        std::vector<double> energies = sph->internal_energies();
        std::vector<StateFieldWriter> fields =
            motion_fields(sph->masses(), sph->positions(), sph->velocities());
        fields.push_back({state_field::internal_energy, 3,
                          [&](util::ByteWriter& out, std::uint64_t) {
                            out.put_span(std::span<const double>(energies));
                          }});
        fields.push_back({state_field::density, 4,
                          [&](util::ByteWriter& out, std::uint64_t) {
                            out.put_span_view(
                                std::span<const double>(sph->densities()));
                          }});
        return delta_state_reply(*epochs, args, fields);
      }
      case Fn::hydro_get_energies: {
        double n = static_cast<double>(sph->size());
        charge(cost, n * std::max(1.0, std::log2(std::max(2.0, n))) * 100.0);
        result.put<double>(sph->kinetic_energy());
        result.put<double>(sph->thermal_energy());
        result.put<double>(sph->potential_energy());
        return result;
      }
      case Fn::hydro_kick_all: {
        kick_rows("hydro_kick_all", args, *kick_cache, *sph, 0, sph->size());
        epochs->bump(state_field::velocity);
        return result;
      }
      case Fn::hydro_inject: {
        auto indices = args.get_span<std::int32_t>();
        // An odd index count leaves the next span 4-byte aligned; copy out.
        auto amounts = args.get_vector<double>();
        check_indexed("hydro_inject", indices, amounts.size(), sph->size());
        for (std::size_t i = 0; i < indices.size(); ++i) {
          sph->inject_energy(indices[i], amounts[i]);
        }
        epochs->bump(state_field::internal_energy);
        return result;
      }
      case Fn::hydro_get_time: {
        result.put<double>(sph->time());
        return result;
      }
      case Fn::hydro_set_time: {
        sph->set_time(args.get<double>());
        return result;
      }
      default:
        throw CodeError("gadget: unsupported function id " +
                        std::to_string(static_cast<int>(fn)));
    }
  };
}

// ---------------------------------------------------------- parallel SPH

/// Parallel Gadget worker: SPH with the density/force/integrate phases
/// partitioned over MPI ranks and slice exchanges over the simulated
/// interconnect — the paper's "8 nodes, C/MPI/Ibis gas dynamics (Gadget)".
class ParallelSph {
 public:
  ParallelSph(sim::Network& net, std::vector<sim::Host*> hosts, int nranks,
              kernels::SphSystem::Params params, int ncores_per_rank);

  kernels::SphSystem& sph() noexcept { return sph_; }

  /// Called on the driver (rank 0) process.
  void evolve(double t_end);
  void stop();

  /// Meter rank-0's compute (flops + modeled seconds — representative of
  /// elapsed time, the ranks being symmetric).
  void set_meters(obs::metrics::Counter* flops,
                  obs::metrics::Counter* compute_s) noexcept {
    m_flops_ = flops;
    m_compute_s_ = compute_s;
  }

  mpi::MpiWorld& world() noexcept { return world_; }

 private:
  void rank_loop(mpi::Comm& comm);
  void parallel_steps(mpi::Comm& comm, double t_end);
  std::pair<std::size_t, std::size_t> slice(int rank) const;

  kernels::SphSystem sph_;
  mpi::MpiWorld world_;
  int ncores_per_rank_;
  bool stopped_ = false;
  obs::metrics::Counter* m_flops_ = nullptr;
  obs::metrics::Counter* m_compute_s_ = nullptr;
};

ParallelSph::ParallelSph(sim::Network& net, std::vector<sim::Host*> hosts,
                         int nranks, kernels::SphSystem::Params params,
                         int ncores_per_rank)
    : sph_(params),
      world_(net, std::move(hosts), nranks),
      ncores_per_rank_(ncores_per_rank) {
  // Ranks 1..n-1 are persistent helpers waiting for broadcast commands;
  // rank 0 is driven inline by the worker server process.
  world_.launch_from(1, "gadget", [this](mpi::Comm& comm) { rank_loop(comm); });
}

std::pair<std::size_t, std::size_t> ParallelSph::slice(int rank) const {
  std::size_t n = sph_.size();
  std::size_t per = (n + world_.size() - 1) / world_.size();
  std::size_t lo = std::min(n, per * static_cast<std::size_t>(rank));
  std::size_t hi = std::min(n, lo + per);
  return {lo, hi};
}

void ParallelSph::rank_loop(mpi::Comm& comm) {
  while (true) {
    auto command = comm.bcast({}, 0);
    util::ByteReader reader(std::move(command));
    auto opcode = reader.get<std::uint8_t>();
    if (opcode == 0) return;  // stop
    double t_end = reader.get<double>();
    parallel_steps(comm, t_end);
  }
}

void ParallelSph::evolve(double t_end) {
  util::ByteWriter command;
  command.put<std::uint8_t>(1);
  command.put<double>(t_end);
  world_.comm(0).bcast(std::move(command).take(), 0);
  parallel_steps(world_.comm(0), t_end);
  sph_.advance_time(t_end - sph_.time());
}

void ParallelSph::stop() {
  if (stopped_) return;
  stopped_ = true;
  util::ByteWriter command;
  command.put<std::uint8_t>(0);
  world_.comm(0).bcast(std::move(command).take(), 0);
}

void ParallelSph::parallel_steps(mpi::Comm& comm, double t_end) {
  // Replicated-data parallel SPH: every rank sees the full particle set,
  // computes its slice, and slice results travel over the (simulated)
  // interconnect. Identical structure to small-scale Gadget runs.
  sim::Host& my_host = comm.host();
  // Rank 0 doubles as the meter: its flops/seconds are representative of
  // the elapsed compute (ranks run the same-sized slices in lockstep).
  auto charge_rank = [&](double flops) {
    if (comm.rank() == 0 && m_flops_ != nullptr) {
      m_flops_->add(flops);
      m_compute_s_->add(my_host.compute_time(flops, sim::DeviceKind::cpu,
                                             ncores_per_rank_));
    }
    my_host.compute(flops, sim::DeviceKind::cpu, ncores_per_rank_);
  };
  auto flatten = [](std::span<const Vec3> values, std::size_t lo,
                    std::size_t hi) {
    std::vector<double> flat;
    flat.reserve((hi - lo) * 3);
    for (std::size_t i = lo; i < hi; ++i) {
      flat.push_back(values[i].x);
      flat.push_back(values[i].y);
      flat.push_back(values[i].z);
    }
    return flat;
  };
  double t = sph_.time();
  while (t < t_end - 1e-15) {
    auto [lo, hi] = slice(comm.rank());
    // Tree + grid build: rank 0 builds the real structures (shared memory);
    // every rank pays the build cost, as in a replicated tree code.
    if (comm.rank() == 0) sph_.prepare_step();
    charge_rank(static_cast<double>(sph_.size()) *
                kernels::BarnesHutTree::kBuildFlopsPerParticle);
    comm.barrier();

    auto ngb0 = sph_.neighbour_interactions();
    sph_.compute_density(lo, hi);
    charge_rank(static_cast<double>(sph_.neighbour_interactions() - ngb0) *
                kernels::SphSystem::kFlopsPerNeighbour);
    // Exchange the density/smoothing slices (real values, real bytes).
    std::vector<double> rho_slice(sph_.densities().begin() + lo,
                                  sph_.densities().begin() + hi);
    comm.allgatherv(rho_slice);

    auto ngb1 = sph_.neighbour_interactions();
    auto tree1 = sph_.tree_interactions();
    sph_.compute_forces(lo, hi);
    charge_rank(static_cast<double>(sph_.neighbour_interactions() - ngb1) *
                    kernels::SphSystem::kFlopsPerNeighbour +
                static_cast<double>(sph_.tree_interactions() - tree1) *
                    kernels::SphSystem::kFlopsPerTreeInteraction);

    double dt = comm.allreduce_min(sph_.timestep(lo, hi));
    dt = std::min(dt, t_end - t);
    sph_.integrate(lo, hi, dt);
    comm.allgatherv(flatten(sph_.positions(), lo, hi));
    comm.allgatherv(flatten(sph_.velocities(), lo, hi));
    t += dt;
    if (comm.rank() == 0) sph_.advance_time(dt);
  }
}

}  // namespace

// -------------------------------------------------------------- factory

void run_worker(std::unique_ptr<MessagePipe> pipe, const WorkerSpec& spec,
                std::vector<sim::Host*> hosts, sim::Network& net) {
  sim::Host* primary = hosts.front();
  WorkerCost cost;
  cost.host = primary;
  cost.ncores = spec.ncores;
  cost.device = spec.needs_gpu() ? sim::DeviceKind::gpu : sim::DeviceKind::cpu;
  const std::string meter = spec.meter.empty() ? spec.code : spec.meter;
  cost.flops = &obs::metrics::counter("worker." + meter + ".flops");
  cost.compute_s = &obs::metrics::counter("worker." + meter + ".compute_s");
  cost.substeps = &obs::metrics::counter("worker." + meter + ".substeps");

  // All kernels share the process-wide thread pool (JUNGLE_THREADS lanes):
  // the simulated hosts model *virtual* cost, while the pool makes the real
  // numerics run on every available core.
  util::ThreadPool& pool = util::ThreadPool::global();

  Dispatcher dispatcher;
  std::shared_ptr<ParallelSph> parallel;  // kept alive for stop()
  if (spec.code == "phigrape" || spec.code == "phigrape-gpu") {
    kernels::HermiteIntegrator::Params params;
    params.eps2 = spec.eps2;
    params.eta = spec.eta;
    auto integrator = std::make_shared<kernels::HermiteIntegrator>(params);
    integrator->set_thread_pool(&pool);
    dispatcher = make_gravity_dispatcher(std::move(integrator), cost);
  } else if (spec.code == "octgrav" || spec.code == "fi") {
    auto field =
        std::make_shared<kernels::BarnesHutTree>(spec.theta, spec.eps2);
    field->set_thread_pool(&pool);
    dispatcher = make_field_dispatcher(std::move(field), cost);
  } else if (spec.code == "sse") {
    dispatcher =
        make_se_dispatcher(std::make_shared<kernels::StellarEvolution>(), cost);
  } else if (spec.code == "gadget") {
    kernels::SphSystem::Params params;
    params.eps2 = spec.eps2;
    params.theta = spec.theta;
    if (spec.nranks <= 1) {
      auto sph = std::make_shared<kernels::SphSystem>(params);
      sph->set_thread_pool(&pool);
      kernels::SphSystem* serial = sph.get();
      // Charged by the neighbour and tree interactions the evolve ran.
      auto evolve = [serial](double t_end) {
        auto ngb_before = serial->neighbour_interactions();
        auto tree_before = serial->tree_interactions();
        serial->evolve(t_end);
        return static_cast<double>(serial->neighbour_interactions() -
                                   ngb_before) *
                   kernels::SphSystem::kFlopsPerNeighbour +
               static_cast<double>(serial->tree_interactions() -
                                   tree_before) *
                   kernels::SphSystem::kFlopsPerTreeInteraction;
      };
      dispatcher = make_hydro_dispatcher(std::move(sph), evolve, cost);
    } else {
      parallel = std::make_shared<ParallelSph>(net, hosts, spec.nranks,
                                               params, spec.ncores);
      parallel->set_meters(cost.flops, cost.compute_s);
      parallel->sph().set_thread_pool(&pool);
      ParallelSph* ranks = parallel.get();
      auto evolve = [ranks](double t_end) {
        ranks->evolve(t_end);  // each rank charges its own compute
        return 0.0;
      };
      // The dispatcher's handle on the model keeps the ranks alive too.
      dispatcher = make_hydro_dispatcher(
          std::shared_ptr<kernels::SphSystem>(parallel, &parallel->sph()),
          evolve, cost);
    }
  } else {
    throw CodeError("unknown worker code '" + spec.code + "'");
  }

  log::info("amuse") << "worker " << spec.code << " serving on "
                     << primary->name() << " (" << pool.lanes()
                     << " kernel lanes)";
  WorkerServer server(std::move(pipe), std::move(dispatcher),
                      [&net] { return net.simulation().now(); });
  server.run();
  if (parallel) {
    parallel->stop();
    // The rank processes reference MpiWorld state; let them drain the stop
    // broadcast before this frame (and ParallelSph with it) unwinds.
    parallel->world().wait();
  }
}

}  // namespace jungle::amuse
