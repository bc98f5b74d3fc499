#include "amuse/bridge.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <optional>

#include "amuse/faultpoint.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace jungle::amuse {

namespace {

/// A cross-gravity query in flight: one run of consecutive couplings of a
/// target that share a field worker, asked as a single query.
struct PendingQuery {
  FieldClient* field;
  int target;                // system index the summed accel applies to
  std::vector<int> sources;  // system indices, in coupling order
  FieldClient::Pending answer;
};

/// Folds one target system's per-run accelerations into a single kick
/// frame. The common single-run case ships the field client's accel span
/// as-is; several runs (a target coupled through more than one field
/// worker) ship their sum, added in coupling order. The worker multiplies
/// by the kick's dt.
class KickSum {
 public:
  void add(std::span<const Vec3> accel, const std::string& target) {
    if (runs_ == 0) {
      single_ = accel;
    } else {
      if (runs_ == 1) sum_.assign(single_.begin(), single_.end());
      if (sum_.size() != accel.size()) {
        throw CodeError("bridge: coupled accel sizes differ for system '" +
                        target + "'");
      }
      for (std::size_t i = 0; i < sum_.size(); ++i) {
        sum_[i] = sum_[i] + accel[i];
      }
    }
    ++runs_;
  }

  bool empty() const { return runs_ == 0; }
  std::span<const Vec3> accel() const {
    return runs_ == 1 ? single_ : std::span<const Vec3>(sum_);
  }

 private:
  std::span<const Vec3> single_;
  std::vector<Vec3> sum_;
  int runs_ = 0;
};

}  // namespace

Bridge::Bridge(std::vector<System> systems, std::vector<Coupling> couplings,
               std::vector<Stellar> stellar, Config config)
    : systems_(std::move(systems)),
      couplings_(std::move(couplings)),
      config_(config),
      time_(config.t_start) {
  if (systems_.empty()) {
    throw CodeError("bridge: no systems to evolve");
  }
  for (const System& system : systems_) {
    if (system.dynamics == nullptr) {
      throw CodeError("bridge: system '" + system.name + "' has no client");
    }
  }
  int n = static_cast<int>(systems_.size());
  coupled_.assign(systems_.size(), false);
  for (const Coupling& coupling : couplings_) {
    if (coupling.field == nullptr) {
      throw CodeError("bridge: coupling without a field client");
    }
    if (coupling.a < 0 || coupling.a >= n || coupling.b < 0 ||
        coupling.b >= n || coupling.a == coupling.b) {
      throw CodeError("bridge: coupling references invalid system indices");
    }
    coupled_[coupling.a] = true;
    coupled_[coupling.b] = true;
  }
  stellar_.reserve(stellar.size());
  for (Stellar& wiring : stellar) {
    if (wiring.client == nullptr || wiring.into == nullptr) {
      throw CodeError("bridge: stellar link needs a client and a target");
    }
    StellarLink link;
    link.wiring = wiring;
    stellar_.push_back(std::move(link));
  }
}

std::vector<Future> Bridge::cross_kick(StateFetches fetched) {
  // Phase 1 — the state of every coupled system whose cached mass and
  // position may be stale, fetched concurrently: one round trip, and only
  // the coupling fields (mass+position) that changed since the cached copy.
  // A current system's fetch would carry nothing and is skipped — after a
  // bottom kick that is every system, unless a mass update intervened. A
  // fetch the caller already sent (the bottom kick's, behind the evolve)
  // is merged instead of sent again.
  {
    obs::trace::Span phase = obs::trace::span("state_fetch", "bridge");
    fetched.resize(systems_.size());
    for (std::size_t i = 0; i < systems_.size(); ++i) {
      if (!coupled_[i] || fetched[i] ||
          systems_[i].dynamics->coupling_current()) {
        continue;
      }
      fetched[i] = systems_[i].dynamics->request_state(state_field::coupling);
    }
    for (std::size_t i = 0; i < systems_.size(); ++i) {
      if (!fetched[i]) continue;
      systems_[i].dynamics->merge_state(*fetched[i], state_field::coupling);
    }
  }

  // Phase 2 — every cross-gravity query in flight together, ordered by
  // target system: one query per run of a target's consecutive couplings
  // that share a field worker, which sums the run's sources on the worker.
  // The coupler holds one copy of each system's masses and positions for
  // all the queries that name it, so an array rides along only the first
  // time its content id changes; an unchanged query is answered from the
  // field client's cached accel, with no RPC at all.
  obs::trace::Span queries_phase = obs::trace::span("field_queries", "bridge");
  auto named = [&](int system) {
    const DynamicsClient& d = *systems_[system].dynamics;
    return FieldClient::System{system, d.mass_id(), d.mass(), d.position_id(),
                               d.position()};
  };
  std::vector<PendingQuery> queries;
  for (int target = 0; target < static_cast<int>(systems_.size()); ++target) {
    FieldClient* run = nullptr;
    for (const Coupling& coupling : couplings_) {
      if (coupling.a != target && coupling.b != target) continue;
      if (coupling.field != run) {
        run = coupling.field;
        queries.push_back({run, target, {}, {}});
      }
      queries.back().sources.push_back(coupling.a == target ? coupling.b
                                                            : coupling.a);
    }
  }
  for (PendingQuery& query : queries) {
    std::vector<FieldClient::System> sources;
    for (int source : query.sources) sources.push_back(named(source));
    query.answer = query.field->accel_for_async(named(query.target), sources);
  }

  // Collect each target's accelerations (finish in issue order), then
  // phase 3 — all kicks sent as accel + dt frames (an unchanged
  // acceleration travels as a 16-byte repeat). The caller waits for them.
  // Two runs of a target on one field worker always have a run on another
  // worker between them, so KickSum has copied the earlier one's accel
  // before the later finish can overwrite the record they may share.
  std::vector<Future> kicks_done;
  for (int target = 0; target < static_cast<int>(systems_.size()); ++target) {
    KickSum kick;
    for (PendingQuery& query : queries) {
      if (query.target != target) continue;
      kick.add(query.field->finish_accel(query.answer), systems_[target].name);
      for (int source : query.sources) {
        trace_.push_back("kick:" + systems_[source].name + "->" +
                         systems_[target].name);
      }
    }
    if (kick.empty()) continue;
    kicks_done.push_back(
        systems_[target].dynamics->kick_async(kick.accel(), config_.dt / 2.0));
  }
  return kicks_done;
}

void Bridge::step() {
  double dt = config_.dt;
  int step_index = config_.step_offset + steps_;

  faultpoint::reach(faultpoint::Point::step_top_kick, step_index);
  std::vector<Future> top_kicks;
  if (!couplings_.empty()) {
    obs::trace::Span phase = obs::trace::span("cross_kick:top", "bridge");
    top_kicks = cross_kick();
  }

  // Parallel evolve: all systems advance concurrently; total wall time is
  // max over the systems' evolves + messaging — the Jungle payoff. Every
  // call below rides a worker's FIFO pipe behind the one before it:
  //  - the top kicks are still in flight, so each worker applies its kick
  //    before the evolve queued behind it;
  //  - each coupled system's coupling fetch follows its evolve,
  //    so the reply carries the evolved state and lands right behind the
  //    evolve's;
  //  - the previous step's unacked calls ran before all of it.
  // Their acks are collected while the evolves run.
  StateFetches fetched(systems_.size());
  faultpoint::reach(faultpoint::Point::step_evolve, step_index);
  {
    obs::trace::Span phase = obs::trace::span("evolve", "bridge");
    std::vector<Future> evolving;
    evolving.reserve(systems_.size());
    for (std::size_t i = 0; i < systems_.size(); ++i) {
      DynamicsClient& system = *systems_[i].dynamics;
      evolving.push_back(system.evolve_async(time_ + dt));
      if (coupled_[i]) {
        fetched[i] = system.request_state(state_field::coupling);
      }
    }
    trace_.push_back("evolve:parallel");
    settle();
    for (Future& kick : top_kicks) kick.get();
    for (Future& future : evolving) future.get();
  }

  // The bottom kick's acks are not waited on: nothing this step reads
  // depends on them, and the next call on each pipe queues behind them.
  // They are collected by the next step's evolve wait or by settle().
  faultpoint::reach(faultpoint::Point::step_bottom_kick, step_index);
  if (!couplings_.empty()) {
    obs::trace::Span phase = obs::trace::span("cross_kick:bottom", "bridge");
    for (Future& kick : cross_kick(std::move(fetched))) {
      unacked_.push_back(std::move(kick));
    }
  }

  time_ += dt;
  ++steps_;

  if (!stellar_.empty() &&
      (config_.step_offset + steps_) % config_.se_every == 0) {
    faultpoint::reach(faultpoint::Point::step_stellar, step_index);
    obs::trace::Span phase = obs::trace::span("stellar_update", "bridge");
    stellar_update();
  }
}

void Bridge::settle() {
  std::vector<Future> acks = std::move(unacked_);
  unacked_.clear();
  for (Future& ack : acks) ack.get();
}

std::pair<std::vector<double>, std::vector<double>> Bridge::se_mapping(
    std::size_t link) const {
  if (link >= stellar_.size()) return {};
  return {stellar_[link].zams_se, stellar_[link].zams_dynamical};
}

void Bridge::set_se_mapping(std::vector<double> zams_se,
                            std::vector<double> zams_dynamical,
                            std::size_t link) {
  if (link >= stellar_.size()) {
    throw CodeError("bridge: no stellar link " + std::to_string(link));
  }
  stellar_[link].zams_se = std::move(zams_se);
  stellar_[link].zams_dynamical = std::move(zams_dynamical);
}

template <typename Client>
const auto& Bridge::current_state(Client& client) {
  // Mass + position, the fields the update consumes: from the cache when it
  // is provably current (after a bottom kick it is), and only what changed
  // otherwise.
  if (client.coupling_current()) return client.cached_state();
  Future reply = client.request_state(state_field::coupling);
  return client.finish_state(reply, state_field::coupling);
}

void Bridge::stellar_update() {
  for (StellarLink& link : stellar_) stellar_update_one(link);
}

void Bridge::stellar_update_one(StellarLink& link) {
  // Stellar evolution runs at a slower rate, "only exchanging state every
  // n-th time step" (paper §6 / Fig 7).
  GravityClient& stars = *link.wiring.into;
  double age_myr = time_ * config_.myr_per_nbody_time;
  link.wiring.client->evolve_to(age_myr);
  trace_.push_back("se:evolve");

  // Mass update channel: SSE masses (MSun) -> gravity code. The masses
  // must be rescaled into N-body units: the SSE side provides masses in
  // MSun, and the gravity code started from the same stars, so the ratio
  // current/zams per star is applied to the dynamical masses. The fetch is
  // delta-compressed: only stars whose mass changed since the previous
  // exchange travel.
  const std::vector<double>& se_masses = link.wiring.client->masses();
  const GravityState& stars_state = current_state(stars);
  if (se_masses.size() != stars_state.mass.size()) {
    throw CodeError("bridge: SE and gravity particle counts differ");
  }
  if (!link.zams_dynamical.size()) {
    // First update: remember the mapping MSun <-> N-body mass.
    link.zams_se = se_masses;
    link.zams_dynamical = stars_state.mass;
  }
  std::vector<double> new_masses(se_masses.size());
  double wind_mass_nbody = 0.0;
  for (std::size_t i = 0; i < se_masses.size(); ++i) {
    new_masses[i] = link.zams_dynamical[i] * se_masses[i] / link.zams_se[i];
    wind_mass_nbody += std::max(0.0, stars_state.mass[i] - new_masses[i]);
  }
  // Delta-compressed mass channel: ship only the masses that differ from
  // what the integrator holds. The (possibly empty) sparse update always
  // travels so the worker keeps the full channel's force-refresh side
  // effect — quiet SE steps cost a header, not the whole array.
  std::vector<std::int32_t> changed;
  std::vector<double> values;
  for (std::size_t i = 0; i < new_masses.size(); ++i) {
    if (new_masses[i] != stars_state.mass[i]) {
      changed.push_back(static_cast<std::int32_t>(i));
      values.push_back(new_masses[i]);
    }
  }
  unacked_.push_back(stars.set_masses_sparse_async(changed, values));
  trace_.push_back("se:masses->gravity");

  if (config_.feedback_efficiency <= 0.0) return;
  if (link.wiring.feedback == nullptr) return;
  HydroClient& gas = *link.wiring.feedback;

  // Thermal feedback into the gas: winds (continuous) and supernovae
  // (discrete). Energy goes to the gas particle nearest each massive star.
  const HydroState& gas_state = current_state(gas);
  std::vector<std::int32_t> indices;
  std::vector<double> delta_u;
  auto nearest_gas = [&](const Vec3& where) {
    std::size_t best = 0;
    double best_r2 = std::numeric_limits<double>::max();
    for (std::size_t g = 0; g < gas_state.position.size(); ++g) {
      double r2 = (gas_state.position[g] - where).norm2();
      if (r2 < best_r2) {
        best_r2 = r2;
        best = g;
      }
    }
    return static_cast<std::int32_t>(best);
  };
  if (wind_mass_nbody > 0.0 && config_.wind_specific_energy > 0.0) {
    // Deposit wind energy at the most massive star's location (the winds
    // of the cluster's O stars dominate).
    std::size_t heaviest =
        std::distance(link.zams_se.begin(),
                      std::max_element(link.zams_se.begin(),
                                       link.zams_se.end()));
    double energy = config_.feedback_efficiency * wind_mass_nbody *
                    config_.wind_specific_energy;
    std::int32_t target = nearest_gas(stars_state.position[heaviest]);
    indices.push_back(target);
    delta_u.push_back(energy / gas_state.mass[target]);
  }
  for (std::int32_t star : link.wiring.client->supernovae()) {
    double energy = config_.feedback_efficiency * config_.supernova_energy;
    std::int32_t target = nearest_gas(stars_state.position[star]);
    indices.push_back(target);
    delta_u.push_back(energy / gas_state.mass[target]);
    log::info("amuse") << "supernova of star " << star << " at t=" << time_
                       << " heats gas particle " << target;
  }
  if (!indices.empty()) {
    unacked_.push_back(gas.inject_async(indices, delta_u));
    trace_.push_back("se:feedback->gas");
  }
}

}  // namespace jungle::amuse
