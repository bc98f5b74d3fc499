#include "sched/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>

#include "amuse/faultpoint.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace jungle::sched {

const char* role_name(Role role) noexcept {
  switch (role) {
    case Role::gravity: return "gravity";
    case Role::hydro: return "hydro";
    case Role::coupler: return "coupler";
    case Role::stellar: return "stellar";
  }
  return "?";
}

Placement::Placement(const Workload& load) {
  for (const ModelLoad& model : load.models) {
    kinds.push_back(model.role);
    names.push_back(model.name);
  }
  roles.resize(kinds.size());
}

std::string Placement::describe() const {
  std::ostringstream out;
  for (std::size_t i = 0; i < roles.size(); ++i) {
    const Assignment& a = roles[i];
    if (i) out << ", ";
    out << (i < names.size() ? names[i] : "?") << "=" << a.spec.code;
    if (a.spec.nranks > 1) out << "[" << a.spec.nranks << "]";
    out << "@" << a.where();
  }
  return out.str();
}

Scheduler::Scheduler(const sim::Network& net, const sim::Host& client,
                     const std::vector<gat::Resource>& resources)
    : net_(net), client_(client), resources_(resources) {}

bool Scheduler::exclude_host(const std::string& host_name) {
  return dead_hosts_.insert(host_name).second;
}

void Scheduler::exclude_resource(const std::string& resource_name) {
  dead_resources_.insert(resource_name);
}

bool Scheduler::usable(const sim::Host& host) const {
  return host.is_up() && dead_hosts_.count(host.name()) == 0;
}

std::vector<const sim::Host*> Scheduler::live_nodes(
    const gat::Resource& resource) const {
  std::vector<const sim::Host*> live;
  for (const sim::Host* node : resource.compute_hosts()) {
    if (node != nullptr && usable(*node)) live.push_back(node);
  }
  return live;
}

std::string Scheduler::resource_of(const std::string& host_name) const {
  for (const gat::Resource& resource : resources_) {
    if (resource.frontend != nullptr &&
        resource.frontend->name() == host_name) {
      return resource.name;
    }
    for (const sim::Host* node : resource.nodes) {
      if (node != nullptr && node->name() == host_name) return resource.name;
    }
  }
  return "";
}

amuse::WorkerSpec gravity_spec(bool gpu) {
  amuse::WorkerSpec spec;
  spec.code = gpu ? "phigrape-gpu" : "phigrape";
  if (!gpu) spec.ncores = 2;
  return spec;
}

amuse::WorkerSpec coupler_spec(bool gpu) {
  amuse::WorkerSpec spec;
  spec.code = gpu ? "octgrav" : "fi";
  if (!gpu) spec.ncores = 2;
  return spec;
}

amuse::WorkerSpec hydro_spec(int nranks, int ncores) {
  amuse::WorkerSpec spec;
  spec.code = "gadget";
  spec.nranks = nranks;
  spec.ncores = ncores;
  return spec;
}

namespace {

const sim::Host* first_gpu(const std::vector<const sim::Host*>& nodes) {
  for (const sim::Host* node : nodes) {
    if (node->gpu()) return node;
  }
  return nullptr;
}

/// Representative node for a CPU kernel: a non-GPU node when the resource
/// has one (the queue keeps GPU nodes for GPU jobs — see
/// ClusterQueue::free_matching).
const sim::Host* first_cpu(const std::vector<const sim::Host*>& nodes) {
  for (const sim::Host* node : nodes) {
    if (!node->gpu()) return node;
  }
  return nodes.front();
}

}  // namespace

std::vector<Assignment> Scheduler::candidates(const ModelLoad& model) const {
  std::vector<Assignment> options;
  auto add = [&](const std::string& resource, const sim::Host* host,
                 amuse::WorkerSpec spec, int nodes) {
    if (!model.kernel.empty() && model.kernel != "auto" &&
        spec.code != model.kernel) {
      return;
    }
    Assignment a;
    a.resource = resource;
    a.host = host;
    a.spec = std::move(spec);
    a.nodes = nodes;
    options.push_back(std::move(a));
  };

  // The client machine itself, over a local channel (no deployment). A
  // sharded gravity model wants K distinct nodes — the client box offers no
  // parallelism to shard over, so it is not a candidate (a pin can still
  // force it for testing).
  if (usable(client_)) {
    switch (model.role) {
      case Role::gravity:
        if (model.workers <= 1) {
          add("", &client_, gravity_spec(client_.gpu().has_value()), 1);
        }
        break;
      case Role::coupler:
        add("", &client_, coupler_spec(client_.gpu().has_value()), 1);
        break;
      case Role::hydro:
        add("", &client_, hydro_spec(model.nranks > 0 ? model.nranks : 2, 1),
            1);
        break;
      case Role::stellar:
        add("", &client_, amuse::WorkerSpec{.code = "sse"}, 1);
        break;
    }
  }

  for (const gat::Resource& resource : resources_) {
    if (dead_resources_.count(resource.name)) continue;
    // Jobs submit through the frontend: a dead one strands its nodes.
    if (resource.frontend != nullptr && !usable(*resource.frontend)) continue;
    // ... and one the client cannot even ssh to (NAT'd edge box) cannot
    // receive a deployment at all — no adapter will reach it.
    if (resource.frontend != nullptr &&
        !net_.can_ssh(client_, *resource.frontend)) {
      continue;
    }
    std::vector<const sim::Host*> live = live_nodes(resource);
    if (live.empty()) continue;
    switch (model.role) {
      case Role::gravity:
      case Role::coupler: {
        if (model.role == Role::gravity && model.workers > 1) {
          // Domain decomposition: K plain phigrape shards on K distinct CPU
          // nodes of one resource. LAN-dense resources (many live nodes,
          // short intra-site hops) are the natural winners — co-location
          // keeps every shard one queue away and the ghost all-to-all on
          // one wire.
          if (static_cast<int>(live.size()) >= model.workers) {
            add(resource.name, first_cpu(live), gravity_spec(false),
                model.workers);
          }
          break;
        }
        auto spec_for =
            model.role == Role::gravity ? gravity_spec : coupler_spec;
        if (const sim::Host* gpu_node = first_gpu(live)) {
          add(resource.name, gpu_node, spec_for(true), 1);
        }
        add(resource.name, first_cpu(live), spec_for(false), 1);
        break;
      }
      case Role::hydro: {
        if (live.size() >= 2) {
          int nodes = static_cast<int>(std::min<std::size_t>(live.size(), 8));
          if (model.nranks > 0) {
            nodes = std::min(nodes, model.nranks);
          }
          add(resource.name, first_cpu(live), hydro_spec(nodes, 2), nodes);
        } else {
          // A single live node runs one rank regardless of the requested
          // width (there is nothing to partition over).
          add(resource.name, live.front(), hydro_spec(1, 2), 1);
        }
        break;
      }
      case Role::stellar:
        add(resource.name, first_cpu(live), amuse::WorkerSpec{.code = "sse"},
            1);
        break;
    }
  }
  return options;
}

bool Scheduler::fits(const Placement& placement) const {
  std::map<std::string, int> nodes_used;
  std::map<std::string, int> gpus_used;
  for (const Assignment& a : placement.roles) {
    // A slot still pinned to an excluded resource is waiting for its own
    // re-place (candidates never offer one): it holds nothing another slot
    // could use, and must not make every other re-place infeasible.
    if (a.local() || dead_resources_.count(a.resource)) continue;
    nodes_used[a.resource] += a.nodes;
    if (a.spec.needs_gpu()) ++gpus_used[a.resource];
  }
  for (const auto& [name, used] : nodes_used) {
    const gat::Resource* resource = nullptr;
    for (const gat::Resource& r : resources_) {
      if (r.name == name) resource = &r;
    }
    if (resource == nullptr) return false;
    std::vector<const sim::Host*> live = live_nodes(*resource);
    if (used > static_cast<int>(live.size())) return false;
    int gpus = 0;
    for (const sim::Host* node : live) {
      if (node->gpu()) ++gpus;
    }
    if (gpus_used[name] > gpus) return false;
  }
  return true;
}

double Scheduler::score(const Workload& load, Placement& placement) const {
  if (placement.roles.size() != load.models.size()) {
    throw CodeError("sched: placement has " +
                    std::to_string(placement.roles.size()) +
                    " slots for a graph of " +
                    std::to_string(load.models.size()) + " models");
  }
  return score_graph(load, placement);
}

double Scheduler::score_graph(const Workload& load,
                              Placement& placement) const {
  const std::vector<ModelLoad>& models = load.models;
  int slots = static_cast<int>(models.size());

  std::vector<LinkCost> wire(static_cast<std::size_t>(slots));
  for (int i = 0; i < slots; ++i) {
    const Assignment& a = placement.roles[static_cast<std::size_t>(i)];
    wire[static_cast<std::size_t>(i)] =
        a.host != nullptr ? link_between(net_, client_, *a.host)
                          : LinkCost{.reachable = false};
  }
  auto rate = [&](int i) {
    const Assignment& a = placement.roles[static_cast<std::size_t>(i)];
    return a.host != nullptr
               ? device_rate_flops(*a.host, a.spec.needs_gpu(), a.spec.ncores)
               : 0.0;
  };
  for (Assignment& a : placement.roles) {
    a.compute_seconds = 0.0;
    a.comm_seconds = 0.0;
    a.queue_seconds = 0.0;
  }

  // --- evolve phase: all dynamic models advance concurrently (Fig 7) ---
  double evolve = 0.0;
  for (int i = 0; i < slots; ++i) {
    const ModelLoad& model = models[static_cast<std::size_t>(i)];
    Assignment& a = placement.roles[static_cast<std::size_t>(i)];
    double ghost_seconds = 0.0;
    if (model.role == Role::gravity) {
      int workers = std::max(1, model.workers);
      a.compute_seconds = calibration_.scale_for(model.name) *
                          gravity_compute_seconds(model.n, load.dt, rate(i)) /
                          workers;
      if (workers > 1) {
        // The ghost exchange rides the coordinating client's wire every
        // step, serialized before the evolve fan-out: pull all owned
        // slices, push every shard its ghost rows.
        const LinkCost& link = wire[static_cast<std::size_t>(i)];
        ghost_seconds =
            link.call_seconds(ghost_pull_bytes(model.n, workers)) +
            link.call_seconds(
                ghost_push_bytes(model.n, workers, link.fp_truncate));
        a.comm_seconds += ghost_seconds;
      }
    } else if (model.role == Role::hydro) {
      LinkCost interconnect{};
      if (a.host != nullptr) {
        // Ranks sharing one machine exchange slices over loopback; a
        // cluster job pays the path between two of the resource's nodes
        // (its LAN).
        interconnect = link_between(net_, *a.host, *a.host);
        if (!a.local() && a.nodes > 1) {
          for (const gat::Resource& r : resources_) {
            if (r.name != a.resource) continue;
            auto nodes = r.compute_hosts();
            if (nodes.size() >= 2) {
              interconnect = link_between(net_, *nodes[0], *nodes[1]);
            }
          }
        }
      }
      a.compute_seconds =
          calibration_.scale_for(model.name) *
          hydro_compute_seconds(model.n, load.dt, rate(i), a.spec.nranks,
                                interconnect);
    } else {
      continue;
    }
    evolve = std::max(evolve, ghost_seconds + a.compute_seconds +
                                  wire[static_cast<std::size_t>(i)].rtt_s);
  }

  // --- coupling phases: the pipelined cross-kick, twice per step ---
  // Each phase (state fetch, field queries, kicks) issues every system's
  // calls as concurrent futures: one round trip per phase, with couplings
  // sharing a field worker adding their bytes on its wire. The post-kick
  // cross-kick is all delta-cache hits — header-only RPCs and 16-byte kick
  // repeats — while the post-evolve one moves the changed positions, fresh
  // field inputs and fresh accel+dt kicks.
  double coupling = 0.0;
  if (!load.couplings.empty()) {
    std::vector<bool> coupled(static_cast<std::size_t>(slots), false);
    for (const CouplingLoad& c : load.couplings) {
      coupled[static_cast<std::size_t>(c.a)] = true;
      coupled[static_cast<std::size_t>(c.b)] = true;
    }

    double fetch_fresh = 0.0, kick_fresh = 0.0;
    double fetch_idle = 0.0, kick_idle = 0.0;
    for (int i = 0; i < slots; ++i) {
      if (!coupled[static_cast<std::size_t>(i)]) continue;
      const ModelLoad& model = models[static_cast<std::size_t>(i)];
      const LinkCost& link = wire[static_cast<std::size_t>(i)];
      double fetch =
          link.call_seconds(state_fetch_bytes(model.n, link.fp_truncate));
      double kick = link.call_seconds(kick_bytes(model.n));
      double idle = link.call_seconds(kCallOverheadBytes);
      double repeat =
          link.call_seconds(kCallOverheadBytes + kKickHeaderBytes);
      fetch_fresh = std::max(fetch_fresh, fetch);
      kick_fresh = std::max(kick_fresh, kick);
      fetch_idle = std::max(fetch_idle, idle);
      kick_idle = std::max(kick_idle, repeat);
      Assignment& a = placement.roles[static_cast<std::size_t>(i)];
      a.comm_seconds += fetch + kick + idle + repeat + link.rtt_s;
    }

    // Field workers answer their couplings' queries concurrently with each
    // other; couplings sharing one field worker serialize on its wire.
    double field_fresh = 0.0, field_idle = 0.0, field_compute = 0.0;
    for (int f = 0; f < slots; ++f) {
      if (models[static_cast<std::size_t>(f)].role != Role::coupler) continue;
      const LinkCost& link = wire[static_cast<std::size_t>(f)];
      // One query and one reply per system the worker's couplings kick,
      // whatever number of them name it; the worker holds each such system
      // once, so its positions cross the wire once.
      std::vector<bool> kicked(static_cast<std::size_t>(slots), false);
      double compute = 0.0;
      for (const CouplingLoad& c : load.couplings) {
        if (c.field != f) continue;
        kicked[static_cast<std::size_t>(c.a)] = true;
        kicked[static_cast<std::size_t>(c.b)] = true;
        compute += coupler_compute_seconds(
            models[static_cast<std::size_t>(c.a)].n,
            models[static_cast<std::size_t>(c.b)].n, rate(f));
      }
      int queries = 0;
      std::size_t kicked_particles = 0;
      for (int i = 0; i < slots; ++i) {
        if (!kicked[static_cast<std::size_t>(i)]) continue;
        ++queries;
        kicked_particles += models[static_cast<std::size_t>(i)].n;
      }
      if (queries == 0) continue;
      compute *= calibration_.scale_for(models[static_cast<std::size_t>(f)].name);
      double fresh = link.call_seconds(
          coupling_upload_bytes(kicked_particles, queries) +
          coupling_reply_bytes(kicked_particles));
      double idle = link.call_seconds(queries * kCallOverheadBytes);
      field_fresh = std::max(field_fresh, fresh);
      field_idle = std::max(field_idle, idle);
      field_compute = std::max(field_compute, compute);
      Assignment& a = placement.roles[static_cast<std::size_t>(f)];
      a.compute_seconds = compute;
      a.comm_seconds = fresh + idle;
    }

    coupling = (fetch_fresh + field_fresh + kick_fresh) +
               (fetch_idle + field_idle + kick_idle) + field_compute;
  }

  // --- stellar evolution: every n-th step, small delta exchanges ---
  // A stellar slot only appears in the graph when the experiment declares
  // an SE model, so every one present is priced.
  double stellar = 0.0;
  for (int i = 0; i < slots; ++i) {
    if (models[static_cast<std::size_t>(i)].role != Role::stellar) continue;
    const ModelLoad& model = models[static_cast<std::size_t>(i)];
    Assignment& a = placement.roles[static_cast<std::size_t>(i)];
    double n = static_cast<double>(model.n);
    a.compute_seconds = calibration_.scale_for(model.name) *
                        stellar_compute_seconds(model.n, load.se_every, rate(i));
    const LinkCost& se_link = wire[static_cast<std::size_t>(i)];
    const LinkCost& grav_link =
        model.of >= 0 && model.of < slots
            ? wire[static_cast<std::size_t>(model.of)]
            : se_link;
    // Masses over, masses back, supernovae; one delta state fetch on the
    // gravity side (mass changed by the previous update) + the changed
    // masses out.
    double per_exchange =
        3.0 * se_link.call_seconds(n * 8.0) +
        grav_link.call_seconds(n * 8.0 + kCallOverheadBytes) +
        grav_link.call_seconds(n * 8.0);
    a.comm_seconds = per_exchange / std::max(1, load.se_every);
    stellar += a.comm_seconds + a.compute_seconds;
  }

  // --- one-time costs, amortized over the production horizon ---
  double horizon =
      std::max(static_cast<double>(load.iterations), kAmortizeIterationsFloor);
  double queue_total = 0.0;
  for (int i = 0; i < slots; ++i) {
    Assignment& a = placement.roles[static_cast<std::size_t>(i)];
    a.queue_seconds = 0.0;
    if (a.local()) continue;
    for (const gat::Resource& r : resources_) {
      if (r.name != a.resource) continue;
      double startup =
          r.queue_base_delay +
          kStageInBytes /
              std::max(wire[static_cast<std::size_t>(i)].bandwidth_Bps, 1.0);
      a.queue_seconds = startup / horizon;
    }
    queue_total += a.queue_seconds;
  }

  placement.modeled_seconds_per_iteration =
      evolve + coupling + stellar + queue_total;
  return placement.modeled_seconds_per_iteration;
}

Placement Scheduler::plan(
    const Workload& load,
    const std::vector<std::optional<Assignment>>& pins) const {
  std::size_t slots = load.models.size();
  if (!pins.empty() && pins.size() != slots) {
    throw CodeError("sched: pin vector does not match the model graph");
  }

  // Candidate set per slot (a pinned slot has exactly its pin).
  std::vector<std::vector<Assignment>> options(slots);
  double combinations = 1.0;
  for (std::size_t i = 0; i < slots; ++i) {
    if (i < pins.size() && pins[i].has_value()) {
      options[i] = {*pins[i]};
    } else {
      options[i] = candidates(load.models[i]);
    }
    if (options[i].empty()) {
      throw CodeError("sched: no feasible placement for model '" +
                      load.models[i].name + "'");
    }
    combinations *= static_cast<double>(options[i].size());
  }

  Placement best(load);
  double best_cost = std::numeric_limits<double>::infinity();
  bool found = false;
  Placement trial(load);

  // Exhaustive argmin when the product space is small (the embedded
  // cluster and every few-model experiment); deterministic coordinate
  // descent for graphs too large to enumerate.
  constexpr double kExhaustiveLimit = 200000.0;
  if (combinations <= kExhaustiveLimit) {
    std::vector<std::size_t> pick(slots, 0);
    auto evaluate = [&] {
      for (std::size_t i = 0; i < slots; ++i) trial.roles[i] = options[i][pick[i]];
      if (!fits(trial)) return;
      double cost = score_graph(load, trial);
      if (cost < best_cost) {
        best = trial;
        best_cost = cost;
        found = true;
      }
    };
    // Odometer enumeration in slot-major order: ties go to the earliest
    // candidates of the earliest declared models.
    while (true) {
      evaluate();
      std::size_t slot = slots;
      while (slot > 0) {
        --slot;
        if (++pick[slot] < options[slot].size()) break;
        pick[slot] = 0;
        if (slot == 0) {
          slot = slots;  // odometer rolled over: done
          break;
        }
      }
      if (slot == slots) break;
    }
  } else {
    // Greedy seed (first feasible candidate per slot), then coordinate
    // descent until a full pass yields no improvement.
    for (std::size_t i = 0; i < slots; ++i) trial.roles[i] = options[i][0];
    if (fits(trial)) {
      best = trial;
      best_cost = score_graph(load, best);
      found = true;
    }
    for (int pass = 0; pass < 16; ++pass) {
      bool improved = false;
      for (std::size_t i = 0; i < slots; ++i) {
        for (const Assignment& candidate : options[i]) {
          trial = best;
          trial.roles[i] = candidate;
          if (!fits(trial)) continue;
          double cost = score_graph(load, trial);
          if (cost < best_cost) {
            best = trial;
            best_cost = cost;
            found = true;
            improved = true;
          }
        }
      }
      if (!improved) break;
    }
  }

  if (!found) {
    throw CodeError("sched: no feasible placement for the workload");
  }
  log::info("sched") << "planned " << best.describe() << " (modeled "
                     << best.modeled_seconds_per_iteration << " s/iter)";
  return best;
}

Assignment Scheduler::replace(const Workload& load, const Placement& current,
                              int slot) const {
  if (slot < 0 || static_cast<std::size_t>(slot) >= load.models.size()) {
    throw CodeError("sched: replace slot out of range");
  }
  const std::string& name = load.models[static_cast<std::size_t>(slot)].name;
  // Named re-place step: the fault-schedule explorer injects a second
  // fault exactly here to exercise "death while re-placing the first".
  amuse::faultpoint::reach(amuse::faultpoint::Point::recover_replace, -1,
                           name);
  // The same search as plan(), over this slot's candidates alone: every
  // other slot stays pinned where it runs, and ties keep the first
  // candidate.
  std::vector<std::optional<Assignment>> pins(current.roles.begin(),
                                              current.roles.end());
  pins[static_cast<std::size_t>(slot)].reset();
  Assignment best;
  try {
    best = plan(load, pins).roles[static_cast<std::size_t>(slot)];
  } catch (const CodeError&) {
    throw CodeError("sched: no feasible replacement for model '" + name +
                    "'");
  }
  log::warn("sched") << "re-placing " << name << " onto " << best.where();
  return best;
}

}  // namespace jungle::sched
