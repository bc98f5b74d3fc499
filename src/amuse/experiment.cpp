#include "amuse/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <sstream>
#include <string_view>

#include "amuse/diagnostics.hpp"
#include "amuse/faultpoint.hpp"
#include "amuse/faults.hpp"
#include "amuse/ic.hpp"
#include "amuse/sharded.hpp"
#include "kernels/morton.hpp"
#include "obs/metrics.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

namespace jungle::amuse::experiment {

using sched::Role;

// ---------------------------------------------------------------- testbed

JungleTestbed::JungleTestbed(bool verbose) {
  using sim::net::gbit;
  using sim::net::ms;
  if (verbose) log::set_threshold(log::Level::info);
  obs::trace::bind_clock(
      this, [this] { return sim_.now(); },
      [this] { return sim_.current_name(); });

  // Effective per-core/GPU rates for irregular tree/N-body/SPH kernels
  // (a few percent of peak — see DESIGN.md calibration notes).
  net_.add_site("vu", 0.1 * ms, 1 * gbit);
  net_.add_site("seattle", 0.1 * ms, 1 * gbit);
  net_.add_site("uva", 0.05 * ms, 10 * gbit);
  net_.add_site("delft", 0.05 * ms, 10 * gbit);
  net_.add_site("leiden", 0.1 * ms, 1 * gbit);
  net_.add_site("das-vu", 2e-6, 32 * gbit);  // cluster interconnect

  sim::Host& desktop = net_.add_host("desktop", "vu", 4, 0.15);
  desktop.set_gpu(sim::GpuSpec{"geforce-9600gt", 1.2});
  net_.add_host("laptop", "seattle", 2, 0.12);

  sim::Host& lgm_fs = net_.add_host("fs-lgm", "leiden", 8, 0.3);
  lgm_fs.firewall().allow_inbound = false;  // ssh only, hub tunnels
  sim::Host& lgm_node = net_.add_host("lgm-node", "leiden", 8, 0.3);
  lgm_node.set_gpu(sim::GpuSpec{"tesla-c2050", 6.0});

  net_.add_host("fs-uva", "uva", 8, 0.3);
  net_.add_host("uva-node", "uva", 8, 0.3);

  net_.add_host("fs-delft", "delft", 8, 0.3);
  for (int i = 0; i < 2; ++i) {
    sim::Host& node =
        net_.add_host("delft-gpu" + std::to_string(i), "delft", 8, 0.3);
    node.set_gpu(sim::GpuSpec{"gtx480", 2.4});
  }

  net_.add_host("fs-dasvu", "das-vu", 8, 0.3);
  for (int i = 0; i < 8; ++i) {
    net_.add_host("dasvu" + std::to_string(i), "das-vu", 8, 0.3);
  }

  // Lightpaths of Figs 9/12.
  net_.add_link("vu", "uva", 0.2 * ms, 10 * gbit, "starplane-uva");
  net_.add_link("vu", "delft", 0.5 * ms, 10 * gbit, "starplane-delft");
  net_.add_link("vu", "leiden", 0.5 * ms, 1 * gbit, "lgm-lightpath");
  net_.add_link("vu", "das-vu", 0.05 * ms, 10 * gbit, "vu-campus");
  net_.add_link("seattle", "vu", 45 * ms, 1 * gbit, "transatlantic");
  net_.set_loopback(5e-6, 10 * gbit);

  client_ = &desktop;
  deployer_ = std::make_unique<deploy::Deployer>(net_, sockets_, desktop);
  auto cluster = [&](const std::string& name, const std::string& frontend,
                     std::vector<std::string> node_names) {
    gat::Resource resource;
    resource.name = name;
    resource.middleware = "sge";
    resource.frontend = &net_.host(frontend);
    for (const auto& node : node_names) {
      resource.nodes.push_back(&net_.host(node));
    }
    resource.queue_base_delay = 1.0;
    resource.queue = std::make_shared<gat::ClusterQueue>(sim_);
    resource.queue->set_meter(resource.name);
    resource.queue->set_nodes(resource.nodes);
    deployer_->add_resource(resource);
  };
  cluster("lgm", "fs-lgm", {"lgm-node"});
  cluster("das4-uva", "fs-uva", {"uva-node"});
  cluster("das4-delft", "fs-delft", {"delft-gpu0", "delft-gpu1"});
  cluster("das4-vu", "fs-dasvu",
          {"dasvu0", "dasvu1", "dasvu2", "dasvu3", "dasvu4", "dasvu5",
           "dasvu6", "dasvu7"});
}

JungleTestbed::JungleTestbed(const util::Config& config, bool verbose) {
  if (verbose) log::set_threshold(log::Level::info);
  obs::trace::bind_clock(
      this, [this] { return sim_.now(); },
      [this] { return sim_.current_name(); });
  deploy::build_topology(config, net_);
  auto names = net_.host_names();
  if (names.empty()) {
    throw ConfigError("scenario topology declares no hosts");
  }
  std::string client_name = config.has_section("scenario")
                                ? config.get_or("scenario", "client", names[0])
                                : names[0];
  client_ = &net_.host(client_name);
  deployer_ = std::make_unique<deploy::Deployer>(net_, sockets_, *client_);
  deployer_->add_resources(deploy::resources_from_config(config, net_));
}

sim::Host& JungleTestbed::client_host() {
  if (client_ == nullptr) throw ConfigError("testbed has no client host");
  return *client_;
}

IbisDaemon& JungleTestbed::daemon(sim::Host& client) {
  if (!daemon_) {
    daemon_ = std::make_unique<IbisDaemon>(*deployer_, net_, sockets_, client);
  }
  return *daemon_;
}

// ------------------------------------------------------------------- spec

namespace {

bool is_dynamic(Role role) {
  return role == Role::gravity || role == Role::hydro;
}

const char* role_label(Role role) {
  return role == Role::coupler ? "field" : sched::role_name(role);
}

bool kernel_valid(Role role, const std::string& kernel) {
  if (kernel.empty() || kernel == "auto") return true;
  switch (role) {
    case Role::gravity:
      return kernel == "phigrape" || kernel == "phigrape-gpu";
    case Role::hydro:
      return kernel == "gadget";
    case Role::coupler:
      return kernel == "fi" || kernel == "octgrav";
    case Role::stellar:
      return kernel == "sse";
  }
  return false;
}

/// The IC recipe each role knows how to generate ("" = the role default).
/// Anything else would be silently replaced by the default — reject it.
bool ic_valid(Role role, const std::string& ic) {
  if (ic.empty()) return true;
  switch (role) {
    case Role::gravity: return ic == "plummer";
    case Role::hydro: return ic == "gas-sphere";
    case Role::stellar: return ic == "salpeter";
    case Role::coupler: return false;  // field kernels own no particles
  }
  return false;
}

}  // namespace

int ExperimentSpec::find(const std::string& model_name) const {
  for (std::size_t i = 0; i < models.size(); ++i) {
    if (models[i].name == model_name) return static_cast<int>(i);
  }
  return -1;
}

void ExperimentSpec::validate() const {
  auto fail = [&](const std::string& what) {
    throw ConfigError("experiment '" + name + "': " + what);
  };
  if (models.empty()) fail("declares no models");
  if (dt <= 0.0) fail("dt must be positive");
  if (iterations < 1) fail("iterations must be >= 1");
  if (se_every < 1) fail("se_every must be >= 1");

  bool any_dynamic = false;
  for (const ModelSpec& model : models) {
    if (model.name.empty()) fail("a model has no name");
    for (const ModelSpec& other : models) {
      if (&other != &model && other.name == model.name) {
        fail("duplicate model name '" + model.name + "'");
      }
    }
    if (!kernel_valid(model.role, model.kernel)) {
      fail("model '" + model.name + "': kernel '" + model.kernel +
           "' does not implement the " + role_label(model.role) + " role");
    }
    if (!ic_valid(model.role, model.ic)) {
      fail("model '" + model.name + "': ic '" + model.ic +
           "' is not an IC recipe of the " + role_label(model.role) +
           " role");
    }
    if (is_dynamic(model.role) || model.role == Role::stellar) {
      if (model.n == 0) {
        fail("model '" + model.name + "' declares no particles (n = 0)");
      }
    } else if (model.n != 0) {
      fail("field model '" + model.name +
           "' declares particles; field kernels evaluate, they do not own "
           "state");
    }
    if (is_dynamic(model.role)) any_dynamic = true;

    if (model.workers < 1) {
      fail("model '" + model.name + "': workers must be >= 1, got " +
           std::to_string(model.workers));
    }
    if (model.workers > 1 && model.role != Role::gravity) {
      fail("model '" + model.name + "': workers = " +
           std::to_string(model.workers) +
           " but only gravity models shard (domain decomposition)");
    }
    if (model.workers > 1 && model.kernel == "phigrape-gpu") {
      fail("model '" + model.name +
           "': sharding is CPU-only (kernel phigrape-gpu cannot split "
           "across workers)");
    }

    if (model.role == Role::stellar) {
      int target = find(model.of);
      if (model.of.empty() || target < 0) {
        fail("stellar model '" + model.name + "' must name the gravity "
             "model its masses flow into (of = ...)");
      }
      if (models[static_cast<std::size_t>(target)].role != Role::gravity) {
        fail("stellar model '" + model.name + "': of = '" + model.of +
             "' is not a gravity model");
      }
      if (!model.feedback.empty()) {
        int sink = find(model.feedback);
        if (sink < 0 ||
            models[static_cast<std::size_t>(sink)].role != Role::hydro) {
          fail("stellar model '" + model.name + "': feedback = '" +
               model.feedback + "' is not a hydro model");
        }
      }
    } else if (!model.of.empty() || !model.feedback.empty()) {
      fail("model '" + model.name +
           "' sets stellar wiring (of/feedback) but is not a stellar model");
    }
  }
  if (!any_dynamic) fail("declares no dynamic (gravity/hydro) model");

  std::vector<bool> field_used(models.size(), false);
  for (const CouplingSpec& coupling : couplings) {
    std::string label =
        "coupling '" + (coupling.name.empty() ? "?" : coupling.name) + "'";
    int field = find(coupling.field);
    if (field < 0) {
      fail(label + " references unknown field model '" + coupling.field +
           "'");
    }
    if (models[static_cast<std::size_t>(field)].role != Role::coupler) {
      fail(label + ": '" + coupling.field + "' is not a field model");
    }
    field_used[static_cast<std::size_t>(field)] = true;
    for (const std::string& end : {coupling.a, coupling.b}) {
      int slot = find(end);
      if (slot < 0) {
        fail(label + " references unknown model '" + end + "'");
      }
      if (!is_dynamic(models[static_cast<std::size_t>(slot)].role)) {
        fail(label + ": '" + end + "' is not a dynamic model");
      }
    }
    if (coupling.a == coupling.b) {
      fail(label + " couples '" + coupling.a + "' to itself");
    }
    if (coupling.every < 1) fail(label + ": every must be >= 1");
    if (iterations % coupling.every != 0) {
      // A truncated window would end after an opening kick whose closing
      // half never fires — a silently lopsided trajectory.
      fail(label + ": iterations (" + std::to_string(iterations) +
           ") must cover whole coupling windows (every = " +
           std::to_string(coupling.every) + ")");
    }
  }
  for (std::size_t i = 0; i < models.size(); ++i) {
    if (models[i].role == Role::coupler && !field_used[i]) {
      fail("field model '" + models[i].name +
           "' is not referenced by any coupling");
    }
  }

  // Fault policy: a kill switch on a spec that cannot recover would be
  // silently ignored — make it a validation error instead.
  if (!kill_host.empty() && !checkpointing) {
    fail("kill_host is set but checkpointing is off — the fault policy "
         "would be silently ignored");
  }
  if (!kill_host.empty() && kill_after_iteration < 1) {
    fail("kill_host is set but kill_after_iteration names no step");
  }
  if (!kill_host.empty() && kill_after_iteration > iterations) {
    fail("kill_after_iteration (" + std::to_string(kill_after_iteration) +
         ") is past the end of the run (" + std::to_string(iterations) +
         " iterations) — the fault would silently never fire");
  }
  if (kill_host.empty() && kill_after_iteration >= 1) {
    fail("kill_after_iteration is set but kill_host names no host");
  }
  if (!kill_process.empty() && kill_host.empty()) {
    fail("kill_process is set but kill_host names no host to kill it on");
  }
  if (!flap_link.empty() && flap_after_iteration < 1) {
    fail("flap_link is set but flap_after_iteration names no step");
  }
  if (flap_link.empty() &&
      (flap_after_iteration >= 1 || flap_streams > 0)) {
    fail("flap injection is configured but flap_link names no link");
  }
}

sched::Workload ExperimentSpec::workload() const {
  sched::Workload load;
  load.dt = dt;
  load.iterations = iterations;
  load.se_every = se_every;
  load.with_stellar_evolution = false;
  for (const ModelSpec& model : models) {
    sched::ModelLoad entry;
    entry.name = model.name;
    entry.role = model.role;
    entry.n = model.n;
    entry.kernel = model.kernel == "auto" ? "" : model.kernel;
    entry.nranks = model.nranks;
    entry.workers = model.workers;
    if (model.role == Role::stellar) {
      entry.of = find(model.of);
      load.with_stellar_evolution = true;
    }
    load.models.push_back(std::move(entry));
  }
  for (const CouplingSpec& coupling : couplings) {
    load.couplings.push_back(
        {find(coupling.field), find(coupling.a), find(coupling.b),
         coupling.every});
  }
  // Legacy scalar mirror (display + any classic-path consumer).
  for (const ModelSpec& model : models) {
    if (model.role == Role::gravity) {
      load.n_stars = model.n;
      break;
    }
  }
  load.n_gas = 0;
  for (const ModelSpec& model : models) {
    if (model.role == Role::hydro) {
      load.n_gas = model.n;
      break;
    }
  }
  return load;
}

// -------------------------------------------------------------- INI parse

namespace {

Vec3 parse_vec3(const std::string& text, const std::string& where) {
  std::istringstream in(text);
  Vec3 value{};
  if (!(in >> value.x >> value.y >> value.z)) {
    throw ConfigError(where + ": expected three numbers, got '" + text + "'");
  }
  return value;
}

Role parse_role(const std::string& text, const std::string& where) {
  if (text == "gravity") return Role::gravity;
  if (text == "hydro") return Role::hydro;
  if (text == "field" || text == "coupler") return Role::coupler;
  if (text == "stellar") return Role::stellar;
  throw ConfigError(where + ": unknown role '" + text +
                    "' (gravity|hydro|field|stellar)");
}

/// A misspelt key would otherwise fall back to its default without a word.
void reject_unknown_keys(const util::Config& config,
                         const std::string& section,
                         std::initializer_list<std::string_view> known) {
  for (const std::string& key : config.keys(section)) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      throw ConfigError("[" + section + "]: unknown key '" + key + "'");
    }
  }
}

}  // namespace

bool config_declares_experiment(const util::Config& config) {
  for (const std::string& section : config.sections()) {
    if (util::starts_with(section, "model ")) return true;
  }
  return false;
}

ExperimentSpec ExperimentSpec::from_config(const util::Config& config) {
  ExperimentSpec spec;
  if (config.has_section("experiment")) {
    const std::string s = "experiment";
    reject_unknown_keys(
        config, s,
        {"name", "dt", "iterations", "se_every", "seed",
         "myr_per_nbody_time", "feedback_efficiency", "wind_specific_energy",
         "supernova_energy", "checkpointing", "kill_host",
         "kill_after_iteration", "kill_process", "flap_link",
         "flap_after_iteration", "flap_down_s", "flap_streams",
         "flap_streams_heal_s", "client"});
    spec.name = config.get_or(s, "name", spec.name);
    spec.dt = config.get_double_or(s, "dt", spec.dt);
    spec.iterations =
        static_cast<int>(config.get_int_or(s, "iterations", spec.iterations));
    spec.se_every =
        static_cast<int>(config.get_int_or(s, "se_every", spec.se_every));
    spec.seed = static_cast<std::uint64_t>(
        config.get_int_or(s, "seed", static_cast<long>(spec.seed)));
    spec.myr_per_nbody_time =
        config.get_double_or(s, "myr_per_nbody_time", spec.myr_per_nbody_time);
    spec.feedback_efficiency = config.get_double_or(s, "feedback_efficiency",
                                                    spec.feedback_efficiency);
    spec.wind_specific_energy = config.get_double_or(
        s, "wind_specific_energy", spec.wind_specific_energy);
    spec.supernova_energy =
        config.get_double_or(s, "supernova_energy", spec.supernova_energy);
    spec.checkpointing =
        config.get_bool_or(s, "checkpointing", spec.checkpointing);
    spec.kill_host = config.get_or(s, "kill_host", "");
    spec.kill_after_iteration = static_cast<int>(
        config.get_int_or(s, "kill_after_iteration", -1));
    spec.kill_process = config.get_or(s, "kill_process", "");
    spec.flap_link = config.get_or(s, "flap_link", "");
    spec.flap_after_iteration = static_cast<int>(
        config.get_int_or(s, "flap_after_iteration", -1));
    spec.flap_down_s =
        config.get_double_or(s, "flap_down_s", spec.flap_down_s);
    spec.flap_streams = static_cast<int>(
        config.get_int_or(s, "flap_streams", spec.flap_streams));
    spec.flap_streams_heal_s = config.get_double_or(
        s, "flap_streams_heal_s", spec.flap_streams_heal_s);
    spec.client = config.get_or(s, "client", "");
  }

  for (const std::string& section : config.sections()) {
    if (util::starts_with(section, "model ")) {
      reject_unknown_keys(
          config, section,
          {"role", "kernel", "n", "nranks", "nodes", "workers", "eps2", "eta",
           "theta", "ic", "total_mass", "radius", "u_frac", "offset",
           "velocity", "ensure_massive", "of", "feedback", "place"});
      ModelSpec model;
      model.name = util::trim(section.substr(6));
      model.role = parse_role(config.get(section, "role"), section);
      model.kernel = config.get_or(section, "kernel", "auto");
      model.n = static_cast<std::size_t>(config.get_int_or(section, "n", 0));
      model.nranks =
          static_cast<int>(config.get_int_or(section, "nranks", 0));
      model.nodes = static_cast<int>(config.get_int_or(section, "nodes", 1));
      model.workers =
          static_cast<int>(config.get_int_or(section, "workers", 1));
      model.eps2 = config.get_double_or(section, "eps2", model.eps2);
      model.eta = config.get_double_or(section, "eta", model.eta);
      model.theta = config.get_double_or(section, "theta", model.theta);
      model.ic = config.get_or(section, "ic", "");
      model.total_mass =
          config.get_double_or(section, "total_mass", model.total_mass);
      model.radius = config.get_double_or(section, "radius", model.radius);
      model.u_frac = config.get_double_or(section, "u_frac", model.u_frac);
      if (config.has_key(section, "offset")) {
        model.offset = parse_vec3(config.get(section, "offset"), section);
      }
      if (config.has_key(section, "velocity")) {
        model.bulk_velocity =
            parse_vec3(config.get(section, "velocity"), section);
      }
      model.ensure_massive =
          config.get_double_or(section, "ensure_massive", 0.0);
      model.of = config.get_or(section, "of", "");
      model.feedback = config.get_or(section, "feedback", "");
      model.place = config.get_or(section, "place", "");
      spec.models.push_back(std::move(model));
    } else if (util::starts_with(section, "coupling ")) {
      reject_unknown_keys(config, section, {"field", "a", "b", "every"});
      CouplingSpec coupling;
      coupling.name = util::trim(section.substr(9));
      coupling.field = config.get(section, "field");
      coupling.a = config.get(section, "a");
      coupling.b = config.get(section, "b");
      coupling.every =
          static_cast<int>(config.get_int_or(section, "every", 1));
      spec.couplings.push_back(std::move(coupling));
    }
  }
  return spec;
}

// ------------------------------------------------------------- placement

namespace {

/// Default worker spec of a pinned model (the scheduler builds its own for
/// free models): kernel "auto" resolves by the target host's GPU.
amuse::WorkerSpec pinned_worker_spec(const ModelSpec& model,
                                     const sim::Host& host, bool local) {
  amuse::WorkerSpec spec;
  bool gpu = host.gpu().has_value();
  switch (model.role) {
    case Role::gravity:
      spec.code = model.kernel == "auto"
                      ? (gpu ? "phigrape-gpu" : "phigrape")
                      : model.kernel;
      spec.ncores = spec.code == "phigrape" ? 2 : 1;
      break;
    case Role::coupler:
      spec.code = model.kernel == "auto" ? (gpu ? "octgrav" : "fi")
                                         : model.kernel;
      spec.ncores = spec.code == "fi" ? 2 : 1;
      break;
    case Role::hydro:
      spec.code = "gadget";
      spec.nranks = model.nranks > 0 ? model.nranks : (local ? 2 : model.nodes);
      spec.ncores = local ? 1 : 2;
      break;
    case Role::stellar:
      spec.code = "sse";
      break;
  }
  return spec;
}

std::optional<sched::Assignment> resolve_pin(JungleTestbed& bed,
                                             const ModelSpec& model,
                                             sim::Host& client) {
  if (model.place.empty()) return std::nullopt;
  sched::Assignment pin;
  if (model.place == "local") {
    pin.host = &client;
    pin.spec = pinned_worker_spec(model, client, /*local=*/true);
    pin.nodes = 1;
  } else {
    auto parts = util::split(model.place, '/');
    const gat::Resource& resource = bed.deployer().resource(parts[0]);
    pin.resource = resource.name;
    const sim::Host* host = nullptr;
    if (parts.size() > 1) {
      for (const sim::Host* node : resource.nodes) {
        if (node != nullptr && node->name() == parts[1]) host = node;
      }
      if (host == nullptr) {
        throw ConfigError("model '" + model.name + "': place = '" +
                          model.place + "' names no node of resource '" +
                          resource.name + "'");
      }
    } else if (!resource.nodes.empty()) {
      host = resource.nodes.front();
    } else {
      host = resource.frontend;
    }
    if (host == nullptr) {
      throw ConfigError("model '" + model.name + "': resource '" +
                        resource.name + "' has no usable node");
    }
    pin.host = host;
    pin.spec = pinned_worker_spec(model, *host, /*local=*/false);
    pin.nodes = std::max(1, model.nodes);
  }
  return pin;
}

sim::Host& client_of(JungleTestbed& bed, const ExperimentSpec& spec) {
  return spec.client.empty() ? bed.client_host()
                             : bed.network().host(spec.client);
}

sched::Placement plan_in(JungleTestbed& bed, const ExperimentSpec& spec,
                         sim::Host& client,
                         const sched::Scheduler& scheduler) {
  sched::Workload load = spec.workload();
  std::vector<std::optional<sched::Assignment>> pins;
  pins.reserve(spec.models.size());
  for (const ModelSpec& model : spec.models) {
    pins.push_back(resolve_pin(bed, model, client));
  }
  sched::Placement plan = scheduler.plan(load, pins);
  // The spec's numeric kernel parameters always win (they are physics, not
  // placement); codes and widths were already constrained via the workload.
  for (std::size_t i = 0; i < spec.models.size(); ++i) {
    plan.roles[i].spec.eps2 = spec.models[i].eps2;
    plan.roles[i].spec.eta = spec.models[i].eta;
    plan.roles[i].spec.theta = spec.models[i].theta;
    // Worker-side metrics carry the model name, not the kernel code, so
    // worker.<name>.* lines up with the plan's roles and rpc.<name>.*.
    plan.roles[i].spec.meter = spec.models[i].name;
  }
  return plan;
}

}  // namespace

sched::Placement plan_experiment(JungleTestbed& bed,
                                 const ExperimentSpec& spec) {
  spec.validate();
  sim::Host& client = client_of(bed, spec);
  sched::Scheduler scheduler(bed.network(), client,
                             bed.deployer().resources());
  return plan_in(bed, spec, client, scheduler);
}

// ------------------------------------------------------------------ runner

namespace {

/// Per-call RPC reply deadline (virtual seconds). A worker that stops
/// answering — hung process, silently black-holed route — surfaces as
/// WorkerDiedError(cause=timeout) instead of deadlocking the bridge. Far
/// above any modeled call, far below forever.
constexpr double kRpcCallTimeout = 3600.0;

/// The live client of one model of the running graph: its role plus one
/// owning handle. Lifecycle calls go through the handle; the typed
/// accessors serve the per-role work (ICs, checkpoints, observables).
/// Checkpoints live in one graph-wide GraphCheckpoint (atomic commit), not
/// per model.
struct ModelRuntime {
  Role role = Role::gravity;
  std::unique_ptr<ModelClient> client;
  std::vector<double> zams;

  GravityClient& gravity() { return static_cast<GravityClient&>(*client); }
  HydroClient& hydro() { return static_cast<HydroClient&>(*client); }
  FieldClient& field() { return static_cast<FieldClient&>(*client); }
  StellarClient& stellar() { return static_cast<StellarClient&>(*client); }
  DynamicsClient* dynamics() {
    return is_dynamic(role) ? static_cast<DynamicsClient*>(client.get())
                            : nullptr;
  }
  /// The RPC the fault machinery watches: a sharded facade reports the
  /// first dead shard so death_cause/revive act on the actual casualty.
  RpcClient& rpc() { return client->fault_rpc(); }
};

}  // namespace

Result run_experiment(JungleTestbed& bed, const ExperimentSpec& spec) {
  spec.validate();
  sim::Host& client = client_of(bed, spec);
  bed.daemon(client);  // paper step 3: "start the Ibis-Daemon"

  sched::Scheduler scheduler(bed.network(), client,
                             bed.deployer().resources());
  sched::Workload load = spec.workload();
  sched::Placement plan = plan_in(bed, spec, client, scheduler);

  std::size_t n_models = spec.models.size();
  Result result;
  result.experiment = spec.name;
  result.iterations = spec.iterations;
  result.placement = plan.describe();
  result.modeled_seconds_per_iteration = plan.modeled_seconds_per_iteration;

  bed.simulation().spawn("amuse-script", [&] {
    DaemonClient daemon_client(bed.sockets(), client);
    std::vector<ModelRuntime> models(n_models);
    for (std::size_t i = 0; i < n_models; ++i) {
      models[i].role = spec.models[i].role;
    }

    auto start_rpc = [&](const sched::Assignment& a,
                         const std::string& meter) {
      std::unique_ptr<RpcClient> rpc =
          a.local() ? start_local_worker(bed.sockets(), bed.network(), client,
                                         client, a.spec, ChannelKind::mpi)
                    : daemon_client.start_worker(a.spec, a.resource, a.nodes);
      rpc->set_call_timeout(kRpcCallTimeout);
      // Client-side RPC metrics under the model name, matching the
      // worker-side series wired through WorkerSpec::meter.
      rpc->set_meter(meter);
      return rpc;
    };

    // Start every model's worker in declaration order. A sharded gravity
    // model (workers > 1) starts K single-node workers — the cluster queue
    // hands each its own node — and wraps them in the ShardedGravityClient
    // facade, so the bridge/couplings/fault machinery see one model.
    auto start_model = [&](std::size_t i) {
      const ModelSpec& model = spec.models[i];
      obs::trace::Span spawn =
          obs::trace::span("spawn:" + model.name, "deploy");
      ModelRuntime& runtime = models[i];
      if (model.role == Role::gravity && model.workers > 1) {
        std::vector<std::unique_ptr<GravityClient>> shards;
        shards.reserve(static_cast<std::size_t>(model.workers));
        for (int k = 0; k < model.workers; ++k) {
          sched::Assignment shard = plan.roles[i];
          shard.nodes = 1;
          // Shard 0 carries the model's meter name so calibration reads
          // worker.<name>.compute_s ~ total/K, matching the modeled
          // compute / K; the others are distinguishable in traces.
          std::string meter =
              k == 0 ? model.name : model.name + "#" + std::to_string(k);
          shard.spec.meter = meter;
          shards.push_back(
              std::make_unique<GravityClient>(start_rpc(shard, meter)));
        }
        runtime.client =
            std::make_unique<ShardedGravityClient>(std::move(shards));
      } else {
        auto rpc = start_rpc(plan.roles[i], model.name);
        switch (model.role) {
          case Role::gravity:
            runtime.client = std::make_unique<GravityClient>(std::move(rpc));
            break;
          case Role::hydro:
            runtime.client = std::make_unique<HydroClient>(std::move(rpc));
            break;
          case Role::coupler:
            runtime.client = std::make_unique<FieldClient>(std::move(rpc));
            break;
          case Role::stellar:
            runtime.client = std::make_unique<StellarClient>(std::move(rpc));
            break;
        }
      }
      // A model whose state exchanges cross a link flagged `fp_truncate`
      // narrows its position wire format to f32 (the cost model priced the
      // placement at the narrowed volume).
      DynamicsClient* dynamics = runtime.dynamics();
      const sim::Host* host = plan.roles[i].host;
      if (dynamics != nullptr && host != nullptr &&
          bed.network().path_fp_truncate(client, *host)) {
        dynamics->set_fp32_positions(true);
      }
    };
    bool fault_tolerant = spec.checkpointing;

    // ----- the fault path: exclude what died, re-place the affected
    // models, and roll every evolving worker back to the last committed
    // graph checkpoint (restored workers resume on the checkpoint's
    // absolute clock; the rebuilt bridge starts from the same clock bits
    // and step count and carries the SE mass mappings forward). Recovery
    // itself is built to survive further faults: every sub-step that talks
    // to the jungle sits in a bounded retry, so a second death while
    // re-placing the first is handled, not fatal.

    // Replacement/retry budget across the whole run — generous enough for
    // cascaded faults, small enough to turn a re-place livelock (a hole,
    // if one existed) into a hard error rather than an endless loop.
    int replace_attempts = 0;
    const int kReplaceBudget = 8 * static_cast<int>(n_models) + 8;
    auto spend_attempt = [&] {
      if (++replace_attempts > kReplaceBudget) {
        throw CodeError("fault recovery exceeded its replacement budget (" +
                        std::to_string(kReplaceBudget) + " attempts)");
      }
    };

    // Global exclusions derived from one death report. Per-worker causes
    // are handled per model in replace_dead(); this handles what the
    // report itself names (the crashed host, and its whole resource when
    // the dead machine is a frontend — jobs submit through it even when
    // the compute nodes survive).
    auto note_death = [&](const WorkerDiedError& death) {
      log::warn("experiment") << "recovering from: " << death.what();
      faultpoint::reach(faultpoint::Point::recover_exclude, -1, death.host());
      if (death.cause() == WorkerDiedError::Cause::host_crash &&
          !death.host().empty()) {
        scheduler.exclude_host(death.host());
        std::string owner = scheduler.resource_of(death.host());
        if (!owner.empty()) {
          const gat::Resource& res = bed.deployer().resource(owner);
          if (res.frontend != nullptr &&
              res.frontend->name() == death.host()) {
            scheduler.exclude_resource(owner);
          }
        }
      }
    };

    // A model needs re-placing when its client was poisoned *or* its host
    // is gone and the client just has not noticed yet (no RPC since the
    // crash) — restarting onto a dead machine would only fail later.
    auto model_dead = [&](std::size_t i) {
      if (!models[i].rpc().alive()) return true;
      const sched::Assignment& a = plan.roles[i];
      return !a.local() && a.host != nullptr && !a.host->is_up();
    };

    auto replace_slot = [&](std::size_t i) {
      spend_attempt();
      plan.roles[i] = scheduler.replace(load, plan, static_cast<int>(i));
      // Physics, not placement: the replacement keeps the spec's kernel
      // parameters, exactly as plan_in installs them at first placement.
      plan.roles[i].spec.eps2 = spec.models[i].eps2;
      plan.roles[i].spec.eta = spec.models[i].eta;
      plan.roles[i].spec.theta = spec.models[i].theta;
      plan.roles[i].spec.meter = spec.models[i].name;
    };
    // Per-worker cause: a crashed host is already excluded; a process
    // crash blames neither host nor resource (the machine restarted the
    // worker fine — revive only failed because the node went down
    // meanwhile); anything else (link fault, timeout, unknown) condemns
    // the whole resource — the machine may be fine, the route to it is not.
    auto replace_dead = [&](std::size_t i) {
      RpcClient& rpc = models[i].rpc();
      if (!rpc.alive() &&
          rpc.death_cause() != WorkerDiedError::Cause::host_crash &&
          rpc.death_cause() != WorkerDiedError::Cause::process_crash) {
        scheduler.exclude_resource(plan.roles[i].resource);
      }
      replace_slot(i);
    };
    // The daemon could not start the worker (e.g. the frontend died
    // between the re-place decision and the submit). The resource is not
    // usable right now — place elsewhere.
    auto replace_unstartable = [&](std::size_t i, const CodeError& startup) {
      log::warn("experiment") << "re-placing '" << spec.models[i].name
                              << "' after startup failure: "
                              << startup.what();
      scheduler.exclude_resource(plan.roles[i].resource);
      replace_slot(i);
    };
    // Re-score the running placement so the dashboard's modeled-vs-
    // measured panel describes what is actually running.
    auto publish_placement = [&] {
      scheduler.score(load, plan);
      result.placement = plan.describe();
      result.modeled_seconds_per_iteration =
          plan.modeled_seconds_per_iteration;
    };

    // In-place revive: cause=process_crash means the daemon's
    // supervisor already restarted the crashed worker on the same node and
    // kept the relay open — revive the client over the same link and
    // restore state into the blank replacement. No exclusions, no
    // re-placement; re-placing stays the fallback tier (the daemon reports
    // host_crash when the node is gone or its restart budget is spent).
    std::vector<bool> revived(n_models, false);
    auto try_revive = [&](std::size_t i) {
      RpcClient& rpc = models[i].rpc();
      if (rpc.alive() ||
          rpc.death_cause() != WorkerDiedError::Cause::process_crash) {
        return false;
      }
      const sched::Assignment& a = plan.roles[i];
      if (a.local() || (a.host != nullptr && !a.host->is_up())) return false;
      spend_attempt();
      rpc.revive();
      models[i].client->reset_delta_caches();
      revived[i] = true;
      log::info("experiment")
          << "worker '" << spec.models[i].name
          << "' restarted in place; reviving the client on the same link";
      return true;
    };

    // Initial deployment is as exposed to the jungle as any later step: a
    // node can crash mid-spawn, a frontend can die holding half the graph.
    // Same policy as recovery — exclude what failed, re-place, try again.
    for (std::size_t i = 0; i < n_models; ++i) {
      for (;;) {
        try {
          start_model(i);
          break;
        } catch (const WorkerDiedError& death) {
          if (!fault_tolerant || plan.roles[i].local()) throw;
          ++result.restarts;
          note_death(death);
          if (death.cause() != WorkerDiedError::Cause::host_crash) {
            scheduler.exclude_resource(plan.roles[i].resource);
          }
          replace_slot(i);
        } catch (const CodeError& startup) {
          if (!fault_tolerant || plan.roles[i].local()) throw;
          ++result.restarts;
          replace_unstartable(i, startup);
        }
      }
    }
    // Initial deployment already deviated from the planned placement.
    if (result.restarts > 0) publish_placement();

    // The last committed graph-wide checkpoint: one object, installed by a
    // single move after every model captured — all models commit or none.
    GraphCheckpoint committed;
    committed.resize(n_models);

    // Initial conditions: every model draws from one seeded stream in
    // declaration order, so the spec is a reproducible experiment.
    util::Rng rng(spec.seed);
    for (std::size_t i = 0; i < n_models; ++i) {
      const ModelSpec& model = spec.models[i];
      switch (model.role) {
        case Role::gravity: {
          auto body = ic::plummer_sphere(model.n, rng);
          double scale_r = model.radius > 0.0 ? model.radius : 1.0;
          double scale_m = model.total_mass;
          if (scale_m != 1.0 || scale_r != 1.0) {
            double scale_v = std::sqrt(scale_m / scale_r);
            for (double& m : body.mass) m *= scale_m;
            for (Vec3& p : body.position) p = p * scale_r;
            for (Vec3& v : body.velocity) v = v * scale_v;
          }
          if (model.offset.norm2() > 0.0 ||
              model.bulk_velocity.norm2() > 0.0) {
            for (Vec3& p : body.position) p = p + model.offset;
            for (Vec3& v : body.velocity) v = v + model.bulk_velocity;
          }
          if (model.workers > 1) {
            // Domain decomposition: order the particles along the Morton
            // curve so each shard's contiguous index range is a spatially
            // compact block. Checkpoints store the permuted arrays, so
            // restores and rollbacks replay the same decomposition.
            auto order = kernels::morton_order(body.position);
            body.mass = kernels::permute(
                std::span<const double>(body.mass), order);
            body.position = kernels::permute(
                std::span<const Vec3>(body.position), order);
            body.velocity = kernels::permute(
                std::span<const Vec3>(body.velocity), order);
          }
          models[i].gravity().add_particles(body.mass, body.position,
                                            body.velocity);
          // Checkpoints start as the initial conditions: a worker lost on
          // the very first step rolls back to t=0 (epoch 0).
          committed.gravity[i].state =
              GravityState{std::move(body.mass), std::move(body.position),
                           std::move(body.velocity)};
          committed.gravity[i].eps2 = model.eps2;
          committed.gravity[i].eta = model.eta;
          break;
        }
        case Role::hydro: {
          double radius = model.radius > 0.0 ? model.radius : 1.5;
          auto cloud = ic::gas_sphere(model.n, rng, model.total_mass, radius,
                                      model.u_frac);
          if (model.offset.norm2() > 0.0 ||
              model.bulk_velocity.norm2() > 0.0) {
            for (Vec3& p : cloud.position) p = p + model.offset;
            for (Vec3& v : cloud.velocity) v = v + model.bulk_velocity;
          }
          models[i].hydro().add_gas(cloud.mass, cloud.position,
                                    cloud.velocity, cloud.internal_energy);
          committed.hydro[i].state =
              HydroState{std::move(cloud.mass), std::move(cloud.position),
                         std::move(cloud.velocity),
                         std::move(cloud.internal_energy), {}};
          committed.hydro[i].eps2 = model.eps2;
          committed.hydro[i].theta = model.theta;
          break;
        }
        case Role::stellar: {
          models[i].zams = ic::salpeter_masses(model.n, rng);
          if (model.ensure_massive > 0.0) {
            models[i].zams[0] = model.ensure_massive;
          }
          models[i].stellar().add_stars(models[i].zams);
          break;
        }
        case Role::coupler:
          break;
      }
    }

    // Wire the bridge graph: dynamic models become systems, couplings
    // resolve to system indices, stellar models to their typed targets.
    auto slot = [&](const std::string& name) -> ModelRuntime& {
      return models[static_cast<std::size_t>(spec.find(name))];
    };
    std::vector<int> system_of(n_models, -1);
    auto build_bridge = [&](double t_start, int step_offset) {
      std::vector<Bridge::System> systems;
      for (std::size_t i = 0; i < n_models; ++i) {
        if (models[i].dynamics() == nullptr) continue;
        system_of[i] = static_cast<int>(systems.size());
        systems.push_back({spec.models[i].name, models[i].dynamics()});
      }
      std::vector<Bridge::Coupling> couplings;
      for (const CouplingSpec& coupling : spec.couplings) {
        couplings.push_back(
            {&slot(coupling.field).field(),
             system_of[static_cast<std::size_t>(spec.find(coupling.a))],
             system_of[static_cast<std::size_t>(spec.find(coupling.b))],
             coupling.every});
      }
      std::vector<Bridge::Stellar> stellar;
      for (std::size_t i = 0; i < n_models; ++i) {
        if (models[i].role != Role::stellar) continue;
        const ModelSpec& model = spec.models[i];
        Bridge::Stellar link;
        link.client = &models[i].stellar();
        link.into = &slot(model.of).gravity();
        link.feedback =
            model.feedback.empty() ? nullptr : &slot(model.feedback).hydro();
        stellar.push_back(link);
      }
      Bridge::Config config;
      config.dt = spec.dt;
      config.se_every = spec.se_every;
      config.myr_per_nbody_time = spec.myr_per_nbody_time;
      config.feedback_efficiency = spec.feedback_efficiency;
      config.wind_specific_energy = spec.wind_specific_energy;
      config.supernova_energy = spec.supernova_energy;
      // Absolute-clock restart: rebuilt bridges continue from the committed
      // checkpoint's exact clock bits, and restored workers carry the same
      // absolute time — evolve targets replay the fault-free sequence.
      config.t_start = t_start;
      config.step_offset = step_offset;
      return std::make_unique<Bridge>(std::move(systems),
                                      std::move(couplings),
                                      std::move(stellar), config);
    };
    auto bridge = build_bridge(0.0, 0);

    // Load the committed checkpoint into a (fresh or revived) worker.
    auto restore_model = [&](std::size_t i) {
      ModelRuntime& model = models[i];
      switch (model.role) {
        case Role::gravity:
          restore_gravity(model.gravity(), committed.gravity[i]);
          break;
        case Role::hydro:
          restore_hydro(model.hydro(), committed.hydro[i]);
          break;
        case Role::coupler:
          restore_field(model.field(), committed.field[i]);
          break;
        case Role::stellar:
          model.stellar().add_stars(model.zams);
          if (committed.time > 0.0) {
            model.stellar().evolve_to(committed.time *
                                      spec.myr_per_nbody_time);
          }
          break;
      }
    };

    auto recover = [&](const WorkerDiedError& death) {
      bool any_dead = false;
      for (std::size_t i = 0; i < n_models; ++i) {
        if (!model_dead(i)) continue;
        any_dead = true;
        if (try_revive(i)) continue;  // in-place restart: keep the slot
        if (plan.roles[i].local()) {
          throw CodeError("the client machine lost its own worker ('" +
                          spec.models[i].name + "'); nothing to re-place "
                          "onto");
        }
        replace_dead(i);
      }
      if (!any_dead) {
        // Stale report: nothing is actually dead. Escalate as a plain
        // CodeError — rethrowing the WorkerDiedError would bounce between
        // here and the double-fault retry loop forever.
        throw CodeError(std::string("unrecoverable death report (no model "
                                    "affected): ") +
                        death.what());
      }

      std::vector<std::pair<std::vector<double>, std::vector<double>>>
          mappings;
      for (std::size_t link = 0, i = 0; i < n_models; ++i) {
        if (models[i].role != Role::stellar) continue;
        mappings.push_back(bridge->se_mapping(link++));
      }

      // All dynamic models share the bridge clock: they roll back together
      // to the committed checkpoint. Field and stellar workers are replaced
      // only when they died. Each model's close/start/restore can itself be
      // hit by a fault (a fresh host crashing mid-restore, a frontend dying
      // between the re-place decision and the submit): exclude what failed,
      // pick another target and try again, within the budget.
      for (std::size_t i = 0; i < n_models; ++i) {
        if (!is_dynamic(models[i].role) && !model_dead(i) && !revived[i]) {
          continue;
        }
        for (;;) {
          try {
            // A revived slot keeps its client and relay: the supervised
            // replacement worker is blank, so it only needs the restore.
            if (!revived[i]) {
              models[i].client->close();
              start_model(i);
            }
            restore_model(i);
            break;
          } catch (const WorkerDiedError& again) {
            // The replacement (or the machine it landed on) died while we
            // were restoring into it.
            note_death(again);
            if (try_revive(i)) continue;  // another supervised restart
            revived[i] = false;  // fall back: rebuild client and placement
            if (plan.roles[i].local()) throw;
            replace_dead(i);
          } catch (const CodeError& startup) {
            if (plan.roles[i].local()) throw;
            replace_unstartable(i, startup);
          }
        }
      }

      // Nothing to invalidate here: fresh clients start with empty delta
      // caches, a revived one has reset them, and restarted workers mint a
      // fresh state-id instance. Nothing cached before the rollback (client
      // states, coupler sources/accels) can be mistaken for current content
      // during the replay.

      faultpoint::reach(faultpoint::Point::recover_rebuild, committed.epoch);
      // The rollback target is the clock of the checkpoint we restore
      // from — paired by construction, not re-derived as epoch * dt (the
      // accumulated sum and the product can differ in the last ulp, and
      // bit-exact replay needs the accumulated bits).
      bridge = build_bridge(committed.time, committed.epoch);
      for (std::size_t link = 0; link < mappings.size(); ++link) {
        bridge->set_se_mapping(std::move(mappings[link].first),
                               std::move(mappings[link].second), link);
      }
      publish_placement();
    };

    bed.network().reset_traffic();

    // ----- observability cursors: every per-iteration figure is a delta of
    // monotone counters (the registry is process-global and never reset by
    // a run), so reports stay correct across rollbacks and repeated runs.
    struct MetricCursor {
      std::vector<double> compute_s;  // per model, worker-side
      double flops = 0.0;
      double compute_total = 0.0;
      double substeps = 0.0;
      double rpc_calls = 0.0;
      double rpc_retries = 0.0;
      double degraded_transfers = 0.0;
    };
    auto read_metrics = [&] {
      MetricCursor cursor;
      cursor.compute_s.resize(n_models);
      for (std::size_t i = 0; i < n_models; ++i) {
        const std::string& name = spec.models[i].name;
        cursor.compute_s[i] =
            obs::metrics::counter_value("worker." + name + ".compute_s");
        cursor.compute_total += cursor.compute_s[i];
        cursor.flops +=
            obs::metrics::counter_value("worker." + name + ".flops");
        cursor.substeps +=
            obs::metrics::counter_value("worker." + name + ".substeps");
        cursor.rpc_calls +=
            obs::metrics::counter_value("rpc." + name + ".calls");
      }
      cursor.rpc_retries = obs::metrics::counter_value("rpc.retries");
      cursor.degraded_transfers =
          static_cast<double>(bed.network().degraded_transfers());
      return cursor;
    };
    auto wan_link_bytes = [&] {
      std::map<std::string, double> by_link;
      for (const auto& link : bed.network().traffic_report()) {
        if (link.wan()) by_link[link.name] += link.total_bytes();
      }
      return by_link;
    };
    auto wan_total = [](const std::map<std::string, double>& by_link) {
      double total = 0.0;
      for (const auto& [name, bytes] : by_link) total += bytes;
      return total;
    };

    // ----- the calibration loop: the first cleanly measured iteration
    // closes the scheduler's modeled-vs-measured gap. Per-role measured
    // compute (worker.<name>.compute_s deltas) calibrates the flop charges;
    // the running placement is re-scored with the calibrated model.
    bool calibrated = false;
    auto calibrate = [&](const MetricCursor& before,
                         const MetricCursor& after) {
      calibrated = true;
      sched::Calibration calibration;
      double pre_drift = 0.0;
      std::ostringstream table;
      table << "calibrated cost table (iteration 1):";
      for (std::size_t i = 0; i < n_models; ++i) {
        double measured = after.compute_s[i] - before.compute_s[i];
        double modeled = plan.roles[i].compute_seconds;
        if (measured <= 0.0 || modeled <= 0.0) continue;
        double ratio = measured / modeled;
        calibration.set_scale(spec.models[i].name, ratio);
        pre_drift = std::max(pre_drift, std::max(ratio, 1.0 / ratio));
        obs::metrics::gauge("sched.drift." + spec.models[i].name).set(ratio);
        table << " " << spec.models[i].name << ": measured=" << measured
              << " s modeled=" << modeled << " s scale="
              << calibration.scale_for(spec.models[i].name) << ";";
      }
      result.precalibration_drift = pre_drift;
      obs::metrics::gauge("sched.precalibration_drift").set(pre_drift);
      scheduler.set_calibration(calibration);

      // Re-score a copy: modeled_seconds_per_iteration stays the original
      // (uncalibrated) prediction, the calibrated figure rides alongside.
      sched::Placement scored = plan;
      scheduler.score(load, scored);
      result.calibrated_seconds_per_iteration =
          scored.modeled_seconds_per_iteration;
      double post_drift = 0.0;
      for (std::size_t i = 0; i < n_models; ++i) {
        double measured = after.compute_s[i] - before.compute_s[i];
        double modeled = scored.roles[i].compute_seconds;
        if (measured <= 0.0 || modeled <= 0.0) continue;
        double ratio = measured / modeled;
        post_drift = std::max(post_drift, std::max(ratio, 1.0 / ratio));
      }
      result.compute_drift = post_drift;
      obs::metrics::gauge("sched.compute_drift").set(post_drift);
      log::info("sched") << table.str() << " drift " << pre_drift
                         << "x -> " << post_drift << "x, calibrated modeled="
                         << result.calibrated_seconds_per_iteration
                         << " s/iter";
    };

    double wall_start = bed.simulation().now();
    int completed = 0;
    bool killed = false;
    bool flapped = false;
    // Replay detection: a step whose index was already attempted re-runs
    // work a rollback threw away (with per-step checkpoints the rollback
    // target is always the last *completed* step, so the replayed step is
    // the attempted-and-killed one).
    int attempted_steps = 0;
    int restarts_mark = result.restarts;
    double iter_start = bed.simulation().now();
    MetricCursor metric_cursor = read_metrics();
    std::map<std::string, double> link_cursor = wan_link_bytes();
    while (completed < spec.iterations) {
      try {
        bool replaying = completed + 1 <= attempted_steps;
        attempted_steps = std::max(attempted_steps, completed + 1);
        {
          obs::trace::Span iter = obs::trace::span(
              "iteration:" + std::to_string(completed + 1), "experiment");
          bridge->step();
        }
        if (fault_tolerant) {
          // Checkpointing itself talks to the workers and can die mid-way:
          // stage the whole graph into a fresh snapshot, then install it
          // with one move — the commit is atomic across the graph, so no
          // interleaving of deaths can leave mixed-epoch checkpoints.
          obs::trace::Span ckpt = obs::trace::span("checkpoint", "fault");
          double ckpt_start = bed.simulation().now();
          GraphCheckpoint staged;
          staged.epoch = completed + 1;
          staged.time = bridge->time();
          staged.resize(n_models);
          // Every model's reads go out before any reply is consumed: the
          // capture waits one round trip, not one per read.
          std::vector<PendingCapture> reads(n_models);
          for (std::size_t i = 0; i < n_models; ++i) {
            faultpoint::reach(faultpoint::Point::ckpt_capture, completed,
                              spec.models[i].name);
            switch (models[i].role) {
              case Role::gravity:
                reads[i] = request_checkpoint(models[i].gravity());
                break;
              case Role::hydro:
                reads[i] = request_checkpoint(models[i].hydro());
                break;
              case Role::coupler:
              case Role::stellar:
                break;
            }
          }
          // The step's unacked kicks and mass updates ran before these
          // reads on each pipe; their acks land first. Collecting them here
          // costs no extra round trip, and no snapshot commits over a
          // failed one.
          bridge->settle();
          for (std::size_t i = 0; i < n_models; ++i) {
            switch (models[i].role) {
              case Role::gravity:
                staged.gravity[i] =
                    finish_checkpoint(models[i].gravity(), reads[i]);
                staged.gravity[i].eps2 = spec.models[i].eps2;
                staged.gravity[i].eta = spec.models[i].eta;
                break;
              case Role::hydro:
                staged.hydro[i] = finish_checkpoint(models[i].hydro(), reads[i]);
                staged.hydro[i].eps2 = spec.models[i].eps2;
                staged.hydro[i].theta = spec.models[i].theta;
                break;
              case Role::coupler:
                staged.field[i] = checkpoint_field(models[i].field());
                break;
              case Role::stellar:
                break;  // re-derived from the ZAMS masses on restore
            }
          }
          // Named per-model commit slots: the window where a non-atomic
          // protocol would interleave. Injections here prove there is no
          // state in which some models committed and others did not.
          for (std::size_t i = 0; i < n_models; ++i) {
            faultpoint::Context slot;
            slot.point = faultpoint::Point::ckpt_commit;
            slot.iteration = completed;
            slot.detail = spec.models[i].name;
            if (faultpoint::active()) {
              // Per-model digest: lets the explorer name the model that
              // diverged, not just the epoch.
              switch (models[i].role) {
                case Role::gravity:
                  slot.digest = digest(staged.gravity[i]);
                  break;
                case Role::hydro:
                  slot.digest = digest(staged.hydro[i]);
                  break;
                case Role::coupler:
                  slot.digest = digest(staged.field[i]);
                  break;
                case Role::stellar:
                  break;
              }
            }
            faultpoint::reach(slot);
          }
          committed = std::move(staged);
          if (faultpoint::active()) {
            faultpoint::Context done;
            done.point = faultpoint::Point::ckpt_committed;
            done.iteration = completed;
            done.digest = digest(committed);
            faultpoint::reach(done);
          }
          obs::metrics::counter("fault.checkpoints").increment();
          obs::metrics::histogram("fault.checkpoint_s")
              .observe(bed.simulation().now() - ckpt_start);
        }
        ++completed;

        // --- per-iteration report: deltas across the step just done ---
        MetricCursor metrics_now = read_metrics();
        std::map<std::string, double> links_now = wan_link_bytes();
        diagnostics::IterationReport row;
        row.iteration = completed;
        row.seconds = bed.simulation().now() - iter_start;
        row.wan_bytes = wan_total(links_now) - wan_total(link_cursor);
        row.flops = metrics_now.flops - metric_cursor.flops;
        row.compute_seconds =
            metrics_now.compute_total - metric_cursor.compute_total;
        row.substeps = static_cast<std::uint64_t>(
            metrics_now.substeps - metric_cursor.substeps + 0.5);
        row.rpc_calls = static_cast<std::uint64_t>(
            metrics_now.rpc_calls - metric_cursor.rpc_calls + 0.5);
        row.rpc_retries = static_cast<std::uint64_t>(
            metrics_now.rpc_retries - metric_cursor.rpc_retries + 0.5);
        row.degraded = metrics_now.degraded_transfers -
                           metric_cursor.degraded_transfers >
                       0.5;
        row.replay = replaying;
        row.restarts = result.restarts - restarts_mark;
        if (row.replay) {
          obs::metrics::counter("fault.replayed_steps").increment();
        }
        if (row.degraded) {
          // A bulk transfer this step rode on fewer streams than planned
          // (partial stripe failure): the step completed, degraded.
          obs::metrics::counter("fault.degraded_iterations").increment();
        }
        result.iteration_log.push_back(row);

        if (!calibrated && !row.replay && row.restarts == 0) {
          calibrate(metric_cursor, metrics_now);
          std::ostringstream links;
          links << "per-link WAN volume (iteration 1):";
          for (const auto& [name, bytes] : links_now) {
            double delta = bytes - link_cursor[name];
            if (delta <= 0.0) continue;
            links << " " << name << "=" << util::format_bytes(delta);
          }
          log::info("sched") << links.str();
        }
        restarts_mark = result.restarts;
        metric_cursor = std::move(metrics_now);
        link_cursor = std::move(links_now);
        iter_start = bed.simulation().now();

        if (fault_tolerant && !killed && !spec.kill_host.empty() &&
            completed == spec.kill_after_iteration) {
          killed = true;
          if (spec.kill_process.empty()) {
            bed.network().host(spec.kill_host).crash();
          } else {
            // Process-level fault: kill one process on the host (daemon,
            // proxy, worker) and leave the machine up — this is the tier
            // the supervisors recover in place.
            bed.network().host(spec.kill_host).kill_process(
                spec.kill_process);
          }
        }
        if (!flapped && !spec.flap_link.empty() &&
            completed == spec.flap_after_iteration) {
          flapped = true;
          if (spec.flap_streams > 0) {
            bed.network().fail_streams(spec.flap_link, spec.flap_streams,
                                       spec.flap_streams_heal_s);
          } else {
            bed.network().flap_link(spec.flap_link, spec.flap_down_s);
          }
        }
      } catch (const WorkerDiedError& death) {
        if (!fault_tolerant) throw;
        obs::trace::Span rollback = obs::trace::span("recover", "fault");
        double recover_start = bed.simulation().now();
        obs::metrics::counter("fault.rollbacks").increment();
        ++result.restarts;
        spend_attempt();
        // Recovery can itself be interrupted by another death (a double
        // fault): keep recovering until a round goes through cleanly.
        WorkerDiedError current = death;
        for (;;) {
          try {
            note_death(current);
            recover(current);
            break;
          } catch (const WorkerDiedError& again) {
            ++result.restarts;
            spend_attempt();
            current = again;
          }
        }
        completed = committed.epoch;
        obs::metrics::histogram("fault.recover_s")
            .observe(bed.simulation().now() - recover_start);
        // The aborted step's partial work must not pollute the replay
        // row's figures: restart every cursor at the rollback point.
        metric_cursor = read_metrics();
        link_cursor = wan_link_bytes();
        iter_start = bed.simulation().now();
      }
    }
    // Without checkpoints the last step's acks are still in flight.
    bridge->settle();
    double wall = bed.simulation().now() - wall_start;
    result.seconds_per_iteration = wall / spec.iterations;

    // Final observables. The pipelined path only moved mass+position
    // during coupling; pull the full states (velocities, internal energy)
    // once for the diagnostics, plus each model's energies.
    std::vector<double> star_mass;
    std::vector<Vec3> star_pos;
    std::vector<double> gas_mass, gas_u;
    std::vector<Vec3> gas_pos, gas_vel;
    for (std::size_t i = 0; i < n_models; ++i) {
      const ModelSpec& model = spec.models[i];
      if (!is_dynamic(model.role)) continue;
      ModelResult state;
      state.name = model.name;
      state.role = model.role;
      if (model.role == Role::gravity) {
        state.gravity = models[i].gravity().get_state();
        auto [kinetic, potential] = models[i].gravity().energies();
        state.kinetic = kinetic;
        state.potential = potential;
        star_mass.insert(star_mass.end(), state.gravity.mass.begin(),
                         state.gravity.mass.end());
        star_pos.insert(star_pos.end(), state.gravity.position.begin(),
                        state.gravity.position.end());
      } else {
        state.hydro = models[i].hydro().get_state();
        auto [kinetic, thermal, potential] = models[i].hydro().energies();
        state.kinetic = kinetic;
        state.thermal = thermal;
        state.potential = potential;
        gas_mass.insert(gas_mass.end(), state.hydro.mass.begin(),
                        state.hydro.mass.end());
        gas_pos.insert(gas_pos.end(), state.hydro.position.begin(),
                       state.hydro.position.end());
        gas_vel.insert(gas_vel.end(), state.hydro.velocity.begin(),
                       state.hydro.velocity.end());
        gas_u.insert(gas_u.end(), state.hydro.internal_energy.begin(),
                     state.hydro.internal_energy.end());
      }
      result.models.push_back(std::move(state));
    }
    if (!gas_mass.empty()) {
      result.bound_gas_fraction = diagnostics::bound_gas_fraction(
          gas_mass, gas_pos, gas_vel, gas_u, star_mass, star_pos);
    }

    for (ModelRuntime& model : models) model.client->close();
  });
  bed.simulation().run();

  for (const auto& link : bed.network().traffic_report()) {
    if (!link.wan()) continue;
    result.wan_bytes += link.total_bytes();
    result.wan_ipl_bytes +=
        link.bytes_by_class[static_cast<int>(sim::TrafficClass::ipl)];
  }
  result.wan_ipl_bytes_per_step =
      spec.iterations > 0 ? result.wan_ipl_bytes / spec.iterations : 0.0;

  // Dashboard: the Figs 10/11 analog plus the placement panel — which
  // machine ran which model, and modeled vs. measured cost.
  std::ostringstream panel;
  panel << bed.deployer().dashboard();
  panel << "-- placement (" << spec.name << ") --\n";
  for (std::size_t i = 0; i < plan.roles.size(); ++i) {
    const sched::Assignment& a = plan.roles[i];
    panel << "  " << plan.names[i] << " ("
          << sched::role_name(plan.kinds[i]) << "): " << a.spec.code << " @ "
          << a.where() << " modeled compute=" << a.compute_seconds
          << " s comm=" << a.comm_seconds << " s\n";
  }
  panel << "  modeled=" << result.modeled_seconds_per_iteration
        << " s/iter measured=" << result.seconds_per_iteration << " s/iter";
  if (result.restarts > 0) panel << " restarts=" << result.restarts;
  panel << "\n";
  if (result.calibrated_seconds_per_iteration > 0.0) {
    panel << "  calibrated=" << result.calibrated_seconds_per_iteration
          << " s/iter drift=" << result.precalibration_drift << "x -> "
          << result.compute_drift << "x\n";
  }
  panel << diagnostics::iteration_table(result.iteration_log);
  result.dashboard = panel.str();
  return result;
}

Result run_experiment(const ExperimentSpec& spec) {
  JungleTestbed bed;
  return run_experiment(bed, spec);
}

Result run_experiment_config(const util::Config& config) {
  JungleTestbed bed(config);
  return run_experiment(bed, ExperimentSpec::from_config(config));
}

std::uint64_t final_digest(const Result& result) {
  GraphCheckpoint fin;
  fin.epoch = result.iterations;
  fin.resize(result.models.size());
  for (std::size_t i = 0; i < result.models.size(); ++i) {
    const ModelResult& model = result.models[i];
    if (model.role == sched::Role::gravity)
      fin.gravity[i].state = model.gravity;
    else if (model.role == sched::Role::hydro)
      fin.hydro[i].state = model.hydro;
  }
  return digest(fin);
}

}  // namespace jungle::amuse::experiment
