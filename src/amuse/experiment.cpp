#include "amuse/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
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

JungleTestbed::JungleTestbed() {
  using sim::net::gbit;
  using sim::net::ms;
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

JungleTestbed::JungleTestbed(const util::Config& config) {
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
  }
  for (std::size_t i = 0; i < models.size(); ++i) {
    if (models[i].role == Role::coupler && !field_used[i]) {
      fail("field model '" + models[i].name +
           "' is not referenced by any coupling");
    }
  }
}

sched::Workload ExperimentSpec::workload() const {
  sched::Workload load;
  load.dt = dt;
  load.iterations = iterations;
  load.se_every = se_every;
  for (const ModelSpec& model : models) {
    sched::ModelLoad entry;
    entry.name = model.name;
    entry.role = model.role;
    entry.n = model.n;
    entry.kernel = model.kernel == "auto" ? "" : model.kernel;
    entry.nranks = model.nranks;
    entry.workers = model.workers;
    if (model.role == Role::stellar) entry.of = find(model.of);
    load.models.push_back(std::move(entry));
  }
  for (const CouplingSpec& coupling : couplings) {
    load.couplings.push_back(
        {find(coupling.field), find(coupling.a), find(coupling.b)});
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
         "supernova_energy", "checkpointing", "client"});
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
      reject_unknown_keys(config, section, {"field", "a", "b"});
      CouplingSpec coupling;
      coupling.name = util::trim(section.substr(9));
      coupling.field = config.get(section, "field");
      coupling.a = config.get(section, "a");
      coupling.b = config.get(section, "b");
      spec.couplings.push_back(std::move(coupling));
    }
  }
  return spec;
}

// ------------------------------------------------------------- placement

namespace {

/// Default worker spec of a pinned model (the scheduler builds its own for
/// free models), from the scheduler's variant specs: kernel "auto" takes
/// the target host's GPU, an explicit kernel names its variant.
amuse::WorkerSpec pinned_worker_spec(const ModelSpec& model,
                                     const sim::Host& host, bool local) {
  const bool gpu = model.kernel.empty() || model.kernel == "auto"
                       ? host.gpu().has_value()
                       : amuse::WorkerSpec{.code = model.kernel}.needs_gpu();
  switch (model.role) {
    case Role::gravity:
      return sched::gravity_spec(gpu);
    case Role::coupler:
      return sched::coupler_spec(gpu);
    case Role::hydro:
      return sched::hydro_spec(
          model.nranks > 0 ? model.nranks : (local ? 2 : model.nodes),
          local ? 1 : 2);
    case Role::stellar:
      break;
  }
  return amuse::WorkerSpec{.code = "sse"};
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

/// The spec's numeric kernel parameters always win, at first placement and
/// at every re-place (they are physics, not placement; codes and widths
/// were already constrained via the workload). Worker-side metrics carry
/// the model name, not the kernel code, so worker.<name>.* lines up with
/// the plan's roles and rpc.<name>.*.
void install_physics(sched::Assignment& assignment, const ModelSpec& model) {
  assignment.spec.eps2 = model.eps2;
  assignment.spec.eta = model.eta;
  assignment.spec.theta = model.theta;
  assignment.spec.meter = model.name;
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
  for (std::size_t i = 0; i < spec.models.size(); ++i) {
    install_physics(plan.roles[i], spec.models[i]);
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

/// Observability cursor: every per-iteration figure is a delta of monotone
/// counters (the registry is process-global and never reset by a run), so
/// reports stay correct across rollbacks and repeated runs.
struct MetricCursor {
  double time = 0.0;              // virtual clock at the read
  std::vector<double> compute_s;  // per model, worker-side
  double flops = 0.0;
  double compute_total = 0.0;
  double substeps = 0.0;
  double rpc_calls = 0.0;
  double rpc_retries = 0.0;
  double degraded_transfers = 0.0;
  std::map<std::string, double> wan_bytes;  // per WAN link
};

double wan_total(const std::map<std::string, double>& by_link) {
  double total = 0.0;
  for (const auto& [name, bytes] : by_link) total += bytes;
  return total;
}

/// One run of an experiment graph: the paper's coupling script. script()
/// runs inside the simulation and goes through the phases in order:
/// start and load every model (bring_up), then step, each step followed by
/// a checkpoint and an iteration report, with recover on a worker's death
/// and calibrate after the first clean step, and finally finish, which
/// reads the final states. report() builds the dashboard once the
/// simulation has drained.
class GraphRun {
 public:
  GraphRun(JungleTestbed& bed, const ExperimentSpec& spec)
      : bed_(bed),
        spec_(spec),
        client_(client_of(bed, spec)),
        scheduler_(bed.network(), client_, bed.deployer().resources()),
        load_(spec.workload()),
        plan_(plan_in(bed, spec, client_, scheduler_)),
        daemon_(bed.sockets(), client_),
        models_(spec.models.size()),
        revived_(spec.models.size(), false) {
    result_.experiment = spec.name;
    result_.iterations = spec.iterations;
    result_.placement = plan_.describe();
    result_.modeled_seconds_per_iteration = plan_.modeled_seconds_per_iteration;
    draw_initial_conditions();
  }

  /// The body of the simulation's `amuse-script` process.
  void script() {
    std::vector<std::size_t> all(models_.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    result_.restarts += bring_up(all);
    // Deployment already deviated from the planned placement.
    if (result_.restarts > 0) publish_placement();
    bridge_ = build_bridge(0.0, 0);

    bed_.network().reset_traffic();
    double wall_start = bed_.simulation().now();
    restarts_mark_ = result_.restarts;
    cursor_ = read_metrics();
    // A worker that dies after the last commit, before its final state is
    // read, rolls back onto that last checkpoint like any other death; no
    // step is replayed then.
    for (;;) {
      try {
        if (completed_ < spec_.iterations) {
          step();
          continue;
        }
        // Without checkpoints the last step's acks are still in flight.
        bridge_->settle();
        double wall = bed_.simulation().now() - wall_start;
        result_.seconds_per_iteration = wall / spec_.iterations;
        finish();
        return;
      } catch (const WorkerDiedError& death) {
        if (!spec_.checkpointing) throw;
        recover(death);
      }
    }
  }

  /// WAN totals plus the dashboard: the Figs 10/11 analog and the placement
  /// panel — which machine ran which model, and modeled vs. measured cost.
  Result report() {
    for (const auto& link : bed_.network().traffic_report()) {
      if (!link.wan()) continue;
      result_.wan_bytes += link.total_bytes();
      result_.wan_ipl_bytes +=
          link.bytes_by_class[static_cast<int>(sim::TrafficClass::ipl)];
    }
    result_.wan_ipl_bytes_per_step =
        spec_.iterations > 0 ? result_.wan_ipl_bytes / spec_.iterations : 0.0;

    std::ostringstream panel;
    panel << bed_.deployer().dashboard();
    panel << "-- placement (" << spec_.name << ") --\n";
    for (std::size_t i = 0; i < plan_.roles.size(); ++i) {
      const sched::Assignment& a = plan_.roles[i];
      panel << "  " << plan_.names[i] << " ("
            << sched::role_name(plan_.kinds[i]) << "): " << a.spec.code
            << " @ " << a.where() << " modeled compute=" << a.compute_seconds
            << " s comm=" << a.comm_seconds << " s\n";
    }
    panel << "  modeled=" << result_.modeled_seconds_per_iteration
          << " s/iter measured=" << result_.seconds_per_iteration << " s/iter";
    if (result_.restarts > 0) panel << " restarts=" << result_.restarts;
    panel << "\n";
    if (result_.calibrated_seconds_per_iteration > 0.0) {
      panel << "  calibrated=" << result_.calibrated_seconds_per_iteration
            << " s/iter drift=" << result_.precalibration_drift << "x -> "
            << result_.compute_drift << "x\n";
    }
    panel << diagnostics::iteration_table(result_.iteration_log);
    result_.dashboard = panel.str();
    return std::move(result_);
  }

 private:
  /// Initial conditions: every model draws from one seeded stream in
  /// declaration order, so the spec is a reproducible experiment. The draws
  /// land in the epoch-0 checkpoint (and the ZAMS list), so a worker lost on
  /// the very first step rolls back to t=0, and a retried load sends the same
  /// bodies.
  void draw_initial_conditions() {
    committed_.resize(models_.size());
    util::Rng rng(spec_.seed);
    for (std::size_t i = 0; i < models_.size(); ++i) {
      const ModelSpec& model = spec_.models[i];
      models_[i].role = model.role;
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
          committed_.gravity[i].state =
              GravityState{std::move(body.mass), std::move(body.position),
                           std::move(body.velocity)};
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
          committed_.hydro[i].state =
              HydroState{std::move(cloud.mass), std::move(cloud.position),
                         std::move(cloud.velocity),
                         std::move(cloud.internal_energy), {}};
          break;
        }
        case Role::stellar:
          models_[i].zams = ic::salpeter_masses(model.n, rng);
          if (model.ensure_massive > 0.0) {
            models_[i].zams[0] = model.ensure_massive;
          }
          break;
        case Role::coupler:
          break;
      }
    }
  }

  /// A remote model's start in flight: one daemon START per worker (K for a
  /// sharded model, in shard order) and the spawn span, which runs from the
  /// request to the last READY.
  struct PendingSlot {
    obs::trace::Span spawn;
    std::vector<DaemonClient::PendingStart> workers;
  };

  /// Model i's worker k where the plan puts it. A sharded gravity model
  /// (workers > 1) runs K single-node workers — the cluster queue hands each
  /// its own node. Shard 0 carries the model's meter name so calibration
  /// reads worker.<name>.compute_s ~ total/K, matching the modeled
  /// compute / K; the others are distinguishable in traces.
  sched::Assignment worker(std::size_t i, int k) const {
    sched::Assignment a = plan_.roles[i];
    if (spec_.models[i].workers > 1) {
      a.nodes = 1;
      if (k > 0) a.spec.meter += "#" + std::to_string(k);
    }
    return a;
  }
  int worker_count(std::size_t i) const {
    return std::max(spec_.models[i].workers, 1);
  }

  /// Send the START of every worker of remote model i, closing the client
  /// it had. finish_start() collects the replies.
  PendingSlot request_start(std::size_t i) {
    const ModelSpec& model = spec_.models[i];
    if (models_[i].client) models_[i].client->close();
    PendingSlot pending{obs::trace::async_span("spawn:" + model.name, "deploy"),
                        {}};
    for (int k = 0; k < worker_count(i); ++k) {
      sched::Assignment a = worker(i, k);
      pending.workers.push_back(daemon_.request(a.spec, a.resource, a.nodes));
    }
    return pending;
  }

  /// Start model i's worker where the plan puts it: wait for the replies
  /// to a remote model's request_start(), or start a local worker now. A
  /// sharded model's K workers are wrapped in the ShardedGravityClient
  /// facade, so the bridge/couplings/fault machinery see one model.
  void finish_start(std::size_t i, std::optional<PendingSlot> pending) {
    const ModelSpec& model = spec_.models[i];
    ModelRuntime& runtime = models_[i];
    std::vector<std::unique_ptr<RpcClient>> rpcs;
    if (pending) {
      for (DaemonClient::PendingStart& worker : pending->workers) {
        rpcs.push_back(daemon_.finish(std::move(worker)));
      }
      pending->spawn.end();
    } else {
      if (runtime.client) runtime.client->close();
      obs::trace::Span spawn =
          obs::trace::span("spawn:" + model.name, "deploy");
      for (int k = 0; k < worker_count(i); ++k) {
        rpcs.push_back(start_local_worker(bed_.sockets(), bed_.network(),
                                          client_, client_, worker(i, k).spec,
                                          ChannelKind::mpi));
      }
    }
    for (std::size_t k = 0; k < rpcs.size(); ++k) {
      rpcs[k]->set_call_timeout(kRpcCallTimeout);
      // Client-side RPC metrics under the model name, matching the
      // worker-side series wired through WorkerSpec::meter.
      rpcs[k]->set_meter(worker(i, static_cast<int>(k)).spec.meter);
    }
    if (model.role == Role::gravity && model.workers > 1) {
      std::vector<std::unique_ptr<GravityClient>> shards;
      shards.reserve(rpcs.size());
      for (auto& rpc : rpcs) {
        shards.push_back(std::make_unique<GravityClient>(std::move(rpc)));
      }
      runtime.client =
          std::make_unique<ShardedGravityClient>(std::move(shards));
    } else {
      auto rpc = std::move(rpcs.front());
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
    const sim::Host* host = plan_.roles[i].host;
    if (dynamics != nullptr && host != nullptr &&
        bed_.network().path_fp_truncate(client_, *host)) {
      dynamics->set_fp32_positions(true);
    }
  }

  /// Start model i's worker with nothing else in flight.
  void start(std::size_t i) {
    finish_start(i, plan_.roles[i].local()
                        ? std::nullopt
                        : std::optional<PendingSlot>(request_start(i)));
  }

  /// Load the committed checkpoint into a fresh or revived worker. Before the
  /// first step the checkpoint is epoch 0 and the worker gets its initial
  /// conditions as particles; after it, restore_* also sets the absolute
  /// clock. A coupler loads nothing.
  void load(std::size_t i) {
    ModelRuntime& model = models_[i];
    bool initial = bridge_ == nullptr;
    switch (model.role) {
      case Role::gravity:
        if (initial) {
          const GravityState& body = committed_.gravity[i].state;
          model.gravity().add_particles(body.mass, body.position,
                                        body.velocity);
        } else {
          restore_gravity(model.gravity(), committed_.gravity[i]);
        }
        break;
      case Role::hydro:
        if (initial) {
          const HydroState& cloud = committed_.hydro[i].state;
          model.hydro().add_gas(cloud.mass, cloud.position, cloud.velocity,
                                cloud.internal_energy);
        } else {
          restore_hydro(model.hydro(), committed_.hydro[i]);
        }
        break;
      case Role::coupler:
        break;  // a fresh client ships every array its first query names
      case Role::stellar:
        model.stellar().add_stars(model.zams);
        if (committed_.time > 0.0) {
          model.stellar().evolve_to(committed_.time * spec_.myr_per_nbody_time);
        }
        break;
    }
  }

  /// Bring the models in `slots` up: send the START of every remote worker
  /// that needs one, in slot order, before waiting on any reply, so their
  /// jobs deploy at the same time; then finish each start in order (a local
  /// slot starts here, a revived one keeps the worker it has), then load each
  /// in order. Deployment and recovery alike are exposed to the jungle — a
  /// node can crash mid-spawn or mid-load, a frontend can die between the
  /// re-place decision and the submit — so every failed attempt excludes
  /// what failed, re-places the model (or revives it in place) and starts
  /// and loads it again on its own, within the budget. A request still
  /// pending when this throws closes its connection, and the daemon stops
  /// that worker. Returns the number of failed attempts.
  int bring_up(const std::vector<std::size_t>& slots) {
    int failures = 0;
    std::vector<bool> started(models_.size(), false);
    std::map<std::size_t, PendingSlot> pending;
    for (std::size_t i : slots) {
      if (!revived_[i] && !plan_.roles[i].local()) {
        pending.emplace(i, request_start(i));
      }
    }
    for (bool loading : {false, true}) {
      for (std::size_t i : slots) {
        for (;;) {
          try {
            if (!started[i] && !revived_[i]) {
              auto requested = pending.extract(i);
              if (requested) {
                finish_start(i, std::move(requested.mapped()));
              } else {
                start(i);
              }
            }
            started[i] = true;
            if (loading) load(i);
            break;
          } catch (const WorkerDiedError& death) {
            // The worker, or the machine it landed on, died while we were
            // starting or loading it.
            if (!spec_.checkpointing) throw;
            ++failures;
            started[i] = false;
            note_death(death);
            if (try_revive(i)) continue;  // another supervised restart
            revived_[i] = false;  // fall back: rebuild client and placement
            if (plan_.roles[i].local()) throw;
            replace_dead(i);
          } catch (const CodeError& startup) {
            // The daemon could not start the worker (e.g. the frontend died
            // between the re-place decision and the submit, or the job
            // outwaited the cluster queue). Place elsewhere.
            if (!spec_.checkpointing || plan_.roles[i].local()) throw;
            ++failures;
            started[i] = false;
            log::warn("experiment") << "re-placing '" << spec_.models[i].name
                                    << "' after startup failure: "
                                    << startup.what();
            exclude_unstartable(plan_.roles[i].resource);
            replace_slot(i);
          }
        }
      }
    }
    return failures;
  }

  void spend_attempt() {
    const int budget = 8 * static_cast<int>(models_.size()) + 8;
    if (++replace_attempts_ > budget) {
      throw CodeError("fault recovery exceeded its replacement budget (" +
                      std::to_string(budget) + " attempts)");
    }
  }

  /// Global exclusions derived from one death report. Per-worker causes are
  /// handled per model in replace_dead(); this handles what the report
  /// itself names (the crashed host, and its whole resource when the dead
  /// machine is a frontend — jobs submit through it even when the compute
  /// nodes survive).
  void note_death(const WorkerDiedError& death) {
    log::warn("experiment") << "recovering from: " << death.what();
    faultpoint::reach(faultpoint::Point::recover_exclude, -1, death.host());
    if (death.cause() == WorkerDiedError::Cause::host_crash &&
        !death.host().empty()) {
      exclude_crashed(death.host());
    }
  }

  /// A crashed machine: exclude it, and its whole resource when it is the
  /// frontend — jobs submit through it even when the compute nodes survive.
  /// Returns false when the host was already excluded.
  bool exclude_crashed(const std::string& host) {
    if (!scheduler_.exclude_host(host)) return false;
    std::string owner = scheduler_.resource_of(host);
    if (!owner.empty()) {
      const gat::Resource& res = bed_.deployer().resource(owner);
      if (res.frontend != nullptr && res.frontend->name() == host) {
        scheduler_.exclude_resource(owner);
      }
    }
    return true;
  }

  /// A startup failure on a resource that lost machines blames the machines
  /// that went down, as a host_crash report would: the job may only have
  /// outwaited a queue whose nodes died. When no machine newly went down,
  /// the resource itself is not usable right now.
  void exclude_unstartable(const std::string& resource) {
    const gat::Resource& res = bed_.deployer().resource(resource);
    bool blamed = false;
    std::vector<sim::Host*> hosts = res.nodes;
    if (res.frontend != nullptr) hosts.push_back(res.frontend);
    for (sim::Host* host : hosts) {
      if (!host->is_up()) blamed = exclude_crashed(host->name()) || blamed;
    }
    if (!blamed) scheduler_.exclude_resource(resource);
  }

  /// A model needs re-placing when its client was poisoned *or* its host is
  /// gone and the client just has not noticed yet (no RPC since the crash) —
  /// restarting onto a dead machine would only fail later.
  bool model_dead(std::size_t i) {
    if (!models_[i].rpc().alive()) return true;
    const sched::Assignment& a = plan_.roles[i];
    return !a.local() && a.host != nullptr && !a.host->is_up();
  }

  void replace_slot(std::size_t i) {
    spend_attempt();
    plan_.roles[i] = scheduler_.replace(load_, plan_, static_cast<int>(i));
    install_physics(plan_.roles[i], spec_.models[i]);
  }

  /// Per-worker cause: a crashed host is already excluded; a process crash
  /// blames neither host nor resource (the machine restarted the worker
  /// fine — revive only failed because the node went down meanwhile);
  /// anything else (link fault, timeout, unknown) condemns the whole
  /// resource — the machine may be fine, the route to it is not.
  void replace_dead(std::size_t i) {
    RpcClient& rpc = models_[i].rpc();
    if (!rpc.alive() &&
        rpc.death_cause() != WorkerDiedError::Cause::host_crash &&
        rpc.death_cause() != WorkerDiedError::Cause::process_crash) {
      scheduler_.exclude_resource(plan_.roles[i].resource);
    }
    replace_slot(i);
  }

  /// In-place revive: cause=process_crash means the daemon's supervisor
  /// already restarted the crashed worker on the same node and kept the
  /// relay open — revive the client over the same link and load state into
  /// the blank replacement. No exclusions, no re-placement; re-placing stays
  /// the fallback tier (the daemon reports host_crash when the node is gone
  /// or its restart budget is spent).
  bool try_revive(std::size_t i) {
    RpcClient& rpc = models_[i].rpc();
    if (rpc.alive() ||
        rpc.death_cause() != WorkerDiedError::Cause::process_crash) {
      return false;
    }
    const sched::Assignment& a = plan_.roles[i];
    if (a.local() || (a.host != nullptr && !a.host->is_up())) return false;
    spend_attempt();
    rpc.revive();
    models_[i].client->reset_delta_caches();
    revived_[i] = true;
    log::info("experiment")
        << "worker '" << spec_.models[i].name
        << "' restarted in place; reviving the client on the same link";
    return true;
  }

  /// Re-score the running placement so the dashboard's modeled-vs-measured
  /// panel describes what is actually running.
  void publish_placement() {
    scheduler_.score(load_, plan_);
    result_.placement = plan_.describe();
    result_.modeled_seconds_per_iteration = plan_.modeled_seconds_per_iteration;
  }

  /// Wire the bridge graph: dynamic models become systems, couplings resolve
  /// to system indices, stellar models to their typed targets.
  std::unique_ptr<Bridge> build_bridge(double t_start, int step_offset) {
    auto slot = [&](const std::string& name) -> ModelRuntime& {
      return models_[static_cast<std::size_t>(spec_.find(name))];
    };
    std::vector<int> system_of(models_.size(), -1);
    std::vector<Bridge::System> systems;
    for (std::size_t i = 0; i < models_.size(); ++i) {
      if (models_[i].dynamics() == nullptr) continue;
      system_of[i] = static_cast<int>(systems.size());
      systems.push_back({spec_.models[i].name, models_[i].dynamics()});
    }
    std::vector<Bridge::Coupling> couplings;
    for (const CouplingSpec& coupling : spec_.couplings) {
      couplings.push_back(
          {&slot(coupling.field).field(),
           system_of[static_cast<std::size_t>(spec_.find(coupling.a))],
           system_of[static_cast<std::size_t>(spec_.find(coupling.b))]});
    }
    std::vector<Bridge::Stellar> stellar;
    for (std::size_t i = 0; i < models_.size(); ++i) {
      if (models_[i].role != Role::stellar) continue;
      const ModelSpec& model = spec_.models[i];
      Bridge::Stellar link;
      link.client = &models_[i].stellar();
      link.into = &slot(model.of).gravity();
      link.feedback =
          model.feedback.empty() ? nullptr : &slot(model.feedback).hydro();
      stellar.push_back(link);
    }
    Bridge::Config config;
    config.dt = spec_.dt;
    config.se_every = spec_.se_every;
    config.myr_per_nbody_time = spec_.myr_per_nbody_time;
    config.feedback_efficiency = spec_.feedback_efficiency;
    config.wind_specific_energy = spec_.wind_specific_energy;
    config.supernova_energy = spec_.supernova_energy;
    // Absolute-clock restart: rebuilt bridges continue from the committed
    // checkpoint's exact clock bits, and restored workers carry the same
    // absolute time — evolve targets replay the fault-free sequence.
    config.t_start = t_start;
    config.step_offset = step_offset;
    std::size_t links = stellar.size();
    auto bridge = std::make_unique<Bridge>(
        std::move(systems), std::move(couplings), std::move(stellar), config);
    // A rebuilt bridge carries the SE mass mappings of the one it replaces.
    for (std::size_t link = 0; bridge_ != nullptr && link < links; ++link) {
      auto [zams_se, zams_dynamical] = bridge_->se_mapping(link);
      bridge->set_se_mapping(std::move(zams_se), std::move(zams_dynamical),
                             link);
    }
    return bridge;
  }

  void step() {
    bool replaying = completed_ + 1 <= attempted_steps_;
    attempted_steps_ = std::max(attempted_steps_, completed_ + 1);
    {
      obs::trace::Span iter = obs::trace::span(
          "iteration:" + std::to_string(completed_ + 1), "experiment");
      bridge_->step();
    }
    if (spec_.checkpointing) checkpoint();
    ++completed_;
    log_iteration(replaying);
  }

  /// Checkpointing itself talks to the workers and can die mid-way: stage
  /// the whole graph into a fresh snapshot, then install it with one move —
  /// the commit is atomic across the graph, so no interleaving of deaths can
  /// leave mixed-epoch checkpoints.
  void checkpoint() {
    obs::trace::Span ckpt = obs::trace::span("checkpoint", "fault");
    double ckpt_start = bed_.simulation().now();
    GraphCheckpoint staged;
    staged.epoch = completed_ + 1;
    staged.time = bridge_->time();
    staged.resize(models_.size());
    // Every model's reads go out before any reply is consumed: the capture
    // waits one round trip, not one per read.
    std::vector<PendingCapture> reads(models_.size());
    for (std::size_t i = 0; i < models_.size(); ++i) {
      faultpoint::reach(faultpoint::Point::ckpt_capture, completed_,
                        spec_.models[i].name);
      if (models_[i].role == Role::gravity) {
        reads[i] = request_checkpoint(models_[i].gravity());
      } else if (models_[i].role == Role::hydro) {
        reads[i] = request_checkpoint(models_[i].hydro());
      }
    }
    // The step's unacked kicks and mass updates ran before these reads on
    // each pipe; their acks land first. Collecting them here costs no extra
    // round trip, and no snapshot commits over a failed one.
    bridge_->settle();
    // Per-model digests let the explorer name the model that diverged, not
    // just the epoch.
    const bool hooked = faultpoint::active();
    std::vector<std::uint64_t> digests(models_.size(), 0);
    for (std::size_t i = 0; i < models_.size(); ++i) {
      switch (models_[i].role) {
        case Role::gravity:
          staged.gravity[i] = finish_checkpoint(models_[i].gravity(), reads[i]);
          if (hooked) digests[i] = digest(staged.gravity[i]);
          break;
        case Role::hydro:
          staged.hydro[i] = finish_checkpoint(models_[i].hydro(), reads[i]);
          if (hooked) digests[i] = digest(staged.hydro[i]);
          break;
        case Role::coupler:
          break;  // evaluates only what each query ships
        case Role::stellar:
          break;  // re-derived from the ZAMS masses on restore
      }
    }
    // Named per-model commit slots: the window where a non-atomic protocol
    // would interleave. Injections here prove there is no state in which
    // some models committed and others did not.
    for (std::size_t i = 0; i < models_.size(); ++i) {
      faultpoint::Context slot;
      slot.point = faultpoint::Point::ckpt_commit;
      slot.iteration = completed_;
      slot.detail = spec_.models[i].name;
      slot.digest = digests[i];
      faultpoint::reach(slot);
    }
    committed_ = std::move(staged);
    if (hooked) {
      faultpoint::Context done;
      done.point = faultpoint::Point::ckpt_committed;
      done.iteration = completed_;
      done.digest = digest(committed_);
      faultpoint::reach(done);
    }
    obs::metrics::counter("fault.checkpoints").increment();
    obs::metrics::histogram("fault.checkpoint_s")
        .observe(bed_.simulation().now() - ckpt_start);
  }

  /// The fault path: exclude what died, re-place the affected models, and
  /// roll every evolving worker back to the last committed graph checkpoint.
  /// Recovery can itself be interrupted by another death (a double fault):
  /// keep recovering until a round goes through cleanly.
  void recover(const WorkerDiedError& death) {
    obs::trace::Span rollback = obs::trace::span("recover", "fault");
    double recover_start = bed_.simulation().now();
    obs::metrics::counter("fault.rollbacks").increment();
    WorkerDiedError current = death;
    for (;;) {
      ++result_.restarts;
      spend_attempt();
      try {
        note_death(current);
        roll_back(current);
        break;
      } catch (const WorkerDiedError& again) {
        current = again;
      }
    }
    completed_ = committed_.epoch;
    obs::metrics::histogram("fault.recover_s")
        .observe(bed_.simulation().now() - recover_start);
    // The aborted step's partial work must not pollute the replay row's
    // figures: restart every cursor at the rollback point.
    cursor_ = read_metrics();
  }

  /// One recovery round. Restored workers resume on the checkpoint's
  /// absolute clock; the rebuilt bridge starts from the same clock bits and
  /// step count and carries the SE mass mappings forward.
  void roll_back(const WorkerDiedError& death) {
    bool any_dead = false;
    for (std::size_t i = 0; i < models_.size(); ++i) {
      if (!model_dead(i)) continue;
      any_dead = true;
      if (try_revive(i)) continue;  // in-place restart: keep the slot
      if (plan_.roles[i].local()) {
        throw CodeError("the client machine lost its own worker ('" +
                        spec_.models[i].name + "'); nothing to re-place onto");
      }
      replace_dead(i);
    }
    if (!any_dead) {
      // Stale report: nothing is actually dead. Escalate as a plain
      // CodeError — rethrowing the WorkerDiedError would bounce between here
      // and the double-fault retry loop forever.
      throw CodeError(std::string("unrecoverable death report (no model "
                                  "affected): ") +
                      death.what());
    }

    // All dynamic models share the bridge clock: they roll back together to
    // the committed checkpoint. Field and stellar workers are brought up
    // again only when they died. Fresh clients start with empty delta
    // caches, a revived one has reset them, and restarted workers mint a
    // fresh state-id instance, so nothing cached before the rollback can be
    // mistaken for current content during the replay.
    for (std::size_t i = 0; i < models_.size(); ++i) {
      if (!is_dynamic(models_[i].role) && !model_dead(i) && !revived_[i]) {
        continue;
      }
      bring_up({i});
    }

    faultpoint::reach(faultpoint::Point::recover_rebuild, committed_.epoch);
    // The rollback target is the clock of the checkpoint we restore from —
    // paired by construction, not re-derived as epoch * dt (the accumulated
    // sum and the product can differ in the last ulp, and bit-exact replay
    // needs the accumulated bits).
    bridge_ = build_bridge(committed_.time, committed_.epoch);
    publish_placement();
  }

  MetricCursor read_metrics() {
    MetricCursor cursor;
    cursor.time = bed_.simulation().now();
    cursor.compute_s.resize(models_.size());
    for (std::size_t i = 0; i < models_.size(); ++i) {
      const std::string& name = spec_.models[i].name;
      cursor.compute_s[i] =
          obs::metrics::counter_value("worker." + name + ".compute_s");
      cursor.compute_total += cursor.compute_s[i];
      cursor.flops += obs::metrics::counter_value("worker." + name + ".flops");
      cursor.substeps +=
          obs::metrics::counter_value("worker." + name + ".substeps");
      cursor.rpc_calls += obs::metrics::counter_value("rpc." + name + ".calls");
    }
    cursor.rpc_retries = obs::metrics::counter_value("rpc.retries");
    cursor.degraded_transfers =
        static_cast<double>(bed_.network().degraded_transfers());
    for (const auto& link : bed_.network().traffic_report()) {
      if (link.wan()) cursor.wan_bytes[link.name] += link.total_bytes();
    }
    return cursor;
  }

  /// The per-iteration report: deltas across the step just done.
  void log_iteration(bool replaying) {
    MetricCursor now = read_metrics();
    diagnostics::IterationReport row;
    row.iteration = completed_;
    row.seconds = now.time - cursor_.time;
    row.wan_bytes = wan_total(now.wan_bytes) - wan_total(cursor_.wan_bytes);
    row.flops = now.flops - cursor_.flops;
    row.compute_seconds = now.compute_total - cursor_.compute_total;
    row.substeps = static_cast<std::uint64_t>(
        now.substeps - cursor_.substeps + 0.5);
    row.rpc_calls = static_cast<std::uint64_t>(
        now.rpc_calls - cursor_.rpc_calls + 0.5);
    row.rpc_retries = static_cast<std::uint64_t>(
        now.rpc_retries - cursor_.rpc_retries + 0.5);
    row.degraded = now.degraded_transfers - cursor_.degraded_transfers > 0.5;
    row.replay = replaying;
    row.restarts = result_.restarts - restarts_mark_;
    if (row.replay) obs::metrics::counter("fault.replayed_steps").increment();
    if (row.degraded) {
      // A bulk transfer this step rode on fewer streams than planned
      // (partial stripe failure): the step completed, degraded.
      obs::metrics::counter("fault.degraded_iterations").increment();
    }
    result_.iteration_log.push_back(row);

    if (!calibrated_ && !row.replay && row.restarts == 0) {
      calibrate(cursor_, now);
      std::ostringstream links;
      links << "per-link WAN volume (iteration 1):";
      for (const auto& [name, bytes] : now.wan_bytes) {
        double delta = bytes - cursor_.wan_bytes[name];
        if (delta <= 0.0) continue;
        links << " " << name << "=" << util::format_bytes(delta);
      }
      log::info("sched") << links.str();
    }
    restarts_mark_ = result_.restarts;
    cursor_ = std::move(now);
  }

  /// The calibration loop: the first cleanly measured iteration closes the
  /// scheduler's modeled-vs-measured gap. Per-role measured compute
  /// (worker.<name>.compute_s deltas) calibrates the flop charges; the
  /// running placement is re-scored with the calibrated model.
  void calibrate(const MetricCursor& before, const MetricCursor& after) {
    calibrated_ = true;
    sched::Calibration calibration;
    double pre_drift = 0.0;
    std::ostringstream table;
    table << "calibrated cost table (iteration 1):";
    for (std::size_t i = 0; i < models_.size(); ++i) {
      double measured = after.compute_s[i] - before.compute_s[i];
      double modeled = plan_.roles[i].compute_seconds;
      if (measured <= 0.0 || modeled <= 0.0) continue;
      double ratio = measured / modeled;
      calibration.set_scale(spec_.models[i].name, ratio);
      pre_drift = std::max(pre_drift, std::max(ratio, 1.0 / ratio));
      obs::metrics::gauge("sched.drift." + spec_.models[i].name).set(ratio);
      table << " " << spec_.models[i].name << ": measured=" << measured
            << " s modeled=" << modeled << " s scale="
            << calibration.scale_for(spec_.models[i].name) << ";";
    }
    result_.precalibration_drift = pre_drift;
    obs::metrics::gauge("sched.precalibration_drift").set(pre_drift);
    scheduler_.set_calibration(calibration);

    // Re-score a copy: modeled_seconds_per_iteration stays the original
    // (uncalibrated) prediction, the calibrated figure rides alongside.
    sched::Placement scored = plan_;
    scheduler_.score(load_, scored);
    result_.calibrated_seconds_per_iteration =
        scored.modeled_seconds_per_iteration;
    double post_drift = 0.0;
    for (std::size_t i = 0; i < models_.size(); ++i) {
      double measured = after.compute_s[i] - before.compute_s[i];
      double modeled = scored.roles[i].compute_seconds;
      if (measured <= 0.0 || modeled <= 0.0) continue;
      double ratio = measured / modeled;
      post_drift = std::max(post_drift, std::max(ratio, 1.0 / ratio));
    }
    result_.compute_drift = post_drift;
    obs::metrics::gauge("sched.compute_drift").set(post_drift);
    log::info("sched") << table.str() << " drift " << pre_drift << "x -> "
                       << post_drift << "x, calibrated modeled="
                       << result_.calibrated_seconds_per_iteration
                       << " s/iter";
  }

  /// Final observables. The pipelined path only moved mass+position during
  /// coupling; pull the full states (velocities, internal energy) once for
  /// the diagnostics, plus each model's energies.
  void finish() {
    result_.models.clear();  // a death mid-read re-reads every model
    std::vector<double> star_mass;
    std::vector<Vec3> star_pos;
    std::vector<double> gas_mass, gas_u;
    std::vector<Vec3> gas_pos, gas_vel;
    auto append = [](auto& to, const auto& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    for (std::size_t i = 0; i < models_.size(); ++i) {
      const ModelSpec& model = spec_.models[i];
      if (!is_dynamic(model.role)) continue;
      ModelResult state;
      state.name = model.name;
      state.role = model.role;
      if (model.role == Role::gravity) {
        state.gravity = models_[i].gravity().get_state();
        auto [kinetic, potential] = models_[i].gravity().energies();
        state.kinetic = kinetic;
        state.potential = potential;
        append(star_mass, state.gravity.mass);
        append(star_pos, state.gravity.position);
      } else {
        state.hydro = models_[i].hydro().get_state();
        auto [kinetic, thermal, potential] = models_[i].hydro().energies();
        state.kinetic = kinetic;
        state.thermal = thermal;
        state.potential = potential;
        append(gas_mass, state.hydro.mass);
        append(gas_pos, state.hydro.position);
        append(gas_vel, state.hydro.velocity);
        append(gas_u, state.hydro.internal_energy);
      }
      result_.models.push_back(std::move(state));
    }
    if (!gas_mass.empty()) {
      result_.bound_gas_fraction = diagnostics::bound_gas_fraction(
          gas_mass, gas_pos, gas_vel, gas_u, star_mass, star_pos);
    }

    // Closing a client, dead or alive, also closes its daemon relay; the
    // bridge and the clients are released here, inside the script process,
    // so nothing they own outlives the run.
    for (ModelRuntime& model : models_) model.client->close();
    bridge_.reset();
    models_.clear();
  }

  JungleTestbed& bed_;
  const ExperimentSpec& spec_;
  sim::Host& client_;
  sched::Scheduler scheduler_;
  sched::Workload load_;
  sched::Placement plan_;
  Result result_;
  DaemonClient daemon_;
  std::vector<ModelRuntime> models_;
  /// The last committed graph-wide checkpoint: one object, installed by a
  /// single move after every model captured — all models commit or none.
  /// Epoch 0 holds the initial conditions.
  GraphCheckpoint committed_;
  std::unique_ptr<Bridge> bridge_;
  /// Slots whose worker the daemon's supervisor restarted in place; such a
  /// slot keeps its client and relay instead of starting a new worker.
  std::vector<bool> revived_;
  /// Replacement/retry budget across the whole run — generous enough for
  /// cascaded faults, small enough to turn a re-place livelock (a hole,
  /// if one existed) into a hard error rather than an endless loop.
  int replace_attempts_ = 0;
  int completed_ = 0;
  /// Replay detection: a step whose index was already attempted re-runs
  /// work a rollback threw away (with per-step checkpoints the rollback
  /// target is always the last *completed* step, so the replayed step is
  /// the attempted-and-killed one).
  int attempted_steps_ = 0;
  int restarts_mark_ = 0;
  bool calibrated_ = false;
  MetricCursor cursor_;
};

}  // namespace

Result run_experiment(JungleTestbed& bed, const ExperimentSpec& spec) {
  spec.validate();
  bed.daemon(client_of(bed, spec));  // paper step 3: "start the Ibis-Daemon"
  GraphRun run(bed, spec);
  bed.simulation().spawn("amuse-script", [&] { run.script(); });
  bed.simulation().run();
  return run.report();
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
