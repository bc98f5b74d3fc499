#pragma once

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "amuse/workers.hpp"
#include "gat/gat.hpp"
#include "sched/model.hpp"
#include "sim/network.hpp"

namespace jungle::sched {

/// One kernel -> machine decision: which resource runs it (empty string =
/// the client machine itself, over a local channel), which worker variant
/// (GPU kernels where the host has a GPU), and the modeled per-iteration
/// cost split the dashboard reports.
struct Assignment {
  std::string resource;         // "" == local on the client host
  const sim::Host* host = nullptr;  // representative compute node
  amuse::WorkerSpec spec;
  int nodes = 1;
  double compute_seconds = 0.0;  // modeled, per iteration
  double comm_seconds = 0.0;     // modeled, per iteration
  double queue_seconds = 0.0;    // amortized startup share, per iteration

  bool local() const noexcept { return resource.empty(); }
  std::string where() const {
    return local() ? "local" : resource + (host ? "/" + host->name() : "");
  }
};

/// A full model->host mapping for an experiment graph plus its modeled
/// per-iteration cost — one Assignment per model of the Workload, in the
/// same slot order, with the model names and role kinds riding along for
/// display and lookup by name.
struct Placement {
  std::vector<Assignment> roles;
  std::vector<Role> kinds;
  std::vector<std::string> names;
  double modeled_seconds_per_iteration = 0.0;

  /// One empty slot per model of the workload's graph.
  explicit Placement(const Workload& load);

  std::size_t size() const noexcept { return roles.size(); }

  /// One entry per model: "stars=phigrape-gpu@lgm/lgm-node, ..." — shown on
  /// the dashboard next to the measured cost.
  std::string describe() const;
};

/// The worker spec of each kernel variant, for the scheduler's candidates
/// and the runner's pinned models alike: the CPU variants (phigrape, fi)
/// charge 2 cores, the GPU variants (phigrape-gpu, octgrav) 1.
amuse::WorkerSpec gravity_spec(bool gpu);
amuse::WorkerSpec coupler_spec(bool gpu);
/// Gadget on `nranks` ranks charging `ncores` cores each.
amuse::WorkerSpec hydro_spec(int nranks, int ncores);

/// Adaptive placement scheduler: scores candidate kernel->host assignments
/// against the jungle's discovered resources and network topology, and
/// emits the cheapest feasible Placement for an arbitrary experiment graph
/// (any number of models, not just the classic quadruple). Also the fault
/// path's brain: when a worker dies, exclude what failed and re-place the
/// affected model on the best surviving machine.
///
/// Invariants (tested):
///  - plan() is an exhaustive argmin over the candidate space (graphs too
///    large to enumerate fall back to deterministic coordinate descent),
///    so for classic-sized graphs its modeled cost is <= the modeled cost
///    of any hand-coded placement built from the same resources (in
///    particular the paper's Fig-12 map).
///  - Modeled cost is monotone in link latency and in queue delay.
///  - Excluded hosts/resources never appear in a plan or replacement.
class Scheduler {
 public:
  Scheduler(const sim::Network& net, const sim::Host& client,
            const std::vector<gat::Resource>& resources);

  /// A machine died: its resource keeps its surviving nodes. Returns false
  /// when the host was already excluded.
  bool exclude_host(const std::string& host_name);
  /// A resource became unreachable (link fault): drop it wholesale.
  void exclude_resource(const std::string& resource_name);

  /// Cheapest feasible placement for the workload's graph, honoring
  /// per-slot pins (a pinned slot's assignment is fixed; empty optionals
  /// and an empty `pins` are planned). `pins` indexes `load.models`.
  /// Throws CodeError when a model cannot be placed anywhere.
  Placement plan(const Workload& load,
                 const std::vector<std::optional<Assignment>>& pins = {}) const;

  /// Re-place one slot after a failure, keeping every other slot pinned.
  /// Accounts for the nodes the surviving models still occupy.
  Assignment replace(const Workload& load, const Placement& current,
                     int slot) const;

  /// Score an externally built placement (e.g. a hard-coded scenario
  /// table): fills the per-slot cost fields and the total, and returns the
  /// total. The placement's slots must match the workload's graph.
  double score(const Workload& load, Placement& placement) const;

  /// Install a measured-vs-modeled compute correction: subsequent plan()/
  /// score()/replace() calls multiply each model's modeled compute seconds
  /// by its calibration scale. The experiment runner feeds this from the
  /// first traced iteration's per-role meters.
  void set_calibration(Calibration calibration) {
    calibration_ = std::move(calibration);
  }
  const Calibration& calibration() const noexcept { return calibration_; }

  /// Name of the resource whose frontend/nodes include `host_name`
  /// ("" when it is the client or unknown).
  std::string resource_of(const std::string& host_name) const;

 private:
  std::vector<Assignment> candidates(const ModelLoad& model) const;
  bool usable(const sim::Host& host) const;
  /// Nodes of `resource` still usable (up, not excluded).
  std::vector<const sim::Host*> live_nodes(const gat::Resource& resource) const;
  bool fits(const Placement& placement) const;
  double score_graph(const Workload& load, Placement& placement) const;

  const sim::Network& net_;
  const sim::Host& client_;
  const std::vector<gat::Resource>& resources_;
  std::set<std::string> dead_hosts_;
  std::set<std::string> dead_resources_;
  Calibration calibration_;
};

}  // namespace jungle::sched
