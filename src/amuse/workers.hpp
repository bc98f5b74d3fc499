#pragma once

#include <memory>
#include <string>
#include <vector>

#include "amuse/rpc.hpp"
#include "kernels/hermite.hpp"
#include "kernels/sph.hpp"
#include "kernels/sse.hpp"
#include "kernels/treefield.hpp"
#include "mpi/mpi.hpp"
#include "sim/host.hpp"
#include "sim/network.hpp"

namespace jungle::amuse {

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

/// The model kernels of the embedded-cluster simulation (paper §6), by
/// their community-code names. The "-gpu" variants run the same numerics
/// with the cost charged to the host's GPU — the paper's core Multi-Kernel
/// point: "Which kernel is used has no influence in the result ... but may
/// have a dramatic effect on performance."
struct WorkerSpec {
  std::string code;    // phigrape | phigrape-gpu | octgrav | fi | gadget | sse
  int nranks = 1;      // gadget: MPI ranks
  int ncores = 1;      // CPU cores charged per rank
  double eps2 = 1e-4;
  double eta = 0.02;   // phigrape accuracy
  double theta = 0.6;  // tree opening angle
  /// Metrics series name for this worker's meters (empty = use `code`).
  /// The experiment runner sets the model name so two workers running the
  /// same code keep separate series.
  std::string meter = {};

  bool needs_gpu() const {
    return code == "phigrape-gpu" || code == "octgrav";
  }
};

/// phiGRAPE worker: direct N-body over the RPC protocol.
Dispatcher make_gravity_dispatcher(
    std::shared_ptr<kernels::HermiteIntegrator> integrator, WorkerCost cost);

/// Octgrav/Fi worker: tree gravity field evaluations.
Dispatcher make_field_dispatcher(std::shared_ptr<kernels::TreeField> field,
                                 WorkerCost cost);

/// SSE worker: parameterized stellar evolution (compute cost ~ trivial).
Dispatcher make_se_dispatcher(
    std::shared_ptr<kernels::StellarEvolution> stellar, WorkerCost cost);

/// Serial Gadget worker.
Dispatcher make_hydro_dispatcher(std::shared_ptr<kernels::SphSystem> sph,
                                 WorkerCost cost);

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

Dispatcher make_parallel_hydro_dispatcher(std::shared_ptr<ParallelSph> sph,
                                          WorkerCost cost);

/// Build the kernel named by `spec` and serve RPC on `pipe` until stopped.
/// `hosts` are the allocated nodes (first one runs the server; a parallel
/// gadget spreads ranks over all of them). Blocks; run inside the worker's
/// own process.
void run_worker(std::unique_ptr<MessagePipe> pipe, const WorkerSpec& spec,
                std::vector<sim::Host*> hosts, sim::Network& net);

}  // namespace jungle::amuse
