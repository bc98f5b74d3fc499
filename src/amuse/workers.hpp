#pragma once

#include <memory>
#include <string>
#include <vector>

#include "amuse/rpc.hpp"
#include "sim/host.hpp"
#include "sim/network.hpp"

namespace jungle::amuse {

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

/// Build the kernel named by `spec` and serve RPC on `pipe` until stopped.
/// `hosts` are the allocated nodes (first one runs the server; a parallel
/// gadget spreads ranks over all of them). Blocks; run inside the worker's
/// own process.
void run_worker(std::unique_ptr<MessagePipe> pipe, const WorkerSpec& spec,
                std::vector<sim::Host*> hosts, sim::Network& net);

}  // namespace jungle::amuse
