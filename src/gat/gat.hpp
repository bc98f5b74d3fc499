#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/mailbox.hpp"
#include "sim/network.hpp"
#include "smartsockets/smartsockets.hpp"

namespace jungle::gat {

class Job;
class Broker;
struct Resource;

/// The nodes a job was given, plus where it runs. The job body is an in-sim
/// "executable": a callable that receives its allocation (an MPI worker
/// builds an MpiWorld over `hosts`).
struct JobContext {
  std::vector<sim::Host*> hosts;
  Resource* resource = nullptr;
  Job* job = nullptr;
};

/// What to run and what it needs (JavaGAT JobDescription analog).
struct JobDescription {
  std::string name;
  int node_count = 1;
  bool needs_gpu = false;
  /// Input files copied from the client to the resource before the job
  /// starts (paper §4.3: "input and output files should automatically be
  /// copied to where they are needed").
  double stage_in_bytes = 0.0;
  std::function<void(JobContext&)> main;
};

/// JavaGAT job state machine (subset).
enum class JobState { initial, preStaging, scheduled, running, stopped, error };
const char* job_state_name(JobState state) noexcept;

/// Handle to a submitted job. State transitions fire listener callbacks
/// (JavaGAT metrics) and wake blocking waiters.
class Job {
 public:
  explicit Job(sim::Simulation& sim)
      : sim_(sim), state_changed_(sim) {}

  JobState state() const noexcept { return state_; }
  const std::string& error_message() const noexcept { return error_; }
  const std::string& adapter() const noexcept { return adapter_; }
  const std::vector<sim::Host*>& hosts() const noexcept { return hosts_; }

  void on_state(std::function<void(JobState)> listener) {
    listeners_.push_back(std::move(listener));
  }

  /// Block until the job reaches stopped or error.
  JobState wait_until_terminal();
  /// Block until the job starts running (or fails first).
  JobState wait_until_running();

  /// Ask the middleware to kill the job.
  void cancel();

  // -- adapter-side API --
  void set_state(JobState state, const std::string& error = "");
  void set_adapter(std::string name) { adapter_ = std::move(name); }
  void set_allocation(std::vector<sim::Host*> hosts, sim::ProcessId main_pid);
  void set_release(std::function<void()> release) {
    release_ = std::move(release);
  }

 private:
  sim::Simulation& sim_;
  JobState state_ = JobState::initial;
  std::string error_;
  std::string adapter_;
  std::vector<sim::Host*> hosts_;
  sim::ProcessId main_pid_ = 0;
  bool has_main_ = false;
  std::function<void()> release_;
  std::vector<std::function<void(JobState)>> listeners_;
  sim::Signal state_changed_;
};

/// Shared queue of a cluster: jobs wait FIFO for free nodes, mirroring PBS
/// and SGE behaviour closely enough for deployment experiments.
class ClusterQueue {
 public:
  /// Longest a job waits in the queue for its nodes, in virtual seconds. A
  /// node held by a job that will never end (a dead worker's still running
  /// job, or a GPU node that is the only one left) must surface as a job
  /// error the script can re-place, not as a start-up that never returns.
  static constexpr double kMaxQueueWait = 60.0;

  explicit ClusterQueue(sim::Simulation& sim) : sim_(sim), node_freed_(sim) {}

  /// Also hooks each node's crash notification: a crashed node leaves the
  /// busy set (its job died with it) and waiters re-check feasibility.
  void set_nodes(std::vector<sim::Host*> nodes);

  /// Export queue depth as gauges gat.queue.<name>.{busy,total} (kept
  /// current on every acquire/release/crash).
  void set_meter(std::string name) { meter_ = std::move(name); }

  /// Block until `count` nodes (optionally GPU nodes) are free, then take
  /// them. Throws GatError if the request can never be satisfied — nodes
  /// that are down don't count, including ones that crash while we queue —
  /// or when no such nodes came free within kMaxQueueWait.
  std::vector<sim::Host*> acquire(int count, bool needs_gpu);
  void release(const std::vector<sim::Host*>& taken);

  int total_nodes() const noexcept { return static_cast<int>(nodes_.size()); }
  int busy_nodes() const noexcept { return static_cast<int>(busy_.size()); }

 private:
  std::vector<sim::Host*> free_matching(int count, bool needs_gpu) const;
  void update_gauges() const;

  std::vector<sim::Host*> nodes_;
  std::vector<sim::Host*> busy_;
  sim::Simulation& sim_;
  sim::Signal node_freed_;
  std::string meter_;
};

/// A compute resource as described in the deployment configuration file
/// (paper §5: "hostname and type of middleware for each resource").
struct Resource {
  std::string name;
  std::string middleware;  // local | ssh | sge | pbs | globus | zorilla
  sim::Host* frontend = nullptr;
  std::vector<sim::Host*> nodes;  // compute nodes; empty => frontend only
  double queue_base_delay = 0.0;  // scheduler decision latency, seconds
  std::string gatekeeper_cert;    // globus: credential the client must hold
  std::shared_ptr<ClusterQueue> queue;  // created by make_cluster helpers

  /// Nodes if present, else the frontend.
  std::vector<sim::Host*> compute_hosts() const {
    return nodes.empty() ? std::vector<sim::Host*>{frontend} : nodes;
  }
};

/// Middleware adapter interface. JavaGAT's key property — "automatically
/// select the appropriate adapter" — is the Broker's job: it walks its
/// adapter list and uses the first one that both supports the resource and
/// succeeds at submission.
class Adapter {
 public:
  virtual ~Adapter() = default;
  virtual std::string name() const = 0;
  virtual bool supports(const Resource& resource) const = 0;
  /// Throws GatError on failure (broker then tries the next adapter).
  virtual void submit(std::shared_ptr<Job> job, const JobDescription& desc,
                      Resource& resource) = 0;

  /// Set by Broker::register_adapter; adapters never outlive their broker.
  void attach(Broker& broker) noexcept { broker_ = &broker; }

 protected:
  Broker& broker() const {
    if (broker_ == nullptr) throw GatError("adapter used before registration");
    return *broker_;
  }

 private:
  Broker* broker_ = nullptr;
};

/// Client context: the machine submissions originate from, credentials, and
/// the hub overlay (ssh-like adapters need the client to reach frontends).
class Broker {
 public:
  Broker(sim::Network& net, smartsockets::SmartSockets& sockets,
         sim::Host& client);
  // Registered adapters point back at this broker; pin the address.
  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  /// Adds the standard adapter set (local, ssh, sge, pbs, globus).
  void register_default_adapters();
  void register_adapter(std::unique_ptr<Adapter> adapter);

  std::shared_ptr<Job> submit(const JobDescription& desc, Resource& resource);

  void add_credential(const std::string& cert) {
    credentials_.push_back(cert);
  }
  bool has_credential(const std::string& cert) const;

  sim::Network& network() noexcept { return net_; }
  smartsockets::SmartSockets& sockets() noexcept { return sockets_; }
  sim::Host& client() noexcept { return client_; }

 private:
  sim::Network& net_;
  smartsockets::SmartSockets& sockets_;
  sim::Host& client_;
  std::vector<std::unique_ptr<Adapter>> adapters_;
  std::vector<std::string> credentials_;
};

/// File staging service (JavaGAT file interface): blocking copy that charges
/// the network with TrafficClass::file.
class FileService {
 public:
  explicit FileService(sim::Network& net) : net_(net) {}

  /// Blocking transfer; returns the virtual seconds it took.
  double copy(sim::Host& from, sim::Host& to, double bytes);

 private:
  sim::Network& net_;
};

}  // namespace jungle::gat
