#include "gat/gat.hpp"

#include <algorithm>

#include "gat/adapters.hpp"
#include "obs/metrics.hpp"
#include "util/logging.hpp"

namespace jungle::gat {

const char* job_state_name(JobState state) noexcept {
  switch (state) {
    case JobState::initial: return "INITIAL";
    case JobState::preStaging: return "PRE_STAGING";
    case JobState::scheduled: return "SCHEDULED";
    case JobState::running: return "RUNNING";
    case JobState::stopped: return "STOPPED";
    case JobState::error: return "ERROR";
  }
  return "?";
}

JobState Job::wait_until_terminal() {
  while (state_ != JobState::stopped && state_ != JobState::error) {
    state_changed_.wait();
  }
  return state_;
}

JobState Job::wait_until_running() {
  while (state_ != JobState::running && state_ != JobState::stopped &&
         state_ != JobState::error) {
    state_changed_.wait();
  }
  return state_;
}

void Job::cancel() {
  if (state_ == JobState::stopped || state_ == JobState::error) return;
  if (has_main_) sim_.kill(main_pid_);
  if (release_) {
    release_();
    release_ = nullptr;
  }
  set_state(JobState::stopped, "cancelled");
}

void Job::set_state(JobState state, const std::string& error) {
  if (state_ == JobState::stopped || state_ == JobState::error) return;
  state_ = state;
  if (!error.empty()) error_ = error;
  for (auto& listener : listeners_) listener(state);
  state_changed_.notify_all();
}

void Job::set_allocation(std::vector<sim::Host*> hosts,
                         sim::ProcessId main_pid) {
  hosts_ = std::move(hosts);
  main_pid_ = main_pid;
  has_main_ = true;
}

std::vector<sim::Host*> ClusterQueue::free_matching(int count,
                                                    bool needs_gpu) const {
  // CPU jobs take GPU nodes last: handing the only GPU node to a CPU job
  // would starve a queued GPU job for the whole run (real schedulers
  // reserve accelerator nodes the same way).
  std::vector<sim::Host*> matching;
  auto scan = [&](bool gpu_nodes) {
    for (sim::Host* node : nodes_) {
      if (static_cast<int>(matching.size()) == count) return;
      if (!node->is_up()) continue;
      if (static_cast<bool>(node->gpu()) != gpu_nodes) continue;
      if (needs_gpu && !node->gpu()) continue;
      if (std::find(busy_.begin(), busy_.end(), node) != busy_.end()) continue;
      matching.push_back(node);
    }
  };
  if (!needs_gpu) scan(false);
  scan(true);
  return matching;
}

void ClusterQueue::set_nodes(std::vector<sim::Host*> nodes) {
  nodes_ = std::move(nodes);
  // A crashing node frees its queue slot (its job is dead anyway) and wakes
  // waiters, whose capability re-check below turns "waiting for a node that
  // will never come back" into a queue error instead of a silent hang.
  for (sim::Host* node : nodes_) {
    node->on_crash([this, node] {
      busy_.erase(std::remove(busy_.begin(), busy_.end(), node), busy_.end());
      update_gauges();
      node_freed_.notify_all();
    });
  }
  update_gauges();
}

void ClusterQueue::update_gauges() const {
  if (meter_.empty()) return;
  obs::metrics::gauge("gat.queue." + meter_ + ".busy")
      .set(static_cast<double>(busy_nodes()));
  obs::metrics::gauge("gat.queue." + meter_ + ".total")
      .set(static_cast<double>(total_nodes()));
}

std::vector<sim::Host*> ClusterQueue::acquire(int count, bool needs_gpu) {
  const double deadline = sim_.now() + kMaxQueueWait;
  while (true) {
    // Fail fast when the cluster can never satisfy the request — counting
    // only nodes that are still up, and re-counting after every wait (the
    // last GPU node may have crashed while we were queued).
    int capable = 0;
    for (sim::Host* node : nodes_) {
      if (node->is_up() && (!needs_gpu || node->gpu())) ++capable;
    }
    if (capable < count) {
      throw GatError("cluster cannot satisfy request for " +
                     std::to_string(count) +
                     (needs_gpu ? " GPU nodes" : " nodes"));
    }
    auto taken = free_matching(count, needs_gpu);
    if (static_cast<int>(taken.size()) == count) {
      busy_.insert(busy_.end(), taken.begin(), taken.end());
      update_gauges();
      return taken;
    }
    double left = deadline - sim_.now();
    if (left <= 0.0 || !node_freed_.wait_for(left)) {
      throw GatError("no " + std::string(needs_gpu ? "GPU " : "") +
                     "node came free within " +
                     std::to_string(kMaxQueueWait) + " s");
    }
  }
}

void ClusterQueue::release(const std::vector<sim::Host*>& taken) {
  for (sim::Host* node : taken) {
    busy_.erase(std::remove(busy_.begin(), busy_.end(), node), busy_.end());
  }
  update_gauges();
  node_freed_.notify_all();
}

Broker::Broker(sim::Network& net, smartsockets::SmartSockets& sockets,
               sim::Host& client)
    : net_(net), sockets_(sockets), client_(client) {}

void Broker::register_default_adapters() {
  register_adapter(std::make_unique<LocalAdapter>());
  register_adapter(std::make_unique<SshAdapter>());
  register_adapter(std::make_unique<BatchQueueAdapter>("sge", 2.0));
  register_adapter(std::make_unique<BatchQueueAdapter>("pbs", 4.0));
  register_adapter(std::make_unique<GlobusAdapter>());
}

void Broker::register_adapter(std::unique_ptr<Adapter> adapter) {
  adapter->attach(*this);
  adapters_.push_back(std::move(adapter));
}

bool Broker::has_credential(const std::string& cert) const {
  return std::find(credentials_.begin(), credentials_.end(), cert) !=
         credentials_.end();
}

std::shared_ptr<Job> Broker::submit(const JobDescription& desc,
                                    Resource& resource) {
  std::string failures;
  for (auto& adapter : adapters_) {
    if (!adapter->supports(resource)) continue;
    auto job = std::make_shared<Job>(net_.simulation());
    job->set_adapter(adapter->name());
    try {
      adapter->submit(job, desc, resource);
      log::info("gat") << "job " << desc.name << " submitted to "
                       << resource.name << " via " << adapter->name();
      return job;
    } catch (const GatError& failure) {
      failures += std::string(" [") + adapter->name() + ": " +
                  failure.what() + "]";
    }
  }
  throw GatError("no adapter could submit " + desc.name + " to " +
                 resource.name + (failures.empty() ? " (none support it)"
                                                   : failures));
}

double FileService::copy(sim::Host& from, sim::Host& to, double bytes) {
  sim::Simulation& sim = net_.simulation();
  double start = sim.now();
  // The delivery callback can outlive this frame: a copier killed
  // mid-transfer unwinds while its bytes are still on the wire. It shares
  // ownership of what it writes.
  struct Delivery {
    explicit Delivery(sim::Simulation& sim) : done(sim) {}
    sim::Signal done;
    bool delivered = false;
  };
  auto delivery = std::make_shared<Delivery>(sim);
  // Ride out transient outages, but give up on a route that stays dark —
  // an unreachable stage-in must surface as a job error, not a hang.
  constexpr int kMaxRetries = 20;
  constexpr double kRetryDelay = 0.5;
  int retries = 0;
  while (!delivery->delivered) {
    auto arrival =
        net_.send(from, to, bytes, sim::TrafficClass::file, [delivery] {
          delivery->delivered = true;
          delivery->done.notify_all();
        });
    if (!arrival) {
      if (++retries > kMaxRetries) {
        throw GatError("file staging " + from.name() + " -> " + to.name() +
                       " failed: route down for " +
                       std::to_string(kMaxRetries * kRetryDelay) + " s");
      }
      sim.sleep(kRetryDelay);  // link down: retry the copy
      continue;
    }
    while (!delivery->delivered) delivery->done.wait();
  }
  return sim.now() - start;
}

}  // namespace jungle::gat
