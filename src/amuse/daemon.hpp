#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "amuse/rpc.hpp"
#include "amuse/workers.hpp"
#include "deploy/deploy.hpp"
#include "ipl/ipl.hpp"

namespace jungle::amuse {

/// The AMUSE worker channels (paper §4.1/§5): the default MPI channel and
/// the socket channel run the worker locally; the Ibis channel goes through
/// the daemon to any resource in the Jungle.
enum class ChannelKind { mpi, socket };

/// Start a worker on `host` and return the RPC client for it, using the
/// local MPI or socket channel. `home` is the script's machine (the client
/// side of the pipe; usually the same host).
std::unique_ptr<RpcClient> start_local_worker(
    smartsockets::SmartSockets& sockets, sim::Network& net, sim::Host& home,
    sim::Host& host, const WorkerSpec& spec, ChannelKind kind);

/// The Ibis daemon (Fig 5): a process on the user's machine that the
/// coupling script talks to over a local loopback socket. For every worker
/// request it deploys a job in the Jungle through IbisDeploy/JavaGAT,
/// waits for the worker's proxy to join the IPL pool, and then relays
/// request/reply frames between script and proxy over IPL.
///
/// Since PR 8 the daemon is *supervised*: its accept loop is watched and
/// restarted in place (capped exponential backoff) when the process dies
/// while the host is healthy, and every worker proxy gets a per-generation
/// supervisor that redeploys a crashed proxy/worker pair on the same
/// resource before falling back to the PR 2 re-placement path. A
/// successful in-place restart reaches the script as a death notice with
/// cause=process_crash on the *still-open* connection — the signal to
/// revive the RPC client and restore state rather than exclude the host.
class IbisDaemon {
 public:
  static constexpr const char* kService = "amuse-daemon";

  /// Starts the registry server, the daemon's Ibis instance and the
  /// loopback accept loop, and bootstraps the hub overlay.
  IbisDaemon(deploy::Deployer& deployer, sim::Network& net,
             smartsockets::SmartSockets& sockets, sim::Host& local);
  ~IbisDaemon();
  IbisDaemon(const IbisDaemon&) = delete;
  IbisDaemon& operator=(const IbisDaemon&) = delete;

  sim::Host& host() noexcept { return local_; }

 private:
  /// Everything one script<->worker relay needs across proxy generations.
  /// Shared between the serve_client relay loop, the per-generation death
  /// watchers and the supervisor process; `generation` disambiguates events
  /// from proxies that were already replaced.
  struct WorkerChannel {
    std::uint32_t id = 0;
    WorkerSpec spec;
    std::string resource;
    int nodes = 1;
    std::string reply_port;
    std::shared_ptr<smartsockets::ConnectionEnd> connection;
    std::shared_ptr<gat::Job> job;
    std::unique_ptr<ipl::SendPort> request_sender;
    std::string node_name;
    /// True from the moment the proxy is known dead until a supervised
    /// restart brings a successor up; the relay drops frames meanwhile.
    bool worker_dead = false;
    /// Set when the script's connection winds down: the reply port dies
    /// with the relay, so any in-flight supervision must stand down
    /// instead of redeploying a worker nobody will ever talk to.
    bool closed = false;
    int generation = 0;
    int restarts = 0;
  };

  void accept_loop();
  void supervise_accept_loop();
  void serve_client(std::shared_ptr<smartsockets::ConnectionEnd> connection);

  /// Deploy proxy generation `generation` for this channel: submit the job,
  /// wait for the proxy to join the pool, connect the request path and arm
  /// the death watcher. Returns "" on success, the failure reason otherwise.
  std::string deploy_proxy(const std::shared_ptr<WorkerChannel>& channel,
                           int generation);
  /// Arm a died-event watcher for one proxy generation.
  void watch_proxy(const std::shared_ptr<WorkerChannel>& channel,
                   const std::string& proxy_name, int generation);
  /// Supervisor body (own process): backoff, redeploy in place, and notify
  /// the script — process_crash on success, host_crash (PR 2 fallback,
  /// connection closed) when the node is gone or the budget is spent.
  void supervise_proxy(std::shared_ptr<WorkerChannel> channel);
  /// Death notice on request id 0; closes the connection when `close_after`
  /// (the non-recoverable tier).
  void send_death_notice(WorkerChannel& channel, WorkerDiedError::Cause cause,
                         const std::string& detail, bool close_after);

  deploy::Deployer& deployer_;
  sim::Network& net_;
  smartsockets::SmartSockets& sockets_;
  sim::Host& local_;
  std::unique_ptr<ipl::RegistryServer> registry_;
  std::unique_ptr<ipl::Ibis> ibis_;
  smartsockets::ServerSocket* listener_ = nullptr;
  std::uint32_t next_worker_id_ = 1;
  std::vector<sim::ProcessId> pids_;
  sim::ProcessId accept_pid_ = 0;
  int accept_restarts_ = 0;
  bool stopping_ = false;
};

/// Script-side access to the daemon. A worker start has two halves:
/// request() reaches the spawn.worker fault point, connects to the daemon and
/// sends START, and returns as soon as the request is handed over, like
/// JavaGAT's submit; finish() waits for READY or FAIL and returns the RPC
/// client whose frames flow through the daemon. A script that starts several
/// workers requests them all before it finishes any, so their jobs stage in,
/// queue and boot at their sites at the same time and deployment waits for
/// the slowest site instead of for the sum of all of them.
class DaemonClient {
 public:
  /// A START the daemon has been sent and whose reply is not read yet.
  /// Destroying one that was never finished closes its connection: the
  /// daemon then stops the worker as soon as it is up, so an abandoned
  /// start leaves no job behind.
  class PendingStart {
   public:
    PendingStart(PendingStart&&) noexcept = default;
    PendingStart& operator=(PendingStart&&) = delete;
    ~PendingStart();

   private:
    friend class DaemonClient;
    PendingStart(const WorkerSpec& spec, std::string resource, int nodes)
        : spec_(spec), resource_(std::move(resource)), nodes_(nodes) {}

    WorkerSpec spec_;
    std::string resource_;
    int nodes_ = 1;
    std::shared_ptr<smartsockets::ConnectionEnd> connection_;
  };

  DaemonClient(smartsockets::SmartSockets& sockets, sim::Host& local)
      : sockets_(sockets), local_(local) {}

  PendingStart request(const WorkerSpec& spec, const std::string& resource,
                       int nodes = 1);

  /// Throws CodeError when the daemon reports a startup failure (e.g. the
  /// resource has no GPU or the middleware is unreachable). Startup
  /// failures are retried a few times with backoff first — deployment
  /// crosses queues and WANs, where transient refusals are normal — by
  /// sending START again on a fresh connection.
  std::unique_ptr<RpcClient> finish(PendingStart&& pending);

  /// One worker on its own: finish(request(...)).
  std::unique_ptr<RpcClient> start_worker(const WorkerSpec& spec,
                                          const std::string& resource,
                                          int nodes = 1) {
    return finish(request(spec, resource, nodes));
  }

 private:
  void send_start(PendingStart& pending);

  smartsockets::SmartSockets& sockets_;
  sim::Host& local_;
};

/// Wire opcodes on the script<->daemon loopback connection.
namespace daemon_wire {
enum class Op : std::uint8_t { start = 1, ready = 2, fail = 3, frame = 4 };
}

}  // namespace jungle::amuse
