#include "amuse/daemon.hpp"

#include <algorithm>

#include "amuse/faultpoint.hpp"
#include "util/logging.hpp"

namespace jungle::amuse {

namespace {

/// Supervision policy: a dead daemon/proxy process is restarted in place up
/// to kSupervisorBudget times per supervised thing, with exponential backoff
/// starting at kSupervisorBackoff and capped at kSupervisorBackoffCap. Past
/// the budget the failure escalates to the PR 2 fault path (death notice +
/// closed connection, host excluded by the experiment's scheduler).
constexpr int kSupervisorBudget = 3;
constexpr double kSupervisorBackoff = 0.5;    // virtual seconds
constexpr double kSupervisorBackoffCap = 4.0;

double supervisor_delay(int restart_index) noexcept {
  double delay = kSupervisorBackoff;
  for (int i = 0; i < restart_index; ++i) delay *= 2.0;
  return std::min(delay, kSupervisorBackoffCap);
}

/// Serialize a WorkerSpec onto the daemon wire.
void put_spec(util::ByteWriter& writer, const WorkerSpec& spec) {
  writer.put_string(spec.code);
  writer.put<std::int32_t>(spec.nranks);
  writer.put<std::int32_t>(spec.ncores);
  writer.put<double>(spec.eps2);
  writer.put<double>(spec.eta);
  writer.put<double>(spec.theta);
  writer.put_string(spec.meter);
}

WorkerSpec get_spec(util::ByteReader& reader) {
  WorkerSpec spec;
  spec.code = reader.get_string();
  spec.nranks = reader.get<std::int32_t>();
  spec.ncores = reader.get<std::int32_t>();
  spec.eps2 = reader.get<double>();
  spec.eta = reader.get<double>();
  spec.theta = reader.get<double>();
  spec.meter = reader.get_string();
  return spec;
}

}  // namespace

// ------------------------------------------------------- local channels

std::unique_ptr<RpcClient> start_local_worker(
    smartsockets::SmartSockets& sockets, sim::Network& net, sim::Host& home,
    sim::Host& host, const WorkerSpec& spec, ChannelKind kind) {
  static std::uint64_t sequence = 0;
  std::string service = "amuse-worker-" + std::to_string(++sequence);
  auto& listener = sockets.listen(host, service);
  host.spawn("worker:" + spec.code, [&listener, &sockets, &host, &net, spec,
                                     service] {
    auto connection = listener.accept();
    sockets.unlisten(host, service);
    run_worker(std::make_unique<ConnectionPipe>(std::move(connection)), spec,
               {&host}, net);
  });
  // The "MPI" channel is the in-process default; the socket channel is a
  // plain TCP loopback. Both reduce to a connection with the matching
  // traffic class so the Fig-11 accounting distinguishes them.
  auto cls = kind == ChannelKind::mpi ? sim::TrafficClass::mpi
                                      : sim::TrafficClass::control;
  auto connection = sockets.connect(home, host, service, cls);
  return std::make_unique<RpcClient>(
      home, std::make_unique<ConnectionPipe>(std::move(connection)),
      spec.code);
}

// --------------------------------------------------------------- daemon

IbisDaemon::IbisDaemon(deploy::Deployer& deployer, sim::Network& net,
                       smartsockets::SmartSockets& sockets, sim::Host& local)
    : deployer_(deployer), net_(net), sockets_(sockets), local_(local) {
  deployer_.start_hubs();
  registry_ = std::make_unique<ipl::RegistryServer>(sockets_, local_);
  ibis_ = std::make_unique<ipl::Ibis>(sockets_, local_, "amuse-daemon",
                                      local_);
  listener_ = &sockets_.listen(local_, kService);
  accept_pid_ = local_.spawn("amuse-daemon", [this] { accept_loop(); });
  pids_.push_back(accept_pid_);
  supervise_accept_loop();
}

IbisDaemon::~IbisDaemon() {
  stopping_ = true;  // supervisors must not resurrect what we tear down
  sim::Simulation& sim = local_.simulation();
  for (sim::ProcessId pid : pids_) sim.kill(pid);
  // The served processes hold ReceivePorts that reference our Ibis
  // instance; let their kills unwind *now*, while ibis_ is still alive.
  // (Only possible outside the event loop; inside a process the kills
  // drain at the next scheduling point, before any reuse.)
  if (!sim::Simulation::in_process()) {
    sim.run_until(sim.now());
  }
  sockets_.unlisten(local_, kService);
}

void IbisDaemon::accept_loop() {
  while (true) {
    auto connection = listener_->accept();
    pids_.push_back(local_.spawn(
        "amuse-daemon-client",
        [this, connection] { serve_client(connection); }));
  }
}

void IbisDaemon::supervise_accept_loop() {
  // Event-driven supervision: wake exactly when the accept loop finishes
  // (no polling — a poll loop would keep the event queue alive forever).
  // The loop never returns normally, so an exit means it was killed or its
  // host crashed; only the former is recoverable in place. The listener's
  // backlog mailbox keeps queued START connections across the gap, so a
  // START sent during the outage just waits until the restarted loop
  // accepts it.
  local_.simulation().watch_exit(accept_pid_, [this] {
    if (stopping_ || !local_.is_up()) return;
    if (accept_restarts_ >= kSupervisorBudget) {
      log::error("amuse") << "daemon accept loop died " << accept_restarts_
                          << " times; giving up on supervised restart";
      return;
    }
    double delay = supervisor_delay(accept_restarts_);
    ++accept_restarts_;
    log::warn("amuse") << "daemon accept loop died; supervised restart #"
                       << accept_restarts_ << " in " << delay << " s";
    local_.simulation().after(delay, [this] {
      if (stopping_ || !local_.is_up()) return;
      obs::metrics::counter("fault.supervisor_restarts").increment();
      accept_pid_ = local_.spawn("amuse-daemon", [this] { accept_loop(); });
      pids_.push_back(accept_pid_);
      supervise_accept_loop();
    });
  });
}

void IbisDaemon::serve_client(
    std::shared_ptr<smartsockets::ConnectionEnd> connection) {
  // One worker per client connection: read START, deploy, then relay.
  auto channel = std::make_shared<WorkerChannel>();
  channel->connection = connection;
  try {
    auto bytes = connection->recv();
    if (!bytes) return;
    util::ByteReader reader(std::move(*bytes));
    auto op = static_cast<daemon_wire::Op>(reader.get<std::uint8_t>());
    if (op != daemon_wire::Op::start) {
      throw WireError("daemon: expected START");
    }
    channel->spec = get_spec(reader);
    channel->resource = reader.get_string();
    channel->nodes = reader.get<std::int32_t>();
  } catch (const ConnectError&) {
    return;
  }

  channel->id = next_worker_id_++;
  channel->reply_port = "rep-" + std::to_string(channel->id);

  auto fail = [&](const std::string& reason) {
    log::warn("amuse") << "daemon: worker " << channel->spec.code << " on "
                       << channel->resource << " failed: " << reason;
    try {
      util::ByteWriter frame;
      frame.put<std::uint8_t>(static_cast<std::uint8_t>(daemon_wire::Op::fail));
      frame.put_string(reason);
      connection->send(std::move(frame).take());
      connection->close();
    } catch (const ConnectError&) {
    }
  };

  // The reply port is bound before the first deploy and *shared by every
  // proxy generation*: a supervised replacement connects its reply sender
  // to the same port, so the upstream pump below never has to be rebuilt.
  auto reply_receiver = ibis_->create_receive_port(channel->reply_port);

  std::string error = deploy_proxy(channel, 0);
  if (!error.empty()) {
    fail(error);
    return;
  }

  // Tell the script the worker is ready.
  {
    util::ByteWriter frame;
    frame.put<std::uint8_t>(static_cast<std::uint8_t>(daemon_wire::Op::ready));
    connection->send(std::move(frame).take());
  }

  // Upstream pump: proxy replies -> script. Survives proxy generations: the
  // port poisons once per dead sender (a ConnectError out of receive), and
  // the pump keeps receiving for the supervised successor.
  ipl::ReceivePort* replies = reply_receiver.get();
  sim::ProcessId upstream_pid = local_.spawn(
      "daemon-upstream:" + std::to_string(channel->id),
      [replies, connection] {
        while (true) {
          try {
            auto message = replies->receive_consuming_poison();
            auto payload = message.reader.get_vector<std::uint8_t>();
            try {
              connection->send(std::move(payload));
            } catch (const ConnectError&) {
              return;  // script side gone; the relay loop winds us down
            }
          } catch (const ConnectError&) {
            // A proxy generation died; the port stays open for the next.
          }
        }
      });
  pids_.push_back(upstream_pid);

  // Downstream pump: script frames -> proxy. Runs in this process and ends
  // only when the script goes away: a dead proxy merely drops frames while
  // the supervisor works (the script's RPC retry layer absorbs the gap, and
  // non-retryable calls are failed by the death notice).
  try {
    while (true) {
      auto bytes = connection->recv();
      if (!bytes) {  // script closed: tell the proxy to shut down
        if (channel->request_sender && !channel->worker_dead) {
          util::ByteWriter frame;
          frame.put_vector(std::vector<std::uint8_t>{});
          try {
            channel->request_sender->send(std::move(frame));
          } catch (const ConnectError&) {
          }
        }
        break;
      }
      if (channel->worker_dead || !channel->request_sender) {
        continue;  // supervision window: drop the frame
      }
      util::ByteWriter frame;
      frame.put_vector(*bytes);
      try {
        channel->request_sender->send(std::move(frame));
      } catch (const ConnectError&) {
        // Proxy died just now (the registry notice is still in flight):
        // drop the frame and let the supervisor sort it out.
      }
    }
  } catch (const ConnectError&) {
    // Script side went away abnormally.
  }
  channel->closed = true;  // stand down any in-flight supervision
  local_.simulation().kill(upstream_pid);
}

std::string IbisDaemon::deploy_proxy(
    const std::shared_ptr<WorkerChannel>& channel, int generation) {
  const WorkerSpec& spec = channel->spec;
  // Generation-suffixed pool name: the registry remembers dead members, and
  // the death watchers key on the name — a successor must be distinct.
  std::string proxy_name = "proxy-" + std::to_string(channel->id);
  if (generation > 0) proxy_name += "r" + std::to_string(generation);
  std::string reply_port = channel->reply_port;

  // Deploy the worker job through IbisDeploy/JavaGAT.
  gat::JobDescription desc;
  desc.name = spec.code + "-" + std::to_string(channel->id);
  desc.node_count = channel->nodes;
  desc.needs_gpu = spec.needs_gpu();
  // Worker startup ships the model's input data set (rough size: the spec
  // is tiny, but the paper stages input files; give it a nominal 1 MB).
  desc.stage_in_bytes = 1e6;
  sim::Host* daemon_host = &local_;
  sim::Network* net = &net_;
  smartsockets::SmartSockets* sockets = &sockets_;
  desc.main = [spec, daemon_host, net, sockets, proxy_name,
               reply_port](gat::JobContext& context) {
    // == proxy process (runs on the allocated node) ==
    sim::Host& node = *context.hosts.front();
    sim::ProcessId proxy_pid = node.simulation().current_pid();
    ipl::Ibis proxy_ibis(*sockets, node, proxy_name, *daemon_host);
    auto request_port = proxy_ibis.create_receive_port("req");

    // Start the native worker process and connect over node-local loopback
    // (paper: "the proxy communicates using a loopback connection with the
    // worker process", because mixing Java and MPI is not advisable).
    std::string service = "worker-local-" + proxy_name;
    smartsockets::ServerSocket* listener = &sockets->listen(node, service);
    std::vector<sim::Host*> hosts = context.hosts;
    sim::Host* node_ptr = &node;
    node.spawn("worker:" + spec.code, [listener, sockets, node_ptr, net, spec,
                                       hosts, service] {
      auto conn = listener->accept();
      sockets->unlisten(*node_ptr, service);
      run_worker(std::make_unique<ConnectionPipe>(std::move(conn)), spec,
                 hosts, *net);
    });
    auto worker_conn =
        sockets->connect(node, node, service, sim::TrafficClass::control);

    // Reply path: worker -> proxy -> daemon (IPL). If the daemon's reply
    // port is gone (the channel closed while this redeploy was in flight),
    // take the just-spawned worker down with us — leaving it parked on the
    // loopback would leak a process per failed restart attempt.
    std::unique_ptr<ipl::SendPort> reply_sender;
    try {
      auto daemon_id = proxy_ibis.wait_for_member("amuse-daemon");
      reply_sender = proxy_ibis.create_send_port("rep-out");
      reply_sender->connect(daemon_id, reply_port);
    } catch (const ConnectError&) {
      worker_conn->abort();
      throw;
    }
    ipl::Ibis* ibis_ptr = &proxy_ibis;
    sim::ProcessId upstream = node.spawn(
        "proxy-upstream:" + proxy_name,
        [&worker_conn, &reply_sender, ibis_ptr, proxy_pid, node_ptr] {
          try {
            while (auto bytes = worker_conn->recv()) {
              util::ByteWriter frame;
              frame.put_vector(*bytes);
              reply_sender->send(std::move(frame));
            }
          } catch (const ConnectError&) {
            // The loopback broke abnormally: the worker *process* is dead
            // (orderly teardown closes it, which is a clean EOF). The main
            // relay may sit blocked in receive() with nothing to flush the
            // failure out, so escalate from here: break the registry
            // connection (died -> the daemon's supervisor takes over) and
            // kill the relay so the job unwinds.
            if (!node_ptr->simulation().kill_pending()) {
              ibis_ptr->abort();
              node_ptr->simulation().kill(proxy_pid);
            }
          }
        });

    // Request path: daemon (IPL) -> proxy -> worker. Runs in this process;
    // ends when the daemon closes the port (worker stop) or dies.
    try {
      while (true) {
        auto message = request_port->receive();
        auto payload = message.reader.get_vector<std::uint8_t>();
        if (payload.empty()) break;  // orderly shutdown marker
        worker_conn->send(std::move(payload));
      }
    } catch (const ConnectError&) {
    } catch (const sim::ProcessKilled&) {
      // Killed proxy (process-level fault injection): take the worker and
      // the upstream pump down with us — a clean unwind would leave them
      // blocked on pipes nobody will ever feed again.
      worker_conn->abort();
      node.simulation().kill(upstream);
      throw;
    }
    worker_conn->close();
    node.simulation().kill(upstream);
  };

  std::shared_ptr<gat::Job> job;
  try {
    job = deployer_.submit(desc, channel->resource);
  } catch (const Error& failure) {
    return failure.what();
  }

  // Wait for the proxy to join the pool (or the job to die trying).
  ipl::IbisIdentifier proxy_id;
  bool proxy_up = false;
  try {
    // Watch both: job state errors and registry joins.
    while (!proxy_up) {
      if (job->state() == gat::JobState::error) {
        return job->error_message();
      }
      if (job->state() == gat::JobState::stopped) {
        return "worker exited before joining the pool";
      }
      for (const auto& member : ibis_->members()) {
        if (member.name == proxy_name) {
          proxy_id = member;
          proxy_up = true;
          break;
        }
      }
      if (!proxy_up) local_.simulation().sleep(0.05);
    }
  } catch (const Error& failure) {
    return failure.what();
  }

  auto request_sender = ibis_->create_send_port(
      "req-" + std::to_string(channel->id) + "g" + std::to_string(generation));
  try {
    request_sender->connect(proxy_id, "req");
  } catch (const ConnectError& failure) {
    return failure.what();
  }

  channel->job = job;
  channel->node_name = job->hosts().empty() ? "" : job->hosts().front()->name();
  channel->request_sender = std::move(request_sender);
  channel->generation = generation;
  watch_proxy(channel, proxy_name, generation);
  return "";
}

void IbisDaemon::watch_proxy(const std::shared_ptr<WorkerChannel>& channel,
                             const std::string& proxy_name, int generation) {
  // Event listeners cannot be unregistered; the generation guard makes
  // watchers of already-replaced proxies inert.
  ibis_->on_event([this, channel, proxy_name,
                   generation](const ipl::RegistryEvent& event) {
    if (event.type != ipl::RegistryEventType::died) return;
    if (event.id.name != proxy_name) return;
    if (channel->generation != generation || channel->worker_dead) return;
    if (stopping_ || channel->closed) return;
    channel->worker_dead = true;  // relay drops frames from here on
    pids_.push_back(
        local_.spawn("proxy-supervisor:" + std::to_string(channel->id),
                     [this, channel] { supervise_proxy(channel); }));
  });
}

void IbisDaemon::supervise_proxy(std::shared_ptr<WorkerChannel> channel) {
  // The registry saw this channel's proxy die. Pick the recovery tier:
  // node host down -> not a process fault, straight to the PR 2 path
  // (host_crash notice + close, scheduler excludes the host); otherwise
  // redeploy on the *same resource* with capped exponential backoff and
  // report process_crash on the still-open connection; budget exhausted or
  // redeploy failing -> PR 2 path after all.
  sim::Host* node = channel->job && !channel->job->hosts().empty()
                        ? channel->job->hosts().front()
                        : nullptr;
  if (node != nullptr && !node->is_up()) {
    send_death_notice(*channel, WorkerDiedError::Cause::host_crash,
                      "registry reported the worker proxy died", true);
    return;
  }
  while (channel->restarts < kSupervisorBudget) {
    double delay = supervisor_delay(channel->restarts);
    ++channel->restarts;
    log::warn("amuse") << "daemon: worker " << channel->spec.code << " on "
                       << channel->node_name
                       << " died; supervised restart #" << channel->restarts
                       << " in " << delay << " s";
    local_.simulation().sleep(delay);
    if (stopping_ || channel->closed) return;
    std::string error = deploy_proxy(channel, channel->generation + 1);
    if (error.empty()) {
      obs::metrics::counter("fault.supervisor_restarts").increment();
      // Notify *before* reopening the relay: the script's pending calls
      // must fail over to the revive/restore path before any resent frame
      // can reach the blank replacement worker.
      send_death_notice(*channel, WorkerDiedError::Cause::process_crash,
                        "worker process restarted in place on " +
                            channel->node_name,
                        false);
      channel->worker_dead = false;
      log::info("amuse") << "daemon: worker " << channel->spec.code
                         << " restarted in place on " << channel->node_name;
      return;
    }
    log::warn("amuse") << "daemon: supervised restart of "
                       << channel->spec.code << " failed: " << error;
    if (stopping_ || channel->closed) return;
  }
  send_death_notice(*channel, WorkerDiedError::Cause::host_crash,
                    "worker died and the in-place restart budget is spent",
                    true);
}

void IbisDaemon::send_death_notice(WorkerChannel& channel,
                                   WorkerDiedError::Cause cause,
                                   const std::string& detail,
                                   bool close_after) {
  try {
    // Same fixed header as a reply frame (id 0 marks the notice; the
    // zero-filled prefix leaves the span field 0 = untraced).
    util::ByteWriter notice(kFrameHeaderBytes);
    notice.patch<std::uint32_t>(0, kDeathNoticeId);
    notice.patch<std::uint8_t>(
        4, static_cast<std::uint8_t>(RpcStatus::worker_died));
    notice.patch<std::uint8_t>(5, static_cast<std::uint8_t>(cause));
    notice.put_string(channel.node_name);
    notice.put_string(detail);
    channel.connection->send(std::move(notice).take());
  } catch (const ConnectError&) {
    // Script side already gone; nothing left to notify.
  }
  if (close_after) {
    channel.connection->close();  // poisons the script's outstanding futures
  }
}

// -------------------------------------------------------- script client

DaemonClient::PendingStart::~PendingStart() {
  if (!connection_) return;
  try {
    connection_->close();  // the daemon's relay sees EOF and stops the worker
  } catch (const Error&) {
    // already gone; nothing to release
  }
}

DaemonClient::PendingStart DaemonClient::request(const WorkerSpec& spec,
                                                 const std::string& resource,
                                                 int nodes) {
  faultpoint::reach(faultpoint::Point::spawn_worker, -1,
                    spec.code + "@" + resource);
  PendingStart pending(spec, resource, nodes);
  send_start(pending);
  return pending;
}

void DaemonClient::send_start(PendingStart& pending) {
  auto connection = sockets_.connect(local_, local_, IbisDaemon::kService,
                                     sim::TrafficClass::control);
  util::ByteWriter start;
  start.put<std::uint8_t>(static_cast<std::uint8_t>(daemon_wire::Op::start));
  put_spec(start, pending.spec_);
  start.put_string(pending.resource_);
  start.put<std::int32_t>(pending.nodes_);
  connection->send(std::move(start).take());
  pending.connection_ = std::move(connection);
}

std::unique_ptr<RpcClient> DaemonClient::finish(PendingStart&& pending) {
  // Deployment crosses a queue, a WAN and a remote frontend; transient
  // hiccups (a queue briefly full, a frontend rebooting) deserve a bounded
  // retry with backoff before the failure is escalated to the fault path.
  constexpr int kAttempts = 3;
  constexpr double kBackoff = 0.5;  // virtual seconds, times the attempt
  for (int attempt = 1;; ++attempt) {
    try {
      auto response = pending.connection_->recv();
      if (!response) throw CodeError("daemon closed during worker startup");
      util::ByteReader reader(std::move(*response));
      auto op = static_cast<daemon_wire::Op>(reader.get<std::uint8_t>());
      if (op == daemon_wire::Op::fail) {
        throw CodeError("worker " + pending.spec_.code +
                        " startup failed on " + pending.resource_ + ": " +
                        reader.get_string());
      }
      if (op != daemon_wire::Op::ready) {
        throw WireError("daemon: unexpected startup reply");
      }
      return std::make_unique<RpcClient>(
          local_,
          std::make_unique<ConnectionPipe>(std::move(pending.connection_)),
          pending.spec_.code + "@" + pending.resource_);
    } catch (const CodeError& failure) {
      if (attempt >= kAttempts) throw;
      log::warn("amuse") << "worker start attempt " << attempt << "/"
                         << kAttempts << " failed (" << failure.what()
                         << "); retrying";
      local_.simulation().sleep(kBackoff * attempt);
      send_start(pending);
    }
  }
}

}  // namespace jungle::amuse
