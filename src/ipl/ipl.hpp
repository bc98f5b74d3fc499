#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/mailbox.hpp"
#include "smartsockets/smartsockets.hpp"
#include "util/bytebuffer.hpp"

namespace jungle::ipl {

/// Identifies one Ibis instance in a pool (paper §3: IPL registry tracks
/// the instances participating in a run).
struct IbisIdentifier {
  std::string name;
  std::string host;
  std::string pool;

  bool operator==(const IbisIdentifier& other) const noexcept {
    return name == other.name && pool == other.pool;
  }
};

enum class RegistryEventType { joined, left, died };

struct RegistryEvent {
  RegistryEventType type;
  IbisIdentifier id;
};

class Ibis;

/// Central registry server process (started by the deployment layer on the
/// user's machine, like ipl-server). Tracks pool membership, broadcasts
/// join/leave events, detects members whose host crashed and broadcasts
/// `died` — the signal the paper's fault-tolerance story hangs on.
class RegistryServer {
 public:
  static constexpr const char* kService = "ipl-registry";

  RegistryServer(smartsockets::SmartSockets& sockets, sim::Host& host);
  ~RegistryServer();
  RegistryServer(const RegistryServer&) = delete;
  RegistryServer& operator=(const RegistryServer&) = delete;

  sim::Host& host() noexcept { return host_; }

 private:
  struct Member {
    IbisIdentifier id;
    std::shared_ptr<smartsockets::ConnectionEnd> connection;
  };

  void accept_loop();
  void serve_member(std::shared_ptr<smartsockets::ConnectionEnd> connection);
  void broadcast_event(RegistryEventType type, const IbisIdentifier& id);
  void remove_member(const IbisIdentifier& id, RegistryEventType reason);

  smartsockets::SmartSockets& sockets_;
  sim::Host& host_;
  smartsockets::ServerSocket* listener_ = nullptr;
  std::vector<Member> members_;
  std::map<std::string, IbisIdentifier> elections_;
  std::vector<sim::ProcessId> pids_;  // accept loop + member servers
};

/// A one-directional, connection-oriented, message-based send port (IPL's
/// core abstraction). Connect to one or more receive ports; every message
/// goes to all of them.
class SendPort {
 public:
  SendPort(Ibis& ibis, std::string name);

  /// Blocking connection setup to `target`'s receive port `port_name`.
  void connect(const IbisIdentifier& target, const std::string& port_name);

  /// Send one message (the ByteWriter content) to all connected ports.
  void send(util::ByteWriter message);

  void close();
  std::size_t connection_count() const noexcept { return connections_.size(); }

 private:
  Ibis& ibis_;
  std::string name_;
  std::vector<std::shared_ptr<smartsockets::ConnectionEnd>> connections_;
};

/// Receiving side: merges messages from all connected send ports into one
/// queue, tagged with the sender's identity (explicit receive style).
class ReceivePort {
 public:
  struct Message {
    IbisIdentifier source;
    util::ByteReader reader;
    /// Queued when a sender's connection breaks abnormally (host crash or
    /// dead route): receive() turns it into a ConnectError instead of
    /// leaving callers blocked on a queue nobody will ever feed again.
    bool poison = false;
  };

  ReceivePort(Ibis& ibis, std::string name);
  ~ReceivePort();

  /// Blocking receive of the next message from any connected sender.
  Message receive();

  /// Like receive(), but a poison marker is consumed rather than left in
  /// the queue. For a port with a single long-lived reader that outlives
  /// its senders (the daemon's reply pump spans proxy generations): the
  /// caller sees one ConnectError per dead sender, then blocks again for
  /// the successor. Every other caller wants the sticky poison of
  /// receive(), which keeps waking the remaining blocked readers.
  Message receive_consuming_poison();

  const std::string& name() const noexcept { return name_; }

 private:
  friend class SendPort;
  void accept_loop();

  Ibis& ibis_;
  std::string name_;
  smartsockets::ServerSocket* listener_ = nullptr;
  bool closed_ = false;
  sim::Mailbox<Message> queue_;
  std::vector<sim::ProcessId> pids_;  // accept loop + readers; killed in dtor
};

/// One Ibis instance: joins the registry pool on construction, keeps a live
/// membership view, answers elections, and creates ports. The registry
/// connection doubles as the liveness channel: if this instance's host
/// crashes, the server sees the break and broadcasts `died`.
class Ibis {
 public:
  Ibis(smartsockets::SmartSockets& sockets, sim::Host& host, std::string name,
       sim::Host& registry_host, std::string pool = "default");
  ~Ibis();

  Ibis(const Ibis&) = delete;
  Ibis& operator=(const Ibis&) = delete;

  const IbisIdentifier& identifier() const noexcept { return id_; }
  sim::Host& host() noexcept { return host_; }
  smartsockets::SmartSockets& sockets() noexcept { return sockets_; }

  /// Current membership view (eventually consistent with the server).
  std::vector<IbisIdentifier> members() const { return members_; }

  /// Register an event observer (joined/left/died).
  void on_event(std::function<void(const RegistryEvent&)> listener) {
    listeners_.push_back(std::move(listener));
  }

  /// Block until an instance named `name` is in the membership view; returns
  /// its identifier. Throws CodeError if it died instead, and ConnectError
  /// once the registry connection is gone (the view can no longer change).
  IbisIdentifier wait_for_member(const std::string& name);

  /// First-come-first-elected election (blocking round trip to the server).
  IbisIdentifier elect(const std::string& election_name);

  /// Graceful departure (also called by the destructor). If the calling
  /// process has been killed, this degrades to abort(): SIGKILLed daemons
  /// send no goodbyes.
  void leave();

  /// Abnormal departure: break the registry connection so the server
  /// broadcasts `died` (not `left`) — the deliberate way for a proxy to
  /// report that its worker is gone and supervision should kick in.
  void abort();

  std::unique_ptr<SendPort> create_send_port(const std::string& name) {
    return std::make_unique<SendPort>(*this, name);
  }
  std::unique_ptr<ReceivePort> create_receive_port(const std::string& name) {
    return std::make_unique<ReceivePort>(*this, name);
  }

  /// Service string a receive port binds on the local host.
  std::string port_service(const std::string& port_name) const {
    return "ipl:" + id_.name + ":" + port_name;
  }

 private:
  friend class SendPort;
  friend class ReceivePort;

  void pump_events();
  void handle_event(const RegistryEvent& event);

  smartsockets::SmartSockets& sockets_;
  sim::Host& host_;
  IbisIdentifier id_;
  std::shared_ptr<smartsockets::ConnectionEnd> registry_;
  sim::ProcessId pump_pid_ = 0;
  std::vector<IbisIdentifier> members_;
  std::vector<std::string> dead_members_;
  std::vector<std::function<void(const RegistryEvent&)>> listeners_;
  sim::Signal membership_changed_;
  sim::Mailbox<IbisIdentifier> election_replies_;
  bool left_ = false;
  bool registry_lost_ = false;  // the event pump has ended
};

/// Wire helpers shared by registry client and server.
namespace wire {
enum class Op : std::uint8_t {
  join = 1,
  joined_event = 2,
  left_event = 3,
  died_event = 4,
  elect = 5,
  elect_reply = 6,
  leave = 7,
  snapshot = 8,
};
void put_identifier(util::ByteWriter& writer, const IbisIdentifier& id);
IbisIdentifier get_identifier(util::ByteReader& reader);
}  // namespace wire

}  // namespace jungle::ipl
