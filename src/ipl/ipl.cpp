#include "ipl/ipl.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace jungle::ipl {

namespace wire {

void put_identifier(util::ByteWriter& writer, const IbisIdentifier& id) {
  writer.put_string(id.name);
  writer.put_string(id.host);
  writer.put_string(id.pool);
}

IbisIdentifier get_identifier(util::ByteReader& reader) {
  IbisIdentifier id;
  id.name = reader.get_string();
  id.host = reader.get_string();
  id.pool = reader.get_string();
  return id;
}

}  // namespace wire

// ------------------------------------------------------------------ server

RegistryServer::RegistryServer(smartsockets::SmartSockets& sockets,
                               sim::Host& host)
    : sockets_(sockets), host_(host) {
  listener_ = &sockets_.listen(host_, kService);
  pids_.push_back(host_.spawn("ipl-registry", [this] { accept_loop(); }));
}

RegistryServer::~RegistryServer() {
  // The server processes capture `this`; make sure none can run again.
  for (sim::ProcessId pid : pids_) host_.simulation().kill(pid);
  sockets_.unlisten(host_, kService);
}

void RegistryServer::accept_loop() {
  while (true) {
    auto connection = listener_->accept();
    pids_.push_back(host_.spawn("ipl-registry-member", [this, connection] {
      serve_member(connection);
    }));
  }
}

void RegistryServer::serve_member(
    std::shared_ptr<smartsockets::ConnectionEnd> connection) {
  IbisIdentifier member_id;
  bool joined = false;
  try {
    while (true) {
      auto bytes = connection->recv();
      if (!bytes) {
        // Clean close without LEAVE: treat as leave.
        if (joined) remove_member(member_id, RegistryEventType::left);
        return;
      }
      util::ByteReader reader(std::move(*bytes));
      auto op = static_cast<wire::Op>(reader.get<std::uint8_t>());
      switch (op) {
        case wire::Op::join: {
          member_id = wire::get_identifier(reader);
          joined = true;
          // Snapshot of current membership for the newcomer.
          util::ByteWriter snapshot;
          snapshot.put<std::uint8_t>(
              static_cast<std::uint8_t>(wire::Op::snapshot));
          snapshot.put<std::uint32_t>(
              static_cast<std::uint32_t>(members_.size()));
          for (const auto& member : members_) {
            wire::put_identifier(snapshot, member.id);
          }
          connection->send(std::move(snapshot).take());
          members_.push_back(Member{member_id, connection});
          broadcast_event(RegistryEventType::joined, member_id);
          log::info("ipl") << "member " << member_id.name << " joined from "
                           << member_id.host;
          break;
        }
        case wire::Op::elect: {
          std::string election = reader.get_string();
          auto [it, inserted] = elections_.try_emplace(election, member_id);
          util::ByteWriter reply;
          reply.put<std::uint8_t>(
              static_cast<std::uint8_t>(wire::Op::elect_reply));
          reply.put_string(election);
          wire::put_identifier(reply, it->second);
          connection->send(std::move(reply).take());
          break;
        }
        case wire::Op::leave: {
          if (joined) remove_member(member_id, RegistryEventType::left);
          return;
        }
        default:
          throw WireError("registry: unexpected opcode");
      }
    }
  } catch (const ConnectError&) {
    // Connection broke: the member's host crashed. This is the paper's
    // fault-detection path — broadcast `died` to the pool.
    if (joined) remove_member(member_id, RegistryEventType::died);
  }
}

void RegistryServer::broadcast_event(RegistryEventType type,
                                     const IbisIdentifier& id) {
  std::uint8_t op = type == RegistryEventType::joined
                        ? static_cast<std::uint8_t>(wire::Op::joined_event)
                        : type == RegistryEventType::left
                              ? static_cast<std::uint8_t>(wire::Op::left_event)
                              : static_cast<std::uint8_t>(wire::Op::died_event);
  for (auto& member : members_) {
    util::ByteWriter writer;
    writer.put<std::uint8_t>(op);
    wire::put_identifier(writer, id);
    try {
      member.connection->send(std::move(writer).take());
    } catch (const ConnectError&) {
      // That member is gone too; its own serve loop will notice.
    }
  }
}

void RegistryServer::remove_member(const IbisIdentifier& id,
                                   RegistryEventType reason) {
  auto it = std::find_if(members_.begin(), members_.end(),
                         [&](const Member& m) { return m.id == id; });
  if (it == members_.end()) return;
  members_.erase(it);
  broadcast_event(reason, id);
  log::info("ipl") << "member " << id.name
                   << (reason == RegistryEventType::died ? " died" : " left");
}

// ------------------------------------------------------------------ client

Ibis::Ibis(smartsockets::SmartSockets& sockets, sim::Host& host,
           std::string name, sim::Host& registry_host, std::string pool)
    : sockets_(sockets),
      host_(host),
      id_{std::move(name), host.name(), std::move(pool)},
      membership_changed_(host.simulation()),
      election_replies_(host.simulation()) {
  registry_ = sockets_.connect(host_, registry_host, RegistryServer::kService,
                               sim::TrafficClass::control);
  util::ByteWriter join;
  join.put<std::uint8_t>(static_cast<std::uint8_t>(wire::Op::join));
  wire::put_identifier(join, id_);
  registry_->send(std::move(join).take());
  pump_pid_ = host_.spawn("ibis-pump:" + id_.name, [this] { pump_events(); });
}

Ibis::~Ibis() { leave(); }

void Ibis::leave() {
  if (left_) return;
  // A *killed* process gets no goodbye: unwinding through this destructor
  // after a process-level fault must look to the registry exactly like a
  // crash — connection reset, `died` broadcast — not a graceful LEAVE,
  // or the death-notice machinery downstream would never fire.
  if (host_.simulation().kill_pending()) {
    abort();
    return;
  }
  left_ = true;
  try {
    util::ByteWriter bye;
    bye.put<std::uint8_t>(static_cast<std::uint8_t>(wire::Op::leave));
    registry_->send(std::move(bye).take());
    // Close before killing the pump: the pump is the connection's reader,
    // and killing a reader of a still-open pipe breaks it (connection
    // reset) — which would turn this graceful leave into a `died`.
    registry_->close();
  } catch (const ConnectError&) {
    // Registry already unreachable; nothing to unwind.
  }
  // The pump captures `this`; stop it before the members it touches die.
  host_.simulation().kill(pump_pid_);
}

void Ibis::abort() {
  if (left_) return;
  left_ = true;
  // Break the registry connection without a LEAVE: the server's serve loop
  // sees ConnectError and broadcasts `died` — the deliberate self-report of
  // a proxy that lost its worker, and the unwind path of a killed process.
  registry_->abort();
  if (!(sim::Simulation::in_process() &&
        host_.simulation().current_pid() == pump_pid_)) {
    host_.simulation().kill(pump_pid_);
  }
}

void Ibis::pump_events() {
  try {
    while (true) {
      auto bytes = registry_->recv();
      if (!bytes) break;  // registry closed us out
      util::ByteReader reader(std::move(*bytes));
      auto op = static_cast<wire::Op>(reader.get<std::uint8_t>());
      switch (op) {
        case wire::Op::snapshot: {
          auto count = reader.get<std::uint32_t>();
          for (std::uint32_t i = 0; i < count; ++i) {
            members_.push_back(wire::get_identifier(reader));
          }
          membership_changed_.notify_all();
          break;
        }
        case wire::Op::joined_event:
          handle_event(
              RegistryEvent{RegistryEventType::joined,
                            wire::get_identifier(reader)});
          break;
        case wire::Op::left_event:
          handle_event(RegistryEvent{RegistryEventType::left,
                                     wire::get_identifier(reader)});
          break;
        case wire::Op::died_event:
          handle_event(RegistryEvent{RegistryEventType::died,
                                     wire::get_identifier(reader)});
          break;
        case wire::Op::elect_reply: {
          reader.get_string();  // election name (single outstanding call)
          election_replies_.put(wire::get_identifier(reader));
          break;
        }
        default:
          throw WireError("ibis: unexpected opcode from registry");
      }
    }
  } catch (const ConnectError&) {
    // Registry vanished; membership view freezes. Local death is handled by
    // the process being killed with the host.
  }
  // Nothing changes the view any more: wake whoever waits for a member
  // that can now never appear.
  registry_lost_ = true;
  membership_changed_.notify_all();
}

void Ibis::handle_event(const RegistryEvent& event) {
  switch (event.type) {
    case RegistryEventType::joined:
      members_.push_back(event.id);
      break;
    case RegistryEventType::left:
    case RegistryEventType::died:
      members_.erase(std::remove(members_.begin(), members_.end(), event.id),
                     members_.end());
      if (event.type == RegistryEventType::died) {
        dead_members_.push_back(event.id.name);
      }
      break;
  }
  for (auto& listener : listeners_) listener(event);
  membership_changed_.notify_all();
}

IbisIdentifier Ibis::wait_for_member(const std::string& name) {
  while (true) {
    for (const auto& member : members_) {
      if (member.name == name) return member;
    }
    if (std::find(dead_members_.begin(), dead_members_.end(), name) !=
        dead_members_.end()) {
      throw CodeError("ibis instance " + name + " died before joining");
    }
    if (registry_lost_) {
      throw ConnectError("registry lost before " + name + " joined");
    }
    membership_changed_.wait();
  }
}

IbisIdentifier Ibis::elect(const std::string& election_name) {
  util::ByteWriter request;
  request.put<std::uint8_t>(static_cast<std::uint8_t>(wire::Op::elect));
  request.put_string(election_name);
  registry_->send(std::move(request).take());
  return election_replies_.get();
}

// ------------------------------------------------------------------- ports

SendPort::SendPort(Ibis& ibis, std::string name)
    : ibis_(ibis), name_(std::move(name)) {}

void SendPort::connect(const IbisIdentifier& target,
                       const std::string& port_name) {
  sim::Host* target_host = ibis_.sockets().network().find_host(target.host);
  if (target_host == nullptr) {
    throw ConnectError("unknown host " + target.host + " for " + target.name);
  }
  std::string service = "ipl:" + target.name + ":" + port_name;
  auto connection = ibis_.sockets().connect(ibis_.host(), *target_host,
                                            service, sim::TrafficClass::ipl);
  // Identify ourselves so the receive side can tag messages.
  util::ByteWriter hello;
  wire::put_identifier(hello, ibis_.identifier());
  hello.put_string(name_);
  connection->send(std::move(hello).take());
  connections_.push_back(std::move(connection));
}

void SendPort::send(util::ByteWriter message) {
  if (connections_.empty()) {
    throw ConnectError("send port " + name_ + " is not connected");
  }
  std::vector<std::uint8_t> bytes = std::move(message).take();
  for (std::size_t i = 0; i + 1 < connections_.size(); ++i) {
    connections_[i]->send(bytes);  // copy for all but the last
  }
  connections_.back()->send(std::move(bytes));
}

void SendPort::close() {
  for (auto& connection : connections_) connection->close();
  connections_.clear();
}

ReceivePort::ReceivePort(Ibis& ibis, std::string name)
    : ibis_(ibis), name_(std::move(name)), queue_(ibis.host().simulation()) {
  listener_ = &ibis_.sockets().listen(ibis_.host(), ibis_.port_service(name_));
  pids_.push_back(
      ibis_.host().spawn("ipl-recvport:" + name_, [this] { accept_loop(); }));
}

ReceivePort::~ReceivePort() {
  closed_ = true;
  // Readers capture `this`; kill them before the queue they feed dies.
  for (sim::ProcessId pid : pids_) ibis_.host().simulation().kill(pid);
  ibis_.sockets().unlisten(ibis_.host(), ibis_.port_service(name_));
}

void ReceivePort::accept_loop() {
  while (!closed_) {
    auto connection = listener_->accept();
    // Per-connection reader merging into the shared queue (fair by arrival
    // time, since delivery events are globally ordered).
    pids_.push_back(
        ibis_.host().spawn("ipl-reader:" + name_, [this, connection] {
      try {
        auto hello_bytes = connection->recv();
        if (!hello_bytes) return;
        util::ByteReader hello(std::move(*hello_bytes));
        IbisIdentifier source = wire::get_identifier(hello);
        hello.get_string();  // sending port's name (unused)
        while (true) {
          auto bytes = connection->recv();
          if (!bytes) return;  // sender closed
          queue_.put(Message{source, util::ByteReader(std::move(*bytes))});
        }
      } catch (const ConnectError&) {
        // Sender's connection reset (host crash or dead route). Poison the
        // queue so blocked receive() callers wake with a ConnectError — a
        // silent wind-down would leave them parked on a queue nobody will
        // ever feed again (the proxy-side leak the fault explorer flags).
        queue_.put(Message{{}, util::ByteReader({}), true});
      }
    }));
  }
}

ReceivePort::Message ReceivePort::receive() {
  Message message = queue_.get();
  if (message.poison) {
    // Keep the port poisoned for any other blocked reader.
    queue_.put(Message{{}, util::ByteReader({}), true});
    throw ConnectError("receive port '" + name_ + "': sender connection reset");
  }
  return message;
}

ReceivePort::Message ReceivePort::receive_consuming_poison() {
  Message message = queue_.get();
  if (message.poison) {
    // Swallow it: the caller handles the error and blocks again for the
    // next sender generation instead of spinning on a sticky marker.
    throw ConnectError("receive port '" + name_ + "': sender connection reset");
  }
  return message;
}

}  // namespace jungle::ipl
