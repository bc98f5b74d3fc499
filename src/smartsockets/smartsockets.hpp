#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/mailbox.hpp"
#include "sim/network.hpp"
#include "smartsockets/connection.hpp"

namespace jungle::smartsockets {

/// A listening endpoint: (host, service-name). accept() blocks until an
/// initiator completes a connection setup.
class ServerSocket {
 public:
  ServerSocket(sim::Simulation& sim, sim::Host& host, std::string service)
      : host_(&host), service_(std::move(service)), accept_queue_(sim) {}

  std::shared_ptr<ConnectionEnd> accept() { return accept_queue_.get(); }

  sim::Host& host() noexcept { return *host_; }
  const std::string& service() const noexcept { return service_; }

 private:
  friend class SmartSockets;
  sim::Host* host_;
  std::string service_;
  sim::Mailbox<std::shared_ptr<ConnectionEnd>> accept_queue_;
};

/// An edge of the hub overlay as shown in the IbisDeploy GUI (Fig 10):
/// plain edges are two-way reachable, `oneway` edges needed a reverse setup
/// (drawn as arrows in the paper), `tunnel` edges were bootstrapped by
/// deployment (ssh tunnels, drawn red).
struct OverlayEdge {
  std::string hub_a;
  std::string hub_b;
  enum class Kind { open, oneway, tunnel } kind;
};

/// The SmartSockets layer (paper §3): a socket factory that hides firewalls
/// and NATs behind three strategies — direct connection, reverse connection
/// (ask the target, via the hub overlay, to dial back), and hub relay.
class SmartSockets {
 public:
  explicit SmartSockets(sim::Network& net);

  /// Start a hub on `host` (typically a cluster front-end). `tunneled`
  /// marks the overlay edges of this hub as deployment-made tunnels.
  void start_hub(sim::Host& host, bool tunneled = false);

  /// Register a listening service. The returned socket lives until the
  /// SmartSockets object dies. Service names must be unique per host.
  ServerSocket& listen(sim::Host& host, const std::string& service);
  void unlisten(sim::Host& host, const std::string& service);

  /// Establish a connection from a process running on `from` to the service
  /// at `target`. Blocks the calling process for the setup cost (direct:
  /// one RTT; reverse: control path through the hubs + dial-back RTT;
  /// relayed: control path). Throws ConnectError when no strategy works or
  /// nothing is listening.
  std::shared_ptr<ConnectionEnd> connect(sim::Host& from, sim::Host& target,
                                         const std::string& service,
                                         sim::TrafficClass cls);

  /// The hub a host would use for overlay signalling (same site), if any.
  sim::Host* hub_for(const sim::Host& host) const;

  /// Hub-to-hub path (host pointers, both endpoints included); empty when
  /// src and dst hubs coincide; nullopt when overlay is partitioned.
  std::optional<std::vector<sim::Host*>> hub_path(sim::Host* from_hub,
                                                  sim::Host* to_hub) const;

  /// Overlay as drawn in Fig 10.
  std::vector<OverlayEdge> overlay_map() const;

  /// Setup statistics per strategy, for the connectivity experiment (E10).
  struct SetupStats {
    int direct = 0;
    int reverse = 0;
    int relayed = 0;
    int failed = 0;
  };
  const SetupStats& setup_stats() const noexcept { return stats_; }

  sim::Network& network() noexcept { return net_; }

 private:
  struct HubInfo {
    sim::Host* host;
    bool tunneled;
  };

  std::shared_ptr<ConnectionEnd> finish_setup(sim::Host& from,
                                              sim::Host& target,
                                              const std::string& service,
                                              sim::TrafficClass cls,
                                              ConnectionKind kind,
                                              std::vector<sim::Host*> hops,
                                              double setup_time);
  bool hubs_linked(const sim::Host& a, const sim::Host& b) const;

  sim::Network& net_;
  std::vector<HubInfo> hubs_;
  std::map<std::pair<std::string, std::string>, std::unique_ptr<ServerSocket>>
      listeners_;
  SetupStats stats_;
};

}  // namespace jungle::smartsockets
