#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/host.hpp"
#include "sim/simulation.hpp"

namespace jungle::sim {

/// Units for link parameters: bandwidths are stored in bytes/second.
namespace net {
constexpr double kbit = 1e3 / 8.0;
constexpr double mbit = 1e6 / 8.0;
constexpr double gbit = 1e9 / 8.0;
constexpr double us = 1e-6;
constexpr double ms = 1e-3;
}  // namespace net

/// Category of traffic for per-link accounting — reproduces the Fig-11
/// visualization where IPL traffic (blue) and MPI traffic (orange) are shown
/// separately per connection.
enum class TrafficClass : int { control = 0, ipl = 1, mpi = 2, file = 3 };
constexpr int kTrafficClasses = 4;
const char* traffic_class_name(TrafficClass cls) noexcept;

/// One directed hop (we model links as symmetric, shared in both
/// directions). Serialization on a link is FIFO: a transfer occupies the
/// link for bytes/bandwidth starting when the link frees up, which is what
/// makes a busy coupler uplink an honest bottleneck (paper §4.1).
struct Link {
  std::string name;
  std::string site_a;
  std::string site_b;
  double latency_s;
  double bandwidth_Bps;
  /// What a *single* stream achieves on this link (long fat pipes: the TCP
  /// window over a high RTT caps a connection far below the lightpath's
  /// capacity — the reason SmartSockets stripes bulk transfers over
  /// parallel streams). 0 = no per-stream cap (a single stream fills the
  /// link, the default for LANs and short links).
  double stream_bandwidth_Bps = 0.0;
  double busy_until = 0.0;
  bool down = false;
  /// Partial stripe failure: this many of a transfer's parallel streams are
  /// currently dead. Bulk transfers *degrade* to the surviving streams
  /// (throughput drops, nothing is torn down) — the graceful-degradation
  /// tier between "healthy" and "link down".
  int failed_streams = 0;
  /// Opt-in wire truncation advice for this link: clients whose state
  /// exchanges cross it request position arrays as f32 (half the bytes of
  /// the dominant coupling field). Purely advisory — the transport does not
  /// change; the AMUSE layer honours it per model and the scheduler prices
  /// flagged paths at the narrowed volume.
  bool fp_truncate = false;
  std::array<double, kTrafficClasses> bytes_by_class{};
  std::uint64_t messages = 0;

  double total_bytes() const noexcept {
    double sum = 0;
    for (double b : bytes_by_class) sum += b;
    return sum;
  }

  /// Throughput of a transfer carried over `streams` parallel streams:
  /// per-stream caps aggregate until the link capacity saturates.
  double effective_bandwidth(int streams) const noexcept {
    if (stream_bandwidth_Bps <= 0.0) return bandwidth_Bps;
    double aggregated = stream_bandwidth_Bps * (streams < 1 ? 1 : streams);
    return aggregated < bandwidth_Bps ? aggregated : bandwidth_Bps;
  }
};

/// The Jungle's wires: sites connected by WAN links, hosts attached to
/// sites by LAN links, plus a loopback path on every host. Owns all Hosts.
class Network {
 public:
  explicit Network(Simulation& sim);

  /// Create a site with given intra-site (LAN) characteristics. Implicitly
  /// created by add_host with defaults if absent.
  void add_site(const std::string& site, double lan_latency_s = 0.1 * net::ms,
                double lan_bandwidth_Bps = 1.0 * net::gbit);

  Host& add_host(const std::string& name, const std::string& site, int cores,
                 double cpu_gflops_per_core);

  /// WAN link between two sites (e.g. the transatlantic 1G lightpath).
  /// `stream_bandwidth_Bps` caps what one stream achieves (0 = uncapped).
  Link& add_link(const std::string& site_a, const std::string& site_b,
                 double latency_s, double bandwidth_Bps,
                 const std::string& name = "",
                 double stream_bandwidth_Bps = 0.0);

  Host& host(const std::string& name);
  const Host& host(const std::string& name) const;
  Host* find_host(const std::string& name);
  std::vector<std::string> host_names() const;

  /// Loopback characteristics (paper §5: ">8 Gbit/second even on a modest
  /// laptop ... extremely small latency").
  void set_loopback(double latency_s, double bandwidth_Bps);
  double loopback_bandwidth() const noexcept { return loopback_bw_; }
  double loopback_latency() const noexcept { return loopback_lat_; }

  /// Firewall check for a *new inbound connection* at `to` from `from`.
  /// Same-site traffic is unrestricted (clusters trust their own LAN).
  bool can_connect(const Host& from, const Host& to) const;

  /// Like can_connect but for ssh: front-ends often admit ssh while
  /// filtering everything else. NAT still blocks it.
  bool can_ssh(const Host& from, const Host& to) const;

  /// Round-trip time along the routed path (connection setup cost).
  double rtt(const Host& from, const Host& to) const;

  /// Bottleneck bandwidth (bytes/s) along the routed path — the narrowest
  /// of the LAN segments and WAN links a message crosses; the loopback rate
  /// for a host talking to itself. 0 when the sites are unreachable. Cost
  /// queries only (no traffic is charged) — the placement scheduler scores
  /// candidate kernel->host assignments with this. `streams` prices a
  /// transfer striped over that many parallel streams (per-stream caps
  /// aggregate, see Link::effective_bandwidth).
  double path_bandwidth(const Host& from, const Host& to,
                        int streams = 1) const;

  /// True when any WAN link on the routed path is flagged `fp_truncate`
  /// (low-bandwidth links that opted into f32 position truncation). False
  /// for loopback, same-site paths and unreachable pairs.
  bool path_fp_truncate(const Host& from, const Host& to) const;

  /// One-way message: advances link occupancy, accounts traffic, schedules
  /// `on_delivery` at the arrival time. Returns the arrival time, or
  /// nullopt if a link on the path is down (the message is lost — transport
  /// layers above retry). No firewall check: that applies to connection
  /// setup, not established flows. `streams` is the stripe count the
  /// transport chose for this transfer (bandwidth aggregation on
  /// stream-capped links).
  std::optional<double> send(const Host& from, const Host& to, double bytes,
                             TrafficClass cls,
                             std::function<void()> on_delivery = {},
                             int streams = 1);

  /// Mark a WAN link down/up by name (transient failure injection).
  /// Notifies link watchers after flipping the state.
  void set_link_down(const std::string& name, bool down);

  /// Flap injection: the link drops *now* and heals itself after `down_s`.
  /// Distinct from a hard set_link_down — a flap shorter than
  /// tunables::kOutageGraceSeconds is survivable by construction: in-flight
  /// frames ride it out on the hop-retry budget and idle-pipe keepalives
  /// re-check after the same grace, so nothing is torn down.
  void flap_link(const std::string& name, double down_s);

  /// Partial stream failure on a link: `failed` of a transfer's parallel
  /// streams are dead, healing after `heal_s` (0 = until repaired by a
  /// later call with failed=0). Transfers degrade to surviving streams;
  /// degraded_transfers() counts how many sends were affected.
  void fail_streams(const std::string& name, int failed, double heal_s = 0.0);
  std::uint64_t degraded_transfers() const noexcept {
    return degraded_transfers_;
  }

  /// True when every link on the routed path between the hosts is up
  /// (loopback always is; false when no route exists at all). Transports
  /// use this to decide whether an established connection still has a live
  /// route under it.
  bool route_up(const Host& from, const Host& to);

  /// Observe link state changes (name, down). Fired by set_link_down for
  /// each transition — the simulated analog of carrier-loss notifications
  /// that lets idle connections discover a dead route instead of blocking
  /// on it forever. Watchers live as long as the network.
  void watch_links(std::function<void(const std::string&, bool)> watcher);

  struct LinkReport {
    std::string name;
    double latency_s;
    double bandwidth_Bps;
    std::array<double, kTrafficClasses> bytes_by_class;
    std::uint64_t messages;

    /// A wide-area link: anything but a host loopback or an intra-site LAN.
    bool wan() const noexcept {
      return name != "loopback" && name.rfind("lan:", 0) != 0;
    }
    /// Bytes of every traffic class, summed in class order.
    double total_bytes() const noexcept {
      double total = 0.0;
      for (double bytes : bytes_by_class) total += bytes;
      return total;
    }
  };
  std::vector<LinkReport> traffic_report() const;
  void reset_traffic();

  Simulation& simulation() noexcept { return sim_; }

 private:
  struct Site {
    std::string name;
    Link lan;  // hosts in the same site talk through this
  };

  // Shortest path (in hops) between sites; returns WAN link indices, or
  // nullopt when unreachable.
  std::optional<std::vector<std::size_t>> route(const std::string& site_a,
                                                const std::string& site_b) const;
  // All links a message (from -> to) crosses, in order.
  std::vector<Link*> path_links(const Host& from, const Host& to);

  Simulation& sim_;
  std::map<std::string, Site> sites_;
  std::vector<std::unique_ptr<Link>> wan_links_;
  std::map<std::string, std::unique_ptr<Host>> hosts_;
  std::vector<std::string> host_order_;
  double loopback_lat_ = 5 * net::us;
  double loopback_bw_ = 10.0 * net::gbit;
  Link loopback_stats_{"loopback", "", "", 0, 0};
  std::vector<std::function<void(const std::string&, bool)>> link_watchers_;
  std::uint64_t degraded_transfers_ = 0;
};

}  // namespace jungle::sim
