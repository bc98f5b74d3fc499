#include "sim/network.hpp"

#include <algorithm>
#include <deque>
#include <limits>

#include "util/logging.hpp"

namespace jungle::sim {

const char* traffic_class_name(TrafficClass cls) noexcept {
  switch (cls) {
    case TrafficClass::control: return "control";
    case TrafficClass::ipl: return "ipl";
    case TrafficClass::mpi: return "mpi";
    case TrafficClass::file: return "file";
  }
  return "?";
}

Network::Network(Simulation& sim) : sim_(sim) {}

void Network::add_site(const std::string& site, double lan_latency_s,
                       double lan_bandwidth_Bps) {
  auto [it, inserted] = sites_.try_emplace(site);
  if (inserted) {
    it->second.name = site;
    it->second.lan =
        Link{"lan:" + site, site, site, lan_latency_s, lan_bandwidth_Bps};
  } else {
    it->second.lan.latency_s = lan_latency_s;
    it->second.lan.bandwidth_Bps = lan_bandwidth_Bps;
  }
}

Host& Network::add_host(const std::string& name, const std::string& site,
                        int cores, double cpu_gflops_per_core) {
  if (hosts_.count(name)) throw ConfigError("duplicate host " + name);
  if (!sites_.count(site)) add_site(site);
  auto host =
      std::make_unique<Host>(sim_, name, site, cores, cpu_gflops_per_core);
  Host& ref = *host;
  hosts_[name] = std::move(host);
  host_order_.push_back(name);
  return ref;
}

Link& Network::add_link(const std::string& site_a, const std::string& site_b,
                        double latency_s, double bandwidth_Bps,
                        const std::string& name,
                        double stream_bandwidth_Bps) {
  if (!sites_.count(site_a)) add_site(site_a);
  if (!sites_.count(site_b)) add_site(site_b);
  auto link = std::make_unique<Link>();
  link->name = name.empty() ? site_a + "<->" + site_b : name;
  link->site_a = site_a;
  link->site_b = site_b;
  link->latency_s = latency_s;
  link->bandwidth_Bps = bandwidth_Bps;
  link->stream_bandwidth_Bps = stream_bandwidth_Bps;
  wan_links_.push_back(std::move(link));
  return *wan_links_.back();
}

Host& Network::host(const std::string& name) {
  auto it = hosts_.find(name);
  if (it == hosts_.end()) throw ConfigError("unknown host " + name);
  return *it->second;
}

Host* Network::find_host(const std::string& name) {
  auto it = hosts_.find(name);
  return it == hosts_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Network::host_names() const { return host_order_; }

void Network::set_loopback(double latency_s, double bandwidth_Bps) {
  loopback_lat_ = latency_s;
  loopback_bw_ = bandwidth_Bps;
}

bool Network::can_connect(const Host& from, const Host& to) const {
  if (&from == &to) return true;
  if (from.site() == to.site()) return true;  // LAN is trusted
  if (!route(from.site(), to.site())) return false;
  if (to.firewall().nat) return false;
  return to.firewall().allow_inbound;
}

bool Network::can_ssh(const Host& from, const Host& to) const {
  if (&from == &to) return true;
  if (from.site() == to.site()) return true;
  if (!route(from.site(), to.site())) return false;
  if (to.firewall().nat) return false;
  return to.firewall().allow_inbound || to.firewall().allow_ssh_inbound;
}

std::optional<std::vector<std::size_t>> Network::route(
    const std::string& site_a, const std::string& site_b) const {
  if (site_a == site_b) return std::vector<std::size_t>{};
  // BFS over the site graph; small graphs, computed per call.
  std::map<std::string, std::pair<std::string, std::size_t>> parent;
  std::deque<std::string> frontier{site_a};
  parent[site_a] = {"", 0};
  while (!frontier.empty()) {
    std::string current = frontier.front();
    frontier.pop_front();
    if (current == site_b) break;
    for (std::size_t i = 0; i < wan_links_.size(); ++i) {
      const Link& link = *wan_links_[i];
      std::string next;
      if (link.site_a == current) {
        next = link.site_b;
      } else if (link.site_b == current) {
        next = link.site_a;
      } else {
        continue;
      }
      if (parent.count(next)) continue;
      parent[next] = {current, i};
      frontier.push_back(next);
    }
  }
  if (!parent.count(site_b)) return std::nullopt;
  std::vector<std::size_t> links;
  for (std::string at = site_b; at != site_a;) {
    auto& [prev, link_index] = parent[at];
    links.push_back(link_index);
    at = prev;
  }
  std::reverse(links.begin(), links.end());
  return links;
}

std::vector<Link*> Network::path_links(const Host& from, const Host& to) {
  std::vector<Link*> links;
  if (&from == &to) {
    links.push_back(&loopback_stats_);
    return links;
  }
  Site& site_from = sites_.at(from.site());
  Site& site_to = sites_.at(to.site());
  if (from.site() == to.site()) {
    links.push_back(&site_from.lan);
    return links;
  }
  auto wan = route(from.site(), to.site());
  if (!wan) {
    throw ConnectError("no route between sites " + from.site() + " and " +
                       to.site());
  }
  links.push_back(&site_from.lan);
  for (std::size_t index : *wan) links.push_back(wan_links_[index].get());
  links.push_back(&site_to.lan);
  return links;
}

double Network::rtt(const Host& from, const Host& to) const {
  if (&from == &to) return 2 * loopback_lat_;
  double one_way = 0.0;
  const Site& site_from = sites_.at(from.site());
  const Site& site_to = sites_.at(to.site());
  if (from.site() == to.site()) {
    one_way = site_from.lan.latency_s;
  } else {
    auto wan = route(from.site(), to.site());
    if (!wan) {
      throw ConnectError("no route between sites " + from.site() + " and " +
                         to.site());
    }
    one_way = site_from.lan.latency_s + site_to.lan.latency_s;
    for (std::size_t index : *wan) one_way += wan_links_[index]->latency_s;
  }
  return 2 * one_way;
}

double Network::path_bandwidth(const Host& from, const Host& to,
                               int streams) const {
  if (&from == &to) return loopback_bw_;
  const Site& site_from = sites_.at(from.site());
  const Site& site_to = sites_.at(to.site());
  if (from.site() == to.site()) {
    return site_from.lan.effective_bandwidth(streams);
  }
  auto wan = route(from.site(), to.site());
  if (!wan) return 0.0;
  double narrowest = std::min(site_from.lan.effective_bandwidth(streams),
                              site_to.lan.effective_bandwidth(streams));
  for (std::size_t index : *wan) {
    narrowest =
        std::min(narrowest, wan_links_[index]->effective_bandwidth(streams));
  }
  return narrowest;
}

bool Network::path_fp_truncate(const Host& from, const Host& to) const {
  if (&from == &to || from.site() == to.site()) return false;
  auto wan = route(from.site(), to.site());
  if (!wan) return false;
  for (std::size_t index : *wan) {
    if (wan_links_[index]->fp_truncate) return true;
  }
  return false;
}

std::optional<double> Network::send(const Host& from, const Host& to,
                                    double bytes, TrafficClass cls,
                                    std::function<void()> on_delivery,
                                    int streams) {
  // Loopback has its own parameters but the same FIFO occupancy: a burst
  // of messages serializes at the configured bandwidth.
  if (&from == &to) {
    loopback_stats_.bytes_by_class[static_cast<int>(cls)] += bytes;
    ++loopback_stats_.messages;
    double start = std::max(sim_.now(), loopback_stats_.busy_until);
    double occupy = bytes / loopback_bw_;
    loopback_stats_.busy_until = start + occupy;
    double arrival = start + occupy + loopback_lat_;
    if (on_delivery) sim_.at(arrival, std::move(on_delivery));
    return arrival;
  }
  std::vector<Link*> links = path_links(from, to);
  double t = sim_.now();
  for (Link* link : links) {
    if (link->down) {
      log::debug("net") << "message " << from.name() << "->" << to.name()
                        << " lost: link " << link->name << " down";
      return std::nullopt;  // lost; transports above retry
    }
    int usable = streams;
    if (link->failed_streams > 0 && streams > 1) {
      usable = std::max(1, streams - link->failed_streams);
      if (usable < streams) ++degraded_transfers_;
    }
    double start = std::max(t, link->busy_until);
    double occupy = bytes / link->effective_bandwidth(usable);
    link->busy_until = start + occupy;
    link->bytes_by_class[static_cast<int>(cls)] += bytes;
    ++link->messages;
    t = start + occupy + link->latency_s;
  }
  if (on_delivery) sim_.at(t, std::move(on_delivery));
  return t;
}

void Network::set_link_down(const std::string& name, bool down) {
  for (auto& link : wan_links_) {
    if (link->name == name) {
      if (link->down == down) return;
      link->down = down;
      for (auto& watcher : link_watchers_) watcher(name, down);
      return;
    }
  }
  throw ConfigError("unknown link " + name);
}

void Network::flap_link(const std::string& name, double down_s) {
  set_link_down(name, true);
  sim_.after(down_s, [this, name] {
    // The link may have been healed (or hard-killed) meanwhile; only undo
    // our own drop.
    for (auto& link : wan_links_) {
      if (link->name == name && link->down) set_link_down(name, false);
    }
  });
}

void Network::fail_streams(const std::string& name, int failed,
                           double heal_s) {
  for (auto& link : wan_links_) {
    if (link->name != name) continue;
    link->failed_streams = std::max(0, failed);
    if (failed > 0) {
      log::warn("net") << "link " << name << ": " << failed
                       << " stripe stream(s) failed at t=" << sim_.now();
    }
    if (failed > 0 && heal_s > 0) {
      sim_.after(heal_s, [this, name] { fail_streams(name, 0); });
    }
    return;
  }
  throw ConfigError("unknown link " + name);
}

bool Network::route_up(const Host& from, const Host& to) {
  if (&from == &to) return true;
  try {
    for (const Link* link : path_links(from, to)) {
      if (link->down) return false;
    }
  } catch (const ConnectError&) {
    return false;
  }
  return true;
}

void Network::watch_links(std::function<void(const std::string&, bool)> watcher) {
  link_watchers_.push_back(std::move(watcher));
}

std::vector<Network::LinkReport> Network::traffic_report() const {
  std::vector<LinkReport> report;
  report.push_back(LinkReport{loopback_stats_.name, loopback_lat_, loopback_bw_,
                              loopback_stats_.bytes_by_class,
                              loopback_stats_.messages});
  for (const auto& [name, site] : sites_) {
    report.push_back(LinkReport{site.lan.name, site.lan.latency_s,
                                site.lan.bandwidth_Bps,
                                site.lan.bytes_by_class, site.lan.messages});
  }
  for (const auto& link : wan_links_) {
    report.push_back(LinkReport{link->name, link->latency_s,
                                link->bandwidth_Bps, link->bytes_by_class,
                                link->messages});
  }
  return report;
}

void Network::reset_traffic() {
  auto clear = [](Link& link) {
    link.bytes_by_class = {};
    link.messages = 0;
  };
  clear(loopback_stats_);
  for (auto& [name, site] : sites_) clear(site.lan);
  for (auto& link : wan_links_) clear(*link);
}

}  // namespace jungle::sim
