#include <gtest/gtest.h>

#include "gat/adapters.hpp"
#include "gat/gat.hpp"
#include "zorilla/zorilla.hpp"

using namespace jungle;
using namespace jungle::sim;
using namespace jungle::gat;

namespace {

struct World {
  Simulation sim;
  Network net{sim};
  smartsockets::SmartSockets sockets{net};
  Host* client;
  Host* frontend;
  std::vector<Host*> nodes;
  Resource cluster;

  World(int node_count = 4, int gpu_nodes = 1) {
    net.add_site("home");
    net.add_site("das4", 2e-6, 32e9 / 8);
    client = &net.add_host("client", "home", 4, 10);
    frontend = &net.add_host("fs0", "das4", 8, 10);
    for (int i = 0; i < node_count; ++i) {
      Host& node =
          net.add_host("node" + std::to_string(i), "das4", 8, 10);
      if (i < gpu_nodes) node.set_gpu(GpuSpec{"gtx580", 300});
      nodes.push_back(&node);
    }
    net.add_link("home", "das4", 1e-3, 1e9 / 8);
    cluster.name = "das4-vu";
    cluster.middleware = "sge";
    cluster.frontend = frontend;
    cluster.nodes = nodes;
    cluster.queue = std::make_shared<ClusterQueue>(sim);
    cluster.queue->set_nodes(nodes);
  }

  ~World() { sim.shutdown(); }

  std::unique_ptr<Broker> make_broker() {
    auto broker = std::make_unique<Broker>(net, sockets, *client);
    broker->register_default_adapters();
    return broker;
  }
};

}  // namespace

TEST(Gat, LocalAdapterRunsOnClient) {
  World w;
  auto broker_ptr = w.make_broker(); Broker& broker = *broker_ptr;
  Resource local;
  local.name = "local";
  local.middleware = "local";
  local.frontend = w.client;
  std::string ran_on;
  JobDescription desc;
  desc.name = "hello";
  desc.main = [&](JobContext& context) {
    ran_on = context.hosts.front()->name();
  };
  std::shared_ptr<Job> job;
  w.client->spawn("script", [&] {
    job = broker.submit(desc, local);
    EXPECT_EQ(job->wait_until_terminal(), JobState::stopped);
  });
  w.sim.run();
  EXPECT_EQ(ran_on, "client");
  EXPECT_EQ(job->adapter(), "local");
}

TEST(Gat, SgeJobWaitsForQueueAndRuns) {
  World w;
  auto broker_ptr = w.make_broker(); Broker& broker = *broker_ptr;
  std::string ran_on;
  double started_at = -1;
  JobDescription desc;
  desc.name = "worker";
  desc.main = [&](JobContext& context) {
    ran_on = context.hosts.front()->name();
    started_at = w.sim.now();
    w.sim.sleep(1.0);
  };
  std::shared_ptr<Job> job;
  w.client->spawn("script", [&] {
    job = broker.submit(desc, w.cluster);
    EXPECT_EQ(job->wait_until_terminal(), JobState::stopped);
  });
  w.sim.run();
  // node0 carries the cluster's GPU; the queue keeps it for GPU jobs and
  // hands this CPU job the first CPU-only node.
  EXPECT_EQ(ran_on, "node1");
  EXPECT_GE(started_at, 2.0);  // sge default queue delay
  EXPECT_EQ(job->adapter(), "sge");
}

TEST(Gat, JobStateSequence) {
  World w;
  auto broker_ptr = w.make_broker(); Broker& broker = *broker_ptr;
  std::vector<JobState> states;
  JobDescription desc;
  desc.name = "seq";
  desc.stage_in_bytes = 1e6;
  desc.main = [&](JobContext&) {};
  w.client->spawn("script", [&] {
    auto job = broker.submit(desc, w.cluster);
    job->on_state([&](JobState state) { states.push_back(state); });
    job->wait_until_terminal();
  });
  w.sim.run();
  // preStaging may fire before the listener attaches; require the tail.
  ASSERT_GE(states.size(), 3u);
  EXPECT_EQ(states[states.size() - 3], JobState::scheduled);
  EXPECT_EQ(states[states.size() - 2], JobState::running);
  EXPECT_EQ(states[states.size() - 1], JobState::stopped);
}

TEST(Gat, GpuRequestGetsGpuNode) {
  World w(4, 2);
  auto broker_ptr = w.make_broker(); Broker& broker = *broker_ptr;
  std::string ran_on;
  bool had_gpu = false;
  JobDescription desc;
  desc.name = "cuda-worker";
  desc.needs_gpu = true;
  desc.main = [&](JobContext& context) {
    ran_on = context.hosts.front()->name();
    had_gpu = context.hosts.front()->gpu().has_value();
  };
  w.client->spawn("script", [&] {
    broker.submit(desc, w.cluster)->wait_until_terminal();
  });
  w.sim.run();
  EXPECT_TRUE(had_gpu);
}

TEST(Gat, CpuJobsLeaveGpuNodesForGpuJobs) {
  // One GPU in the cluster, CPU jobs submitted first: first-fit would park
  // a CPU job on the GPU node and starve the GPU job for the whole run.
  World w(3, 1);
  auto broker_ptr = w.make_broker(); Broker& broker = *broker_ptr;
  std::string gpu_ran_on;
  JobDescription cpu_desc;
  cpu_desc.name = "cpu-worker";
  cpu_desc.main = [&](JobContext& context) {
    context.hosts.front()->simulation().sleep(5.0);  // holds its node
  };
  JobDescription gpu_desc;
  gpu_desc.name = "cuda-worker";
  gpu_desc.needs_gpu = true;
  gpu_desc.main = [&](JobContext& context) {
    gpu_ran_on = context.hosts.front()->name();
  };
  w.client->spawn("script", [&] {
    auto cpu_a = broker.submit(cpu_desc, w.cluster);
    auto cpu_b = broker.submit(cpu_desc, w.cluster);
    auto gpu = broker.submit(gpu_desc, w.cluster);
    gpu->wait_until_terminal();
    cpu_a->wait_until_terminal();
    cpu_b->wait_until_terminal();
  });
  w.sim.run();
  EXPECT_EQ(gpu_ran_on, "node0");  // the GPU node stayed free for it
}

TEST(Gat, GpuRequestOnCpuClusterFails) {
  World w(4, 0);
  auto broker_ptr = w.make_broker(); Broker& broker = *broker_ptr;
  JobDescription desc;
  desc.name = "cuda-worker";
  desc.needs_gpu = true;
  desc.main = [](JobContext&) {};
  bool threw = false;
  w.client->spawn("script", [&] {
    try {
      broker.submit(desc, w.cluster);
    } catch (const GatError&) {
      threw = true;
    }
  });
  w.sim.run();
  EXPECT_TRUE(threw);
}

TEST(Gat, QueueSerializesWhenFull) {
  World w(2, 0);
  auto broker_ptr = w.make_broker(); Broker& broker = *broker_ptr;
  std::vector<double> start_times;
  JobDescription desc;
  desc.name = "filler";
  desc.node_count = 2;
  desc.main = [&](JobContext&) {
    start_times.push_back(w.sim.now());
    w.sim.sleep(10.0);
  };
  w.client->spawn("script", [&] {
    auto first = broker.submit(desc, w.cluster);
    auto second = broker.submit(desc, w.cluster);
    first->wait_until_terminal();
    second->wait_until_terminal();
  });
  w.sim.run();
  ASSERT_EQ(start_times.size(), 2u);
  // Second job cannot start until the first releases both nodes.
  EXPECT_GE(start_times[1] - start_times[0], 10.0);
}

TEST(Gat, TooManyNodesFailsFast) {
  World w(2, 0);
  auto broker_ptr = w.make_broker(); Broker& broker = *broker_ptr;
  JobDescription desc;
  desc.name = "big";
  desc.node_count = 16;
  desc.main = [](JobContext&) {};
  bool threw = false;
  w.client->spawn("script", [&] {
    try {
      broker.submit(desc, w.cluster);
    } catch (const GatError&) {
      threw = true;
    }
  });
  w.sim.run();
  EXPECT_TRUE(threw);
}

TEST(Gat, JobErrorCapturedNotThrown) {
  World w;
  auto broker_ptr = w.make_broker(); Broker& broker = *broker_ptr;
  JobDescription desc;
  desc.name = "crasher";
  desc.main = [](JobContext&) { throw CodeError("kernel exploded"); };
  JobState final_state{};
  std::string error;
  w.client->spawn("script", [&] {
    auto job = broker.submit(desc, w.cluster);
    final_state = job->wait_until_terminal();
    error = job->error_message();
  });
  w.sim.run();
  EXPECT_EQ(final_state, JobState::error);
  EXPECT_NE(error.find("kernel exploded"), std::string::npos);
}

TEST(Gat, CancelReleasesNodes) {
  World w(1, 0);
  auto broker_ptr = w.make_broker(); Broker& broker = *broker_ptr;
  JobDescription desc;
  desc.name = "longjob";
  desc.main = [&](JobContext&) { w.sim.sleep(1e6); };
  w.client->spawn("script", [&] {
    auto job = broker.submit(desc, w.cluster);
    job->wait_until_running();
    EXPECT_EQ(w.cluster.queue->busy_nodes(), 1);
    job->cancel();
    w.sim.sleep(0.1);
    EXPECT_EQ(w.cluster.queue->busy_nodes(), 0);
    // Nodes free again: a second job can run.
    JobDescription next;
    next.name = "next";
    bool ran = false;
    next.main = [&ran](JobContext&) { ran = true; };
    broker.submit(next, w.cluster)->wait_until_terminal();
    EXPECT_TRUE(ran);
  });
  w.sim.run();
}

TEST(Gat, GlobusNeedsCredential) {
  World w;
  w.cluster.middleware = "globus";
  w.cluster.gatekeeper_cert = "das-cert";
  auto broker_ptr = w.make_broker(); Broker& broker = *broker_ptr;
  JobDescription desc;
  desc.name = "gridjob";
  desc.main = [](JobContext&) {};
  bool failed_without = false;
  w.client->spawn("script", [&] {
    try {
      broker.submit(desc, w.cluster);
    } catch (const GatError&) {
      failed_without = true;
    }
    broker.add_credential("das-cert");
    auto job = broker.submit(desc, w.cluster);
    EXPECT_EQ(job->wait_until_terminal(), JobState::stopped);
    EXPECT_EQ(job->adapter(), "globus");
  });
  w.sim.run();
  EXPECT_TRUE(failed_without);
}

TEST(Gat, SshBlockedByFirewallReportsFailure) {
  World w;
  w.frontend->firewall().allow_inbound = false;
  w.frontend->firewall().allow_ssh_inbound = false;  // fully filtered
  Resource ssh_box;
  ssh_box.name = "remote";
  ssh_box.middleware = "ssh";
  ssh_box.frontend = w.frontend;
  auto broker_ptr = w.make_broker(); Broker& broker = *broker_ptr;
  JobDescription desc;
  desc.name = "job";
  desc.main = [](JobContext&) {};
  bool threw = false;
  w.client->spawn("script", [&] {
    try {
      broker.submit(desc, ssh_box);
    } catch (const GatError& failure) {
      threw = true;
      EXPECT_NE(std::string(failure.what()).find("ssh"), std::string::npos);
    }
  });
  w.sim.run();
  EXPECT_TRUE(threw);
}

TEST(Gat, BrokerFallsBackToZorillaWhenSshBlocked) {
  // The "automatic adapter selection" story: ssh fails through the
  // firewall, the zorilla P2P adapter picks up the job.
  World w;
  w.frontend->firewall().allow_inbound = false;
  zorilla::Overlay overlay(w.net, 42);
  auto& client_node = overlay.add_node(*w.client);
  overlay.add_node(*w.nodes[0], &client_node);
  overlay.gossip_until_converged();

  Resource hybrid;
  hybrid.name = "remote";
  hybrid.middleware = "zorilla";  // described as a zorilla resource
  hybrid.frontend = w.frontend;

  auto broker_ptr = w.make_broker(); Broker& broker = *broker_ptr;
  broker.register_adapter(
      std::make_unique<zorilla::ZorillaAdapter>(overlay));
  JobDescription desc;
  desc.name = "job";
  desc.main = [](JobContext&) {};
  std::string adapter_used;
  w.client->spawn("script", [&] {
    auto job = broker.submit(desc, hybrid);
    job->wait_until_terminal();
    adapter_used = job->adapter();
  });
  w.sim.run();
  EXPECT_EQ(adapter_used, "zorilla");
}

TEST(Gat, StageInChargesFileTraffic) {
  World w;
  auto broker_ptr = w.make_broker(); Broker& broker = *broker_ptr;
  JobDescription desc;
  desc.name = "staged";
  desc.stage_in_bytes = 10e6;
  desc.main = [](JobContext&) {};
  w.client->spawn("script", [&] {
    broker.submit(desc, w.cluster)->wait_until_terminal();
  });
  w.sim.run();
  double file_bytes = 0;
  for (const auto& link : w.net.traffic_report()) {
    file_bytes += link.bytes_by_class[static_cast<int>(TrafficClass::file)];
  }
  EXPECT_GE(file_bytes, 10e6);
}

TEST(Gat, FileServiceRetriesOverDownLink) {
  World w;
  FileService files(w.net);
  double took = -1;
  w.client->spawn("copier", [&] {
    w.net.set_link_down("home<->das4", true);
    w.sim.after(2.0, [&] { w.net.set_link_down("home<->das4", false); });
    took = files.copy(*w.client, *w.frontend, 1e6);
  });
  w.sim.run();
  EXPECT_GE(took, 2.0);  // waited out the outage, then copied
}

TEST(Gat, CopyKilledMidTransferOutlivesItsDelivery) {
  // A copier killed while its bytes are still on the wire unwinds its
  // frame (a crashed frontend does this to a stage-in). The delivery that
  // lands afterwards must not write into that frame.
  World w;
  FileService files(w.net);
  bool returned = false;
  w.client->spawn("copier", [&] {
    files.copy(*w.client, *w.frontend, 1e9);  // ~8 s at 1 Gbit/s
    returned = true;
  });
  w.sim.after(1.0, [&] { EXPECT_TRUE(w.client->kill_process("copier")); });
  w.sim.run();
  EXPECT_FALSE(returned);
  EXPECT_GT(w.sim.now(), 8.0);  // the simulation ran past the arrival
}
