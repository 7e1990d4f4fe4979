#include "testutil/cluster.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "net/conn.hpp"
#include "rsm/command.hpp"

namespace bla::testutil {

namespace {

/// Client `id`'s k-th command payload: (tag, id, k).
wire::Bytes command_payload(const std::string& tag, net::NodeId id,
                            std::size_t k) {
  wire::Encoder payload;
  payload.str(tag);
  payload.u32(id);
  payload.uvarint(k);
  return payload.take();
}

}  // namespace

Cluster::Cluster(ClusterOptions options) : options_(std::move(options)) {
  const std::size_t key_count = options_.n + options_.clients;
  signers_ = options_.use_ed25519
                 ? crypto::make_ed25519_signer_set(key_count, options_.seed)
                 : crypto::make_hmac_signer_set(key_count, options_.seed);
  if (!options_.fault_plan.empty()) {
    faulty_ = std::make_unique<fault::FaultyNetwork>(options_.fault_plan,
                                                     options_.registry);
  }
  for (net::NodeId id = 0; id < options_.n; ++id) {
    if (!options_.is_byzantine(id)) replicas_.push_back(nullptr);
  }

  switch (options_.runtime) {
    case Runtime::kSim: {
      net::SimNetwork::Config cfg;
      cfg.seed = options_.seed;
      cfg.delay = std::move(options_.delay);
      cfg.registry = options_.registry;
      sim_ = std::make_unique<net::SimNetwork>(std::move(cfg));
      break;
    }
    case Runtime::kSocket:
      for (std::size_t id = 0; id < options_.n; ++id) {
        const int fd = net::listen_on(net::SocketAddr{"127.0.0.1", 0});
        if (fd < 0) throw std::runtime_error("Cluster: bind failed");
        listen_fds_.push_back(fd);
        ports_.push_back(net::local_port(fd));
        peer_addrs_.push_back("127.0.0.1:" + std::to_string(ports_.back()));
      }
      sockets_.resize(options_.n + options_.clients);
      break;
  }

  // Every process — replicas, adversaries, clients — in id order.
  for (net::NodeId id = 0; id < options_.n + options_.clients; ++id) {
    auto node = make_node(id);
    if (sim_) {
      sim_->add_process(std::move(node));
    } else {
      unhosted_.push_back(std::move(node));
    }
  }
}

Cluster::~Cluster() {
  stop();
  for (std::size_t id = 0; id < listen_fds_.size(); ++id) {
    // fds not yet handed to a network (start() never ran for this id).
    if (!sockets_[id] && listen_fds_[id] >= 0) ::close(listen_fds_[id]);
  }
}

std::unique_ptr<rsm::RsmReplica> Cluster::make_replica(net::NodeId id) const {
  rsm::ReplicaConfig rc = options_.replica;
  rc.self = id;
  rc.n = options_.n;
  rc.f = options_.f;
  rc.signer = signers_->signer_for(id);
  rc.registry = options_.registry;
  return std::make_unique<rsm::RsmReplica>(rc);
}

std::size_t Cluster::replica_slot(net::NodeId id) const {
  std::size_t slot = 0;
  for (net::NodeId i = 0; i < id; ++i) {
    if (!options_.is_byzantine(i)) ++slot;
  }
  return slot;
}

std::unique_ptr<net::IProcess> Cluster::make_node(net::NodeId id) {
  std::unique_ptr<net::IProcess> process;
  if (id < options_.n && options_.is_byzantine(id)) {
    process =
        or_silent(options_.adversary ? options_.adversary(id, *this) : nullptr);
  } else if (id < options_.n) {
    auto replica = make_replica(id);
    replicas_[replica_slot(id)] = replica.get();
    process = std::move(replica);
  } else if (options_.workload == Workload::kBatch) {
    std::vector<lattice::Value> commands;
    commands.reserve(options_.commands_per_client);
    for (std::size_t k = 0; k < options_.commands_per_client; ++k) {
      rsm::Command cmd;
      cmd.client = id;
      cmd.seq = k;
      cmd.nop = false;
      cmd.payload = command_payload(options_.command_tag, id, k);
      commands.push_back(rsm::encode_command(cmd));
      expected_.insert(commands.back());
    }
    batch::BatchClient::Config cc = options_.client;
    cc.self = id;
    cc.n = options_.n;
    cc.f = options_.f;
    cc.registry = options_.registry;
    auto client = std::make_unique<batch::BatchClient>(
        cc, signers_->signer_for(id), std::move(commands));
    clients_.push_back(client.get());
    process = std::move(client);
  } else {
    std::vector<rsm::RsmClient::Op> script;
    for (std::size_t k = 0; k < options_.commands_per_client; ++k) {
      script.push_back(
          {/*is_read=*/false, command_payload(options_.command_tag, id, k)});
      script.push_back({/*is_read=*/true, {}});
    }
    auto client = std::make_unique<rsm::RsmClient>(
        rsm::ClientConfig{id, options_.n, options_.f}, std::move(script));
    rsm_clients_.push_back(client.get());
    process = std::move(client);
  }
  return faulty_ ? faulty_->wrap(std::move(process)) : std::move(process);
}

// ---------------------------------------------------------------------------
// Driving.
// ---------------------------------------------------------------------------

std::uint64_t Cluster::run_until_done(std::uint64_t max_events) {
  return sim_->run(max_events, [this] { return all_clients_done(); });
}

std::uint64_t Cluster::run(std::uint64_t max_events) {
  return sim_->run(max_events);
}

void Cluster::start() { host_built(0, options_.n); }

bool Cluster::wait_until_done(double timeout_sec) {
  host_built(options_.n, sockets_.size());
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_sec);
  while (!all_clients_done() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return all_clients_done();
}

bool Cluster::wait_quiescent(int timeout_ms) {
  if (sim_) {
    constexpr std::uint64_t kBudget = 400'000'000;
    return run(kBudget) < kBudget;
  }
  std::vector<const net::SocketNetwork*> hosted;
  for (const auto& net : sockets_) {
    if (net) hosted.push_back(net.get());
  }
  return net::wait_quiescent(hosted, timeout_ms);
}

void Cluster::stop() {
  for (auto& net : sockets_) {
    if (net) net->kill();
  }
}

void Cluster::host_built(std::size_t begin, std::size_t end) {
  for (std::size_t id = begin; id < end; ++id) {
    if (!sockets_[id] && unhosted_[id]) {
      host_socket(static_cast<net::NodeId>(id), std::move(unhosted_[id]));
    }
  }
}

void Cluster::host_socket(net::NodeId id,
                          std::unique_ptr<net::IProcess> process) {
  net::SocketNetwork::Config nc;
  nc.self = id;
  nc.cluster_n = options_.n;
  nc.peers = peer_addrs_;
  nc.listen_fd = id < options_.n ? listen_fds_[id] : -1;
  nc.max_clients = options_.clients;  // match the signer-set sizing
  nc.seed = options_.seed * 1000003ULL + id;
  nc.reconnect_base = 0.02;
  nc.reconnect_max = 0.5;
  nc.registry = options_.registry;
  sockets_[id] = std::make_unique<net::SocketNetwork>(std::move(nc));
  sockets_[id]->host(std::move(process));
  sockets_[id]->start();
}

void Cluster::crash(std::size_t id) {
  if (!sockets_.at(id)) return;
  sockets_[id]->kill();
  sockets_[id].reset();  // replica state dies with the network
  listen_fds_[id] = -1;  // old fd was owned (and closed) by the network
  if (!options_.is_byzantine(static_cast<net::NodeId>(id))) {
    replicas_[replica_slot(static_cast<net::NodeId>(id))] = nullptr;
  }
}

void Cluster::restart(std::size_t id) {
  if (sockets_.at(id)) return;
  // Rebind the original port so the survivors' address maps stay right.
  // The dying listener may linger a moment in the kernel; retry briefly.
  int fd = -1;
  for (int attempt = 0; attempt < 100 && fd < 0; ++attempt) {
    fd = net::listen_on(net::SocketAddr{"127.0.0.1", ports_[id]});
    if (fd < 0) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  if (fd < 0) throw std::runtime_error("Cluster: rebind failed");
  listen_fds_[id] = fd;
  host_socket(static_cast<net::NodeId>(id),
              make_node(static_cast<net::NodeId>(id)));
}

Cluster::ClientResult Cluster::run_client(std::size_t index,
                                          double timeout_sec) {
  const std::size_t id = options_.n + index;
  host_built(id, id + 1);
  const batch::BatchClient* client = clients_.at(index);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_sec);
  while (!client->done() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  sockets_[id]->stop();  // joins the loop: the client is safe to read
  return {client->done(), client->commands_submitted(),
          client->commands_dropped(), client->pipeline().commands_failed()};
}

// ---------------------------------------------------------------------------
// Observers.
// ---------------------------------------------------------------------------

bool Cluster::all_clients_done() const {
  return std::all_of(clients_.begin(), clients_.end(),
                     [](const auto* c) { return c->done(); }) &&
         std::all_of(rsm_clients_.begin(), rsm_clients_.end(),
                     [](const auto* c) { return c->script_done(); });
}

std::vector<rsm::RsmClient::OpResult> Cluster::all_ops() const {
  std::vector<rsm::RsmClient::OpResult> ops;
  for (const rsm::RsmClient* client : rsm_clients_) {
    ops.insert(ops.end(), client->completed().begin(),
               client->completed().end());
  }
  std::sort(ops.begin(), ops.end(), [](const auto& a, const auto& b) {
    return a.finish_time < b.finish_time;
  });
  return ops;
}

core::ValueSet Cluster::submitted_commands() const {
  core::ValueSet out;
  for (const rsm::RsmClient* client : rsm_clients_) {
    for (const auto& op : client->completed()) {
      if (!op.is_read) out.insert(op.command);
    }
  }
  return out;
}

std::vector<std::unique_ptr<net::SocketNetwork>> start_loopback(
    std::vector<std::unique_ptr<net::IProcess>> processes,
    std::shared_ptr<obs::Registry> registry) {
  std::vector<int> fds;
  std::vector<std::string> peers;
  for (std::size_t id = 0; id < processes.size(); ++id) {
    const int fd = net::listen_on(net::SocketAddr{"127.0.0.1", 0});
    if (fd < 0) {
      for (const int bound : fds) ::close(bound);
      throw std::runtime_error("start_loopback: bind failed");
    }
    fds.push_back(fd);
    peers.push_back("127.0.0.1:" + std::to_string(net::local_port(fd)));
  }
  std::vector<std::unique_ptr<net::SocketNetwork>> nets;
  for (std::size_t id = 0; id < processes.size(); ++id) {
    nets.push_back(std::make_unique<net::SocketNetwork>(
        net::SocketNetwork::Config{.self = static_cast<net::NodeId>(id),
                                   .cluster_n = processes.size(),
                                   .peers = peers,
                                   .listen_fd = fds[id],
                                   .seed = id + 1,  // decorrelate redials
                                   .registry = registry}));
    nets.back()->host(std::move(processes[id]));
  }
  for (auto& net : nets) net->start();
  return nets;
}

}  // namespace bla::testutil
