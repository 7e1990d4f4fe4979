#pragma once
// One cluster harness for every end-to-end check: the paper's §7 RSM
// (Alg. 5–7) over GWTS or GSbS — n replicas, the Byzantine slots among
// them, and a client workload — built one way and hosted by any runtime.
//
// Building. Node ids 0..n-1 are replicas; a Byzantine slot (Topology
// rule: byz_ids, default the top f ids) holds the adversary factory's
// process or a SilentProcess. Ids n..n+clients-1 are clients: BatchClients
// streaming encoded commands, or RsmClients running (update, read)
// scripts. One key set covers replicas and clients (n + clients keys),
// and when a fault plan is set one FaultyNetwork wraps every process.
// The replica and client configs are templates: the harness fills in
// only self / n / f / signer / registry per node.
//
// Hosting (Runtime) decides nothing else:
//   kSim     one deterministic SimNetwork: run_until_done() / run();
//   kSocket  a SocketNetwork event loop per process over loopback TCP,
//            driven by start() / wait_until_done() / wait_quiescent() /
//            stop(). start() hosts the replicas; clients are hosted
//            lazily, all at once by wait_until_done() or one at a time by
//            run_client(i), which drives client i to completion. crash(i)
//            is kill -9 fidelity (no drain, replica state destroyed);
//            restart(i) brings a FRESH replica up on the original port,
//            so catching up through the checkpoint protocol is what a
//            test observes.
//
// Socket port discipline: every replica listener is bound on port 0
// FIRST and the kernel-assigned ports read back before any address map
// exists — no guessed ports, no collisions between parallel test jobs.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "batch/client.hpp"
#include "fault/fault.hpp"
#include "net/sim_network.hpp"
#include "net/socket_network.hpp"
#include "obs/registry.hpp"
#include "rsm/client.hpp"
#include "rsm/replica.hpp"
#include "testutil/scenario.hpp"

namespace bla::testutil {

enum class Runtime : std::uint8_t { kSim, kSocket };

enum class Workload : std::uint8_t {
  kBatch,      // BatchClients (src/batch/) streaming encoded commands
  kRsmScript,  // RsmClients (Alg. 7) running (update, read) pairs
};

class Cluster;

/// Builds the process for a Byzantine slot (nullptr => SilentProcess).
/// `cluster.make_replica(id)` is the honest replica the slot would
/// otherwise hold, for adversaries that wrap one.
using ClusterAdversary = std::function<std::unique_ptr<net::IProcess>(
    net::NodeId id, const Cluster& cluster)>;

struct ClusterOptions : Topology {
  Runtime runtime = Runtime::kSim;
  ClusterAdversary adversary;
  /// Shared by the runtime, every replica, every client and the fault
  /// injector, so the command-lifecycle histograms (seal → RBC deliver →
  /// decide → execute → confirm) span the whole system. Null keeps
  /// private per-component registries with lifecycle tracking off.
  std::shared_ptr<obs::Registry> registry;
  /// Real Ed25519 keys instead of the HMAC simulation scheme.
  bool use_ed25519 = false;
  /// Non-empty: one FaultyNetwork running this plan wraps every process.
  fault::FaultPlan fault_plan;
  /// Replica template. Batch clients match decide notifications by
  /// digest; RsmClient scripts need full values, so kRsmScript runs set
  /// digest_decide_notifications = false.
  rsm::ReplicaConfig replica = {.max_rounds = 200,
                                .digest_decide_notifications = true};
  /// BatchClient template (kBatch).
  batch::BatchClient::Config client = {.builder = {.max_commands = 8}};
  Workload workload = Workload::kBatch;
  std::size_t clients = 1;
  /// kBatch: commands per client; kRsmScript: (update, read) pairs.
  std::size_t commands_per_client = 32;
  /// Every command payload is (command_tag, client id, k).
  std::string command_tag = "batched-op";
};

class Cluster {
public:
  explicit Cluster(ClusterOptions options);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // -- kSim ----------------------------------------------------------------
  /// Runs until every client is done (or the event budget runs out).
  /// Leaves residual engine rounds un-drained — run() afterwards reaches
  /// quiescence when replica-state assertions need every correct replica
  /// caught up.
  std::uint64_t run_until_done(std::uint64_t max_events = 400'000'000);
  /// Runs to full quiescence.
  std::uint64_t run(std::uint64_t max_events = 400'000'000);
  [[nodiscard]] net::SimNetwork& network() { return *sim_; }

  // -- kSocket -------------------------------------------------------------
  /// Starts every replica's event loop (listeners are already bound).
  void start();
  /// Hosts every client not hosted yet, then polls until every client is
  /// done or `timeout_sec` passes.
  bool wait_until_done(double timeout_sec);
  /// Waits until no hosted network's traffic totals move for a few
  /// consecutive polls (see net::wait_quiescent). kSim: runs the event
  /// queue dry instead; true iff it drained within the default budget.
  bool wait_quiescent(int timeout_ms);
  /// Stops everything still running and joins every event loop; state
  /// stays readable. Queued frames are discarded, not drained: every
  /// peer is going down too, so a drain would only wait out each
  /// network's drain_timeout in turn.
  void stop();
  /// kill -9 equivalent: abrupt network teardown + replica destruction.
  void crash(std::size_t id);
  /// Fresh replica + network on the crashed replica's original port.
  void restart(std::size_t id);

  struct ClientResult {
    bool done = false;
    std::uint64_t submitted = 0;
    std::uint64_t dropped = 0;
    std::uint64_t failed = 0;
  };
  /// Hosts client `index` (node id n + index) and drives its workload to
  /// completion or `timeout_sec`, synchronously.
  ClientResult run_client(std::size_t index, double timeout_sec);

  // -- Observers -----------------------------------------------------------
  /// The honest replica node `id` holds: the options' template with
  /// self / n / f / signer / registry filled in.
  [[nodiscard]] std::unique_ptr<rsm::RsmReplica> make_replica(
      net::NodeId id) const;
  /// Correct replicas in id order (null while crashed).
  [[nodiscard]] const std::vector<rsm::RsmReplica*>& correct_replicas()
      const {
    return replicas_;
  }
  [[nodiscard]] const std::vector<batch::BatchClient*>& clients() const {
    return clients_;
  }
  [[nodiscard]] const std::vector<rsm::RsmClient*>& rsm_clients() const {
    return rsm_clients_;
  }
  [[nodiscard]] bool all_clients_done() const;
  /// Every command (encoded) the batch clients were scripted to submit.
  [[nodiscard]] const core::ValueSet& expected_commands() const {
    return expected_;
  }
  /// Every completed RsmClient operation, ordered by finish time.
  [[nodiscard]] std::vector<rsm::RsmClient::OpResult> all_ops() const;
  /// Union of the updates the RsmClients completed.
  [[nodiscard]] core::ValueSet submitted_commands() const;
  /// The fault injector, present iff options.fault_plan was non-empty.
  [[nodiscard]] const fault::FaultInjector* fault_injector() const {
    return faulty_ ? &faulty_->injector() : nullptr;
  }
  [[nodiscard]] const std::shared_ptr<obs::Registry>& registry() const {
    return options_.registry;
  }

private:
  /// Node `id`'s process (Byzantine slot, replica or client), with its
  /// observer recorded and the fault wrap applied.
  [[nodiscard]] std::unique_ptr<net::IProcess> make_node(net::NodeId id);
  /// Position of replica `id` in correct_replicas().
  [[nodiscard]] std::size_t replica_slot(net::NodeId id) const;
  /// kSocket: hosts every node in [begin, end) still waiting in
  /// `unhosted_`.
  void host_built(std::size_t begin, std::size_t end);
  /// kSocket: hosts `process` as node `id` (replicas on their pre-bound
  /// listener, clients dial only).
  void host_socket(net::NodeId id, std::unique_ptr<net::IProcess> process);

  ClusterOptions options_;
  std::shared_ptr<crypto::ISignerSet> signers_;
  std::unique_ptr<fault::FaultyNetwork> faulty_;  // engaged iff plan set
  std::unique_ptr<net::SimNetwork> sim_;
  // kSocket: one network per node id; built processes wait in `unhosted_`
  // until start() / run_client() hosts them.
  std::vector<std::unique_ptr<net::SocketNetwork>> sockets_;
  std::vector<std::unique_ptr<net::IProcess>> unhosted_;
  std::vector<std::string> peer_addrs_;
  std::vector<std::uint16_t> ports_;
  std::vector<int> listen_fds_;  // pre-bound, handed to networks on start

  std::vector<rsm::RsmReplica*> replicas_;
  std::vector<batch::BatchClient*> clients_;
  std::vector<rsm::RsmClient*> rsm_clients_;
  core::ValueSet expected_;
};

/// Hosts processes[i] as member i of a loopback TCP cluster of
/// processes.size() SocketNetworks, every listener bound on port 0 before
/// any address map exists, and starts them all. For protocol-level tests
/// that need real concurrency without the RSM stack Cluster builds.
[[nodiscard]] std::vector<std::unique_ptr<net::SocketNetwork>> start_loopback(
    std::vector<std::unique_ptr<net::IProcess>> processes,
    std::shared_ptr<obs::Registry> registry = nullptr);

}  // namespace bla::testutil
