#pragma once
// Scenario builders: wire up a SimNetwork with n nodes, some of which are
// adversaries, run to quiescence, and expose the correct processes for
// property checking. Shared by the test suite and the bench harness so
// every experiment is constructed the same way. The RSM-level harness
// (replicas + clients on any runtime) is testutil::Cluster, cluster.hpp.

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/adversary.hpp"
#include "core/baseline.hpp"
#include "core/gwts.hpp"
#include "core/sbs.hpp"
#include "core/wts.hpp"
#include "crypto/signer.hpp"
#include "net/sim_network.hpp"

namespace bla::testutil {

/// Produces the adversary process for a Byzantine slot, or nullptr to make
/// that slot a silent crash.
using AdversaryFactory =
    std::function<std::unique_ptr<net::IProcess>(net::NodeId id)>;

/// The node layout every harness shares: n nodes, the Byzantine slots
/// among them, and the simulator's seed and delay model.
struct Topology {
  std::size_t n = 4;
  std::size_t f = 1;
  std::uint64_t seed = 1;
  /// Node ids of the Byzantine slots; defaults to the *last* f ids. An id
  /// ≥ n names no node, so {n} leaves every slot correct.
  std::vector<net::NodeId> byz_ids;
  std::unique_ptr<net::IDelayModel> delay;  // default ConstantDelay(1)

  [[nodiscard]] std::vector<net::NodeId> byzantine_ids() const {
    if (!byz_ids.empty()) return byz_ids;
    std::vector<net::NodeId> ids;
    for (std::size_t i = n - f; i < n; ++i) {
      ids.push_back(static_cast<net::NodeId>(i));
    }
    return ids;
  }
  [[nodiscard]] bool is_byzantine(net::NodeId id) const {
    const auto ids = byzantine_ids();
    return std::find(ids.begin(), ids.end(), id) != ids.end();
  }
};

/// The process for a Byzantine slot: the factory's, or a SilentProcess
/// when there is no factory or it declines (returns nullptr).
[[nodiscard]] std::unique_ptr<net::IProcess> or_silent(
    std::unique_ptr<net::IProcess> adversary);

struct ScenarioOptions : Topology {
  /// Adversary behaviour (nullptr => SilentProcess).
  AdversaryFactory adversary;
  /// Which signature scheme backs signed engines (SbS).
  bool use_ed25519 = false;
};
using SbsScenarioOptions = ScenarioOptions;

/// Standard per-node proposal value used across scenarios: "v<id>".
[[nodiscard]] core::Value proposal_value(net::NodeId id);

// ---------------------------------------------------------------------------
// One-shot scenario: every correct node proposes proposal_value(id) once
// (WTS, Alg. 1–2; SbS, Alg. 3–4).
// ---------------------------------------------------------------------------

template <class Process>
class OneShotScenario {
public:
  explicit OneShotScenario(ScenarioOptions options);

  /// Runs until the network drains or `max_events` fire.
  std::uint64_t run(std::uint64_t max_events = 50'000'000);

  [[nodiscard]] net::SimNetwork& network() { return *net_; }
  [[nodiscard]] const std::vector<Process*>& correct() const {
    return correct_;
  }
  [[nodiscard]] bool all_correct_decided() const;
  [[nodiscard]] std::vector<core::ValueSet> decisions() const;
  /// Union of the correct processes' proposed values (the X of
  /// Non-Triviality).
  [[nodiscard]] core::ValueSet correct_inputs() const;
  [[nodiscard]] double max_decide_time() const;

private:
  ScenarioOptions options_;
  std::unique_ptr<net::SimNetwork> net_;
  std::vector<Process*> correct_;
  std::vector<net::NodeId> correct_ids_;
};

using WtsScenario = OneShotScenario<core::WtsProcess>;
using SbsScenario = OneShotScenario<core::SbsProcess>;

// ---------------------------------------------------------------------------
// GWTS scenario.
// ---------------------------------------------------------------------------

struct GwtsScenarioOptions : ScenarioOptions {
  std::uint64_t rounds = 3;
  /// Values submitted per correct process per round.
  std::size_t values_per_round = 1;
  /// Extra value-free rounds appended so the *eventual* inclusivity of
  /// the GLA spec can materialize for last-round values: a process may
  /// decide a round by adopting another proposer's committed set that
  /// predates its own request, so a value needs a couple of rounds to be
  /// guaranteed into every later committed proposal (Observation 4/5).
  std::uint64_t settle_rounds = 2;
};

class GwtsScenario {
public:
  explicit GwtsScenario(GwtsScenarioOptions options);

  std::uint64_t run(std::uint64_t max_events = 100'000'000);

  [[nodiscard]] net::SimNetwork& network() { return *net_; }
  [[nodiscard]] const std::vector<core::GwtsProcess*>& correct() const {
    return correct_;
  }
  [[nodiscard]] bool all_completed_rounds() const;
  [[nodiscard]] core::ValueSet correct_inputs() const;
  [[nodiscard]] const std::vector<std::vector<core::Value>>& submissions()
      const {
    return submitted_;
  }

private:
  GwtsScenarioOptions options_;
  std::unique_ptr<net::SimNetwork> net_;
  std::vector<core::GwtsProcess*> correct_;
  std::vector<std::vector<core::Value>> submitted_;  // per correct process
};

}  // namespace bla::testutil
