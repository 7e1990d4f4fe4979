// GSbS (§8.2 generalized signature-based GLA) tests: the GLA properties
// under silent and equivocating Byzantine behaviour, certificate-driven
// round trust, adoption by lagging proposers, and the linear message
// complexity the signature substitution buys.

#include <gtest/gtest.h>

#include "core/adversary.hpp"
#include "core/gsbs.hpp"
#include "net/delay_model.hpp"
#include "testutil/properties.hpp"
#include "testutil/scenario.hpp"

namespace bla::core {
namespace {

struct GsbsFixture {
  std::shared_ptr<crypto::ISignerSet> signers;
  net::SimNetwork net;
  std::vector<GsbsProcess*> correct;
  std::vector<std::vector<Value>> submitted;

  GsbsFixture(std::size_t n, std::size_t f, std::uint64_t rounds,
              std::uint64_t seed,
              testutil::AdversaryFactory adversary = nullptr,
              std::unique_ptr<net::IDelayModel> delay = nullptr,
              std::uint64_t settle = 2)
      : signers(crypto::make_hmac_signer_set(n, seed)),
        net({.seed = seed, .delay = std::move(delay)}) {
    for (net::NodeId id = 0; id < n; ++id) {
      if (id >= n - f) {
        if (adversary) {
          auto p = adversary(id);
          net.add_process(p ? std::move(p)
                            : std::make_unique<SilentProcess>());
        } else {
          net.add_process(std::make_unique<SilentProcess>());
        }
        continue;
      }
      std::vector<Value> mine;
      for (std::uint64_t r = 0; r < rounds; ++r) {
        wire::Encoder enc;
        enc.str("gs");
        enc.u32(id);
        enc.u64(r);
        mine.push_back(enc.take());
      }
      submitted.push_back(mine);

      struct Feed {
        GsbsProcess* proc = nullptr;
        std::vector<Value> values;
        std::size_t next = 1;
      };
      auto feed = std::make_shared<Feed>();
      feed->values = mine;
      auto proc = std::make_unique<GsbsProcess>(
          EngineConfig{id, n, f, rounds + settle}, signers->signer_for(id),
          [feed](const GsbsProcess::Decision&) {
            if (feed->next < feed->values.size()) {
              feed->proc->submit(feed->values[feed->next++]);
            }
          });
      feed->proc = proc.get();
      proc->submit(mine[0]);
      correct.push_back(proc.get());
      net.add_process(std::move(proc));
    }
  }

  ValueSet correct_inputs() const {
    ValueSet out;
    for (const auto& values : submitted) {
      for (const Value& v : values) out.insert(v);
    }
    return out;
  }
};

void check_gla_properties(GsbsFixture& fx, std::size_t f,
                          std::uint64_t rounds, std::uint64_t byz_budget) {
  for (std::size_t i = 0; i < fx.correct.size(); ++i) {
    const GsbsProcess* proc = fx.correct[i];
    ASSERT_GE(proc->decisions().size(), rounds) << "process " << i;
  }
  // Local stability + cross-process comparability.
  std::vector<ValueSet> all;
  for (const GsbsProcess* proc : fx.correct) {
    const auto& decisions = proc->decisions();
    for (std::size_t k = 1; k < decisions.size(); ++k) {
      EXPECT_TRUE(decisions[k - 1].set.leq(decisions[k].set));
    }
    for (const auto& d : decisions) all.push_back(d.set);
  }
  EXPECT_EQ(testutil::check_comparability(all), "");
  // Inclusivity: every submitted value decided by its submitter.
  for (std::size_t i = 0; i < fx.correct.size(); ++i) {
    for (const Value& v : fx.submitted[i]) {
      EXPECT_TRUE(fx.correct[i]->decided_set().contains(v))
          << "process " << i << " missing own value";
    }
  }
  // Non-triviality.
  for (const GsbsProcess* proc : fx.correct) {
    EXPECT_EQ(testutil::check_non_triviality(proc->decided_set(),
                                             fx.correct_inputs(), byz_budget),
              "");
  }
  (void)f;
}

struct Params {
  std::size_t n;
  std::size_t f;
  std::uint64_t rounds;
  std::uint64_t seed;
};

class GsbsSweep : public ::testing::TestWithParam<Params> {};

TEST_P(GsbsSweep, SilentByzantine) {
  const auto& p = GetParam();
  GsbsFixture fx(p.n, p.f, p.rounds, p.seed);
  fx.net.run();
  check_gla_properties(fx, p.f, p.rounds, p.f * (p.rounds + 2));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GsbsSweep,
    ::testing::Values(Params{4, 1, 2, 1}, Params{4, 1, 3, 2},
                      Params{7, 2, 2, 1}, Params{7, 2, 3, 5}),
    [](const ::testing::TestParamInfo<Params>& param_info) {
      return "n" + std::to_string(param_info.param.n) + "f" +
             std::to_string(param_info.param.f) + "r" +
             std::to_string(param_info.param.rounds) + "s" +
             std::to_string(param_info.param.seed);
    });

TEST(Gsbs, DoubleSigningBatchesIsNeutralized) {
  // A Byzantine proposer signs two different batches for the same round
  // and sends each to half the system; the conflict-listing safe-acks
  // must prevent both from entering any decision.
  auto signers = crypto::make_hmac_signer_set(4, 1);

  class BatchEquivocator final : public net::IProcess {
  public:
    BatchEquivocator(std::size_t n,
                     std::shared_ptr<const crypto::ISigner> signer)
        : n_(n), signer_(std::move(signer)) {}

    void on_start(net::IContext& ctx) override {
      auto make_init = [&](const char* text) {
        wire::Encoder sig_bytes;
        sig_bytes.str("gsbs-batch");
        sig_bytes.u32(ctx.self());
        sig_bytes.u64(0);
        ValueSet batch;
        batch.insert(lattice::value_from(text));
        lattice::encode_value_set(sig_bytes, batch);
        const wire::Bytes sig = signer_->sign(sig_bytes.view());

        wire::Encoder enc;
        enc.u8(static_cast<std::uint8_t>(MsgType::kGsbsInit));
        enc.u32(ctx.self());
        enc.u64(0);
        lattice::encode_value_set(enc, batch);
        enc.bytes(sig);
        return enc.take();
      };
      const wire::Bytes init_a = make_init("equiv-A");
      const wire::Bytes init_b = make_init("equiv-B");
      for (net::NodeId to = 0; to < n_; ++to) {
        ctx.send(to, to < n_ / 2 ? init_a : init_b);
      }
    }
    void on_message(net::IContext&, NodeId, wire::BytesView) override {}

  private:
    std::size_t n_;
    std::shared_ptr<const crypto::ISigner> signer_;
  };

  GsbsFixture fx(4, 1, 2, 1,
                 [&](net::NodeId id) {
                   return std::make_unique<BatchEquivocator>(
                       4, signers->signer_for(id));
                 });
  // The fixture creates its own signer set with the same seed, so the
  // equivocator's signatures verify.
  fx.net.run();
  for (const GsbsProcess* proc : fx.correct) {
    ASSERT_GE(proc->decisions().size(), 2u);
    const bool has_a =
        proc->decided_set().contains(lattice::value_from("equiv-A"));
    const bool has_b =
        proc->decided_set().contains(lattice::value_from("equiv-B"));
    EXPECT_FALSE(has_a && has_b);
  }
  std::vector<ValueSet> all;
  for (const GsbsProcess* proc : fx.correct) {
    for (const auto& d : proc->decisions()) all.push_back(d.set);
  }
  EXPECT_EQ(testutil::check_comparability(all), "");
}

TEST(Gsbs, CertificatesAdvanceTrust) {
  GsbsFixture fx(4, 1, 3, 1);
  fx.net.run();
  for (const GsbsProcess* proc : fx.correct) {
    ASSERT_GE(proc->decisions().size(), 3u);
    // Every finished round produced a certificate this process verified.
    EXPECT_GE(proc->trusted_round(), 3u);
  }
}

TEST(Gsbs, LaggardAdoptsViaPiggybackedCert) {
  // One proposer's links are slowed; it must still complete all rounds by
  // adopting certificates (it cannot gather quorums first).
  GsbsFixture fx(4, 1, 3, 2, nullptr,
                 std::make_unique<net::TargetedDelay>(
                     std::make_unique<net::ConstantDelay>(1.0),
                     [](net::NodeId from, net::NodeId to) {
                       return from == 1 || to == 1;
                     },
                     20.0));
  fx.net.run();
  check_gla_properties(fx, 1, 3, 1 * 5);
}

TEST(Gsbs, GarbageSpamIsHarmless) {
  GsbsFixture fx(4, 1, 2, 3, [](net::NodeId id) {
    return std::make_unique<GarbageSpammer>(id * 11 + 1, 256);
  });
  fx.net.run();
  check_gla_properties(fx, 1, 2, 4);
}

TEST(Gsbs, MessageComplexityLinearInN) {
  // The point of §8.2: per-proposer messages per decision grow O(f·n),
  // not O(f·n²) as in GWTS.
  std::vector<double> per_process;
  for (const std::size_t n : {4u, 8u, 16u}) {
    GsbsFixture fx(n, 1, 2, 1);
    fx.net.run();
    for (const GsbsProcess* proc : fx.correct) {
      ASSERT_GE(proc->decisions().size(), 2u);
    }
    per_process.push_back(
        static_cast<double>(fx.net.metrics(0).messages_sent));
  }
  for (std::size_t i = 1; i < per_process.size(); ++i) {
    EXPECT_LT(per_process[i], per_process[i - 1] * 3.0)
        << "superlinear growth at step " << i;
  }
}

TEST(Gsbs, RunsOnRealEd25519) {
  // Parity with the HMAC oracle: real signatures, same protocol outcome.
  auto signers = crypto::make_ed25519_signer_set(4, 9);
  net::SimNetwork net({.seed = 9, .delay = nullptr});
  std::vector<GsbsProcess*> correct;
  for (net::NodeId id = 0; id < 3; ++id) {
    auto proc = std::make_unique<GsbsProcess>(EngineConfig{id, 4, 1, 1},
                                              signers->signer_for(id));
    wire::Encoder v;
    v.str("ed");
    v.u32(id);
    proc->submit(v.take());
    correct.push_back(proc.get());
    net.add_process(std::move(proc));
  }
  net.add_process(std::make_unique<SilentProcess>());
  net.run();
  std::vector<ValueSet> all;
  for (const GsbsProcess* proc : correct) {
    ASSERT_GE(proc->decisions().size(), 1u);
    all.push_back(proc->decided_set());
  }
  EXPECT_EQ(testutil::check_comparability(all), "");
}

TEST(Gsbs, AsynchronousDelays) {
  GsbsFixture fx(4, 1, 2, 11, nullptr,
                 std::make_unique<net::ExponentialDelay>(1.0));
  fx.net.run();
  check_gla_properties(fx, 1, 2, 4);
}

}  // namespace
}  // namespace bla::core
