// src/batch/ pipeline tests: SignedCommandBatch wire round-trips
// (including truncated and corrupted frames), builder sealing policy,
// batch-aware verification with the digest cache, pipeline backpressure,
// and the batched submission path end-to-end through the RSM on both the
// GWTS and GSbS engines.

#include <gtest/gtest.h>

#include "batch/batch.hpp"
#include "batch/builder.hpp"
#include "batch/client.hpp"
#include "batch/proposer.hpp"
#include "batch/verifier.hpp"
#include "rsm/command.hpp"
#include "testutil/cluster.hpp"

namespace bla::batch {
namespace {

using testutil::Cluster;
using testutil::ClusterOptions;

[[nodiscard]] Value make_command(NodeId client, std::uint64_t seq) {
  rsm::Command cmd;
  cmd.client = client;
  cmd.seq = seq;
  cmd.nop = false;
  cmd.payload = lattice::value_from("payload");
  return rsm::encode_command(cmd);
}

[[nodiscard]] SignedCommandBatch make_batch(
    const crypto::ISignerSet& signers, NodeId proposer,
    std::size_t commands) {
  BatchBuilderConfig cfg;
  cfg.proposer = proposer;
  cfg.max_commands = commands;
  BatchBuilder builder(cfg, signers.signer_for(proposer));
  std::optional<SignedCommandBatch> sealed;
  for (std::size_t i = 0; i < commands; ++i) {
    sealed = builder.add(make_command(proposer, i), /*now=*/0.0);
  }
  EXPECT_TRUE(sealed.has_value());
  return *sealed;
}

// ---------------------------------------------------------------------------
// Wire round-trips.
// ---------------------------------------------------------------------------

TEST(BatchWire, RoundTrip) {
  auto signers = crypto::make_hmac_signer_set(6, 7);
  const SignedCommandBatch b = make_batch(*signers, 4, 5);

  wire::Encoder enc;
  encode_signed_batch(enc, b);
  wire::Decoder dec(enc.view());
  const SignedCommandBatch back = decode_signed_batch(dec);
  dec.expect_done();

  EXPECT_EQ(back.proposer, b.proposer);
  EXPECT_EQ(back.seq, b.seq);
  EXPECT_EQ(back.commands, b.commands);
  EXPECT_EQ(back.signature, b.signature);
  EXPECT_EQ(batch_digest(back), batch_digest(b));

  // The batch-as-lattice-value view round-trips too.
  const Value v = batch_value(b);
  EXPECT_TRUE(is_batch_value(v));
  const auto from_value = decode_batch_value(v);
  ASSERT_TRUE(from_value.has_value());
  EXPECT_EQ(from_value->commands, b.commands);
}

TEST(BatchWire, TruncatedFramesRejectWithoutCrashing) {
  auto signers = crypto::make_hmac_signer_set(2, 1);
  const SignedCommandBatch b = make_batch(*signers, 0, 8);
  wire::Encoder enc;
  encode_signed_batch(enc, b);
  const wire::Bytes frame = enc.take();

  // Every strict prefix must throw WireError (truncation) — never crash,
  // never return a batch.
  for (std::size_t len = 0; len < frame.size(); ++len) {
    wire::Decoder dec(wire::BytesView(frame.data(), len));
    EXPECT_THROW(
        {
          SignedCommandBatch out = decode_signed_batch(dec);
          dec.expect_done();  // shorter prefixes may decode; trailing check
          (void)out;
        },
        wire::WireError)
        << "prefix length " << len;
  }
}

TEST(BatchWire, CorruptedFramesNeverVerify) {
  auto signers = crypto::make_hmac_signer_set(2, 1);
  const SignedCommandBatch b = make_batch(*signers, 0, 4);
  wire::Encoder enc;
  encode_signed_batch(enc, b);
  const wire::Bytes frame = enc.take();

  BatchVerifier verifier(signers->signer_for(1));
  std::size_t decoded_ok = 0;
  for (std::size_t i = 0; i < frame.size(); ++i) {
    wire::Bytes corrupt = frame;
    corrupt[i] ^= 0x5A;
    const auto out = decode_batch_value(corrupt);
    if (!out.has_value()) continue;  // structurally rejected: fine
    ++decoded_ok;
    // Structurally valid but tampered: the single batch signature (over
    // the digest, which commits to every byte of the body) must fail.
    EXPECT_FALSE(verifier.verify(*out)) << "byte " << i;
  }
  // Sanity: at least some corruptions survive structural decoding, so
  // the signature check above was actually exercised.
  EXPECT_GT(decoded_ok, 0u);
}

TEST(BatchWire, StructuralRejects) {
  // Not a batch frame at all.
  EXPECT_FALSE(decode_batch_value(lattice::value_from("junk")).has_value());
  EXPECT_FALSE(decode_batch_value(Value{}).has_value());

  // Empty batch.
  {
    wire::Encoder enc;
    enc.u8(kBatchMagic);
    enc.u32(1);
    enc.u64(0);
    enc.uvarint(0);
    enc.bytes({});
    EXPECT_FALSE(decode_batch_value(enc.take()).has_value());
  }
  // Command count over the cap.
  {
    wire::Encoder enc;
    enc.u8(kBatchMagic);
    enc.u32(1);
    enc.u64(0);
    enc.uvarint(kMaxBatchCommands + 1);
    EXPECT_FALSE(decode_batch_value(enc.take()).has_value());
  }
  // Nested batch frames are rejected (expansion is depth one).
  {
    wire::Encoder enc;
    enc.u8(kBatchMagic);
    enc.u32(1);
    enc.u64(0);
    enc.uvarint(1);
    enc.bytes(wire::Bytes{kBatchMagic, 0x00});
    enc.bytes({});
    EXPECT_FALSE(decode_batch_value(enc.take()).has_value());
  }
  // Trailing garbage.
  {
    auto signers = crypto::make_hmac_signer_set(1, 1);
    Value v = batch_value(make_batch(*signers, 0, 1));
    v.push_back(0x00);
    EXPECT_FALSE(decode_batch_value(v).has_value());
  }
}

// ---------------------------------------------------------------------------
// Builder sealing policy.
// ---------------------------------------------------------------------------

TEST(BatchBuilderTest, SealsAtSizeBound) {
  auto signers = crypto::make_hmac_signer_set(1, 1);
  BatchBuilderConfig cfg;
  cfg.proposer = 0;
  cfg.max_commands = 4;
  BatchBuilder builder(cfg, signers->signer_for(0));

  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_FALSE(
          builder.add(make_command(0, round * 4 + i), 0.0).has_value());
    }
    const auto sealed = builder.add(make_command(0, round * 4 + 3), 0.0);
    ASSERT_TRUE(sealed.has_value());
    EXPECT_EQ(sealed->commands.size(), 4u);
    EXPECT_EQ(sealed->seq, static_cast<std::uint64_t>(round));
  }
  EXPECT_EQ(builder.batches_sealed(), 3u);
  EXPECT_EQ(builder.pending_commands(), 0u);
}

TEST(BatchBuilderTest, SealsAtByteBound) {
  auto signers = crypto::make_hmac_signer_set(1, 1);
  BatchBuilderConfig cfg;
  cfg.proposer = 0;
  cfg.max_commands = 1000;
  cfg.max_bytes = 100;
  BatchBuilder builder(cfg, signers->signer_for(0));

  const Value cmd = make_command(0, 0);  // ~30 bytes
  ASSERT_LT(cmd.size(), 100u);
  std::optional<SignedCommandBatch> sealed;
  std::size_t added = 0;
  while (!sealed.has_value() && added < 100) {
    sealed = builder.add(cmd, 0.0);
    ++added;
  }
  ASSERT_TRUE(sealed.has_value());
  std::size_t bytes = 0;
  for (const Value& v : sealed->commands) bytes += v.size();
  EXPECT_LE(bytes, 100u);
  // The command that overflowed the bound stays pending for the next
  // batch instead of being lost.
  EXPECT_EQ(builder.pending_commands(), added - sealed->commands.size());
}

TEST(BatchBuilderTest, TimeBoundFlushes) {
  auto signers = crypto::make_hmac_signer_set(1, 1);
  BatchBuilderConfig cfg;
  cfg.proposer = 0;
  cfg.max_commands = 100;
  cfg.max_delay = 5.0;
  BatchBuilder builder(cfg, signers->signer_for(0));

  EXPECT_FALSE(builder.add(make_command(0, 0), /*now=*/10.0).has_value());
  EXPECT_FALSE(builder.flush_due(12.0).has_value());  // only 2 elapsed
  const auto sealed = builder.flush_due(15.0);
  ASSERT_TRUE(sealed.has_value());
  EXPECT_EQ(sealed->commands.size(), 1u);
  EXPECT_FALSE(builder.flush_due(100.0).has_value());  // nothing pending
}

TEST(BatchBuilderTest, DropsUnbatchableCommands) {
  auto signers = crypto::make_hmac_signer_set(1, 1);
  BatchBuilder builder({.proposer = 0, .max_commands = 4},
                       signers->signer_for(0));
  EXPECT_FALSE(builder.add(Value{}, 0.0).has_value());
  EXPECT_FALSE(builder.add(Value{kBatchMagic, 1, 2}, 0.0).has_value());
  EXPECT_EQ(builder.commands_dropped(), 2u);
  EXPECT_EQ(builder.pending_commands(), 0u);
}

// ---------------------------------------------------------------------------
// Verifier + digest cache.
// ---------------------------------------------------------------------------

TEST(BatchVerifierTest, OneSignatureCheckPerDistinctBatch) {
  auto signers = crypto::make_hmac_signer_set(4, 3);
  BatchVerifier verifier(signers->signer_for(0));
  const SignedCommandBatch b = make_batch(*signers, 2, 8);

  EXPECT_TRUE(verifier.verify(b));
  EXPECT_EQ(verifier.signature_checks(), 1u);
  EXPECT_EQ(verifier.cache_hits(), 0u);

  // Re-presentations (retransmit / refinement echo) hit the cache.
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(verifier.verify(b));
  EXPECT_EQ(verifier.signature_checks(), 1u);
  EXPECT_EQ(verifier.cache_hits(), 5u);
}

TEST(BatchVerifierTest, CachedBodyWithMutatedSignatureStillRejected) {
  // The cache key must cover the signature bytes: after a genuine batch
  // seeds the cache, replaying the same body under garbage signatures
  // must miss the cache and fail the real check — otherwise each
  // variant would mint a distinct lattice value from one signature.
  auto signers = crypto::make_hmac_signer_set(4, 3);
  BatchVerifier verifier(signers->signer_for(0));
  const SignedCommandBatch genuine = make_batch(*signers, 2, 4);
  ASSERT_TRUE(verifier.verify(genuine));

  SignedCommandBatch mutated = genuine;
  for (std::uint8_t i = 1; i <= 3; ++i) {
    mutated.signature = genuine.signature;
    mutated.signature[0] ^= i;
    EXPECT_FALSE(verifier.verify(mutated)) << "variant " << int(i);
  }
  EXPECT_EQ(verifier.cache_hits(), 0u);
  EXPECT_EQ(verifier.rejected(), 3u);
  // The genuine signature still hits the cache.
  EXPECT_TRUE(verifier.verify(genuine));
  EXPECT_EQ(verifier.cache_hits(), 1u);
}

TEST(BatchVerifierTest, RejectsForgeries) {
  auto signers = crypto::make_hmac_signer_set(4, 3);
  BatchVerifier verifier(signers->signer_for(0));

  // Claiming another proposer's id: the digest commits to the proposer,
  // so node 3 cannot pass its signature off as node 2's.
  SignedCommandBatch stolen = make_batch(*signers, 3, 4);
  stolen.proposer = 2;
  EXPECT_FALSE(verifier.verify(stolen));

  // Tampered command list under the original signature.
  SignedCommandBatch tampered = make_batch(*signers, 2, 4);
  tampered.commands.push_back(make_command(2, 99));
  EXPECT_FALSE(verifier.verify(tampered));

  // Structural garbage.
  SignedCommandBatch empty;
  empty.proposer = 2;
  EXPECT_FALSE(verifier.verify(empty));
  EXPECT_EQ(verifier.rejected(), 3u);
  EXPECT_EQ(verifier.cache_hits(), 0u);
}

// ---------------------------------------------------------------------------
// Pipeline window / backpressure.
// ---------------------------------------------------------------------------

TEST(BatchProposerTest, WindowBlocksAtKAndFreesOnQuorum) {
  auto signers = crypto::make_hmac_signer_set(1, 1);
  BatchProposer pipeline({.max_in_flight = 2, .completion_quorum = 2});

  BatchBuilderConfig cfg;
  cfg.proposer = 0;
  cfg.max_commands = 1;
  BatchBuilder builder(cfg, signers->signer_for(0));
  std::vector<SignedCommandBatch> batches;
  for (std::uint64_t i = 0; i < 3; ++i) {
    batches.push_back(*builder.add(make_command(0, i), 0.0));
  }

  pipeline.mark_submitted(batches[0]);
  EXPECT_TRUE(pipeline.can_submit());
  pipeline.mark_submitted(batches[1]);
  EXPECT_FALSE(pipeline.can_submit());  // K = 2 reached

  lattice::ValueSet decided;
  decided.insert(batch_value(batches[0]));
  // One report is below the f+1 quorum: nothing completes.
  EXPECT_TRUE(pipeline.on_decide_report(1, decided).empty());
  EXPECT_FALSE(pipeline.can_submit());
  // Second distinct replica completes batch 0 and frees its slot.
  const auto completed = pipeline.on_decide_report(2, decided);
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_EQ(completed[0], batches[0].seq);
  EXPECT_TRUE(pipeline.can_submit());
  // Duplicate reports from the same replica never double-count.
  EXPECT_TRUE(pipeline.on_decide_report(2, decided).empty());
  EXPECT_EQ(pipeline.commands_completed(), 1u);
  EXPECT_EQ(pipeline.max_in_flight_seen(), 2u);
}

// ---------------------------------------------------------------------------
// End-to-end through the RSM.
// ---------------------------------------------------------------------------

class BatchedRsmEngines
    : public ::testing::TestWithParam<core::EngineKind> {};

TEST_P(BatchedRsmEngines, WorkloadLandsInEveryCorrectReplica) {
  ClusterOptions options;
  options.n = 4;
  options.f = 1;
  options.replica.engine = GetParam();
  options.clients = 2;
  options.commands_per_client = 24;
  options.client.builder.max_commands = 8;
  options.client.max_in_flight = 2;
  options.replica.max_rounds = 120;
  Cluster scenario(std::move(options));
  scenario.run();  // to quiescence, so every correct replica catches up

  ASSERT_TRUE(scenario.all_clients_done());
  const core::ValueSet expected = scenario.expected_commands();
  EXPECT_EQ(expected.size(), 48u);
  std::uint64_t admitted = 0;
  for (const rsm::RsmReplica* replica : scenario.correct_replicas()) {
    // state() expands decided batches back into commands.
    EXPECT_TRUE(expected.leq(replica->state()))
        << "replica missing batched commands";
    admitted += replica->batches_admitted();
    EXPECT_EQ(replica->batches_rejected(), 0u);
  }
  // Each client seals 24/8 = 3 batches and submits each to f+1 replicas.
  EXPECT_GE(admitted, 2u * 3u);
  for (const batch::BatchClient* client : scenario.clients()) {
    // Backpressure: the window never exceeded K.
    EXPECT_LE(client->pipeline().max_in_flight_seen(), 2u);
    EXPECT_EQ(client->pipeline().commands_completed(), 24u);
    // done() promises every *accepted* command decided; nothing may
    // have been silently dropped in this workload.
    EXPECT_EQ(client->commands_dropped(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, BatchedRsmEngines,
                         ::testing::Values(core::EngineKind::kGwts,
                                           core::EngineKind::kGsbs),
                         [](const auto& info) {
                           return info.param == core::EngineKind::kGwts
                                      ? "gwts"
                                      : "gsbs";
                         });

TEST(BatchedRsm, SingleCommandBatchesDegradeToSeedBehaviour) {
  // B = 1 must still work: every command rides its own batch.
  ClusterOptions options;
  options.n = 4;
  options.f = 1;
  options.clients = 1;
  options.commands_per_client = 6;
  options.client.builder.max_commands = 1;
  options.client.max_in_flight = 3;
  options.replica.max_rounds = 80;
  Cluster scenario(std::move(options));
  scenario.run();
  ASSERT_TRUE(scenario.all_clients_done());
  EXPECT_EQ(scenario.clients()[0]->builder().batches_sealed(), 6u);
  for (const rsm::RsmReplica* replica : scenario.correct_replicas()) {
    EXPECT_TRUE(scenario.expected_commands().leq(replica->state()));
  }
}

TEST(BatchedRsm, SimWaitQuiescentRunsTheQueueDry) {
  // The real-runtime drive's quiescence wait is also defined on the
  // simulator: it runs the event queue dry instead of polling traffic.
  ClusterOptions options;
  options.n = 4;
  options.f = 1;
  options.commands_per_client = 8;
  options.replica.max_rounds = 40;
  Cluster scenario(std::move(options));
  EXPECT_TRUE(scenario.wait_quiescent(1000));
  ASSERT_TRUE(scenario.all_clients_done());
  for (const rsm::RsmReplica* replica : scenario.correct_replicas()) {
    EXPECT_TRUE(scenario.expected_commands().leq(replica->state()));
  }
  EXPECT_EQ(scenario.run(), 0u);  // nothing left to deliver
}

TEST(BatchedRsm, OversizedVarintPaddedFrameIsRejected) {
  // Non-minimal LEB128 length prefixes let a frame that *decodes* to a
  // cap-respecting batch (and carries a valid signature over the
  // canonical digest) exceed lattice::kMaxValueBytes on the wire. The
  // replica must reject it before submission: as a lattice value it
  // would poison every disclosure and cumulative ack set it joins.
  auto signers = crypto::make_hmac_signer_set(5, 1);

  SignedCommandBatch b;
  b.proposer = 4;  // the client's node id
  b.seq = 0;
  std::size_t payload_bytes = 0;
  for (std::size_t i = 0; i < kMaxBatchCommands; ++i) {
    rsm::Command cmd;
    cmd.client = 4;
    cmd.seq = i;
    cmd.payload = wire::Bytes(40, 0x42);
    b.commands.push_back(rsm::encode_command(cmd));
    payload_bytes += b.commands.back().size();
  }
  ASSERT_LE(payload_bytes, kMaxBatchBytes);
  b.signature = signers->signer_for(4)->sign(batch_digest(b));

  // Hand-encode the frame with every command length varint padded to
  // 10 bytes, pushing the frame past the value cap.
  wire::Encoder enc;
  enc.u8(static_cast<std::uint8_t>(core::MsgType::kRsmNewBatch));
  enc.u8(kBatchMagic);
  enc.u32(b.proposer);
  enc.u64(b.seq);
  enc.uvarint(b.commands.size());
  for (const Value& v : b.commands) {
    std::uint64_t len = v.size();
    for (int i = 0; i < 9; ++i) {
      enc.u8(static_cast<std::uint8_t>(len & 0x7F) | 0x80);
      len >>= 7;
    }
    enc.u8(static_cast<std::uint8_t>(len & 0x7F));
    enc.raw(v);
  }
  enc.bytes(b.signature);
  const wire::Bytes frame = enc.take();
  ASSERT_GT(frame.size() - 1, lattice::kMaxValueBytes);
  // Sanity: the padded frame still decodes to the signed batch.
  {
    wire::Decoder dec(wire::BytesView(frame).subspan(1));
    const SignedCommandBatch decoded = decode_signed_batch(dec);
    EXPECT_EQ(decoded.commands, b.commands);
  }

  class PaddedSender final : public net::IProcess {
  public:
    explicit PaddedSender(wire::Bytes frame) : frame_(std::move(frame)) {}
    void on_start(net::IContext& ctx) override {
      for (NodeId r = 0; r < 4; ++r) ctx.send(r, frame_);
    }
    void on_message(net::IContext&, NodeId, wire::BytesView) override {}

  private:
    wire::Bytes frame_;
  };

  net::SimNetwork net({.seed = 1, .delay = nullptr});
  std::vector<rsm::RsmReplica*> replicas;
  for (net::NodeId id = 0; id < 4; ++id) {
    rsm::ReplicaConfig rc;
    rc.self = id;
    rc.n = 4;
    rc.f = 1;
    rc.max_rounds = 5;
    rc.signer = signers->signer_for(id);
    auto replica = std::make_unique<rsm::RsmReplica>(rc);
    replicas.push_back(replica.get());
    net.add_process(std::move(replica));
  }
  net.add_process(std::make_unique<PaddedSender>(frame));
  net.run();

  for (const rsm::RsmReplica* replica : replicas) {
    EXPECT_EQ(replica->batches_admitted(), 0u);
    EXPECT_GE(replica->batches_rejected(), 1u);
    EXPECT_TRUE(replica->state().empty());
  }
}

TEST(BatchedRsm, ForgedAndMalformedBatchesAreRejected) {
  // A Byzantine client sprays kRsmNewBatch garbage: raw junk, a
  // well-formed frame with a bad signature, and a frame claiming an
  // honest client's identity. None of it may enter replica state, and an
  // honest batched client must proceed unharmed.
  class EvilBatcher final : public net::IProcess {
  public:
    EvilBatcher(std::size_t n, std::shared_ptr<const crypto::ISigner> signer)
        : n_(n), signer_(std::move(signer)) {}

    void on_start(net::IContext& ctx) override {
      // (a) Raw junk behind the batch message type.
      wire::Encoder junk;
      junk.u8(static_cast<std::uint8_t>(core::MsgType::kRsmNewBatch));
      junk.raw(lattice::value_from("not-a-batch"));
      send_all(ctx, junk.view());

      // (b) Structurally valid batch, forged signature bytes.
      SignedCommandBatch forged;
      forged.proposer = static_cast<NodeId>(ctx.self());
      forged.seq = 0;
      forged.commands.push_back(make_command(999, 0));
      forged.signature = wire::Bytes(32, 0xAB);
      wire::Encoder bad_sig;
      bad_sig.u8(static_cast<std::uint8_t>(core::MsgType::kRsmNewBatch));
      encode_signed_batch(bad_sig, forged);
      send_all(ctx, bad_sig.view());

      // (c) Correctly signed by *us*, but claiming the honest client's
      // node id (n_ + 0). The sender check must drop it.
      SignedCommandBatch stolen;
      stolen.proposer = static_cast<NodeId>(n_);  // honest client's id
      stolen.seq = 7;
      stolen.commands.push_back(make_command(999, 1));
      stolen.signature = signer_->sign(batch_digest(stolen));
      wire::Encoder imp;
      imp.u8(static_cast<std::uint8_t>(core::MsgType::kRsmNewBatch));
      encode_signed_batch(imp, stolen);
      send_all(ctx, imp.view());
    }
    void on_message(net::IContext&, NodeId, wire::BytesView) override {}

  private:
    void send_all(net::IContext& ctx, const wire::Bytes& frame) {
      for (NodeId r = 0; r < n_; ++r) ctx.send(r, frame);
    }
    std::size_t n_;
    std::shared_ptr<const crypto::ISigner> signer_;
  };

  ClusterOptions options;
  options.n = 4;
  options.f = 1;
  options.clients = 1;
  options.commands_per_client = 8;
  options.client.builder.max_commands = 4;
  options.replica.max_rounds = 80;
  Cluster scenario(std::move(options));
  // The evil client (node 5) signs with a key outside the replicas' PKI
  // (their signer set covers ids 0..4) — forging must fail regardless.
  auto evil_signer = crypto::make_hmac_signer_set(6, 1)->signer_for(5);
  scenario.network().add_process(
      std::make_unique<EvilBatcher>(4, std::move(evil_signer)));
  scenario.run();

  ASSERT_TRUE(scenario.all_clients_done());
  for (const rsm::RsmReplica* replica : scenario.correct_replicas()) {
    EXPECT_GT(replica->batches_rejected(), 0u);
    for (const core::Value& v : replica->state()) {
      const auto cmd = rsm::decode_command(v);
      ASSERT_TRUE(cmd.has_value());
      EXPECT_NE(cmd->client, 999u) << "forged batch command leaked";
    }
    EXPECT_TRUE(scenario.expected_commands().leq(replica->state()));
  }
}

}  // namespace
}  // namespace bla::batch
