#include "batch/verifier.hpp"

#include <stdexcept>
#include <utility>

namespace bla::batch {

BatchVerifier::BatchVerifier(std::shared_ptr<const crypto::ISigner> verifier,
                             std::shared_ptr<store::BodyStore> store)
    : verifier_(std::move(verifier)),
      store_(store ? std::move(store)
                   : std::make_shared<store::BodyStore>()) {
  if (!verifier_) {
    throw std::invalid_argument("BatchVerifier requires a signing handle");
  }
}

bool BatchVerifier::verify(const SignedCommandBatch& b) {
  // Structural bounds first (locally constructed batches bypass the wire
  // decoder, so re-check the shared predicate here): cheap, and keeps
  // the digest work bounded.
  if (!structurally_valid(b)) {
    ++rejected_;
    return false;
  }

  const crypto::Sha256::Digest digest = batch_digest(b);
  // The cache key covers the signature bytes as well as the body
  // digest. Keying on the body alone would let one genuinely signed
  // batch whitelist every (body, garbage-signature) variant — and since
  // the signature travels inside the batch's lattice value, each
  // variant would mint a distinct decided value from a single
  // signature. With the signature in the key, a mutated signature
  // misses the cache and fails the fresh check below.
  crypto::Sha256 key_hash;
  key_hash.update(digest);
  key_hash.update(b.signature);
  const crypto::Sha256::Digest cache_key = key_hash.finish();
  if (store_->verified_contains(cache_key)) {
    ++cache_hits_;
    return true;
  }
  ++signature_checks_;
  if (!verifier_->verify(b.proposer, digest, b.signature)) {
    ++rejected_;
    return false;
  }
  store_->verified_insert(cache_key);
  return true;
}

}  // namespace bla::batch
