#pragma once
// Content-addressed body store — the shared backing for digest-only
// dissemination (ISSUE 5 tentpole).
//
// PR 1 made each lattice value a SignedCommandBatch of up to 64KB, so the
// agreement layers' habit of re-shipping full values — Bracha replicating
// whole frames n² times per ECHO/READY round, GWTS rebroadcasting its
// *cumulative* accepted set on every ack, GSbS safe-acks echoing every
// received signed batch — multiplied a per-command byte cost that digests
// make constant. Every replica stores each body exactly once, keyed by
// SHA-256 of its bytes; protocol layers ship 32-byte digests and pull
// missing bodies on demand (store/fetch.hpp).
//
// The store is shared across layers of one process: Bracha parks whole
// RBC payload bodies here (ECHO/READY carry payload digests), the engines
// park lattice-value bodies (ack/safe-ack/certificate references), and
// BatchVerifier keeps its verified-digest cache here so a body is
// signature-checked exactly once per replica no matter which layer saw it
// first. A mutex makes it safe to share across the replica's handler
// thread and any observer threads.
//
// GC: the checkpoint subsystem (src/checkpoint/) evicts bodies covered
// by a committed checkpoint via erase() and installs a fallback with
// set_fallback() that re-serves them from the snapshot, so the live map
// stays bounded while every reference still resolves.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>

#include "crypto/sha256.hpp"
#include "wire/wire.hpp"

namespace bla::store {

using Digest = crypto::Sha256::Digest;

[[nodiscard]] inline Digest body_digest(wire::BytesView body) {
  return crypto::Sha256::hash(body);
}

class BodyStore {
public:
  /// Stores `body` under its content digest (idempotent). Returns the
  /// digest. Oversized bodies are the *caller's* problem: each protocol
  /// layer enforces its own cap before putting (lattice::kMaxValueBytes
  /// for values, rbc::kMaxPayloadBytes for RBC payloads).
  Digest put(wire::BytesView body) {
    const Digest d = body_digest(body);
    std::lock_guard lock(mutex_);
    auto [it, inserted] = bodies_.try_emplace(d, nullptr);
    if (inserted) {
      it->second = std::make_shared<const wire::Bytes>(body.begin(),
                                                       body.end());
      total_bytes_ += it->second->size();
    }
    return d;
  }

  /// Stores `body` under `digest` without rehashing — only for callers
  /// that just computed or verified the digest themselves (the fetcher
  /// checks every pulled body against its requested digest).
  void put_trusted(const Digest& digest, wire::Bytes body) {
    std::lock_guard lock(mutex_);
    auto [it, inserted] = bodies_.try_emplace(digest, nullptr);
    if (inserted) {
      it->second = std::make_shared<const wire::Bytes>(std::move(body));
      total_bytes_ += it->second->size();
    }
  }

  /// Shared handle, not a copy: bodies run to 64KB (values) / 16MB (RBC
  /// payloads) and the hot paths — resolving a cumulative ack's k
  /// references, serving fetches — only read.
  [[nodiscard]] std::shared_ptr<const wire::Bytes> get(const Digest& d) const {
    Fallback fallback;
    {
      std::lock_guard lock(mutex_);
      auto it = bodies_.find(d);
      if (it != bodies_.end()) return it->second;
      fallback = fallback_;
    }
    // Consulted outside the mutex: the fallback (a checkpoint snapshot
    // lookup) takes its own locks and must not nest under ours.
    return fallback ? fallback(d) : nullptr;
  }

  [[nodiscard]] bool contains(const Digest& d) const {
    Fallback fallback;
    {
      std::lock_guard lock(mutex_);
      if (bodies_.contains(d)) return true;
      fallback = fallback_;
    }
    return fallback && fallback(d) != nullptr;
  }

  /// Evicts one body (checkpoint GC). Returns true when it was present.
  bool erase(const Digest& d) {
    std::lock_guard lock(mutex_);
    auto it = bodies_.find(d);
    if (it == bodies_.end()) return false;
    total_bytes_ -= it->second->size();
    bodies_.erase(it);
    return true;
  }

  /// Miss handler consulted by get()/contains() when the live map lacks
  /// a digest — the checkpoint snapshot re-serve hook. One per store
  /// (last writer wins); pass nullptr to uninstall.
  using Fallback = std::function<std::shared_ptr<const wire::Bytes>(
      const Digest&)>;
  void set_fallback(Fallback fallback) {
    std::lock_guard lock(mutex_);
    fallback_ = std::move(fallback);
  }

  [[nodiscard]] std::size_t body_count() const {
    std::lock_guard lock(mutex_);
    return bodies_.size();
  }
  [[nodiscard]] std::uint64_t total_bytes() const {
    std::lock_guard lock(mutex_);
    return total_bytes_;
  }

  // -- verified-digest cache (merged from BatchVerifier) -------------------
  // Keys are whatever the verifying layer uses (BatchVerifier hashes
  // batch digest + signature bytes); the store only provides the bounded
  // set. Bounded: cleared on overflow past kMaxVerifiedEntries —
  // re-verification is correct, just slower — so Byzantine floods cannot
  // grow it without bound.
  static constexpr std::size_t kMaxVerifiedEntries = std::size_t{1} << 16;

  [[nodiscard]] bool verified_contains(const Digest& key) const {
    std::lock_guard lock(mutex_);
    return verified_.contains(key);
  }

  void verified_insert(const Digest& key) {
    std::lock_guard lock(mutex_);
    if (verified_.size() >= kMaxVerifiedEntries) verified_.clear();
    verified_.insert(key);
  }

private:
  mutable std::mutex mutex_;
  std::map<Digest, std::shared_ptr<const wire::Bytes>> bodies_;
  std::set<Digest> verified_;
  std::uint64_t total_bytes_ = 0;
  Fallback fallback_;
};

}  // namespace bla::store
