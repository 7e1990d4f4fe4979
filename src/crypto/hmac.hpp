#pragma once
// HMAC-SHA-256 (RFC 2104 / FIPS 198-1).
//
// Two uses in this repository:
//  * pairwise authenticators realizing the paper's minimal assumption of
//    authenticated channels (§3) — the simulator enforces sender identity,
//    and the socket runtime can additionally MAC frames;
//  * the HmacSigner simulation signature scheme (see signer.hpp).

#include <array>
#include <cstdint>
#include <span>

#include "crypto/sha256.hpp"
#include "wire/wire.hpp"

namespace bla::crypto {

using Mac = Sha256::Digest;

/// One-shot HMAC-SHA-256.
[[nodiscard]] Mac hmac_sha256(std::span<const std::uint8_t> key,
                              std::span<const std::uint8_t> message);

/// Constant-time comparison; MAC verification must not leak the position
/// of the first mismatching byte.
[[nodiscard]] bool mac_equal(const Mac& a, const Mac& b);

}  // namespace bla::crypto
