// HMAC-SHA256 (RFC 2104) and the paper's "heavy HMAC".
//
// The test phase of G2G Epidemic Forwarding challenges a relay that claims to
// still store message m with a random seed s; the relay must answer with a
// keyed MAC "designed ... to be heavy to compute" so that silently storing a
// message is never cheaper than relaying it. HeavyHmac implements that as an
// iterated HMAC chain whose iteration count is the energy-cost knob.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "g2g/crypto/sha256.hpp"
#include "g2g/util/bytes.hpp"

namespace g2g::crypto {

/// One-shot HMAC-SHA256 over `data` with key `key`.
[[nodiscard]] Digest hmac_sha256(BytesView key, BytesView data);

/// Precomputed HMAC key: the SHA-256 states after absorbing the ipad/opad
/// blocks are saved once, so each MAC under the same key costs two block
/// compressions fewer than hmac_sha256 (which re-derives the pads per call).
/// Produces digests bit-identical to hmac_sha256(key, data).
class HmacKey {
 public:
  explicit HmacKey(BytesView key);

  [[nodiscard]] Digest mac(BytesView data) const;
  /// MAC of the concatenation a || b (avoids an allocation).
  [[nodiscard]] Digest mac(BytesView a, BytesView b) const;

 private:
  Sha256 inner_;  // state after the ipad block
  Sha256 outer_;  // state after the opad block
};

/// Iterated HMAC used as the storage-proof challenge.
///
/// heavy_hmac(m, s, n) = H_n where H_0 = HMAC(s, m) and
/// H_i = HMAC(s, H_{i-1} || m-digest). Each iteration re-keys from the seed so
/// the chain cannot be precomputed before the seed is revealed.
///
/// heavy_hmac reuses the precomputed seed key states and a fixed chain
/// buffer; `heavy_hmac_reference` is the original straight-line chain, kept
/// as the oracle the differential tests compare heavy_hmac and
/// heavy_hmac_batch against. Both return identical digests.
[[nodiscard]] Digest heavy_hmac(BytesView message, BytesView seed, std::uint32_t iterations);
[[nodiscard]] Digest heavy_hmac_reference(BytesView message, BytesView seed,
                                          std::uint32_t iterations);

/// One heavy-HMAC chain for heavy_hmac_batch. The views must stay valid for
/// the duration of the call.
struct HeavyHmacJob {
  // g2g-lint: allow(view-escape) -- borrowed for the duration of one heavy_hmac_batch call
  BytesView message;
  // g2g-lint: allow(view-escape) -- borrowed for the duration of one heavy_hmac_batch call
  BytesView seed;
  std::uint32_t iterations;
};

/// Compute several independent heavy-HMAC chains, digests in job order: a
/// loop over heavy_hmac, so every digest is bit-identical to heavy_hmac /
/// heavy_hmac_reference on the same inputs. The simulator decides storage
/// proofs through heavy_hmac_agree; the batch serves only the benchmark's
/// chain-cost probe.
[[nodiscard]] std::vector<Digest> heavy_hmac_batch(std::span<const HeavyHmacJob> jobs);

/// Constant-time digest comparison.
[[nodiscard]] bool digest_equal(const Digest& a, const Digest& b);

/// Outcome of heavy_hmac_agree: whether the two storage proofs agree, and
/// how many heavy-HMAC chains deciding it ran (0 or 2).
struct HeavyHmacAgreement {
  bool agree = false;
  std::uint32_t chains = 0;
};

/// Decide whether a prover's heavy HMAC over (message, seed) matches the
/// verifier's over its own (message, seed), both at `iterations`. The chain
/// is a pure function of its inputs, so byte-equal inputs agree without
/// running it; any differing byte or length runs both chains through
/// heavy_hmac and compares the digests, exactly as two computed proofs would.
[[nodiscard]] HeavyHmacAgreement heavy_hmac_agree(BytesView prover_message, BytesView prover_seed,
                                                  BytesView verifier_message,
                                                  BytesView verifier_seed,
                                                  std::uint32_t iterations);

}  // namespace g2g::crypto
