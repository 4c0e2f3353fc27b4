// Pluggable signature/key-agreement suite.
//
// Two implementations:
//  * SchnorrSuite — the real public-key path: (R, s)-form Schnorr signatures
//    and Diffie–Hellman (schnorr.hpp). Used by `g2gsim --schnorr`, unit tests
//    and the crypto micro-benches.
//  * FastSuite — a symmetric emulation for large simulation sweeps: a
//    "signature" is HMAC(K_pub, msg) where K_pub = HMAC(suite_seed, pub) is a
//    per-key MAC key derivable only through the suite (which plays the role of
//    the unforgeability assumption). Protocol code cannot forge signatures it
//    did not legitimately produce, which is exactly the property the paper's
//    mechanisms rely on, at a tiny fraction of the CPU cost.
//    Its HMAC pad states are computed once per key: the seed's in the
//    constructor, and each K_pub (verify) or secret MAC key (sign) on first
//    use, in a per-instance key schedule. A sign or verify then costs only
//    the message's own SHA-256 blocks plus one outer block. That table makes
//    a FastSuite per-run state: one instance per simulation, never shared
//    across threads. Signatures are byte-identical to the direct
//    hmac_sha256(hmac_sha256(seed, pub), msg).
//
// Protocol code is written against this interface only.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "g2g/crypto/chacha20.hpp"
#include "g2g/util/bytes.hpp"
#include "g2g/util/rng.hpp"

namespace g2g::crypto {

struct KeyPair {
  Bytes secret_key;
  Bytes public_key;
};

/// One verification job for Suite::verify_batch. The views must stay valid for
/// the duration of the call. Nothing under src/ builds one: the type and
/// verify_batch stay only because the benchmark's TimingSuite
/// (repro_bench/src/timing_suite.hpp) overrides verify_batch. Both go with
/// the benchmark change of ROADMAP item 4.
struct VerifyRequest {
  // g2g-lint: allow(view-escape) -- borrowed for the duration of one verify_batch call
  BytesView public_key;
  // g2g-lint: allow(view-escape) -- borrowed for the duration of one verify_batch call
  BytesView message;
  // g2g-lint: allow(view-escape) -- borrowed for the duration of one verify_batch call
  BytesView signature;
};

/// Abstract signature + key-agreement suite. The Schnorr suite is stateless
/// and shareable; a FastSuite keeps per-key state, so each run (or thread)
/// needs its own.
class Suite {
 public:
  virtual ~Suite() = default;

  [[nodiscard]] virtual KeyPair keygen(Rng& rng) const = 0;
  [[nodiscard]] virtual Bytes sign(BytesView secret_key, BytesView message) const = 0;
  [[nodiscard]] virtual bool verify(BytesView public_key, BytesView message,
                                    BytesView signature) const = 0;
  /// Verify a batch of signatures, writing one verdict per request.
  /// `verdicts` must have room for `requests.size()` entries. A loop over
  /// verify() that no suite overrides and nothing under src/ calls; it
  /// stays only for the benchmark's TimingSuite override (ROADMAP item 4).
  virtual void verify_batch(std::span<const VerifyRequest> requests, bool* verdicts) const {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      verdicts[i] = verify(requests[i].public_key, requests[i].message,
                           requests[i].signature);
    }
  }
  /// Key agreement: both endpoints derive the same secret from
  /// (my secret, peer public). Feeds the session-key KDF.
  [[nodiscard]] virtual Bytes shared_secret(BytesView my_secret_key,
                                            BytesView peer_public_key) const = 0;
  [[nodiscard]] virtual std::size_t signature_size() const = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

using SuitePtr = std::shared_ptr<const Suite>;

struct SchnorrGroup;  // schnorr.hpp

/// Real (R, s)-form Schnorr/DH suite over the given group (default_group()
/// if omitted).
[[nodiscard]] SuitePtr make_schnorr_suite();
[[nodiscard]] SuitePtr make_schnorr_suite(const SchnorrGroup& group);
/// Symmetric emulation suite; `seed` is the suite-wide MAC-key seed. Not
/// thread-safe: its key schedule fills on first use of each key.
[[nodiscard]] SuitePtr make_fast_suite(std::uint64_t seed = 0x4732674d41435353ULL);

/// Authenticated symmetric channel keys derived from a shared secret.
struct SessionKeys {
  ChaChaKey enc_key;
  ChaChaNonce nonce;
};

[[nodiscard]] SessionKeys derive_session_keys(BytesView shared_secret, BytesView transcript);

}  // namespace g2g::crypto
