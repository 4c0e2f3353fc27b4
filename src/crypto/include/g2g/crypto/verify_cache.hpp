// Memoizing wrapper around a signature suite.
//
// In a G2G run the same signature is checked many times: every node that
// receives a gossiped PoM re-verifies the embedded declarations, PoR chains
// are audited by giver and taker, and certificates travel with every
// handshake. Verification is pure — same (pubkey, message, signature) in,
// same verdict out — so a per-run memo answers the repeats in one table
// lookup. Every other call (keygen, sign, key agreement) passes straight
// through.
//
// The wrapper is semantically invisible: verdicts, signatures, and key
// material are bit-identical to the inner suite's, and the protocol's
// *cost model* (proto::NodeCosts verification counts) is charged by the node
// layer before the suite is consulted, so simulated energy accounting does
// not change either. The only observable difference is wall clock and the
// fastpath.verify_cache.* counters, which core::to_json(ExperimentResult)
// excludes for exactly that reason.
//
// Not thread-safe: each Network owns a private instance (one simulation runs
// on one thread; the sweep pool parallelizes across runs, not within one).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "g2g/crypto/sha256.hpp"
#include "g2g/crypto/suite.hpp"

namespace g2g::crypto {

class CachingSuite final : public Suite {
 public:
  struct Stats {
    std::uint64_t verify_hits = 0;
    std::uint64_t verify_misses = 0;
  };

  explicit CachingSuite(SuitePtr inner);

  [[nodiscard]] KeyPair keygen(Rng& rng) const override;
  [[nodiscard]] Bytes sign(BytesView secret_key, BytesView message) const override;
  [[nodiscard]] bool verify(BytesView public_key, BytesView message,
                            BytesView signature) const override;
  void verify_batch(std::span<const VerifyRequest> requests, bool* verdicts) const override;
  [[nodiscard]] Bytes shared_secret(BytesView my_secret_key,
                                    BytesView peer_public_key) const override;
  [[nodiscard]] std::size_t signature_size() const override;
  // Reports the inner suite's name: the cache must be invisible everywhere a
  // result could be serialized or compared.
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const SuitePtr& inner() const { return inner_; }

 private:
  struct DigestHash {
    std::size_t operator()(const Digest& d) const;
  };

  SuitePtr inner_;
  mutable std::unordered_map<Digest, bool, DigestHash> verify_cache_;
  mutable Stats stats_;
};

/// Wrap `inner` in a fresh cache. Returns the concrete type so callers can
/// read stats(); it is also a SuitePtr-compatible Suite.
[[nodiscard]] std::shared_ptr<CachingSuite> make_caching_suite(SuitePtr inner);

}  // namespace g2g::crypto
