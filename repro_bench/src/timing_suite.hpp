// Counting and timing decorator around a crypto::Suite, for the traced pass.
//
// The benchmark passes it as ExperimentConfig::suite; the Network wraps it in
// its per-run CachingSuite, so the calls seen here are the cache misses that
// reach the signature code. Every call forwards unchanged, so a run with the
// decorator produces the same outcome digest as one without it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "g2g/crypto/suite.hpp"

namespace repro {

struct SuiteStats {
  std::uint64_t sign_calls = 0;
  std::uint64_t verify_calls = 0;
  std::uint64_t batch_calls = 0;
  std::uint64_t batch_items = 0;
  std::uint64_t dh_calls = 0;
  double seconds = 0.0;  ///< steady-clock time inside the wrapped suite

  SuiteStats& operator+=(const SuiteStats& o);
};

/// Not thread-safe, like the suites it wraps: one instance per run.
class TimingSuite final : public g2g::crypto::Suite {
 public:
  explicit TimingSuite(g2g::crypto::SuitePtr inner) : inner_(std::move(inner)) {}

  [[nodiscard]] g2g::crypto::KeyPair keygen(g2g::Rng& rng) const override;
  [[nodiscard]] g2g::Bytes sign(g2g::BytesView secret_key,
                                g2g::BytesView message) const override;
  [[nodiscard]] bool verify(g2g::BytesView public_key, g2g::BytesView message,
                            g2g::BytesView signature) const override;
  void verify_batch(std::span<const g2g::crypto::VerifyRequest> requests,
                    bool* verdicts) const override;
  [[nodiscard]] g2g::Bytes shared_secret(g2g::BytesView my_secret_key,
                                         g2g::BytesView peer_public_key) const override;
  [[nodiscard]] std::size_t signature_size() const override {
    return inner_->signature_size();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  [[nodiscard]] const SuiteStats& stats() const { return stats_; }

 private:
  g2g::crypto::SuitePtr inner_;
  mutable SuiteStats stats_;
};

}  // namespace repro
