#include "timing_suite.hpp"

#include <chrono>

namespace repro {

namespace {

// Adds the elapsed steady-clock time of its scope to `sink`.
class ScopeClock {
 public:
  explicit ScopeClock(double& sink) : sink_(sink), t0_(std::chrono::steady_clock::now()) {}
  ~ScopeClock() {
    sink_ += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count();
  }
  ScopeClock(const ScopeClock&) = delete;
  ScopeClock& operator=(const ScopeClock&) = delete;

 private:
  double& sink_;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace

SuiteStats& SuiteStats::operator+=(const SuiteStats& o) {
  sign_calls += o.sign_calls;
  verify_calls += o.verify_calls;
  batch_calls += o.batch_calls;
  batch_items += o.batch_items;
  dh_calls += o.dh_calls;
  seconds += o.seconds;
  return *this;
}

g2g::crypto::KeyPair TimingSuite::keygen(g2g::Rng& rng) const {
  const ScopeClock clock(stats_.seconds);
  return inner_->keygen(rng);
}

g2g::Bytes TimingSuite::sign(g2g::BytesView secret_key, g2g::BytesView message) const {
  ++stats_.sign_calls;
  const ScopeClock clock(stats_.seconds);
  return inner_->sign(secret_key, message);
}

bool TimingSuite::verify(g2g::BytesView public_key, g2g::BytesView message,
                         g2g::BytesView signature) const {
  ++stats_.verify_calls;
  const ScopeClock clock(stats_.seconds);
  return inner_->verify(public_key, message, signature);
}

void TimingSuite::verify_batch(std::span<const g2g::crypto::VerifyRequest> requests,
                               bool* verdicts) const {
  ++stats_.batch_calls;
  stats_.batch_items += requests.size();
  const ScopeClock clock(stats_.seconds);
  inner_->verify_batch(requests, verdicts);
}

g2g::Bytes TimingSuite::shared_secret(g2g::BytesView my_secret_key,
                                      g2g::BytesView peer_public_key) const {
  ++stats_.dh_calls;
  const ScopeClock clock(stats_.seconds);
  return inner_->shared_secret(my_secret_key, peer_public_key);
}

}  // namespace repro
