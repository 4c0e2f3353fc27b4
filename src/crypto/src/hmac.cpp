#include "g2g/crypto/hmac.hpp"

#include <algorithm>
#include <array>

namespace g2g::crypto {

namespace {
constexpr std::size_t kBlockSize = 64;

std::array<std::uint8_t, kBlockSize> normalize_key(BytesView key) {
  std::array<std::uint8_t, kBlockSize> out{};
  if (key.size() > kBlockSize) {
    const Digest d = sha256(key);
    std::copy(d.begin(), d.end(), out.begin());
  } else {
    std::copy(key.begin(), key.end(), out.begin());
  }
  return out;
}
}  // namespace

Digest hmac_sha256(BytesView key, BytesView data) {
  return HmacKey(key).mac(data);
}

HmacKey::HmacKey(BytesView key) {
  const auto k = normalize_key(key);
  std::array<std::uint8_t, kBlockSize> ipad{};
  std::array<std::uint8_t, kBlockSize> opad{};
  for (std::size_t i = 0; i < kBlockSize; ++i) {
    ipad[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
  }
  inner_.update(BytesView(ipad.data(), ipad.size()));
  outer_.update(BytesView(opad.data(), opad.size()));
}

Digest HmacKey::mac(BytesView data) const {
  return mac(data, BytesView());
}

Digest HmacKey::mac(BytesView a, BytesView b) const {
  Sha256 inner = inner_;  // copy of the post-ipad state
  inner.update(a);
  inner.update(b);
  const Digest inner_digest = inner.finish();

  Sha256 outer = outer_;  // copy of the post-opad state
  outer.update(digest_view(inner_digest));
  return outer.finish();
}

Digest heavy_hmac(BytesView message, BytesView seed, std::uint32_t iterations) {
  // Hash the message once so each iteration touches a fixed-size state; the
  // cost knob is the iteration count, independent of message length.
  const Digest m_digest = sha256(message);
  const HmacKey key(seed);
  Digest h = key.mac(message);
  for (std::uint32_t i = 0; i < iterations; ++i) {
    h = key.mac(digest_view(h), digest_view(m_digest));
  }
  return h;
}

Digest heavy_hmac_reference(BytesView message, BytesView seed, std::uint32_t iterations) {
  // Original straight-line chain: re-derives the HMAC pads and allocates the
  // concatenation buffer every iteration. Kept as the differential oracle for
  // heavy_hmac (tests/crypto_fastpath_diff_test.cpp).
  const Digest m_digest = sha256(message);
  Digest h = hmac_sha256(seed, message);
  for (std::uint32_t i = 0; i < iterations; ++i) {
    Writer w(64);
    w.raw(digest_view(h));
    w.raw(digest_view(m_digest));
    h = hmac_sha256(seed, w.bytes());
  }
  return h;
}

std::vector<Digest> heavy_hmac_batch(std::span<const HeavyHmacJob> jobs) {
  std::vector<Digest> out;
  out.reserve(jobs.size());
  for (const HeavyHmacJob& job : jobs) {
    out.push_back(heavy_hmac(job.message, job.seed, job.iterations));
  }
  return out;
}

bool digest_equal(const Digest& a, const Digest& b) {
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) diff |= static_cast<std::uint8_t>(a[i] ^ b[i]);
  return diff == 0;
}

HeavyHmacAgreement heavy_hmac_agree(BytesView prover_message, BytesView prover_seed,
                                    BytesView verifier_message, BytesView verifier_seed,
                                    std::uint32_t iterations) {
  if (std::ranges::equal(prover_message, verifier_message) &&
      std::ranges::equal(prover_seed, verifier_seed)) {
    return {true, 0};
  }
  return {digest_equal(heavy_hmac(prover_message, prover_seed, iterations),
                       heavy_hmac(verifier_message, verifier_seed, iterations)),
          2};
}

}  // namespace g2g::crypto
