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

namespace {

void store_state_be(const std::uint32_t* state, std::uint8_t* out) {
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state[i]);
  }
}

/// Per-lane chain state. Each iteration of heavy_hmac's fast chain is exactly
/// three compressions with fixed block shapes:
///   inner: data block h || m_digest, then a constant pad block (128 fed bytes)
///   outer: one block inner_digest || 0x80-pad || bit length 768
/// buf_a pre-bakes the m_digest half and the inner pad block, so only the
/// 32-byte h prefix changes per iteration; buf_c pre-bakes the outer padding.
struct HeavyLane {
  std::array<std::uint32_t, 8> inner0{};  // chaining state after the ipad block
  std::array<std::uint32_t, 8> outer0{};  // chaining state after the opad block
  std::array<std::uint32_t, 8> state_inner{};
  std::array<std::uint32_t, 8> state_outer{};
  std::array<std::uint8_t, 128> buf_a{};
  std::array<std::uint8_t, 64> buf_c{};
  Digest h{};
  std::uint32_t iterations = 0;
  std::size_t job = 0;
};

/// Lockstep chunk of at most kSha256MaxLanes chains.
void run_heavy_lanes(std::span<HeavyLane> lanes, std::vector<Digest>& out) {
  std::uint32_t* states[kSha256MaxLanes];
  const std::uint8_t* blocks[kSha256MaxLanes];

  for (std::uint32_t t = 0;; ++t) {
    // Lanes finish in place once their iteration count is reached; the
    // active prefix shrinks as shorter chains complete.
    std::size_t active = 0;
    for (auto& ln : lanes) {
      if (ln.iterations > t) {
        std::copy(ln.h.begin(), ln.h.end(), ln.buf_a.begin());
        ln.state_inner = ln.inner0;
        states[active] = ln.state_inner.data();
        blocks[active] = ln.buf_a.data();
        ++active;
      }
    }
    if (active == 0) break;
    sha256_compress_multi(states, blocks, active, 2);

    std::size_t slot = 0;
    for (auto& ln : lanes) {
      if (ln.iterations > t) {
        store_state_be(ln.state_inner.data(), ln.buf_c.data());
        ln.state_outer = ln.outer0;
        states[slot] = ln.state_outer.data();
        blocks[slot] = ln.buf_c.data();
        ++slot;
      }
    }
    sha256_compress_multi(states, blocks, active, 1);

    for (auto& ln : lanes) {
      if (ln.iterations > t) store_state_be(ln.state_outer.data(), ln.h.data());
    }
  }

  for (const auto& ln : lanes) out[ln.job] = ln.h;
}

}  // namespace

std::vector<Digest> heavy_hmac_batch(std::span<const HeavyHmacJob> jobs) {
  std::vector<Digest> out(jobs.size());
  std::array<HeavyLane, kSha256MaxLanes> lanes;
  for (std::size_t base = 0; base < jobs.size(); base += kSha256MaxLanes) {
    const std::size_t n = std::min(kSha256MaxLanes, jobs.size() - base);
    for (std::size_t l = 0; l < n; ++l) {
      const HeavyHmacJob& job = jobs[base + l];
      HeavyLane& ln = lanes[l];
      ln.job = base + l;
      ln.iterations = job.iterations;

      const auto k = normalize_key(job.seed);
      std::array<std::uint8_t, kBlockSize> pad{};
      for (std::size_t i = 0; i < kBlockSize; ++i) {
        pad[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
      }
      ln.inner0 = kSha256InitState;
      std::uint32_t* st = ln.inner0.data();
      const std::uint8_t* blk = pad.data();
      sha256_compress_multi(&st, &blk, 1, 1);
      for (std::size_t i = 0; i < kBlockSize; ++i) {
        pad[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
      }
      ln.outer0 = kSha256InitState;
      st = ln.outer0.data();
      sha256_compress_multi(&st, &blk, 1, 1);

      const Digest m_digest = sha256(job.message);
      ln.buf_a.fill(0);
      std::copy(m_digest.begin(), m_digest.end(), ln.buf_a.begin() + 32);
      ln.buf_a[64] = 0x80;
      ln.buf_a[126] = 0x04;  // 128 fed bytes = 1024 bits, big-endian
      ln.buf_c.fill(0);
      ln.buf_c[32] = 0x80;
      ln.buf_c[62] = 0x03;  // 96 fed bytes = 768 bits, big-endian

      ln.h = hmac_sha256(job.seed, job.message);  // H_0
    }
    run_heavy_lanes(std::span<HeavyLane>(lanes.data(), n), out);
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
