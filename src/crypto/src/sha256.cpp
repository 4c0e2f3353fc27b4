#include "g2g/crypto/sha256.hpp"

#include <cstring>

#include "g2g/crypto/fastpath.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define G2G_HAVE_SHA_NI 1
#include <immintrin.h>
#endif

namespace g2g::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

/// Scalar FIPS 180-4 compression of one 64-byte block into `state`.
void compress_block_scalar(std::uint32_t* state, const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#if defined(G2G_HAVE_SHA_NI)
// Hardware compression via the SHA-NI extension. The x86 instructions work on
// a transposed state layout — ABEF/CDGH in two vectors — so the state words
// are repacked on entry and exit; the digest is bit-identical to the scalar
// rounds below.
__attribute__((target("sha,sse4.1"))) void compress_blocks_shani(std::uint32_t* state,
                                                                 const std::uint8_t* data,
                                                                 std::size_t count) {
  const __m128i kByteswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));     // DCBA
  __m128i state1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));  // HGFE
  tmp = _mm_shuffle_epi32(tmp, 0xB1);                                             // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);                                       // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);                               // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);                                    // CDGH

  while (count-- > 0) {
    const __m128i abef_save = state0;
    const __m128i cdgh_save = state1;

    // msg[] holds the most recent four W groups; each turn of the second loop
    // rewrites the oldest with W[4g..4g+3] via the SHA-NI schedule helpers.
    __m128i msg[4];
    for (int g = 0; g < 4; ++g) {
      msg[g] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)), kByteswap);
      __m128i wk = _mm_add_epi32(
          msg[g], _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * g])));
      state1 = _mm_sha256rnds2_epu32(state1, state0, wk);
      wk = _mm_shuffle_epi32(wk, 0x0E);
      state0 = _mm_sha256rnds2_epu32(state0, state1, wk);
    }
    for (int g = 4; g < 16; ++g) {
      const __m128i m0 = msg[g & 3];
      const __m128i m1 = msg[(g + 1) & 3];
      const __m128i m2 = msg[(g + 2) & 3];
      const __m128i m3 = msg[(g + 3) & 3];
      __m128i w = _mm_add_epi32(_mm_sha256msg1_epu32(m0, m1), _mm_alignr_epi8(m3, m2, 4));
      w = _mm_sha256msg2_epu32(w, m3);
      msg[g & 3] = w;
      __m128i wk =
          _mm_add_epi32(w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * g])));
      state1 = _mm_sha256rnds2_epu32(state1, state0, wk);
      wk = _mm_shuffle_epi32(wk, 0x0E);
      state0 = _mm_sha256rnds2_epu32(state0, state1, wk);
    }

    state0 = _mm_add_epi32(state0, abef_save);
    state1 = _mm_add_epi32(state1, cdgh_save);
    data += 64;
  }

  tmp = _mm_shuffle_epi32(state0, 0x1B);                                      // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);                                   // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);                                // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);                                   // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), state1);
}
#endif  // G2G_HAVE_SHA_NI

}  // namespace

void sha256_compress_scalar(std::uint32_t* state, const std::uint8_t* blocks,
                            std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) compress_block_scalar(state, blocks + 64 * i);
}

void Sha256::reset() {
  state_ = kSha256InitState;
  length_ = 0;
  buffered_ = 0;
}

void Sha256::compress_many(const std::uint8_t* blocks, std::size_t count) {
#if defined(G2G_HAVE_SHA_NI)
  if (sha_ni_available()) {
    compress_blocks_shani(state_.data(), blocks, count);
    return;
  }
#endif
  sha256_compress_scalar(state_.data(), blocks, count);
}

void Sha256::update(BytesView data) {
  length_ += data.size();
  std::size_t pos = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    pos = take;
    if (buffered_ == 64) {
      compress_many(buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  const std::size_t whole = (data.size() - pos) / 64;
  if (whole > 0) {
    compress_many(data.data() + pos, whole);
    pos += whole * 64;
  }
  if (pos < data.size()) {
    std::memcpy(buffer_.data(), data.data() + pos, data.size() - pos);
    buffered_ = data.size() - pos;
  }
}

Digest Sha256::finish() {
  const std::uint64_t bit_len = length_ * 8;
  // One-shot padding: 0x80, zeros up to the length field, then the big-endian
  // bit count — one or two compressions, never a per-byte update loop.
  std::array<std::uint8_t, 128> pad{};
  std::memcpy(pad.data(), buffer_.data(), buffered_);
  pad[buffered_] = 0x80;
  const std::size_t pad_blocks = (buffered_ < 56) ? 1 : 2;
  std::uint8_t* len_be = pad.data() + 64 * pad_blocks - 8;
  for (int i = 0; i < 8; ++i) len_be[i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  compress_many(pad.data(), pad_blocks);
  buffered_ = 0;

  Digest out{};
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Digest sha256(BytesView data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finish();
}

Digest sha256(BytesView a, BytesView b) {
  Sha256 ctx;
  ctx.update(a);
  ctx.update(b);
  return ctx.finish();
}

}  // namespace g2g::crypto
