// SHA-256 (FIPS 180-4). Used for message digests H(m), session transcripts,
// and as the compression core of HMAC and the heavy HMAC challenge.
#pragma once

#include <array>
#include <cstdint>

#include "g2g/util/bytes.hpp"

namespace g2g::crypto {

inline constexpr std::size_t kSha256DigestSize = 32;
using Digest = std::array<std::uint8_t, kSha256DigestSize>;

/// Initial chaining value H(0) from FIPS 180-4. Exposed for callers that
/// drive raw compression states directly (the multi-lane heavy-HMAC batch).
inline constexpr std::array<std::uint32_t, 8> kSha256InitState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

/// Maximum number of independent lanes sha256_compress_multi runs in lockstep.
inline constexpr std::size_t kSha256MaxLanes = 4;

/// Backend selection for sha256_compress_multi. kAuto picks the fastest
/// available path (interleaved SHA-NI chains, then the AVX2 4-lane SIMD
/// kernel, then the scalar loop); the explicit values let the differential
/// tests force each backend. Forcing a backend the CPU lacks silently runs
/// the scalar loop — check sha256_multi_backend_available() first.
enum class Sha256MultiBackend { kAuto, kShaNi, kAvx2, kScalar };

[[nodiscard]] bool sha256_multi_backend_available(Sha256MultiBackend backend);

/// Compress `blocks_per_lane` consecutive 64-byte blocks into each of `lanes`
/// independent chaining states (lanes <= kSha256MaxLanes). states[l] points
/// at 8 state words; blocks[l] at 64 * blocks_per_lane bytes. All backends
/// are bit-identical to running the scalar FIPS 180-4 rounds per lane, so
/// kScalar is the oracle the other backends are tested against.
void sha256_compress_multi(std::uint32_t* const* states, const std::uint8_t* const* blocks,
                           std::size_t lanes, std::size_t blocks_per_lane = 1,
                           Sha256MultiBackend backend = Sha256MultiBackend::kAuto);

/// Incremental SHA-256 context.
class Sha256 {
 public:
  Sha256() { reset(); }

  void reset();
  void update(BytesView data);
  /// Finalize and return the digest. The context must be reset() before reuse.
  [[nodiscard]] Digest finish();

 private:
  void compress(const std::uint8_t block[64]);
  // Processes `count` consecutive 64-byte blocks; dispatches to the SHA-NI
  // hardware rounds when available (bit-identical to the scalar loop).
  void compress_many(const std::uint8_t* blocks, std::size_t count);

  std::array<std::uint32_t, 8> state_{};
  std::uint64_t length_ = 0;  // total bytes fed
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffered_ = 0;
};

/// One-shot digest.
[[nodiscard]] Digest sha256(BytesView data);
/// Digest of the concatenation a || b (avoids an allocation).
[[nodiscard]] Digest sha256(BytesView a, BytesView b);

[[nodiscard]] inline BytesView digest_view(const Digest& d) {
  return BytesView(d.data(), d.size());
}
[[nodiscard]] inline Bytes digest_bytes(const Digest& d) {
  return Bytes(d.begin(), d.end());
}

}  // namespace g2g::crypto
