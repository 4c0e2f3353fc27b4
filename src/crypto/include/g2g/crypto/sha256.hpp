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
/// drive raw compression states directly (sha256_compress_scalar).
inline constexpr std::array<std::uint32_t, 8> kSha256InitState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

/// Number of chains the benchmark's heavy-HMAC cost probe hands to one
/// heavy_hmac_batch call (its batch width). The batch runs its chains one
/// after another, so the width does not change the per-chain cost.
inline constexpr std::size_t kSha256MaxLanes = 4;

/// Compress `count` consecutive 64-byte blocks into the 8 chaining words at
/// `state` with the scalar FIPS 180-4 rounds. The named oracle the SHA-NI
/// path of Sha256 is tested against; Sha256 falls back to it on CPUs
/// without SHA-NI.
void sha256_compress_scalar(std::uint32_t* state, const std::uint8_t* blocks, std::size_t count);

/// Incremental SHA-256 context.
class Sha256 {
 public:
  Sha256() { reset(); }

  void reset();
  void update(BytesView data);
  /// Finalize and return the digest. The context must be reset() before reuse.
  [[nodiscard]] Digest finish();

 private:
  // Processes `count` consecutive 64-byte blocks; dispatches to the SHA-NI
  // hardware rounds when available (bit-identical to sha256_compress_scalar).
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
