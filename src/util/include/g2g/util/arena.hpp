// Bump-allocated scratch memory for the zero-copy wire path.
//
// An Arena hands out exactly-sized byte spans from a small set of chunks and
// recycles them wholesale with reset(): the chunks are kept, so a warmed-up
// arena services an arbitrary number of alloc()/reset() cycles without ever
// touching the heap again. Encoded wire frames live in arena spans for the
// duration of one handshake attempt (see DESIGN.md "Buffer ownership"); a
// reset() invalidates every span handed out since the previous reset.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "g2g/util/bytes.hpp"

namespace g2g {

class Arena {
 public:
  /// `min_chunk` is the smallest chunk the arena will allocate; requests
  /// larger than any free chunk get a dedicated chunk of their exact need
  /// (rounded up to the doubling schedule).
  explicit Arena(std::size_t min_chunk = 4096) : min_chunk_(min_chunk ? min_chunk : 1) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// An uninitialised span of exactly `n` bytes, valid until the next reset().
  [[nodiscard]] std::span<std::uint8_t> alloc(std::size_t n) {
    if (n == 0) return {};
    while (active_ < chunks_.size()) {
      Chunk& c = chunks_[active_];
      if (c.size - used_ >= n) {
        std::uint8_t* p = c.data.get() + used_;
        used_ += n;
        in_use_ += n;
        return {p, n};
      }
      ++active_;
      used_ = 0;
    }
    std::size_t size = chunks_.empty() ? min_chunk_ : chunks_.back().size * 2;
    if (size < n) size = n;
    chunks_.push_back(Chunk{std::make_unique<std::uint8_t[]>(size), size});
    ++chunk_allocs_;
    used_ = n;
    in_use_ += n;
    return {chunks_.back().data.get(), n};
  }

  /// Recycle all spans (they become dangling) but keep every chunk, so a
  /// warmed-up arena allocates nothing on subsequent cycles.
  void reset() {
    active_ = 0;
    used_ = 0;
    in_use_ = 0;
  }

  /// Bytes handed out since the last reset().
  [[nodiscard]] std::size_t bytes_in_use() const { return in_use_; }
  /// Total bytes owned across all chunks.
  [[nodiscard]] std::size_t capacity() const {
    std::size_t total = 0;
    for (const Chunk& c : chunks_) total += c.size;
    return total;
  }
  /// Lifetime count of heap chunk allocations — flat once warmed up; the
  /// steady-state allocation tests pin this.
  [[nodiscard]] std::uint64_t chunk_allocations() const { return chunk_allocs_; }

 private:
  struct Chunk {
    std::unique_ptr<std::uint8_t[]> data;
    std::size_t size;
  };
  std::vector<Chunk> chunks_;
  std::size_t active_ = 0;  ///< chunk currently being filled
  std::size_t used_ = 0;    ///< bytes used in the active chunk
  std::size_t in_use_ = 0;
  std::size_t min_chunk_;
  std::uint64_t chunk_allocs_ = 0;
};

/// Encode `v` into an exactly-reserved arena span. The returned view stays
/// valid until the arena's next reset(). Verifies the encode()/wire_size()
/// contract: anything but an exact fill throws EncodeError.
template <typename T>
[[nodiscard]] BytesView arena_encode(Arena& arena, const T& v) {
  const std::span<std::uint8_t> out = arena.alloc(v.wire_size());
  SpanWriter w(out);
  v.encode_into(w);
  w.expect_full();
  return {out.data(), out.size()};
}

/// The bytes `v` signs (signed_payload_into) in an exactly-reserved arena
/// span, valid until the arena's next reset(). Same exact-fill contract as
/// arena_encode.
template <typename T>
[[nodiscard]] BytesView arena_signed_payload(Arena& arena, const T& v) {
  const std::span<std::uint8_t> out = arena.alloc(v.signed_payload_size());
  SpanWriter w(out);
  v.signed_payload_into(w);
  w.expect_full();
  return {out.data(), out.size()};
}

}  // namespace g2g
