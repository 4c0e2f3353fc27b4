#include "g2g/crypto/verify_cache.hpp"

#include <cstring>
#include <memory>
#include <vector>

namespace g2g::crypto {

namespace {

// Collision-resistant cache key over length-framed fields: framing prevents
// (pub, msg) boundary ambiguity from ever aliasing two distinct requests.
Digest cache_key(BytesView a, BytesView b, BytesView c) {
  Sha256 h;
  for (const BytesView part : {a, b, c}) {
    std::uint8_t len_le[8];
    const std::uint64_t n = part.size();
    for (int i = 0; i < 8; ++i) len_le[i] = static_cast<std::uint8_t>(n >> (8 * i));
    h.update(BytesView(len_le, 8));
    h.update(part);
  }
  return h.finish();
}

}  // namespace

std::size_t CachingSuite::DigestHash::operator()(const Digest& d) const {
  // The key is already a SHA-256 digest; its first word is uniform.
  std::size_t out;
  std::memcpy(&out, d.data(), sizeof(out));
  return out;
}

CachingSuite::CachingSuite(SuitePtr inner) : inner_(std::move(inner)) {}

KeyPair CachingSuite::keygen(Rng& rng) const { return inner_->keygen(rng); }

Bytes CachingSuite::sign(BytesView secret_key, BytesView message) const {
  return inner_->sign(secret_key, message);
}

bool CachingSuite::verify(BytesView public_key, BytesView message, BytesView signature) const {
  const Digest key = cache_key(public_key, message, signature);
  const auto it = verify_cache_.find(key);
  if (it != verify_cache_.end()) {
    ++stats_.verify_hits;
    return it->second;
  }
  ++stats_.verify_misses;
  const bool ok = inner_->verify(public_key, message, signature);
  verify_cache_.emplace(key, ok);
  return ok;
}

void CachingSuite::verify_batch(std::span<const VerifyRequest> requests, bool* verdicts) const {
  // Answer repeats from the memo, dedupe repeats *within* the batch (the
  // same PoR can appear several times in one audit round), and forward only
  // the distinct misses to the inner suite in one call so it sees the true
  // batch shape.
  constexpr std::size_t kPending = static_cast<std::size_t>(-1);
  std::vector<Digest> keys(requests.size());
  // For each request: kPending + membership in miss_index if it heads a
  // distinct miss, otherwise the index of the earlier duplicate to copy from.
  std::vector<std::size_t> dup_of(requests.size(), kPending);
  std::unordered_map<Digest, std::size_t, DigestHash> first_seen;
  std::vector<std::size_t> miss_index;
  std::vector<VerifyRequest> misses;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    keys[i] = cache_key(requests[i].public_key, requests[i].message, requests[i].signature);
    const auto it = verify_cache_.find(keys[i]);
    if (it != verify_cache_.end()) {
      ++stats_.verify_hits;
      verdicts[i] = it->second;
      continue;
    }
    const auto [seen, fresh] = first_seen.emplace(keys[i], i);
    if (!fresh) {
      ++stats_.verify_hits;
      dup_of[i] = seen->second;
      continue;
    }
    ++stats_.verify_misses;
    miss_index.push_back(i);
    misses.push_back(requests[i]);
  }
  if (!misses.empty()) {
    const auto miss_buf = std::make_unique<bool[]>(misses.size());
    bool* miss_out = miss_buf.get();
    inner_->verify_batch(std::span<const VerifyRequest>(misses.data(), misses.size()),
                         miss_out);
    for (std::size_t j = 0; j < misses.size(); ++j) {
      verdicts[miss_index[j]] = miss_out[j];
      verify_cache_.emplace(keys[miss_index[j]], miss_out[j]);
    }
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (dup_of[i] != kPending) verdicts[i] = verdicts[dup_of[i]];
  }
}

Bytes CachingSuite::shared_secret(BytesView my_secret_key, BytesView peer_public_key) const {
  return inner_->shared_secret(my_secret_key, peer_public_key);
}

std::size_t CachingSuite::signature_size() const { return inner_->signature_size(); }

std::string CachingSuite::name() const { return inner_->name(); }

std::shared_ptr<CachingSuite> make_caching_suite(SuitePtr inner) {
  return std::make_shared<CachingSuite>(std::move(inner));
}

}  // namespace g2g::crypto
