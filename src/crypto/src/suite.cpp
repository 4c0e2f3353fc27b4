#include "g2g/crypto/suite.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <unordered_map>

#include "g2g/crypto/hmac.hpp"
#include "g2g/crypto/schnorr.hpp"
#include "g2g/crypto/sha256.hpp"

namespace g2g::crypto {

namespace {

class SchnorrSuite final : public Suite {
 public:
  // The engine carries the per-group fixed-base tables for g; every key,
  // signature, and verdict it produces is byte-identical to the free
  // schnorr_keygen / schnorr_rs_* functions (the differential suite pins
  // this down).
  explicit SchnorrSuite(const SchnorrGroup& group) : engine_(group) {}

  KeyPair keygen(Rng& rng) const override {
    const SchnorrKeyPair kp = engine_.keygen(rng);
    return KeyPair{kp.secret.to_bytes_be(), kp.public_key.to_bytes_be()};
  }

  Bytes sign(BytesView secret_key, BytesView message) const override {
    // Deterministic nonce derivation (RFC-6979 style): the signing nonce is a
    // PRF of the secret and the message, so signing needs no ambient RNG.
    const Digest nd = hmac_sha256(secret_key, message);
    Rng nonce_rng(U256::from_bytes_be(digest_view(nd)).limb[0] ^
                  U256::from_bytes_be(digest_view(nd)).limb[2]);
    return engine_.sign_rs(U256::from_bytes_be(secret_key), message, nonce_rng).encode();
  }

  bool verify(BytesView public_key, BytesView message, BytesView signature) const override {
    if (signature.size() != 64 || public_key.size() != 32) return false;
    return engine_.verify_rs(U256::from_bytes_be(public_key), message,
                             SchnorrSignatureRS::decode(signature));
  }

  Bytes shared_secret(BytesView my_secret_key, BytesView peer_public_key) const override {
    const U256 s = dh_shared_secret(engine_.group(), U256::from_bytes_be(my_secret_key),
                                    U256::from_bytes_be(peer_public_key));
    return s.to_bytes_be();
  }

  std::size_t signature_size() const override { return 64; }
  std::string name() const override { return "schnorr-zp-rs"; }

 private:
  SchnorrEngine engine_;
};

class FastSuite final : public Suite {
 public:
  explicit FastSuite(std::uint64_t seed) : seed_key_(seed_bytes(seed)) {}

  KeyPair keygen(Rng& rng) const override {
    // public key: 32 random bytes; secret key: pub || mac_key(pub).
    Bytes pub(32);
    for (std::size_t i = 0; i < 4; ++i) {
      const std::uint64_t v = rng.next();
      for (std::size_t j = 0; j < 8; ++j) {
        pub[8 * i + j] = static_cast<std::uint8_t>(v >> (8 * j));
      }
    }
    const Digest mac_key = seed_key_.mac(pub);
    Bytes secret = pub;
    secret.insert(secret.end(), mac_key.begin(), mac_key.end());
    return KeyPair{std::move(secret), std::move(pub)};
  }

  Bytes sign(BytesView secret_key, BytesView message) const override {
    const BytesView mac_key = secret_key.subspan(32);
    if (mac_key.size() != kKeySize) return digest_bytes(hmac_sha256(mac_key, message));
    return digest_bytes(key_schedule(sign_keys_, mac_key, [&] { return HmacKey(mac_key); })
                            .mac(message));
  }

  bool verify(BytesView public_key, BytesView message, BytesView signature) const override {
    if (signature.size() != kSha256DigestSize) return false;
    const auto derive = [&] { return HmacKey(digest_view(seed_key_.mac(public_key))); };
    const Digest expect = public_key.size() == kKeySize
                              ? key_schedule(verify_keys_, public_key, derive).mac(message)
                              : derive().mac(message);
    Digest got{};
    std::copy(signature.begin(), signature.end(), got.begin());
    return digest_equal(expect, got);
  }

  Bytes shared_secret(BytesView my_secret_key, BytesView peer_public_key) const override {
    // Symmetric in the two endpoints: HMAC(seed, sorted(pub_a, pub_b)).
    const BytesView my_pub = my_secret_key.subspan(0, 32);
    const bool mine_first = std::lexicographical_compare(my_pub.begin(), my_pub.end(),
                                                         peer_public_key.begin(),
                                                         peer_public_key.end());
    return digest_bytes(mine_first ? seed_key_.mac(my_pub, peer_public_key)
                                   : seed_key_.mac(peer_public_key, my_pub));
  }

  std::size_t signature_size() const override { return kSha256DigestSize; }
  std::string name() const override { return "fast-hmac"; }

 private:
  static constexpr std::size_t kKeySize = 32;
  using Key = std::array<std::uint8_t, kKeySize>;
  /// Keys are uniform (random public keys, HMAC-derived MAC keys), so their
  /// first 8 bytes are a good hash.
  struct KeyPrefix {
    std::size_t operator()(const Key& k) const noexcept {
      std::size_t v = 0;
      std::memcpy(&v, k.data(), sizeof v);
      return v;
    }
  };
  using KeyTable = std::unordered_map<Key, HmacKey, KeyPrefix>;

  static Bytes seed_bytes(std::uint64_t seed) {
    Writer w(8);
    w.u64(seed);
    return std::move(w).take();
  }

  /// The HMAC pad state under the 32-byte `key`, built by `make` on first use.
  template <typename Make>
  static const HmacKey& key_schedule(KeyTable& table, BytesView key, Make make) {
    Key k;
    std::copy(key.begin(), key.end(), k.begin());
    const auto it = table.find(k);
    if (it != table.end()) return it->second;
    return table.emplace(k, make()).first->second;
  }

  /// HMAC pad state of the suite seed: K_pub = seed_key_.mac(pub).
  HmacKey seed_key_;
  /// Per-run key schedules, never iterated: public key -> HmacKey(K_pub) for
  /// verify, and the secret's MAC-key half -> its HmacKey for sign.
  mutable KeyTable verify_keys_;
  mutable KeyTable sign_keys_;
};

}  // namespace

SuitePtr make_schnorr_suite() { return make_schnorr_suite(SchnorrGroup::default_group()); }

SuitePtr make_schnorr_suite(const SchnorrGroup& group) {
  return std::make_shared<SchnorrSuite>(group);
}

SuitePtr make_fast_suite(std::uint64_t seed) { return std::make_shared<FastSuite>(seed); }

SessionKeys derive_session_keys(BytesView shared_secret, BytesView transcript) {
  Writer w(shared_secret.size() + transcript.size());
  w.raw(shared_secret);
  w.raw(transcript);
  SessionKeys keys;
  keys.enc_key = derive_chacha_key(w.bytes());
  keys.nonce = derive_chacha_nonce(w.bytes());
  return keys;
}

}  // namespace g2g::crypto
