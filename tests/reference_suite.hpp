// Reference Schnorr suite for differential tests.
//
// Built from the free schnorr_keygen / schnorr_rs_sign / schnorr_rs_verify /
// dh_shared_secret functions. make_schnorr_suite() computes the same scheme
// through SchnorrEngine: fixed-base tables and cached Montgomery
// parameters. Both must give byte-identical keys, signatures, shared secrets
// and verdicts, so this suite is the oracle the engine-backed suite is
// compared against.
#pragma once

#include <memory>
#include <string>

#include "g2g/crypto/hmac.hpp"
#include "g2g/crypto/schnorr.hpp"
#include "g2g/crypto/suite.hpp"

namespace g2g::crypto {

class ReferenceSchnorrSuite final : public Suite {
 public:
  explicit ReferenceSchnorrSuite(const SchnorrGroup& group) : group_(group) {}

  KeyPair keygen(Rng& rng) const override {
    const SchnorrKeyPair kp = schnorr_keygen(group_, rng);
    return KeyPair{kp.secret.to_bytes_be(), kp.public_key.to_bytes_be()};
  }

  Bytes sign(BytesView secret_key, BytesView message) const override {
    // The suite's deterministic nonce: a PRF of the secret and the message.
    const U256 nd = U256::from_bytes_be(digest_view(hmac_sha256(secret_key, message)));
    Rng nonce_rng(nd.limb[0] ^ nd.limb[2]);
    return schnorr_rs_sign(group_, U256::from_bytes_be(secret_key), message, nonce_rng)
        .encode();
  }

  bool verify(BytesView public_key, BytesView message, BytesView signature) const override {
    if (signature.size() != 64 || public_key.size() != 32) return false;
    return schnorr_rs_verify(group_, U256::from_bytes_be(public_key), message,
                             SchnorrSignatureRS::decode(signature));
  }

  Bytes shared_secret(BytesView my_secret_key, BytesView peer_public_key) const override {
    return dh_shared_secret(group_, U256::from_bytes_be(my_secret_key),
                            U256::from_bytes_be(peer_public_key))
        .to_bytes_be();
  }

  std::size_t signature_size() const override { return 64; }
  std::string name() const override { return "schnorr-zp-rs"; }

 private:
  SchnorrGroup group_;
};

inline SuitePtr make_reference_schnorr_suite(const SchnorrGroup& group) {
  return std::make_shared<ReferenceSchnorrSuite>(group);
}

}  // namespace g2g::crypto
