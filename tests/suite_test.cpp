#include "g2g/crypto/suite.hpp"

#include <gtest/gtest.h>

#include "g2g/crypto/schnorr.hpp"
#include "g2g/crypto/sealed_box.hpp"
#include "reference_suite.hpp"

namespace g2g::crypto {
namespace {

// Parameterized over both suite implementations — the protocol layer must be
// able to run on either — plus "schnorr-rs", the free-function (R, s)
// reference suite that the Schnorr suite is tested against: an oracle must
// satisfy the same Suite contract.
class SuiteTest : public ::testing::TestWithParam<const char*> {
 protected:
  SuitePtr make() const {
    if (std::string(GetParam()) == "schnorr") {
      return make_schnorr_suite(SchnorrGroup::small_group());
    }
    if (std::string(GetParam()) == "schnorr-rs") {
      return make_reference_schnorr_suite(SchnorrGroup::small_group());
    }
    return make_fast_suite(0x5eed);
  }

  /// The independent implementation each suite is compared against: the
  /// reference suite for both Schnorr variants, a second instance for the
  /// emulated suite (same seed, so the same MAC keys).
  SuitePtr oracle() const {
    if (std::string(GetParam()) == "fast") return make_fast_suite(0x5eed);
    return make_reference_schnorr_suite(SchnorrGroup::small_group());
  }
};

TEST_P(SuiteTest, SignVerifyRoundTrip) {
  const SuitePtr suite = make();
  Rng rng(1);
  const KeyPair kp = suite->keygen(rng);
  const Bytes msg = to_bytes("hello");
  const Bytes sig = suite->sign(kp.secret_key, msg);
  EXPECT_EQ(sig.size(), suite->signature_size());
  EXPECT_TRUE(suite->verify(kp.public_key, msg, sig));
}

TEST_P(SuiteTest, TamperedMessageRejected) {
  const SuitePtr suite = make();
  Rng rng(2);
  const KeyPair kp = suite->keygen(rng);
  Bytes msg = to_bytes("hello");
  const Bytes sig = suite->sign(kp.secret_key, msg);
  msg[0] ^= 1;
  EXPECT_FALSE(suite->verify(kp.public_key, msg, sig));
}

TEST_P(SuiteTest, WrongKeyRejected) {
  const SuitePtr suite = make();
  Rng rng(3);
  const KeyPair a = suite->keygen(rng);
  const KeyPair b = suite->keygen(rng);
  const Bytes msg = to_bytes("hello");
  const Bytes sig = suite->sign(a.secret_key, msg);
  EXPECT_FALSE(suite->verify(b.public_key, msg, sig));
}

TEST_P(SuiteTest, TamperedSignatureRejected) {
  const SuitePtr suite = make();
  Rng rng(4);
  const KeyPair kp = suite->keygen(rng);
  const Bytes msg = to_bytes("hello");
  Bytes sig = suite->sign(kp.secret_key, msg);
  sig[sig.size() / 2] ^= 0x40;
  EXPECT_FALSE(suite->verify(kp.public_key, msg, sig));
  EXPECT_FALSE(suite->verify(kp.public_key, msg, Bytes{}));  // wrong size
}

TEST_P(SuiteTest, SharedSecretSymmetric) {
  const SuitePtr suite = make();
  Rng rng(5);
  const KeyPair a = suite->keygen(rng);
  const KeyPair b = suite->keygen(rng);
  EXPECT_EQ(suite->shared_secret(a.secret_key, b.public_key),
            suite->shared_secret(b.secret_key, a.public_key));
}

TEST_P(SuiteTest, SharedSecretPairSpecific) {
  const SuitePtr suite = make();
  Rng rng(6);
  const KeyPair a = suite->keygen(rng);
  const KeyPair b = suite->keygen(rng);
  const KeyPair c = suite->keygen(rng);
  EXPECT_NE(suite->shared_secret(a.secret_key, b.public_key),
            suite->shared_secret(a.secret_key, c.public_key));
}

TEST_P(SuiteTest, SealedBoxRoundTrip) {
  const SuitePtr suite = make();
  Rng rng(7);
  const KeyPair recipient = suite->keygen(rng);
  const Bytes plain = to_bytes("S, msg_id, body — sealed to D");
  const SealedBox box = seal(*suite, rng, recipient.public_key, plain);
  EXPECT_NE(box.ciphertext, plain);
  EXPECT_EQ(seal_open(*suite, recipient.secret_key, box), plain);
}

TEST_P(SuiteTest, SealedBoxWrongRecipientGetsGarbage) {
  const SuitePtr suite = make();
  Rng rng(8);
  const KeyPair recipient = suite->keygen(rng);
  const KeyPair other = suite->keygen(rng);
  const Bytes plain = to_bytes("only for the destination");
  const SealedBox box = seal(*suite, rng, recipient.public_key, plain);
  EXPECT_NE(seal_open(*suite, other.secret_key, box), plain);
}

TEST_P(SuiteTest, DistinctKeygens) {
  const SuitePtr suite = make();
  Rng rng(9);
  const KeyPair a = suite->keygen(rng);
  const KeyPair b = suite->keygen(rng);
  EXPECT_NE(a.public_key, b.public_key);
  EXPECT_NE(a.secret_key, b.secret_key);
}

TEST_P(SuiteTest, ArtifactsAndVerdictsIdenticalWithMontgomeryOnAndOff) {
  // Every suite must produce bit-identical keys, signatures, shared secrets,
  // and accept/reject verdicts to its oracle: the engine's Montgomery tables
  // on one side, the free functions on the other.
  const SuitePtr sides[2] = {make(), oracle()};
  KeyPair kp[2];
  KeyPair peer[2];
  Bytes sig[2];
  Bytes secret[2];
  bool verdicts[2][3];
  const Bytes msg = to_bytes("relay proof, epoch 9");
  for (std::size_t side = 0; side < 2; ++side) {
    const Suite& suite = *sides[side];
    Rng rng(11);  // same draws on both sides
    kp[side] = suite.keygen(rng);
    peer[side] = suite.keygen(rng);
    sig[side] = suite.sign(kp[side].secret_key, msg);
    secret[side] = suite.shared_secret(kp[side].secret_key, peer[side].public_key);
    Bytes tampered_sig = sig[side];
    tampered_sig[5] ^= 0x10;
    Bytes tampered_msg = msg;
    tampered_msg[0] ^= 0x01;
    verdicts[side][0] = suite.verify(kp[side].public_key, msg, sig[side]);
    verdicts[side][1] = suite.verify(kp[side].public_key, tampered_msg, sig[side]);
    verdicts[side][2] = suite.verify(kp[side].public_key, msg, tampered_sig);
  }
  EXPECT_EQ(kp[0].public_key, kp[1].public_key);
  EXPECT_EQ(kp[0].secret_key, kp[1].secret_key);
  EXPECT_EQ(sig[0], sig[1]);
  EXPECT_EQ(secret[0], secret[1]);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(verdicts[0][i], verdicts[1][i]) << "request " << i;
    EXPECT_EQ(verdicts[0][i], i == 0) << "request " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSuites, SuiteTest,
                         ::testing::Values("schnorr", "schnorr-rs", "fast"),
                         [](const auto& info) {
                           std::string name(info.param);
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(FastSuite, DifferentSeedsCannotCrossVerify) {
  // A signature made under one suite seed must not verify under another:
  // the seed plays the role of the unforgeability assumption.
  const SuitePtr s1 = make_fast_suite(1);
  const SuitePtr s2 = make_fast_suite(2);
  Rng rng(10);
  const KeyPair kp = s1->keygen(rng);
  const Bytes sig = s1->sign(kp.secret_key, to_bytes("m"));
  EXPECT_FALSE(s2->verify(kp.public_key, to_bytes("m"), sig));
}

TEST(SessionKeys, DerivationBindsTranscript) {
  const SessionKeys k1 = derive_session_keys(to_bytes("secret"), to_bytes("transcript-a"));
  const SessionKeys k2 = derive_session_keys(to_bytes("secret"), to_bytes("transcript-b"));
  EXPECT_NE(k1.enc_key, k2.enc_key);
  const SessionKeys k3 = derive_session_keys(to_bytes("secret"), to_bytes("transcript-a"));
  EXPECT_EQ(k1.enc_key, k3.enc_key);
  EXPECT_EQ(k1.nonce, k3.nonce);
}

}  // namespace
}  // namespace g2g::crypto
