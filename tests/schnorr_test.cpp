#include "g2g/crypto/schnorr.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <utility>
#include <vector>

namespace g2g::crypto {
namespace {

// Tests run on the small group (128-bit p) to stay fast; a few also exercise
// the default 256-bit group. The SchnorrSmall tests without an "Rs" prefix
// drive SchnorrEngine; the "Rs" ones drive the free schnorr_rs_* functions.

TEST(SchnorrGroup, SmallGroupIsValid) {
  Rng rng(1);
  EXPECT_TRUE(SchnorrGroup::small_group().valid(rng));
}

TEST(SchnorrGroup, DefaultGroupIsValid) {
  Rng rng(2);
  const SchnorrGroup& g = SchnorrGroup::default_group();
  EXPECT_TRUE(g.valid(rng));
  EXPECT_EQ(g.p.bit_length(), 256u);
  EXPECT_EQ(g.q.bit_length(), 160u);
}

TEST(SchnorrGroup, GenerationIsDeterministic) {
  const SchnorrGroup a = SchnorrGroup::generate(128, 96, 555);
  const SchnorrGroup b = SchnorrGroup::generate(128, 96, 555);
  EXPECT_EQ(a.p, b.p);
  EXPECT_EQ(a.q, b.q);
  EXPECT_EQ(a.g, b.g);
}

TEST(SchnorrGroup, DifferentSeedsGiveDifferentGroups) {
  const SchnorrGroup a = SchnorrGroup::generate(128, 96, 1);
  const SchnorrGroup b = SchnorrGroup::generate(128, 96, 2);
  EXPECT_NE(a.p, b.p);
}

TEST(SchnorrGroup, RejectsBadSizes) {
  EXPECT_THROW((void)SchnorrGroup::generate(300, 96, 1), std::invalid_argument);
  EXPECT_THROW((void)SchnorrGroup::generate(128, 127, 1), std::invalid_argument);
}

class SchnorrSmall : public ::testing::Test {
 protected:
  const SchnorrGroup& group_ = SchnorrGroup::small_group();
  SchnorrEngine engine_{group_};
  Rng rng_{42};
};

TEST_F(SchnorrSmall, SignVerifyRoundTrip) {
  const SchnorrKeyPair kp = engine_.keygen(rng_);
  const Bytes msg = to_bytes("proof of relay for H(m)");
  const SchnorrSignatureRS sig = engine_.sign_rs(kp.secret, msg, rng_);
  EXPECT_TRUE(engine_.verify_rs(kp.public_key, msg, sig));
}

TEST_F(SchnorrSmall, TamperedMessageRejected) {
  const SchnorrKeyPair kp = engine_.keygen(rng_);
  Bytes msg = to_bytes("original");
  const SchnorrSignatureRS sig = engine_.sign_rs(kp.secret, msg, rng_);
  msg[0] ^= 1;
  EXPECT_FALSE(engine_.verify_rs(kp.public_key, msg, sig));
}

TEST_F(SchnorrSmall, WrongKeyRejected) {
  const SchnorrKeyPair kp1 = engine_.keygen(rng_);
  const SchnorrKeyPair kp2 = engine_.keygen(rng_);
  const Bytes msg = to_bytes("msg");
  const SchnorrSignatureRS sig = engine_.sign_rs(kp1.secret, msg, rng_);
  EXPECT_FALSE(engine_.verify_rs(kp2.public_key, msg, sig));
}

TEST_F(SchnorrSmall, TamperedSignatureComponentsRejected) {
  const SchnorrKeyPair kp = engine_.keygen(rng_);
  const Bytes msg = to_bytes("msg");
  const SchnorrSignatureRS sig = engine_.sign_rs(kp.secret, msg, rng_);
  SchnorrSignatureRS bad_r = sig;
  bad_r.r = mul_mod(bad_r.r, group_.g, group_.p);
  EXPECT_FALSE(engine_.verify_rs(kp.public_key, msg, bad_r));
  SchnorrSignatureRS bad_s = sig;
  bad_s.s = add_mod(bad_s.s, U256(1), group_.q);
  EXPECT_FALSE(engine_.verify_rs(kp.public_key, msg, bad_s));
}

TEST_F(SchnorrSmall, OutOfRangeSignatureRejected) {
  const SchnorrKeyPair kp = engine_.keygen(rng_);
  const Bytes msg = to_bytes("msg");
  const SchnorrSignatureRS sig = engine_.sign_rs(kp.secret, msg, rng_);
  SchnorrSignatureRS oor = sig;
  oor.s = group_.q;  // == q is out of range
  EXPECT_FALSE(engine_.verify_rs(kp.public_key, msg, oor));
  oor = sig;
  oor.r = group_.p;
  EXPECT_FALSE(engine_.verify_rs(kp.public_key, msg, oor));
  oor = sig;
  oor.r = U256(0);
  EXPECT_FALSE(engine_.verify_rs(kp.public_key, msg, oor));
}

TEST_F(SchnorrSmall, SignatureEncodingRoundTrip) {
  const SchnorrKeyPair kp = engine_.keygen(rng_);
  const SchnorrSignatureRS sig = engine_.sign_rs(kp.secret, to_bytes("msg"), rng_);
  const SchnorrSignatureRS decoded = SchnorrSignatureRS::decode(sig.encode());
  EXPECT_EQ(decoded.r, sig.r);
  EXPECT_EQ(decoded.s, sig.s);
  EXPECT_THROW((void)SchnorrSignatureRS::decode(Bytes(63, 0)), DecodeError);
}

TEST_F(SchnorrSmall, KeysLieInTheSubgroup) {
  const SchnorrKeyPair kp = engine_.keygen(rng_);
  EXPECT_FALSE(kp.secret.is_zero());
  EXPECT_LT(kp.secret, group_.q);
  // Public key has order dividing q: y^q == 1.
  EXPECT_EQ(pow_mod(kp.public_key, group_.q, group_.p), U256(1));
}

TEST_F(SchnorrSmall, ManyKeysManyMessages) {
  for (int i = 0; i < 10; ++i) {
    const SchnorrKeyPair kp = engine_.keygen(rng_);
    Writer w;
    w.u32(static_cast<std::uint32_t>(i));
    const SchnorrSignatureRS sig = engine_.sign_rs(kp.secret, w.bytes(), rng_);
    EXPECT_TRUE(engine_.verify_rs(kp.public_key, w.bytes(), sig));
  }
}

TEST(SchnorrDh, SharedSecretIsSymmetric) {
  const SchnorrGroup& g = SchnorrGroup::small_group();
  Rng rng(9);
  const SchnorrKeyPair a = schnorr_keygen(g, rng);
  const SchnorrKeyPair b = schnorr_keygen(g, rng);
  EXPECT_EQ(dh_shared_secret(g, a.secret, b.public_key),
            dh_shared_secret(g, b.secret, a.public_key));
}

TEST(SchnorrDh, DistinctPairsDistinctSecrets) {
  const SchnorrGroup& g = SchnorrGroup::small_group();
  Rng rng(10);
  const SchnorrKeyPair a = schnorr_keygen(g, rng);
  const SchnorrKeyPair b = schnorr_keygen(g, rng);
  const SchnorrKeyPair c = schnorr_keygen(g, rng);
  EXPECT_NE(dh_shared_secret(g, a.secret, b.public_key),
            dh_shared_secret(g, a.secret, c.public_key));
}

TEST_F(SchnorrSmall, RsSignVerifyRoundTrip) {
  const SchnorrKeyPair kp = schnorr_keygen(group_, rng_);
  const Bytes msg = to_bytes("(R,s)-form proof of relay");
  const SchnorrSignatureRS sig = schnorr_rs_sign(group_, kp.secret, msg, rng_);
  EXPECT_TRUE(schnorr_rs_verify(group_, kp.public_key, msg, sig));
  Bytes tampered = msg;
  tampered[0] ^= 1;
  EXPECT_FALSE(schnorr_rs_verify(group_, kp.public_key, tampered, sig));
}

TEST_F(SchnorrSmall, RsTamperedAndOutOfRangeRejected) {
  const SchnorrKeyPair kp = schnorr_keygen(group_, rng_);
  const Bytes msg = to_bytes("msg");
  const SchnorrSignatureRS sig = schnorr_rs_sign(group_, kp.secret, msg, rng_);
  SchnorrSignatureRS bad_r = sig;
  bad_r.r = mul_mod(bad_r.r, group_.g, group_.p);
  EXPECT_FALSE(schnorr_rs_verify(group_, kp.public_key, msg, bad_r));
  SchnorrSignatureRS bad_s = sig;
  bad_s.s = add_mod(bad_s.s, U256(1), group_.q);
  EXPECT_FALSE(schnorr_rs_verify(group_, kp.public_key, msg, bad_s));
  SchnorrSignatureRS oor = sig;
  oor.s = group_.q;
  EXPECT_FALSE(schnorr_rs_verify(group_, kp.public_key, msg, oor));
  oor = sig;
  oor.r = group_.p;
  EXPECT_FALSE(schnorr_rs_verify(group_, kp.public_key, msg, oor));
  oor = sig;
  oor.r = U256(0);
  EXPECT_FALSE(schnorr_rs_verify(group_, kp.public_key, msg, oor));
}

TEST_F(SchnorrSmall, RsEncodingRoundTrip) {
  const SchnorrKeyPair kp = schnorr_keygen(group_, rng_);
  const SchnorrSignatureRS sig = schnorr_rs_sign(group_, kp.secret, to_bytes("x"), rng_);
  const Bytes enc = sig.encode();
  EXPECT_EQ(enc.size(), 64u);
  const SchnorrSignatureRS dec = SchnorrSignatureRS::decode(enc);
  EXPECT_EQ(dec.r, sig.r);
  EXPECT_EQ(dec.s, sig.s);
  EXPECT_THROW((void)SchnorrSignatureRS::decode(Bytes(65, 0)), DecodeError);
}

TEST_F(SchnorrSmall, EngineRsMatchesFreeFunctions) {
  const SchnorrEngine engine(group_);
  const SchnorrKeyPair kp = schnorr_keygen(group_, rng_);
  const Bytes msg = to_bytes("engine vs free fn");
  Rng nonce_a(5);
  Rng nonce_b(5);
  const SchnorrSignatureRS a = schnorr_rs_sign(group_, kp.secret, msg, nonce_a);
  const SchnorrSignatureRS b = engine.sign_rs(kp.secret, msg, nonce_b);
  EXPECT_EQ(a.r, b.r);
  EXPECT_EQ(a.s, b.s);
  EXPECT_TRUE(engine.verify_rs(kp.public_key, msg, a));
}

// Corpora ("batches") of signatures made by the free functions, each checked
// one at a time by SchnorrEngine::verify_rs. verdicts() also pins every
// engine verdict to the schnorr_rs_verify oracle on the same item.
class SchnorrRsBatch : public ::testing::Test {
 protected:
  struct Signed {
    SchnorrKeyPair kp;
    Bytes msg;
    SchnorrSignatureRS sig;
  };

  std::vector<Signed> make_corpus(std::size_t n) {
    std::vector<Signed> out;
    for (std::size_t i = 0; i < n; ++i) {
      Signed item;
      item.kp = schnorr_keygen(group_, rng_);
      Writer w;
      w.str("batch-msg");
      w.u32(static_cast<std::uint32_t>(i));
      item.msg = std::move(w).take();
      item.sig = schnorr_rs_sign(group_, item.kp.secret, item.msg, rng_);
      out.push_back(std::move(item));
    }
    return out;
  }

  std::vector<bool> verdicts(const std::vector<Signed>& corpus) const {
    std::vector<bool> out;
    for (const auto& c : corpus) {
      const bool ok = engine_.verify_rs(c.kp.public_key, c.msg, c.sig);
      EXPECT_EQ(ok, schnorr_rs_verify(group_, c.kp.public_key, c.msg, c.sig));
      out.push_back(ok);
    }
    return out;
  }

  /// Every item verifies except those at `bad`.
  static std::vector<bool> all_but(std::size_t n, std::initializer_list<std::size_t> bad) {
    std::vector<bool> out(n, true);
    for (const std::size_t i : bad) out[i] = false;
    return out;
  }

  const SchnorrGroup& group_ = SchnorrGroup::small_group();
  SchnorrEngine engine_{group_};
  Rng rng_{0xba7c4};
};

TEST_F(SchnorrRsBatch, AllValidBatchesVerify) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{7},
                              std::size_t{16}}) {
    EXPECT_EQ(verdicts(make_corpus(n)), all_but(n, {})) << "n=" << n;
  }
}

TEST_F(SchnorrRsBatch, AnySingleForgeryRejectsTheBatch) {
  const auto corpus = make_corpus(6);
  for (std::size_t bad = 0; bad < corpus.size(); ++bad) {
    auto forged = corpus;
    forged[bad].sig.s = add_mod(forged[bad].sig.s, U256(1), group_.q);
    EXPECT_EQ(verdicts(forged), all_but(6, {bad})) << "forged index " << bad;
  }
}

TEST_F(SchnorrRsBatch, SwappedMessagesRejectTheBatch) {
  auto corpus = make_corpus(4);
  std::swap(corpus[1].msg, corpus[2].msg);
  EXPECT_EQ(verdicts(corpus), all_but(4, {1, 2}));
}

TEST_F(SchnorrRsBatch, StructurallyInvalidItemsRejectTheBatch) {
  const auto corpus = make_corpus(3);
  {
    auto items = corpus;
    items[1].sig.s = group_.q;
    EXPECT_EQ(verdicts(items), all_but(3, {1}));
  }
  {
    auto items = corpus;
    items[2].sig.r = U256(0);
    EXPECT_EQ(verdicts(items), all_but(3, {2}));
  }
  {
    auto items = corpus;
    items[0].kp.public_key = U256(0);
    EXPECT_EQ(verdicts(items), all_but(3, {0}));
  }
}

TEST_F(SchnorrRsBatch, BatchVerdictMatchesPerSignatureOnRandomCorpora) {
  // Randomly corrupt some items; exactly the corrupted ones are rejected.
  for (int trial = 0; trial < 10; ++trial) {
    auto corpus = make_corpus(5);
    std::vector<bool> expect(corpus.size(), true);
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      if (rng_.next() % 3 == 0) {
        corpus[i].sig.s = add_mod(corpus[i].sig.s, U256(1 + rng_.next() % 5), group_.q);
        expect[i] = false;
      }
    }
    EXPECT_EQ(verdicts(corpus), expect) << "trial " << trial;
  }
}

TEST(SchnorrDefaultGroup, SignVerifyOnDefaultGroup) {
  const SchnorrGroup& g = SchnorrGroup::default_group();
  Rng rng(11);
  const SchnorrKeyPair kp = schnorr_keygen(g, rng);
  const Bytes msg = to_bytes("full-size group check");
  const SchnorrSignatureRS sig = schnorr_rs_sign(g, kp.secret, msg, rng);
  EXPECT_TRUE(schnorr_rs_verify(g, kp.public_key, msg, sig));
  Bytes tampered = msg;
  tampered.back() ^= 0x80;
  EXPECT_FALSE(schnorr_rs_verify(g, kp.public_key, tampered, sig));
}

}  // namespace
}  // namespace g2g::crypto
