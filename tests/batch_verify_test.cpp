// Adversarial verification tests for the Schnorr suite over corpora
// ("batches") of signatures, each checked with Suite::verify, as the
// sender's PoR audit does. They pin the two properties the protocol layer
// depends on:
//  * a forged, replayed or malformed signature is rejected at exactly its
//    own index, and every other signature in the corpus still verifies;
//  * the engine suite's verdicts agree with the free-function reference
//    suite (reference_suite.hpp) on the same corpora (same keys, same
//    nonces, same corruption pattern).
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "g2g/crypto/schnorr.hpp"
#include "g2g/crypto/suite.hpp"
#include "reference_suite.hpp"

namespace g2g::crypto {
namespace {

struct SignedItem {
  KeyPair kp;
  Bytes msg;
  Bytes sig;
};

std::vector<SignedItem> make_corpus(const Suite& suite, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<SignedItem> out;
  for (std::size_t i = 0; i < n; ++i) {
    SignedItem item;
    item.kp = suite.keygen(rng);
    Writer w;
    w.str("por-audit-payload");
    w.u32(static_cast<std::uint32_t>(i));
    item.msg = std::move(w).take();
    item.sig = suite.sign(item.kp.secret_key, item.msg);
    out.push_back(std::move(item));
  }
  return out;
}

/// One Suite::verify verdict per corpus item, in order.
std::vector<bool> verdicts_of(const Suite& suite, const std::vector<SignedItem>& corpus) {
  std::vector<bool> out;
  for (const auto& c : corpus) out.push_back(suite.verify(c.kp.public_key, c.msg, c.sig));
  return out;
}

class RsBatchSuite : public ::testing::Test {
 protected:
  SuitePtr suite_ = make_schnorr_suite(SchnorrGroup::small_group());
  SuitePtr reference_ = make_reference_schnorr_suite(SchnorrGroup::small_group());
};

TEST_F(RsBatchSuite, AllValidBatchAcceptsEveryIndex) {
  const auto corpus = make_corpus(*suite_, 16, 1);
  const auto verdicts = verdicts_of(*suite_, corpus);
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    EXPECT_TRUE(verdicts[i]) << "index " << i;
  }
}

TEST_F(RsBatchSuite, ForgedSignatureLocalizedToExactIndex) {
  // One forged signature anywhere in the corpus: only the forged index
  // reads false.
  for (std::size_t bad = 0; bad < 8; ++bad) {
    auto corpus = make_corpus(*suite_, 8, 2);
    corpus[bad].sig[40] ^= 0x01;
    const auto verdicts = verdicts_of(*suite_, corpus);
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
      EXPECT_EQ(verdicts[i], i != bad) << "forged " << bad << ", index " << i;
    }
  }
}

TEST_F(RsBatchSuite, SignatureReplayAcrossMessagesLocalized) {
  auto corpus = make_corpus(*suite_, 6, 3);
  corpus[2].sig = corpus[4].sig;  // valid signature, wrong message/key
  const auto verdicts = verdicts_of(*suite_, corpus);
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    EXPECT_EQ(verdicts[i], i != 2) << "index " << i;
  }
}

TEST_F(RsBatchSuite, MalformedLengthsLocalizedWithoutDerailingBatch) {
  auto corpus = make_corpus(*suite_, 5, 4);
  corpus[1].sig.pop_back();               // wrong signature size
  corpus[3].kp.public_key.push_back(0);   // wrong public-key size
  const auto verdicts = verdicts_of(*suite_, corpus);
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    EXPECT_EQ(verdicts[i], i != 1 && i != 3) << "index " << i;
  }
}

TEST_F(RsBatchSuite, FastPathOffMatchesFastPathOn) {
  // The engine suite's verdicts against the reference suite's.
  for (std::size_t bad : {std::size_t{0}, std::size_t{5}}) {
    auto corpus = make_corpus(*suite_, 6, 5);
    corpus[bad].sig[10] ^= 0x80;
    const auto fast = verdicts_of(*suite_, corpus);
    const auto slow = verdicts_of(*reference_, corpus);
    for (std::size_t i = 0; i < fast.size(); ++i) {
      EXPECT_EQ(fast[i], slow[i]) << "bad " << bad << ", index " << i;
      EXPECT_EQ(fast[i], i != bad);
    }
  }
}

TEST_F(RsBatchSuite, AdversarialMatrixIdenticalWithMontgomeryOnAndOff) {
  // The full adversarial matrix (forge at every index, replay, truncation)
  // through the engine's Montgomery tables ("on") and the reference suite's
  // free functions ("off"): the verdict vectors must be identical element
  // for element.
  enum class Tamper { kForge, kReplay, kTruncate };
  for (const Tamper tamper : {Tamper::kForge, Tamper::kReplay, Tamper::kTruncate}) {
    for (std::size_t bad = 0; bad < 6; ++bad) {
      auto corpus = make_corpus(*suite_, 6, 20 + bad);
      switch (tamper) {
        case Tamper::kForge:
          corpus[bad].sig[17] ^= 0x20;
          break;
        case Tamper::kReplay:
          corpus[bad].sig = corpus[(bad + 1) % 6].sig;
          break;
        case Tamper::kTruncate:
          corpus[bad].sig.pop_back();
          break;
      }
      const auto mont_on = verdicts_of(*suite_, corpus);
      const auto mont_off = verdicts_of(*reference_, corpus);
      for (std::size_t i = 0; i < mont_on.size(); ++i) {
        EXPECT_EQ(mont_on[i], mont_off[i])
            << "tamper " << static_cast<int>(tamper) << ", bad " << bad << ", index " << i;
        EXPECT_EQ(mont_on[i], i != bad)
            << "tamper " << static_cast<int>(tamper) << ", bad " << bad << ", index " << i;
      }
    }
  }
}

// Cross-suite differential: the engine suite and the free-function reference
// suite share keygen and the deterministic nonce derivation, so on the same
// corpus they must agree on every verdict — including under corruption.
// (`es` is the reference, `rs` the engine.)
TEST(CrossSuiteDifferential, VerdictsAgreeOnSameCorpora) {
  const SuitePtr es = make_reference_schnorr_suite(SchnorrGroup::small_group());
  const SuitePtr rs = make_schnorr_suite(SchnorrGroup::small_group());
  for (std::uint64_t seed = 10; seed < 14; ++seed) {
    auto corpus_es = make_corpus(*es, 8, seed);
    auto corpus_rs = make_corpus(*rs, 8, seed);
    for (std::size_t i = 0; i < 8; ++i) {
      // Same seed -> same keys, messages and signatures in both corpora.
      ASSERT_EQ(corpus_es[i].kp.public_key, corpus_rs[i].kp.public_key);
      ASSERT_EQ(corpus_es[i].msg, corpus_rs[i].msg);
      ASSERT_EQ(corpus_es[i].sig, corpus_rs[i].sig);
    }
    // Corrupt the same subset of messages in both corpora.
    Rng corrupt(seed * 97);
    std::vector<bool> bad(8, false);
    for (std::size_t i = 0; i < 8; ++i) {
      if (corrupt.next() % 3 == 0) {
        bad[i] = true;
        corpus_es[i].msg[0] ^= 0x55;
        corpus_rs[i].msg[0] ^= 0x55;
      }
    }
    const auto verdict_es = verdicts_of(*es, corpus_es);
    const auto verdict_rs = verdicts_of(*rs, corpus_rs);
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_EQ(verdict_es[i], verdict_rs[i]) << "seed " << seed << ", index " << i;
      EXPECT_EQ(verdict_rs[i], !bad[i]) << "seed " << seed << ", index " << i;
    }
  }
}

TEST(CrossSuiteDifferential, VerdictsAgreeWithMontgomeryOnAndOff) {
  // The cross-suite matrix again on the full-size default group: the
  // reference and engine verdicts must agree.
  const SuitePtr es = make_reference_schnorr_suite(SchnorrGroup::default_group());
  const SuitePtr rs = make_schnorr_suite(SchnorrGroup::default_group());
  auto corpus_es = make_corpus(*es, 8, 50);
  auto corpus_rs = make_corpus(*rs, 8, 50);
  for (const std::size_t i : {std::size_t{1}, std::size_t{6}}) {
    corpus_es[i].msg[0] ^= 0x55;
    corpus_rs[i].msg[0] ^= 0x55;
  }
  const auto es_verdicts = verdicts_of(*es, corpus_es);
  const auto rs_verdicts = verdicts_of(*rs, corpus_rs);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(es_verdicts[i], rs_verdicts[i]) << "index " << i;
    EXPECT_EQ(es_verdicts[i], i != 1 && i != 6) << "index " << i;
  }
}

TEST(RsSuiteMeta, NameAndSizes) {
  const SuitePtr rs = make_schnorr_suite(SchnorrGroup::small_group());
  EXPECT_EQ(rs->name(), "schnorr-zp-rs");
  EXPECT_EQ(rs->signature_size(), 64u);
}

}  // namespace
}  // namespace g2g::crypto
