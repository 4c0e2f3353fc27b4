// Differential tests pinning every accelerated crypto routine to its named
// oracle. The accelerated code is the only runtime path; each test calls it
// and its reference side by side: SHA-NI compression against the scalar
// rounds (sha256_compress_scalar), the precomputed-pad heavy HMAC chain and
// the probe's heavy_hmac_batch against heavy_hmac_reference, the
// storage-proof decision heavy_hmac_agree against two reference digests, the
// Montgomery kernels and fixed-base tables against the schoolbook
// mod/mul_mod/pow_mod, the SchnorrEngine against the free schnorr_*
// functions, and the FastSuite key schedule against signatures built
// directly from hmac_sha256. Golden
// vectors anchor both sides to the standards; randomized corpora compare
// them over thousands of inputs.
// The final tests close the loop end to end on full experiments.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "g2g/core/experiment.hpp"
#include "g2g/core/json.hpp"
#include "g2g/crypto/hmac.hpp"
#include "g2g/crypto/montgomery.hpp"
#include "g2g/crypto/schnorr.hpp"
#include "g2g/crypto/sha256.hpp"
#include "g2g/crypto/suite.hpp"
#include "g2g/crypto/uint256.hpp"
#include "reference_suite.hpp"

namespace g2g::crypto {
namespace {

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next() & 0xff);
  return out;
}

std::string hex(const Digest& d) {
  static const char* k = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : d) {
    out.push_back(k[b >> 4]);
    out.push_back(k[b & 0xf]);
  }
  return out;
}

// -- SHA-256 ------------------------------------------------------------------

// One-shot SHA-256 on the scalar FIPS 180-4 rounds (sha256_compress_scalar),
// padded independently of Sha256::finish: the oracle for the Sha256 context
// and its SHA-NI dispatch.
Digest sha256_scalar(BytesView data) {
  std::array<std::uint32_t, 8> state = kSha256InitState;
  const std::size_t whole = data.size() / 64;
  sha256_compress_scalar(state.data(), data.data(), whole);
  std::array<std::uint8_t, 128> pad{};
  const std::size_t rest = data.size() - 64 * whole;
  std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(64 * whole), rest, pad.begin());
  pad[rest] = 0x80;
  const std::size_t pad_blocks = rest < 56 ? 1 : 2;
  const std::uint64_t bits = 8 * static_cast<std::uint64_t>(data.size());
  for (std::size_t i = 0; i < 8; ++i) {
    pad[64 * pad_blocks - 1 - i] = static_cast<std::uint8_t>(bits >> (8 * i));
  }
  sha256_compress_scalar(state.data(), pad.data(), pad_blocks);
  Digest out{};
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return out;
}

TEST(FastPathDiff, Sha256GoldenVectorsHoldOnBothPaths) {
  const struct {
    const char* msg;
    const char* digest;
  } vectors[] = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
  };
  for (const auto& v : vectors) {
    EXPECT_EQ(hex(sha256(to_bytes(v.msg))), v.digest) << v.msg;
    EXPECT_EQ(hex(sha256_scalar(to_bytes(v.msg))), v.digest) << v.msg;
  }
}

TEST(FastPathDiff, Sha256FastMatchesReferenceOnRandomCorpus) {
  Rng rng(0x5a5a5a);
  // Lengths chosen to hit every padding branch: empty, sub-block, the 55/56/
  // 63/64 one-vs-two-pad-block boundaries, multi-block, and long runs that
  // exercise the multi-block hardware loop.
  std::vector<std::size_t> lengths{0, 1, 3, 55, 56, 57, 63, 64, 65, 127, 128, 1000};
  for (int i = 0; i < 40; ++i) lengths.push_back(static_cast<std::size_t>(rng.next() % 4096));
  for (const std::size_t n : lengths) {
    const Bytes data = random_bytes(rng, n);
    EXPECT_EQ(sha256(data), sha256_scalar(data)) << "length " << n;
  }
}

TEST(FastPathDiff, Sha256ChunkedUpdatesMatchOneShot) {
  Rng rng(0xC0FFEE);
  const Bytes data = random_bytes(rng, 3000);
  const Digest oneshot = sha256_scalar(data);
  for (int trial = 0; trial < 20; ++trial) {
    Sha256 ctx;
    std::size_t off = 0;
    while (off < data.size()) {
      const std::size_t chunk = std::min<std::size_t>(1 + rng.next() % 257, data.size() - off);
      ctx.update(BytesView(data.data() + off, chunk));
      off += chunk;
    }
    EXPECT_EQ(ctx.finish(), oneshot) << "trial " << trial;
  }
}

// -- HMAC and the heavy HMAC chain --------------------------------------------

TEST(FastPathDiff, HmacRfc4231GoldenVectorHoldsOnBothPaths) {
  // Both paths: the one-shot hmac_sha256 and the precomputed HmacKey.
  const Bytes key(20, 0x0b);
  const Bytes data = to_bytes("Hi There");
  EXPECT_EQ(hex(hmac_sha256(key, data)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  EXPECT_EQ(HmacKey(key).mac(data), hmac_sha256(key, data));
}

TEST(FastPathDiff, HmacKeyMatchesOneShotOnRandomCorpus) {
  Rng rng(0x44AC);
  for (int i = 0; i < 60; ++i) {
    // Keys straddling the block size hit the hashed-key branch.
    const Bytes key = random_bytes(rng, rng.next() % 96);
    const Bytes a = random_bytes(rng, rng.next() % 300);
    const Bytes b = random_bytes(rng, rng.next() % 300);
    const HmacKey hk(key);
    EXPECT_EQ(hk.mac(a), hmac_sha256(key, a));
    Bytes ab = a;
    ab.insert(ab.end(), b.begin(), b.end());
    EXPECT_EQ(hk.mac(a, b), hmac_sha256(key, ab));
  }
}

TEST(FastPathDiff, HeavyHmacMatchesReference) {
  Rng rng(0x11EA);
  for (const std::uint32_t iterations : {1u, 2u, 3u, 64u, 257u, 1024u}) {
    const Bytes msg = random_bytes(rng, 1 + rng.next() % 700);
    const Bytes seed = random_bytes(rng, 1 + rng.next() % 48);
    EXPECT_EQ(heavy_hmac(msg, seed, iterations), heavy_hmac_reference(msg, seed, iterations))
        << iterations;
  }
}

TEST(FastPathDiff, HeavyHmacBatchMatchesReferencePerJob) {
  // Job counts 1..7 with mixed iteration counts: every digest comes back in
  // job order.
  Rng rng(0xbadc0de);
  for (std::size_t jobs = 1; jobs <= 7; ++jobs) {
    std::vector<Bytes> msgs;
    std::vector<Bytes> seeds;
    std::vector<std::uint32_t> iters;
    std::vector<HeavyHmacJob> views;
    for (std::size_t j = 0; j < jobs; ++j) {
      msgs.push_back(random_bytes(rng, 1 + rng.next() % 500));
      seeds.push_back(random_bytes(rng, 1 + rng.next() % 80));
      iters.push_back(1 + static_cast<std::uint32_t>(rng.next() % 97));
    }
    for (std::size_t j = 0; j < jobs; ++j) {
      views.push_back(HeavyHmacJob{BytesView(msgs[j]), BytesView(seeds[j]), iters[j]});
    }
    const std::vector<Digest> got = heavy_hmac_batch(views);
    ASSERT_EQ(got.size(), jobs);
    for (std::size_t j = 0; j < jobs; ++j) {
      EXPECT_EQ(got[j], heavy_hmac_reference(msgs[j], seeds[j], iters[j]))
          << "jobs " << jobs << ", job " << j;
    }
  }
}

TEST(FastPathDiff, HeavyHmacAgreeEqualInputsRunNoChain) {
  Rng rng(0xd3d0b);
  const Bytes msg = random_bytes(rng, 200);
  const Bytes seed = random_bytes(rng, 32);
  // Byte-equal copies in separate buffers, as the relay's and the source's.
  const Bytes msg_copy = msg;
  const Bytes seed_copy = seed;
  const HeavyHmacAgreement v = heavy_hmac_agree(msg_copy, seed_copy, msg, seed, 1024);
  EXPECT_TRUE(v.agree);
  EXPECT_EQ(v.chains, 0u);
}

TEST(FastPathDiff, HeavyHmacAgreeDifferingInputsMatchReference) {
  // Each near-duplicate of the verifier's (message, seed) runs both chains
  // and decides exactly as two reference digests compare.
  Rng rng(0x5eedf1);
  const Bytes msg = random_bytes(rng, 200);
  const Bytes seed = random_bytes(rng, 32);
  constexpr std::uint32_t kIters = 12;
  Bytes msg_flipped = msg;
  msg_flipped[117] ^= 0x01;
  Bytes seed_flipped = seed;
  seed_flipped[31] ^= 0x80;
  Bytes msg_longer = msg;
  msg_longer.push_back(0x00);
  struct Case {
    const char* name;
    Bytes message;
    Bytes seed;
  };
  const std::vector<Case> cases = {{"message byte flipped", msg_flipped, seed},
                                   {"seed byte flipped", msg, seed_flipped},
                                   {"message one byte longer", msg_longer, seed}};
  for (const Case& c : cases) {
    const HeavyHmacAgreement v = heavy_hmac_agree(c.message, c.seed, msg, seed, kIters);
    EXPECT_EQ(v.agree, digest_equal(heavy_hmac_reference(c.message, c.seed, kIters),
                                    heavy_hmac_reference(msg, seed, kIters)))
        << c.name;
    EXPECT_FALSE(v.agree) << c.name;
    EXPECT_EQ(v.chains, 2u) << c.name;
  }
}

// -- Schnorr: fixed-base tables and the engine --------------------------------

TEST(FastPathDiff, FixedBaseTableMatchesPowMod) {
  const SchnorrGroup& group = SchnorrGroup::small_group();
  const FixedBaseTable table(group.g, group.p, group.q.bit_length());
  Rng rng(0x7AB1E);
  for (int i = 0; i < 50; ++i) {
    const U256 e = random_below(rng, group.q);
    EXPECT_EQ(table.pow(e), pow_mod(group.g, e, group.p)) << e.to_hex();
  }
  // Edge exponents.
  EXPECT_EQ(table.pow(U256{}), pow_mod(group.g, U256{}, group.p));
  EXPECT_EQ(table.pow(U256(1)), mod(group.g, group.p));
}

TEST(FastPathDiff, SchnorrEngineMatchesFreeFunctions) {
  const SchnorrGroup& group = SchnorrGroup::small_group();
  const SchnorrEngine engine(group);
  const Bytes msg = to_bytes("proof of relay, hop 3");
  // Identical RNG draws => identical keys and signatures, bit for bit.
  Rng rng_a(42);
  Rng rng_b(42);
  const SchnorrKeyPair kp_engine = engine.keygen(rng_a);
  const SchnorrKeyPair kp_free = schnorr_keygen(group, rng_b);
  EXPECT_EQ(kp_engine.secret, kp_free.secret);
  EXPECT_EQ(kp_engine.public_key, kp_free.public_key);

  const SchnorrSignatureRS sig_engine = engine.sign_rs(kp_engine.secret, msg, rng_a);
  const SchnorrSignatureRS sig_free = schnorr_rs_sign(group, kp_free.secret, msg, rng_b);
  EXPECT_EQ(sig_engine.r, sig_free.r);
  EXPECT_EQ(sig_engine.s, sig_free.s);

  EXPECT_TRUE(engine.verify_rs(kp_engine.public_key, msg, sig_engine));
  EXPECT_TRUE(schnorr_rs_verify(group, kp_engine.public_key, msg, sig_engine));

  // Tampered inputs must fail identically through both routes.
  const Bytes other = to_bytes("proof of relay, hop 4");
  EXPECT_FALSE(engine.verify_rs(kp_engine.public_key, other, sig_engine));
  EXPECT_FALSE(schnorr_rs_verify(group, kp_engine.public_key, other, sig_engine));
  SchnorrSignatureRS bad = sig_engine;
  bad.s.limb[0] ^= 1;
  EXPECT_EQ(engine.verify_rs(kp_engine.public_key, msg, bad),
            schnorr_rs_verify(group, kp_engine.public_key, msg, bad));
}

// make_schnorr_suite (the engine) against the free-function reference suite:
// same keys, signatures and shared secrets, and each verifies the other's
// signatures. "On" is the engine, "off" the free-function oracle.
void expect_suite_matches_reference(const SchnorrGroup& group) {
  const SuitePtr suite = make_schnorr_suite(group);
  const SuitePtr reference = make_reference_schnorr_suite(group);
  Rng rng_on(9);
  Rng rng_off(9);
  const KeyPair kp_on = suite->keygen(rng_on);
  const KeyPair kp_off = reference->keygen(rng_off);
  const KeyPair peer_on = suite->keygen(rng_on);
  const KeyPair peer_off = reference->keygen(rng_off);
  EXPECT_EQ(kp_on.public_key, kp_off.public_key);
  EXPECT_EQ(kp_on.secret_key, kp_off.secret_key);
  EXPECT_EQ(peer_on.public_key, peer_off.public_key);

  const Bytes msg = to_bytes("por certificate");
  const Bytes sig_on = suite->sign(kp_on.secret_key, msg);
  const Bytes sig_off = reference->sign(kp_off.secret_key, msg);
  EXPECT_EQ(sig_on, sig_off);
  EXPECT_TRUE(reference->verify(kp_on.public_key, msg, sig_on));
  EXPECT_TRUE(suite->verify(kp_off.public_key, msg, sig_off));
  EXPECT_EQ(suite->shared_secret(kp_on.secret_key, peer_on.public_key),
            reference->shared_secret(kp_off.secret_key, peer_off.public_key));
}

TEST(FastPathDiff, SchnorrSuiteSignaturesIdenticalFastOnAndOff) {
  expect_suite_matches_reference(SchnorrGroup::small_group());
}

TEST(FastPathDiff, SchnorrRsSuiteSignaturesIdenticalFastOnAndOff) {
  // The full-size group that `g2gsim --schnorr` runs on.
  expect_suite_matches_reference(SchnorrGroup::default_group());
}

// -- Montgomery arithmetic vs the classic oracle ------------------------------
//
// Differential corpus for the modulus-taking routines in src/crypto — the
// mod-param-diff-coverage lint rule requires every such routine to be named
// here. Covered: mod, add_mod, sub_mod, mul_mod, pow_mod, pow_mod_fast,
// MontgomeryParams::for_modulus, mont_mul, to_mont, from_mont, mont_pow,
// FixedBaseTable. The classic schoolbook reducers in uint256.cpp
// are the oracle; the Montgomery kernels must match them bit for bit.

U256 random_u256(Rng& rng) {
  U256 out;
  for (auto& l : out.limb) l = rng.next();
  return out;
}

// Production moduli (both Schnorr groups' p and q), small odd moduli, and
// limb-boundary patterns (2^64-1 in various positions, the 2^256-1 maximum).
std::vector<U256> corpus_moduli() {
  const SchnorrGroup& small = SchnorrGroup::small_group();
  const SchnorrGroup& full = SchnorrGroup::default_group();
  return {
      full.p,
      full.q,
      small.p,
      small.q,
      U256(3),
      U256(0xffffffffffffffffULL),  // 2^64 - 1: all carries in limb 0
      U256::from_hex("ffffffffffffffff0000000000000001"),
      U256::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffff"
                     "ffffffffffffffff"),  // 2^256 - 1: the maximum modulus
  };
}

TEST(MontgomeryDiff, MontMulMatchesClassicMulModOnSeededRandomSweep) {
  Rng rng(0x3019A11);
  for (const U256& m : corpus_moduli()) {
    const MontgomeryParams params = MontgomeryParams::for_modulus(m);
    for (int i = 0; i < 25; ++i) {
      const U256 a = mod(random_u256(rng), m);
      const U256 b = mod(random_u256(rng), m);
      const U256 expect = mul_mod(a, b, m);
      // Full round trip: convert both operands, multiply, convert back.
      const U256 ab_mont = mont_mul(to_mont(a, params), to_mont(b, params), params);
      EXPECT_EQ(from_mont(ab_mont, params), expect) << m.to_hex();
      // One-conversion form (what SchnorrEngine::mul_p uses): the second
      // operand rides along unconverted.
      EXPECT_EQ(mont_mul(to_mont(a, params), b, params), expect) << m.to_hex();
    }
  }
}

TEST(MontgomeryDiff, MontMulDirectedEdgeOperands) {
  bool borrow = false;
  for (const U256& m : corpus_moduli()) {
    if (m == U256(3)) continue;  // m-2 below degenerates; covered by sweep
    const MontgomeryParams params = MontgomeryParams::for_modulus(m);
    const U256 m_minus_1 = sub(m, U256(1), borrow);
    const U256 m_minus_2 = sub(m, U256(2), borrow);
    const U256 edges[] = {U256(0), U256(1), m_minus_2, m_minus_1};
    for (const U256& a : edges) {
      for (const U256& b : edges) {
        EXPECT_EQ(from_mont(mont_mul(to_mont(a, params), to_mont(b, params), params), params),
                  mul_mod(a, b, m))
            << a.to_hex() << " * " << b.to_hex() << " mod " << m.to_hex();
      }
    }
  }
}

TEST(MontgomeryDiff, ToMontReducesOperandsAtOrAboveTheModulus) {
  // The documented contract: to_mont accepts ANY U256 and folds x >= m down
  // to x mod m, so the round trip equals the classic reduction.
  Rng rng(0xF01DED);
  const U256 all_ones = U256::from_hex(
      "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff");
  for (const U256& m : corpus_moduli()) {
    if (m == all_ones) continue;  // nothing exceeds the maximum modulus
    const MontgomeryParams params = MontgomeryParams::for_modulus(m);
    bool carry = false;
    std::vector<U256> raws{m, add(m, U256(1), carry), all_ones};
    for (int i = 0; i < 10; ++i) raws.push_back(random_u256(rng));
    for (const U256& x : raws) {
      EXPECT_EQ(from_mont(to_mont(x, params), params), mod(x, m)) << x.to_hex();
    }
  }
}

TEST(MontgomeryDiff, ForModulusRejectsEvenAndTrivialModuli) {
  // gcd(m, 2^256) must be 1 and the ladder needs m > 1: everything else is a
  // contract violation, refused up front rather than computed wrong.
  EXPECT_THROW((void)MontgomeryParams::for_modulus(U256(0)), std::invalid_argument);
  EXPECT_THROW((void)MontgomeryParams::for_modulus(U256(1)), std::invalid_argument);
  EXPECT_THROW((void)MontgomeryParams::for_modulus(U256(2)), std::invalid_argument);
  EXPECT_THROW((void)MontgomeryParams::for_modulus(U256(0x100)), std::invalid_argument);
  EXPECT_THROW((void)MontgomeryParams::for_modulus(
                   U256::from_hex("fffffffffffffffffffffffffffffffe")),
               std::invalid_argument);
  EXPECT_NO_THROW((void)MontgomeryParams::for_modulus(U256(3)));
}

TEST(MontgomeryDiff, PowModFastMatchesClassicPowMod) {
  Rng rng(0x9D15C0);
  bool borrow = false;
  for (const U256& m : corpus_moduli()) {
    const U256 m_minus_1 = sub(m, U256(1), borrow);
    std::vector<U256> bases{U256(0), U256(1), U256(2), m_minus_1, random_u256(rng)};
    std::vector<U256> exps{U256(0), U256(1), U256(2), m_minus_1, random_below(rng, m)};
    for (const U256& base : bases) {
      for (const U256& e : exps) {
        EXPECT_EQ(pow_mod_fast(base, e, m), pow_mod(base, e, m))
            << base.to_hex() << "^" << e.to_hex() << " mod " << m.to_hex();
      }
    }
  }
  // Even modulus: pow_mod_fast falls back to the classic route (Montgomery
  // requires an odd modulus).
  const U256 even = U256(1000);
  for (int i = 0; i < 5; ++i) {
    const U256 base = random_u256(rng);
    const U256 e = U256(rng.next() % 1000);
    EXPECT_EQ(pow_mod_fast(base, e, even), pow_mod(base, e, even));
  }
}

TEST(MontgomeryDiff, MontPowLadderMatchesClassicForGroupPrimes) {
  // Drive the ladder directly (not through the pow_mod_fast gate) over the
  // production moduli, including exponents with long zero runs — the branch
  // pattern the ladder exists to make uniform.
  Rng rng(0x1ADDE2);
  for (const U256& m : {SchnorrGroup::default_group().p, SchnorrGroup::default_group().q,
                        SchnorrGroup::small_group().p}) {
    const MontgomeryParams params = MontgomeryParams::for_modulus(m);
    std::vector<U256> exps{U256(0), U256(1), U256::from_hex("10000000000000000")};
    for (int i = 0; i < 4; ++i) exps.push_back(random_below(rng, m));
    for (const U256& e : exps) {
      const U256 base = mod(random_u256(rng), m);
      EXPECT_EQ(from_mont(mont_pow(to_mont(base, params), e, params), params),
                pow_mod(base, e, m))
          << base.to_hex() << "^" << e.to_hex() << " mod " << m.to_hex();
    }
  }
}

TEST(MontgomeryDiff, ModularLinearityBridgesAddSubAndMont) {
  // add_mod / sub_mod act on residues, not representations, so they must
  // commute with the Montgomery map: (a ± b)~ == a~ ± b~.
  Rng rng(0xADD5);
  for (const U256& m : corpus_moduli()) {
    const MontgomeryParams params = MontgomeryParams::for_modulus(m);
    for (int i = 0; i < 10; ++i) {
      const U256 a = mod(random_u256(rng), m);
      const U256 b = mod(random_u256(rng), m);
      EXPECT_EQ(add_mod(to_mont(a, params), to_mont(b, params), m),
                to_mont(add_mod(a, b, m), params));
      EXPECT_EQ(sub_mod(to_mont(a, params), to_mont(b, params), m),
                to_mont(sub_mod(a, b, m), params));
    }
  }
}

// Moduli that take each route: odd ones run the Montgomery chain ("on"),
// even ones the mul_mod chain ("off"). Both must equal the schoolbook oracle.
std::vector<U256> chain_moduli() {
  const SchnorrGroup& group = SchnorrGroup::small_group();
  return {group.p, SchnorrGroup::default_group().p, U256(1000),
          U256::from_hex("fffffffffffffffffffffffffffffffe")};
}

TEST(MontgomeryDiff, FixedBaseTablePowIdenticalFastOnAndOff) {
  // table.pow against pow_mod for every exponent the windows cover.
  Rng rng(0x7AB1E2);
  for (const U256& m : chain_moduli()) {
    const U256 base = mod(random_u256(rng), m);
    const FixedBaseTable table(base, m, m.bit_length());
    for (int i = 0; i < 20; ++i) {
      const U256 e = random_below(rng, m);
      EXPECT_EQ(table.pow(e), pow_mod(base, e, m)) << e.to_hex() << " mod " << m.to_hex();
    }
    EXPECT_EQ(table.pow(U256{}), pow_mod(base, U256{}, m)) << m.to_hex();
  }
}

// -- The FastSuite key schedule ----------------------------------------------

// FastSuite from its definition, one hmac_sha256 call per step: the MAC key
// K_pub = HMAC(seed, pub) with the seed as 8 little-endian bytes, and a
// signature HMAC(K_pub, msg).
struct FastSuiteOracle {
  Bytes seed;

  explicit FastSuiteOracle(std::uint64_t s) {
    Writer w(8);
    w.u64(s);
    seed = std::move(w).take();
  }
  [[nodiscard]] Digest mac_key(BytesView pub) const { return hmac_sha256(seed, pub); }
  [[nodiscard]] Bytes sign(BytesView pub, BytesView msg) const {
    return digest_bytes(hmac_sha256(digest_view(mac_key(pub)), msg));
  }
  [[nodiscard]] bool verify(BytesView pub, BytesView msg, BytesView sig) const {
    return Bytes(sig.begin(), sig.end()) == sign(pub, msg);
  }
};

TEST(FastPathDiff, FastSuiteKeyScheduleMatchesHmacOracle) {
  constexpr std::uint64_t kSeed = 0x5C4ED;
  const SuitePtr suite = make_fast_suite(kSeed);
  const FastSuiteOracle oracle(kSeed);
  Rng rng(0xF457);
  std::vector<KeyPair> keys;
  for (int i = 0; i < 100; ++i) {
    keys.push_back(suite->keygen(rng));
    const KeyPair& kp = keys.back();
    const Digest k = oracle.mac_key(kp.public_key);
    Bytes secret = kp.public_key;
    secret.insert(secret.end(), k.begin(), k.end());
    ASSERT_EQ(kp.secret_key, secret) << i;
  }
  // Keys drawn at random, so each one misses its table once and hits after;
  // verify often reaches a key before its owner first signs, and the flipped
  // public keys add entries no signer ever fills.
  for (std::size_t i = 0; i < 1000; ++i) {
    const KeyPair& kp = keys[rng.below(keys.size())];
    const Bytes msg = random_bytes(rng, 1 + rng.below(200));
    const Bytes sig = suite->sign(kp.secret_key, msg);
    ASSERT_EQ(sig, oracle.sign(kp.public_key, msg)) << i;
    EXPECT_TRUE(suite->verify(kp.public_key, msg, sig)) << i;

    Bytes bad_sig = sig;
    bad_sig[i % bad_sig.size()] ^= 0x01;
    Bytes bad_msg = msg;
    bad_msg[i % bad_msg.size()] ^= 0x10;
    Bytes bad_pub = kp.public_key;
    bad_pub[i % bad_pub.size()] ^= 0x80;
    for (const auto& [pub, m, s] : {std::tuple{BytesView(kp.public_key), BytesView(msg),
                                               BytesView(bad_sig)},
                                    std::tuple{BytesView(kp.public_key), BytesView(bad_msg),
                                               BytesView(sig)},
                                    std::tuple{BytesView(bad_pub), BytesView(msg),
                                               BytesView(sig)}}) {
      EXPECT_FALSE(suite->verify(pub, m, s)) << i;
      EXPECT_EQ(suite->verify(pub, m, s), oracle.verify(pub, m, s)) << i;
    }
  }

  const KeyPair& kp = keys.front();
  const Bytes msg = to_bytes("message body");
  const Bytes sig = suite->sign(kp.secret_key, msg);
  // A signature of the wrong size is rejected before any key lookup.
  for (const std::size_t n : {0u, 31u, 33u, 64u}) {
    Bytes resized = sig;
    resized.resize(n, 0);
    EXPECT_FALSE(suite->verify(kp.public_key, msg, resized)) << n;
  }
  // A public key that is not 32 bytes is derived without the table and still
  // gets the oracle's verdict, whether its 32-byte prefix is cached or not.
  for (const std::size_t n : {0u, 31u, 33u}) {
    Bytes pub = kp.public_key;
    pub.resize(n, 0x5a);
    const Bytes good = oracle.sign(pub, msg);
    EXPECT_TRUE(suite->verify(pub, msg, good)) << n;
    EXPECT_FALSE(suite->verify(pub, msg, sig)) << n;
  }
  // Key agreement is symmetric and equals HMAC(seed, sorted pubs).
  const KeyPair& peer = keys.back();
  const bool kp_first = kp.public_key < peer.public_key;
  Bytes sorted = kp_first ? kp.public_key : peer.public_key;
  const Bytes& second = kp_first ? peer.public_key : kp.public_key;
  sorted.insert(sorted.end(), second.begin(), second.end());
  EXPECT_EQ(suite->shared_secret(kp.secret_key, peer.public_key),
            digest_bytes(hmac_sha256(oracle.seed, sorted)));
  EXPECT_EQ(suite->shared_secret(peer.secret_key, kp.public_key),
            digest_bytes(hmac_sha256(oracle.seed, sorted)));
}

// -- End to end: the serialized experiment is the oracle ----------------------

core::ExperimentConfig diff_config() {
  core::ExperimentConfig cfg;
  cfg.protocol = core::Protocol::G2GEpidemic;
  cfg.scenario = core::infocom05_scenario();
  cfg.scenario.trace_config.nodes = 16;
  cfg.scenario.trace_config.duration = Duration::days(2);
  cfg.scenario.window_start = TimePoint::from_seconds(8.0 * 3600.0);
  cfg.sim_window = Duration::hours(2);
  cfg.traffic_window = Duration::hours(1);
  cfg.mean_interarrival = Duration::seconds(30.0);
  cfg.deviation = proto::Behavior::Dropper;
  cfg.deviant_count = 4;
  cfg.seed = 11;
  return cfg;
}

TEST(FastPathDiff, ExperimentJsonBitIdenticalWithRsSuiteBatchOnAndOff) {
  // The engine suite (fixed-base tables, Montgomery reduction) against the
  // free-function reference suite, one signature per audit PoR on both
  // sides. The serialized experiment must not be able to tell.
  core::ExperimentConfig cfg = diff_config();
  cfg.suite = make_schnorr_suite(SchnorrGroup::small_group());
  const std::string engine = core::to_json(core::run_experiment(cfg));
  cfg.suite = make_reference_schnorr_suite(SchnorrGroup::small_group());
  const std::string reference = core::to_json(core::run_experiment(cfg));
  EXPECT_EQ(engine, reference);
  // Mechanism counters (fastpath.*, g2g.*) stay out of the result JSON, so
  // this comparison is byte-exact.
  EXPECT_EQ(engine.find("fastpath."), std::string::npos);
}

TEST(FastPathDiff, OneFastSuiteAcrossTwoNetworksMatchesFreshSuites) {
  // A FastSuite's key schedule outlives a run when the caller passes the
  // suite in. Later networks on the same suite, with new keys (seed 12) and
  // with every key already scheduled (seed 11 again), must serialize exactly
  // like runs that each built their own suite.
  core::ExperimentConfig cfg = diff_config();
  const SuitePtr shared = make_fast_suite();
  for (const std::uint64_t seed : {11u, 12u, 11u}) {
    cfg.seed = seed;
    cfg.suite = nullptr;
    const std::string fresh = core::to_json(core::run_experiment(cfg));
    cfg.suite = shared;
    EXPECT_EQ(core::to_json(core::run_experiment(cfg)), fresh) << "seed " << seed;
  }
}

TEST(FastPathDiff, ForwardingMetricsIdenticalOnFastAndSchnorrSuites) {
  // The emulated suite and real Schnorr signatures must forward, deliver and
  // detect identically; only the signature size (32 vs 64 bytes) differs,
  // which moves the wire.* byte counters and per-node energy.
  core::ExperimentConfig cfg = diff_config();
  const core::ExperimentResult fast = core::run_experiment(cfg);
  cfg.suite = make_schnorr_suite(SchnorrGroup::small_group());
  const core::ExperimentResult schnorr = core::run_experiment(cfg);
  EXPECT_GT(fast.delivered, 0u);
  EXPECT_EQ(fast.generated, schnorr.generated);
  EXPECT_EQ(fast.delivered, schnorr.delivered);
  EXPECT_EQ(fast.delay_seconds.values(), schnorr.delay_seconds.values());
  EXPECT_EQ(fast.avg_replicas, schnorr.avg_replicas);
  EXPECT_EQ(fast.deviants, schnorr.deviants);
  EXPECT_EQ(fast.detected_count, schnorr.detected_count);
  EXPECT_EQ(fast.detection_minutes_after_delta1.values(),
            schnorr.detection_minutes_after_delta1.values());
  ASSERT_EQ(fast.collector.detections().size(), schnorr.collector.detections().size());
  for (std::size_t i = 0; i < fast.collector.detections().size(); ++i) {
    const auto& a = fast.collector.detections()[i];
    const auto& b = schnorr.collector.detections()[i];
    EXPECT_EQ(a.culprit, b.culprit) << i;
    EXPECT_EQ(a.detector, b.detector) << i;
    EXPECT_EQ(a.at, b.at) << i;
    EXPECT_EQ(a.method, b.method) << i;
  }
}

}  // namespace
}  // namespace g2g::crypto
