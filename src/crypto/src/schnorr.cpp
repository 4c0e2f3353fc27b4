#include "g2g/crypto/schnorr.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "g2g/crypto/montgomery.hpp"

namespace g2g::crypto {

namespace {

/// Draw a random odd candidate with exactly `bits` bits.
U256 random_odd_with_bits(Rng& rng, std::size_t bits) {
  U256 out;
  const std::size_t limbs = (bits + 63) / 64;
  for (std::size_t i = 0; i < limbs; ++i) out.limb[i] = rng.next();
  const std::size_t top = bits - 1;
  // Clear everything at/above `bits`, then force the top and bottom bits.
  for (std::size_t i = bits; i < 256; ++i) out.limb[i / 64] &= ~(1ULL << (i % 64));
  out.limb[top / 64] |= 1ULL << (top % 64);
  out.limb[0] |= 1;
  return out;
}

U256 challenge(const SchnorrGroup& group, const U256& r, BytesView message) {
  Writer w(96);
  w.raw(r.to_bytes_be());
  w.raw(message);
  const Digest d = sha256(w.bytes());
  return mod(U256::from_bytes_be(digest_view(d)), group.q);
}

}  // namespace

SchnorrGroup SchnorrGroup::generate(std::size_t p_bits, std::size_t q_bits, std::uint64_t seed) {
  if (p_bits > 256 || q_bits + 2 > p_bits) throw std::invalid_argument("bad group sizes");
  Rng rng(seed);

  // 1. Find a q_bits prime q.
  U256 q = random_odd_with_bits(rng, q_bits);
  while (!is_probable_prime(q, rng)) {
    bool carry = false;
    q = add(q, U256(2), carry);
  }

  // 2. Find m (cofactor, even) such that p = q*m + 1 is prime with p_bits bits.
  const std::size_t m_bits = p_bits - q_bits;
  for (;;) {
    U256 m = random_odd_with_bits(rng, m_bits);
    m.limb[0] &= ~1ULL;  // make even so p is odd
    if (m.is_zero()) continue;
    const U512 pm = mul_full(q, m);
    for (int i = 4; i < 8; ++i) {
      if (pm.limb[i] != 0) throw std::logic_error("p overflowed 256 bits");
    }
    U256 p;
    for (int i = 0; i < 4; ++i) p.limb[i] = pm.limb[i];
    bool carry = false;
    p = add(p, U256(1), carry);
    if (p.bit_length() != p_bits) continue;
    if (!is_probable_prime(p, rng)) continue;

    // 3. Find a generator of the order-q subgroup: g = h^m mod p != 1.
    for (;;) {
      const U256 h = add_mod(random_below(rng, sub_mod(p, U256(3), p)), U256(2), p);
      const U256 g = pow_mod_fast(h, m, p);
      if (g != U256(1) && !g.is_zero()) {
        return SchnorrGroup{p, q, g};
      }
    }
  }
}

const SchnorrGroup& SchnorrGroup::default_group() {
  static const SchnorrGroup group = generate(256, 160, 0x67326721ULL);
  return group;
}

const SchnorrGroup& SchnorrGroup::small_group() {
  static const SchnorrGroup group = generate(128, 96, 0x67326722ULL);
  return group;
}

bool SchnorrGroup::valid(Rng& rng) const {
  if (!is_probable_prime(p, rng) || !is_probable_prime(q, rng)) return false;
  bool borrow = false;
  const U256 p_minus_1 = sub(p, U256(1), borrow);
  // q | p-1  <=>  (p-1) mod q == 0
  if (!mod(p_minus_1, q).is_zero()) return false;
  if (g == U256(1) || g.is_zero()) return false;
  return pow_mod_fast(g, q, p) == U256(1);
}

Bytes SchnorrSignatureRS::encode() const {
  Writer w(64);
  w.raw(r.to_bytes_be());
  w.raw(s.to_bytes_be());
  return std::move(w).take();
}

SchnorrSignatureRS SchnorrSignatureRS::decode(BytesView b) {
  if (b.size() != 64) throw DecodeError("bad Schnorr (R,s) signature length");
  return SchnorrSignatureRS{U256::from_bytes_be(b.subspan(0, 32)),
                            U256::from_bytes_be(b.subspan(32, 32))};
}

SchnorrKeyPair schnorr_keygen(const SchnorrGroup& group, Rng& rng) {
  bool borrow = false;
  const U256 x = add_mod(random_below(rng, sub(group.q, U256(1), borrow)), U256(1), group.q);
  return SchnorrKeyPair{x, pow_mod_fast(group.g, x, group.p)};
}

SchnorrSignatureRS schnorr_rs_sign(const SchnorrGroup& group, const U256& secret,
                                   BytesView message, Rng& rng) {
  bool borrow = false;
  const U256 k = add_mod(random_below(rng, sub(group.q, U256(1), borrow)), U256(1), group.q);
  const U256 r = pow_mod_fast(group.g, k, group.p);
  const U256 e = challenge(group, r, message);
  const U256 s = sub_mod(k, mul_mod(secret, e, group.q), group.q);
  return SchnorrSignatureRS{r, s};
}

bool schnorr_rs_verify(const SchnorrGroup& group, const U256& public_key, BytesView message,
                       const SchnorrSignatureRS& sig) {
  if (sig.s >= group.q || sig.r >= group.p || sig.r.is_zero()) return false;
  // e = H(R || m);   valid iff g^s * y^e == R (a group equation, so several
  // signatures can be folded into one randomized combination — verify_batch_rs).
  const U256 e = challenge(group, sig.r, message);
  const U256 gs = pow_mod_fast(group.g, sig.s, group.p);
  const U256 ye = pow_mod_fast(public_key, e, group.p);
  return mul_mod(gs, ye, group.p) == sig.r;
}

U256 dh_shared_secret(const SchnorrGroup& group, const U256& my_secret, const U256& peer_public) {
  return pow_mod_fast(peer_public, my_secret, group.p);
}

FixedBaseTable::FixedBaseTable(const U256& base, const U256& modulus, std::size_t exp_bits)
    : modulus_(modulus) {
  windows_.resize((exp_bits + 3) / 4);
  U256 cur = mod(base, modulus_);  // base^(16^w) as w advances
  for (auto& window : windows_) {
    window[0] = U256(1);
    window[1] = cur;
    for (int d = 2; d < 16; ++d) window[d] = mul_mod(window[d - 1], cur, modulus_);
    cur = mul_mod(window[15], cur, modulus_);
  }
  // For an odd modulus, map the windows into Montgomery form (canonical
  // residues map one-to-one, so the digit chain computes identical values).
  if (modulus_.bit(0) && modulus_ != U256(1)) {
    mont_ = MontgomeryParams::for_modulus(modulus_);
    for (auto& window : windows_) {
      for (auto& entry : window) entry = to_mont(entry, *mont_);
    }
  }
}

U256 multi_exp(std::span<const MultiExpTerm> terms, const U256& modulus) {
  if (terms.empty()) return U256(1);
  // An odd modulus runs the whole schedule in the Montgomery domain: every
  // intermediate is the Montgomery image of the mul_mod intermediate, so the
  // final from_mont is bit-identical.
  std::optional<MontgomeryParams> mont;
  if (modulus.bit(0) && modulus != U256(1)) mont = MontgomeryParams::for_modulus(modulus);
  const auto mul = [&](const U256& a, const U256& b) {
    return mont ? mont_mul(a, b, *mont) : mul_mod(a, b, modulus);
  };
  // Per-term window table: pows[i][d] = base_i^d for d in 1..15.
  std::vector<std::array<U256, 16>> pows(terms.size());
  std::size_t max_bits = 0;
  for (std::size_t i = 0; i < terms.size(); ++i) {
    // Both conversions reduce bases >= m.
    pows[i][1] = mont ? to_mont(terms[i].base, *mont) : mod(terms[i].base, modulus);
    for (int d = 2; d < 16; ++d) pows[i][d] = mul(pows[i][d - 1], pows[i][1]);
    max_bits = std::max(max_bits, terms[i].exponent.bit_length());
  }
  U256 result = mont ? mont->one : U256(1);
  bool started = false;
  for (std::size_t w = (max_bits + 3) / 4; w-- > 0;) {
    if (started) {
      for (int sq = 0; sq < 4; ++sq) result = mul(result, result);
    }
    for (std::size_t i = 0; i < terms.size(); ++i) {
      const std::size_t bit = 4 * w;
      const unsigned digit =
          static_cast<unsigned>(terms[i].exponent.limb[bit / 64] >> (bit % 64)) & 0xF;
      if (digit != 0) {
        result = mul(result, pows[i][digit]);
        started = true;
      }
    }
  }
  return mont ? from_mont(result, *mont) : result;
}

U256 FixedBaseTable::pow(const U256& exponent) const {
  U256 result = mont_ ? mont_->one : U256(1);
  for (std::size_t w = 0; w < windows_.size(); ++w) {
    // A 4-bit window never straddles a 64-bit limb.
    const std::size_t bit = 4 * w;
    const unsigned digit = static_cast<unsigned>(exponent.limb[bit / 64] >> (bit % 64)) & 0xF;
    if (digit == 0) continue;
    result = mont_ ? mont_mul(result, windows_[w][digit], *mont_)
                   : mul_mod(result, windows_[w][digit], modulus_);
  }
  return mont_ ? from_mont(result, *mont_) : result;
}

SchnorrEngine::SchnorrEngine(const SchnorrGroup& group)
    : group_(group), g_table_(group.g, group.p, group.q.bit_length()) {
  if (group.p.bit(0) && group.p != U256(1)) mont_p_ = MontgomeryParams::for_modulus(group.p);
  if (group.q.bit(0) && group.q != U256(1)) mont_q_ = MontgomeryParams::for_modulus(group.q);
}

U256 SchnorrEngine::pow_g(const U256& exponent) const {
  if (exponent.bit_length() <= g_table_.exp_bits()) {
    return g_table_.pow(exponent);
  }
  return pow_p(group_.g, exponent);
}

U256 SchnorrEngine::pow_p(const U256& base, const U256& exponent) const {
  if (mont_p_) {
    return from_mont(mont_pow(to_mont(base, *mont_p_), exponent, *mont_p_), *mont_p_);
  }
  return pow_mod(base, exponent, group_.p);
}

U256 SchnorrEngine::mul_p(const U256& a, const U256& b) const {
  // mont_mul(a*R, b) = a*b mod p — one conversion, one product, no divide.
  if (mont_p_) return mont_mul(to_mont(a, *mont_p_), b, *mont_p_);
  return mul_mod(a, b, group_.p);
}

U256 SchnorrEngine::mul_q(const U256& a, const U256& b) const {
  if (mont_q_) return mont_mul(to_mont(a, *mont_q_), b, *mont_q_);
  return mul_mod(a, b, group_.q);
}

SchnorrKeyPair SchnorrEngine::keygen(Rng& rng) const {
  // Same RNG draws as schnorr_keygen so keys are reproducible either way.
  bool borrow = false;
  const U256 x = add_mod(random_below(rng, sub(group_.q, U256(1), borrow)), U256(1), group_.q);
  return SchnorrKeyPair{x, pow_g(x)};
}

SchnorrSignatureRS SchnorrEngine::sign_rs(const U256& secret, BytesView message, Rng& rng) const {
  bool borrow = false;
  const U256 k = add_mod(random_below(rng, sub(group_.q, U256(1), borrow)), U256(1), group_.q);
  const U256 r = pow_g(k);
  const U256 e = challenge(group_, r, message);
  const U256 s = sub_mod(k, mul_q(secret, e), group_.q);
  return SchnorrSignatureRS{r, s};
}

bool SchnorrEngine::verify_rs(const U256& public_key, BytesView message,
                              const SchnorrSignatureRS& sig) const {
  if (sig.s >= group_.q || sig.r >= group_.p || sig.r.is_zero()) return false;
  const U256 e = challenge(group_, sig.r, message);
  // g^s from the table (s < q by the check above); y^e stays generic since
  // the base varies per signer.
  const U256 gs = pow_g(sig.s);
  const U256 ye = pow_p(public_key, e);
  return mul_p(gs, ye) == sig.r;
}

namespace {

/// Deterministic nonzero 64-bit batch coefficients, Fiat–Shamir style: a
/// transcript digest commits to every (y_i, R_i, s_i, H(m_i)) in order, then
/// z_i = first 8 bytes of SHA256(transcript || i). Determinism keeps
/// simulation runs bit-reproducible; an adversary who controls the batch
/// contents still cannot aim for specific coefficients without inverting the
/// hash, which is the standard small-exponent soundness setting.
std::vector<std::uint64_t> batch_coefficients(std::span<const SchnorrRSVerifyItem> items) {
  Writer t(32 + 128 * items.size());
  t.raw(BytesView(reinterpret_cast<const std::uint8_t*>("g2g/batch-rs/v1"), 15));
  t.u32(static_cast<std::uint32_t>(items.size()));
  for (const auto& it : items) {
    t.raw(it.public_key.to_bytes_be());
    t.raw(it.sig.r.to_bytes_be());
    t.raw(it.sig.s.to_bytes_be());
    t.raw(digest_view(sha256(it.message)));
  }
  const Digest transcript = sha256(t.bytes());
  std::vector<std::uint64_t> z(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    Writer w(36);
    w.raw(digest_view(transcript));
    w.u32(static_cast<std::uint32_t>(i));
    const Digest d = sha256(w.bytes());
    std::uint64_t zi = 0;
    for (int b = 0; b < 8; ++b) zi = (zi << 8) | d[b];
    z[i] = zi == 0 ? 1 : zi;  // zero would drop the term from the combination
  }
  return z;
}

}  // namespace

bool SchnorrEngine::verify_batch_rs(std::span<const SchnorrRSVerifyItem> items) const {
  if (items.empty()) return true;
  if (items.size() == 1) return verify_rs(items[0].public_key, items[0].message, items[0].sig);
  for (const auto& it : items) {
    if (it.sig.s >= group_.q || it.sig.r >= group_.p || it.sig.r.is_zero()) return false;
    if (it.public_key >= group_.p || it.public_key.is_zero()) return false;
  }
  const std::vector<std::uint64_t> z = batch_coefficients(items);
  // Check g^(Σ z_i·s_i) · Π y_i^(z_i·e_i) == Π R_i^(z_i)  (mod p).
  // The g exponent folds mod q (g has order q); the y exponents stay as full
  // z_i·e_i products (< 2^224) so the check never assumes an adversarial y_i
  // lies in the order-q subgroup.
  U256 s_acc(0);
  std::vector<MultiExpTerm> lhs_terms(items.size());
  std::vector<MultiExpTerm> rhs_terms(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const U256 zi(z[i]);
    s_acc = add_mod(s_acc, mul_q(zi, items[i].sig.s), group_.q);
    const U256 e = challenge(group_, items[i].sig.r, items[i].message);
    const U512 ze = mul_full(zi, e);
    U256 ze256;
    for (int l = 0; l < 4; ++l) ze256.limb[l] = ze.limb[l];  // z·e < 2^224
    lhs_terms[i] = MultiExpTerm{items[i].public_key, ze256};
    rhs_terms[i] = MultiExpTerm{items[i].sig.r, zi};
  }
  const U256 lhs = mul_p(pow_g(s_acc), multi_exp(lhs_terms, group_.p));
  return lhs == multi_exp(rhs_terms, group_.p);
}

}  // namespace g2g::crypto
