// Schnorr signatures over a prime-order subgroup of Z_p*.
//
// The paper assumes every node can sign messages with a certified public key
// (it suggests elliptic-curve signatures). We substitute a finite-field
// Schnorr scheme: identical protocol role (existentially unforgeable
// signatures for proofs of relay / misbehaviour, certificates), different
// group. Signatures use the (R, s) form, the only one that batch-verifies.
// Parameters are generated deterministically and are simulation-grade, NOT
// production-secure (see DESIGN.md).
//
// Two routes compute the same keys, signatures and verdicts: SchnorrEngine
// (fixed-base tables, cached Montgomery parameters, randomized batch
// verification) runs in the suite, and the free schnorr_keygen /
// schnorr_rs_sign / schnorr_rs_verify functions stay as its test oracle.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "g2g/crypto/montgomery.hpp"
#include "g2g/crypto/sha256.hpp"
#include "g2g/crypto/uint256.hpp"
#include "g2g/util/bytes.hpp"
#include "g2g/util/rng.hpp"

namespace g2g::crypto {

/// Group parameters: p prime, q prime dividing p-1, g of order q.
struct SchnorrGroup {
  U256 p;
  U256 q;
  U256 g;

  /// Deterministically generate a fresh group: q a `q_bits` prime, p = q*m + 1
  /// a `p_bits` prime, g = h^((p-1)/q) != 1.
  [[nodiscard]] static SchnorrGroup generate(std::size_t p_bits, std::size_t q_bits,
                                             std::uint64_t seed);

  /// Lazily-generated default group (p: 256 bits, q: 160 bits, fixed seed).
  [[nodiscard]] static const SchnorrGroup& default_group();
  /// Smaller group (p: 128 bits, q: 96 bits) for cheap test sweeps.
  [[nodiscard]] static const SchnorrGroup& small_group();

  /// Sanity checks: p, q prime; q | p-1; g^q = 1; g != 1.
  [[nodiscard]] bool valid(Rng& rng) const;
};

struct SchnorrKeyPair {
  U256 secret;      ///< x in [1, q)
  U256 public_key;  ///< y = g^x mod p
};

/// (R, s)-form Schnorr signature: transmits the commitment R = g^k rather
/// than the challenge e = H(R || m). The verifier checks the group equation
/// g^s * y^e == R directly, so independent signatures can be combined into
/// one randomized multi-exponentiation (verify_batch_rs).
struct SchnorrSignatureRS {
  U256 r;  ///< commitment R = g^k mod p
  U256 s;  ///< response   s = (k - x*e) mod q, with e = H(R || m) mod q

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static SchnorrSignatureRS decode(BytesView b);
};

[[nodiscard]] SchnorrKeyPair schnorr_keygen(const SchnorrGroup& group, Rng& rng);

[[nodiscard]] SchnorrSignatureRS schnorr_rs_sign(const SchnorrGroup& group, const U256& secret,
                                                 BytesView message, Rng& rng);
[[nodiscard]] bool schnorr_rs_verify(const SchnorrGroup& group, const U256& public_key,
                                     BytesView message, const SchnorrSignatureRS& sig);

/// Static Diffie–Hellman over the same group: both parties compute
/// g^(x_a * x_b); the result feeds the session-key KDF (chacha20.hpp).
[[nodiscard]] U256 dh_shared_secret(const SchnorrGroup& group, const U256& my_secret,
                                    const U256& peer_public);

/// Precomputed fixed-base exponentiation (4-bit windows):
/// table[w][d] = base^(d * 16^w) mod m, so pow(e) is one modular multiply per
/// non-zero hex digit of e — ~n/4 multiplies for an n-bit exponent instead of
/// the ~n squarings + ~n/2 multiplies of square-and-multiply. For an odd
/// modulus the windows are kept in Montgomery form and pow() runs the whole
/// digit chain in the domain (one mont_mul per digit plus a final from_mont);
/// an even modulus uses mul_mod. Exact either way: the result is
/// bit-identical to pow_mod(base, e, m).
class FixedBaseTable {
 public:
  FixedBaseTable() = default;
  /// Builds windows covering exponents up to `exp_bits` bits.
  FixedBaseTable(const U256& base, const U256& modulus, std::size_t exp_bits);

  /// base^exponent mod m. The exponent must fit in the built windows
  /// (exponent.bit_length() <= exp_bits).
  [[nodiscard]] U256 pow(const U256& exponent) const;
  [[nodiscard]] std::size_t exp_bits() const { return 4 * windows_.size(); }
  [[nodiscard]] bool empty() const { return windows_.empty(); }

 private:
  U256 modulus_;
  // Montgomery form iff mont_ is engaged (the modulus is odd and > 1).
  std::vector<std::array<U256, 16>> windows_;
  std::optional<MontgomeryParams> mont_;
};

/// One base/exponent pair for multi_exp.
struct MultiExpTerm {
  U256 base;
  U256 exponent;
};

/// Simultaneous multi-exponentiation: Π base_i^(exp_i) mod m with per-term
/// 4-bit window tables and one shared squaring chain scanned from the most
/// significant nibble down. Exact: bit-identical to folding pow_mod results
/// together with mul_mod.
[[nodiscard]] U256 multi_exp(std::span<const MultiExpTerm> terms, const U256& modulus);

/// One signature for SchnorrEngine::verify_batch_rs. `message` must stay
/// valid for the duration of the call.
struct SchnorrRSVerifyItem {
  U256 public_key;
  // g2g-lint: allow(view-escape) -- borrowed for the duration of one verify_batch_rs call
  BytesView message;
  SchnorrSignatureRS sig;
};

/// Per-group precomputation for the hot Schnorr operations: a fixed-base
/// table for g sized to exponents mod q (keygen's g^x, sign's g^k, verify's
/// g^s are all bounded by q), plus cached MontgomeryParams for p and q so
/// variable-base powers (y^e), modular products, and the batch combination
/// all run in Montgomery form. Produces byte-identical keys/signatures/
/// verdicts to the free functions above — the accelerators only change how
/// each canonical residue is computed.
class SchnorrEngine {
 public:
  explicit SchnorrEngine(const SchnorrGroup& group);

  [[nodiscard]] const SchnorrGroup& group() const { return group_; }
  [[nodiscard]] SchnorrKeyPair keygen(Rng& rng) const;
  [[nodiscard]] SchnorrSignatureRS sign_rs(const U256& secret, BytesView message, Rng& rng) const;
  [[nodiscard]] bool verify_rs(const U256& public_key, BytesView message,
                               const SchnorrSignatureRS& sig) const;
  /// Randomized-linear-combination batch verification of (R, s) signatures:
  /// checks g^(Σ z_i·s_i) · Π y_i^(z_i·e_i) == Π R_i^(z_i) with deterministic
  /// 64-bit coefficients z_i derived Fiat–Shamir style from the batch
  /// transcript (so runs are reproducible). Returns true iff the combined
  /// equation holds — a cheating batch passes with probability ~2^-64 per
  /// coefficient. Returns false whenever ANY signature is structurally or
  /// cryptographically invalid; callers needing per-item verdicts fall back
  /// to verify_rs on reject. Empty batches vacuously verify.
  [[nodiscard]] bool verify_batch_rs(std::span<const SchnorrRSVerifyItem> items) const;

 private:
  [[nodiscard]] U256 pow_g(const U256& exponent) const;
  /// base^exponent mod p — Montgomery ladder for an odd p.
  [[nodiscard]] U256 pow_p(const U256& base, const U256& exponent) const;
  /// a*b mod p / mod q — one to_mont + one mont_mul for an odd modulus.
  [[nodiscard]] U256 mul_p(const U256& a, const U256& b) const;
  [[nodiscard]] U256 mul_q(const U256& a, const U256& b) const;

  SchnorrGroup group_;
  FixedBaseTable g_table_;
  // Cached per-modulus precomputations (engaged iff the modulus is odd, > 1).
  std::optional<MontgomeryParams> mont_p_;
  std::optional<MontgomeryParams> mont_q_;
};

}  // namespace g2g::crypto
