// CPU feature detection for the accelerated crypto kernels.
//
// The accelerated routines are the only runtime path. Each picks its kernel
// from what it can observe — SHA-NI or scalar SHA-256 rounds by CPU, the
// Montgomery or schoolbook reducer by modulus parity — and every choice is
// bit-identical to its reference implementation. The references stay callable
// as named oracles (sha256_compress_scalar, heavy_hmac_reference, the
// schoolbook mod/mul_mod/pow_mod, the free schnorr_rs_* functions), and
// tests/crypto_fastpath_diff_test.cpp compares each fast routine against its
// oracle directly.
#pragma once

namespace g2g::crypto {

/// True when this CPU exposes the SHA-NI extensions (detection is cached).
[[nodiscard]] bool sha_ni_available();

/// True when this CPU exposes AVX2 (detection is cached). No kernel reads it;
/// the benchmark records it in its host provenance line.
[[nodiscard]] bool avx2_available();

}  // namespace g2g::crypto
