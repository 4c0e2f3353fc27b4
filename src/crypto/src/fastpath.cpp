#include "g2g/crypto/fastpath.hpp"

namespace g2g::crypto {

namespace {

bool detect_sha_ni() {
#if defined(__x86_64__) && defined(__GNUC__)
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

bool detect_avx2() {
#if defined(__x86_64__) && defined(__GNUC__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

}  // namespace

bool sha_ni_available() {
  static const bool available = detect_sha_ni();
  return available;
}

bool avx2_available() {
  static const bool available = detect_avx2();
  return available;
}

}  // namespace g2g::crypto
