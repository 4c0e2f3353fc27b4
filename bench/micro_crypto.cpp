// Micro-benchmarks of the cryptographic substrate (google-benchmark):
// hashing, MACs, the storage-proof heavy HMAC, both signature suites, and
// the sealed-box message encryption, with the reference implementations
// timed beside the accelerated ones. Owns its main() so `--json-out FILE`
// can emit BENCH_micro_crypto.json alongside the console table.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "g2g/crypto/hmac.hpp"
#include "g2g/crypto/montgomery.hpp"
#include "g2g/crypto/schnorr.hpp"
#include "g2g/crypto/sealed_box.hpp"
#include "g2g/crypto/sha256.hpp"
#include "g2g/crypto/suite.hpp"

namespace {

using namespace g2g;
using namespace g2g::crypto;

void BM_Sha256(benchmark::State& state) {
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) benchmark::DoNotOptimize(sha256(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

// One-shot SHA-256 on the scalar FIPS 180-4 rounds (the kScalar backend),
// padded the same way as Sha256::finish.
Digest sha256_scalar(const Bytes& data) {
  std::array<std::uint32_t, 8> state = kSha256InitState;
  std::uint32_t* st = state.data();
  const std::uint8_t* blk = data.data();
  const std::size_t whole = data.size() / 64;
  sha256_compress_multi(&st, &blk, 1, whole, Sha256MultiBackend::kScalar);
  std::array<std::uint8_t, 128> pad{};
  const std::size_t rest = data.size() - 64 * whole;
  std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(64 * whole), rest, pad.begin());
  pad[rest] = 0x80;
  const std::size_t pad_blocks = rest < 56 ? 1 : 2;
  const std::uint64_t bits = 8 * static_cast<std::uint64_t>(data.size());
  for (std::size_t i = 0; i < 8; ++i) {
    pad[64 * pad_blocks - 1 - i] = static_cast<std::uint8_t>(bits >> (8 * i));
  }
  blk = pad.data();
  sha256_compress_multi(&st, &blk, 1, pad_blocks, Sha256MultiBackend::kScalar);
  Digest out{};
  for (std::size_t i = 0; i < 32; ++i) {
    out[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return out;
}

// Same workload on the portable scalar compression function. The ratio to
// BM_Sha256 is the SHA-NI win.
void BM_Sha256Scalar(benchmark::State& state) {
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) benchmark::DoNotOptimize(sha256_scalar(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256Scalar)->Arg(64)->Arg(1024)->Arg(65536);

void BM_HmacSha256(benchmark::State& state) {
  const Bytes key = to_bytes("session key material");
  const Bytes data(1024, 0x5a);
  for (auto _ : state) benchmark::DoNotOptimize(hmac_sha256(key, data));
}
BENCHMARK(BM_HmacSha256);

void BM_HeavyHmac(benchmark::State& state) {
  const Bytes msg(512, 0x11);
  const Bytes seed = to_bytes("challenge-seed");
  const auto iterations = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(heavy_hmac(msg, seed, iterations));
}
BENCHMARK(BM_HeavyHmac)->Arg(256)->Arg(1024)->Arg(4096);

// The literal seed implementation (fresh Writer-based HMAC per chain link),
// kept as the differential-test reference. The ratio to BM_HeavyHmac is the
// storage-proof chain win (pad-state reuse + one-shot finalization).
void BM_HeavyHmacReference(benchmark::State& state) {
  const Bytes msg(512, 0x11);
  const Bytes seed = to_bytes("challenge-seed");
  const auto iterations = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(heavy_hmac_reference(msg, seed, iterations));
}
BENCHMARK(BM_HeavyHmacReference)->Arg(256)->Arg(1024)->Arg(4096);

// One Montgomery CIOS product vs one schoolbook shift-subtract mul_mod over
// the default group's 256-bit prime. The ratio is the per-multiply Montgomery
// win that compounds through every exponentiation chain; the differential
// corpus (crypto_fastpath_diff_test) owns correctness.
void BM_MontMul(benchmark::State& state) {
  const SchnorrGroup& group = SchnorrGroup::default_group();
  const MontgomeryParams params = MontgomeryParams::for_modulus(group.p);
  Rng rng(3);
  const U256 a = to_mont(random_below(rng, group.p), params);
  const U256 b = to_mont(random_below(rng, group.p), params);
  for (auto _ : state) benchmark::DoNotOptimize(mont_mul(a, b, params));
}
BENCHMARK(BM_MontMul);

void BM_MulModClassic(benchmark::State& state) {
  const SchnorrGroup& group = SchnorrGroup::default_group();
  Rng rng(3);
  const U256 a = random_below(rng, group.p);
  const U256 b = random_below(rng, group.p);
  for (auto _ : state) benchmark::DoNotOptimize(mul_mod(a, b, group.p));
}
BENCHMARK(BM_MulModClassic);

void BM_SchnorrSign(benchmark::State& state) {
  const SuitePtr suite = make_schnorr_suite(SchnorrGroup::default_group());
  Rng rng(1);
  const KeyPair kp = suite->keygen(rng);
  const Bytes msg = to_bytes("proof of relay payload");
  for (auto _ : state) benchmark::DoNotOptimize(suite->sign(kp.secret_key, msg));
}
BENCHMARK(BM_SchnorrSign);

void BM_SchnorrVerify(benchmark::State& state) {
  const SuitePtr suite = make_schnorr_suite(SchnorrGroup::default_group());
  Rng rng(2);
  const KeyPair kp = suite->keygen(rng);
  const Bytes msg = to_bytes("proof of relay payload");
  const Bytes sig = suite->sign(kp.secret_key, msg);
  for (auto _ : state) benchmark::DoNotOptimize(suite->verify(kp.public_key, msg, sig));
}
BENCHMARK(BM_SchnorrVerify);

// The free schnorr_rs_verify oracle: Montgomery ladders for g^s and y^e, no
// fixed-base table and no cached parameters. The ratio to BM_SchnorrVerify
// is the SchnorrEngine win.
void BM_SchnorrVerifyNoTable(benchmark::State& state) {
  const SchnorrGroup& group = SchnorrGroup::default_group();
  Rng rng(2);
  const SchnorrKeyPair kp = schnorr_keygen(group, rng);
  const Bytes msg = to_bytes("proof of relay payload");
  const SchnorrSignatureRS sig = schnorr_rs_sign(group, kp.secret, msg, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(schnorr_rs_verify(group, kp.public_key, msg, sig));
  }
}
BENCHMARK(BM_SchnorrVerifyNoTable);

// One batch of `n` distinct (key, message, signature) triples through the
// Schnorr suite's randomized-linear-combination verify_batch. Per-signature
// time = total / n; compare with BM_SchnorrBatchPerSig at the same arg.
void BM_SchnorrRsBatchVerify(benchmark::State& state) {
  const SuitePtr suite = make_schnorr_suite(SchnorrGroup::default_group());
  Rng rng(8);
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<KeyPair> keys;
  std::vector<Bytes> msgs;
  std::vector<Bytes> sigs;
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back(suite->keygen(rng));
    msgs.push_back(Bytes(40, static_cast<std::uint8_t>(i)));
    sigs.push_back(suite->sign(keys[i].secret_key, msgs[i]));
  }
  std::vector<VerifyRequest> requests;
  for (std::size_t i = 0; i < n; ++i) requests.push_back({keys[i].public_key, msgs[i], sigs[i]});
  std::vector<char> verdicts(n);
  for (auto _ : state) {
    suite->verify_batch(requests, reinterpret_cast<bool*>(verdicts.data()));
    benchmark::DoNotOptimize(verdicts.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SchnorrRsBatchVerify)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

// The same batch checked one signature at a time (the per-signature verify
// loop): the baseline the batch check is measured against.
void BM_SchnorrBatchPerSig(benchmark::State& state) {
  const SuitePtr suite = make_schnorr_suite(SchnorrGroup::default_group());
  Rng rng(8);
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<KeyPair> keys;
  std::vector<Bytes> msgs;
  std::vector<Bytes> sigs;
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back(suite->keygen(rng));
    msgs.push_back(Bytes(40, static_cast<std::uint8_t>(i)));
    sigs.push_back(suite->sign(keys[i].secret_key, msgs[i]));
  }
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(suite->verify(keys[i].public_key, msgs[i], sigs[i]));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SchnorrBatchPerSig)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_FastSuiteSign(benchmark::State& state) {
  const SuitePtr suite = make_fast_suite();
  Rng rng(3);
  const KeyPair kp = suite->keygen(rng);
  const Bytes msg = to_bytes("proof of relay payload");
  for (auto _ : state) benchmark::DoNotOptimize(suite->sign(kp.secret_key, msg));
}
BENCHMARK(BM_FastSuiteSign);

void BM_FastSuiteVerify(benchmark::State& state) {
  const SuitePtr suite = make_fast_suite();
  Rng rng(4);
  const KeyPair kp = suite->keygen(rng);
  const Bytes msg = to_bytes("proof of relay payload");
  const Bytes sig = suite->sign(kp.secret_key, msg);
  for (auto _ : state) benchmark::DoNotOptimize(suite->verify(kp.public_key, msg, sig));
}
BENCHMARK(BM_FastSuiteVerify);

// Verification across a roster of 100 keys in turn, the shape of a
// simulation run: each key's schedule is built on first use and reused after.
void BM_FastSuiteVerifyRoster(benchmark::State& state) {
  const SuitePtr suite = make_fast_suite();
  Rng rng(8);
  const Bytes msg = to_bytes("proof of relay payload");
  std::vector<KeyPair> keys;
  std::vector<Bytes> sigs;
  for (int i = 0; i < 100; ++i) {
    keys.push_back(suite->keygen(rng));
    sigs.push_back(suite->sign(keys.back().secret_key, msg));
  }
  for (auto _ : state) {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      benchmark::DoNotOptimize(suite->verify(keys[i].public_key, msg, sigs[i]));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(keys.size()));
}
BENCHMARK(BM_FastSuiteVerifyRoster);

// A full audit round of storage-proof chains through the multi-lane batch;
// per-chain time = total / jobs. Compare with BM_HeavyHmac at the same
// iteration count for the lane-parallel win.
void BM_HeavyHmacBatch(benchmark::State& state) {
  const Bytes msg(512, 0x11);
  const auto jobs = static_cast<std::size_t>(state.range(0));
  std::vector<Bytes> seeds;
  for (std::size_t j = 0; j < jobs; ++j) seeds.push_back(Bytes(16, static_cast<std::uint8_t>(j)));
  std::vector<HeavyHmacJob> views;
  for (std::size_t j = 0; j < jobs; ++j) views.push_back({msg, seeds[j], 1024});
  for (auto _ : state) benchmark::DoNotOptimize(heavy_hmac_batch(views));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(jobs));
}
BENCHMARK(BM_HeavyHmacBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_SealedBoxRoundTrip(benchmark::State& state) {
  const SuitePtr suite = make_fast_suite();
  Rng rng(5);
  const KeyPair recipient = suite->keygen(rng);
  const Bytes body(static_cast<std::size_t>(state.range(0)), 0x42);
  for (auto _ : state) {
    const SealedBox box = seal(*suite, rng, recipient.public_key, body);
    benchmark::DoNotOptimize(seal_open(*suite, recipient.secret_key, box));
  }
}
BENCHMARK(BM_SealedBoxRoundTrip)->Arg(64)->Arg(1024);

void BM_DhSharedSecret(benchmark::State& state) {
  const SchnorrGroup& group = SchnorrGroup::default_group();
  Rng rng(6);
  const SchnorrKeyPair a = schnorr_keygen(group, rng);
  const SchnorrKeyPair b = schnorr_keygen(group, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dh_shared_secret(group, a.secret, b.public_key));
  }
}
BENCHMARK(BM_DhSharedSecret);

/// Console output plus one telemetry cell per benchmark: wall_s is the total
/// measured real time, sim_events the iteration count, so events_per_s is
/// iterations per second — raw Run fields only, stable across
/// google-benchmark versions.
class CellCollector final : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& run : report) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      g2g::bench::BenchCell cell;
      cell.name = run.benchmark_name();
      cell.runs = 1;
      cell.wall_s = run.real_accumulated_time;
      cell.sim_events = static_cast<std::uint64_t>(run.iterations);
      cells.push_back(std::move(cell));
    }
    ConsoleReporter::ReportRuns(report);
  }

  std::vector<g2g::bench::BenchCell> cells;
};

}  // namespace

int main(int argc, char** argv) {
  // Strip --json-out before google-benchmark parses the argv; probe the path
  // up front so a bad sink fails before any benchmark runs.
  std::string json_out;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--json-out" && i + 1 < argc) {
      json_out = argv[++i];
      continue;
    }
    args.push_back(argv[i]);
  }
  if (!json_out.empty()) {
    std::FILE* probe = std::fopen(json_out.c_str(), "w");
    if (probe == nullptr) {
      std::fprintf(stderr, "error: cannot open %s for writing (--json-out)\n",
                   json_out.c_str());
      return 1;
    }
    std::fclose(probe);
  }

  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) return 1;

  CellCollector reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!json_out.empty()) {
    g2g::bench::BenchReport report;
    report.bench = "micro_crypto";
    report.cells = std::move(reporter.cells);
    if (!report.write(json_out)) return 1;
  }
  return 0;
}
