#include "probes.hpp"

#include <chrono>
#include <vector>

#include "g2g/crypto/hmac.hpp"
#include "g2g/crypto/sha256.hpp"
#include "g2g/metrics/collector.hpp"
#include "g2g/proto/relay/frames.hpp"
#include "g2g/sim/simulator.hpp"
#include "g2g/util/rng.hpp"
#include "stats.hpp"

namespace repro {

namespace {

using Clock = std::chrono::steady_clock;

// Median over `reps` timed batches of `per_batch` operations, in ns/op.
// `batch` runs one batch and returns a value that keeps the work observable.
template <typename Batch>
double median_ns_per_op(int reps, std::size_t per_batch, Batch&& batch) {
  std::vector<double> ns;
  volatile std::uint64_t sink = 0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    sink = sink + batch();
    const double elapsed = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    ns.push_back(elapsed / static_cast<double>(per_batch));
  }
  return median(ns);
}

template <typename Frame>
std::uint64_t encode_decode(const Frame& frame, std::vector<std::uint8_t>& buf) {
  buf.resize(frame.wire_size());
  g2g::SpanWriter w(buf);
  frame.encode_into(w);
  const Frame back = Frame::decode(g2g::BytesView(buf.data(), buf.size()));
  return back.h[0] + buf.size();
}

}  // namespace

double sha256_block_ns() {
  const std::vector<std::uint8_t> data(64 * 1024, 0x5a);
  constexpr std::size_t kHashes = 16;
  return median_ns_per_op(7, kHashes * data.size() / 64, [&] {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kHashes; ++i) {
      acc += g2g::crypto::sha256(g2g::BytesView(data.data(), data.size()))[0];
    }
    return acc;
  });
}

ChainCost heavy_hmac_chain_cost(std::uint32_t iterations) {
  const std::vector<std::uint8_t> message(96, 0x11);
  const std::vector<std::uint8_t> seed(32, 0x22);
  const g2g::crypto::HeavyHmacJob job{g2g::BytesView(message.data(), message.size()),
                                      g2g::BytesView(seed.data(), seed.size()), iterations};
  const auto per_chain_us = [&](std::size_t lanes) {
    const std::vector<g2g::crypto::HeavyHmacJob> jobs(lanes, job);
    return median_ns_per_op(7, lanes, [&] {
             return std::uint64_t{g2g::crypto::heavy_hmac_batch(jobs).front()[0]};
           }) /
           1000.0;
  };
  return {per_chain_us(g2g::crypto::kSha256MaxLanes), per_chain_us(1)};
}

double frame_ns(const std::map<std::string, std::uint64_t>& msgs_by_kind) {
  using namespace g2g::proto;
  relay::RelayRqstFrame rqst;
  rqst.h.fill(1);
  relay::RelayOkFrame ok;
  ok.h.fill(2);
  relay::RelayDataFrame data;
  data.h.fill(3);
  data.msg.dst = g2g::NodeId(7);
  data.msg.box.ephemeral_public.assign(32, 0x33);
  data.msg.box.ciphertext.assign(64 + 96, 0x44);  // body plus signed header
  relay::KeyRevealFrame key;
  key.h.fill(5);
  relay::PorRqstFrame por;
  por.h.fill(6);
  relay::StoredRespFrame stored;
  stored.h.fill(7);
  relay::FqRqstFrame fq;
  fq.h.fill(8);
  fq.dst = g2g::NodeId(9);

  std::vector<std::uint8_t> buf;
  constexpr std::size_t kOps = 20000;
  const auto probe = [&](const auto& frame) {
    return median_ns_per_op(5, kOps, [&] {
      std::uint64_t acc = 0;
      for (std::size_t i = 0; i < kOps; ++i) acc += encode_decode(frame, buf);
      return acc;
    });
  };
  const std::map<std::string, double> cost{
      {"relay_rqst", probe(rqst)}, {"relay_ok", probe(ok)},     {"relay_data", probe(data)},
      {"key_reveal", probe(key)},  {"por_rqst", probe(por)},    {"stored_resp", probe(stored)},
      {"fq_rqst", probe(fq)}};

  double weighted = 0.0;
  double total = 0.0;
  for (const auto& [kind, ns] : cost) {
    const auto it = msgs_by_kind.find(kind);
    if (it == msgs_by_kind.end()) continue;
    weighted += ns * static_cast<double>(it->second);
    total += static_cast<double>(it->second);
  }
  return total == 0.0 ? 0.0 : weighted / total;
}

double event_ns(std::size_t events) {
  if (events == 0) return 0.0;
  const g2g::TimePoint horizon = g2g::TimePoint::from_seconds(3.0 * 3600.0);
  return median_ns_per_op(7, events, [&] {
    g2g::Rng rng(events);
    g2g::sim::Simulator sim(horizon);
    std::uint64_t fired = 0;
    for (std::size_t i = 0; i < events; ++i) {
      sim.at(g2g::TimePoint::from_seconds(rng.uniform(0.0, 3.0 * 3600.0)), [&] { ++fired; });
    }
    sim.run();
    return fired;
  });
}

double costs_ns(std::size_t nodes) {
  if (nodes == 0) return 0.0;
  g2g::metrics::Collector collector;
  std::vector<g2g::NodeId> order;
  g2g::Rng rng(nodes);
  constexpr std::size_t kLookups = 100000;
  for (std::size_t i = 0; i < kLookups; ++i) {
    order.emplace_back(static_cast<std::uint32_t>(rng.below(nodes)));
  }
  for (std::size_t n = 0; n < nodes; ++n) {
    collector.costs(g2g::NodeId(static_cast<std::uint32_t>(n))).sessions = 1;
  }
  return median_ns_per_op(7, kLookups, [&] {
    for (const g2g::NodeId n : order) ++collector.costs(n).bytes_sent;
    return collector.costs(order.front()).bytes_sent;
  });
}

}  // namespace repro
