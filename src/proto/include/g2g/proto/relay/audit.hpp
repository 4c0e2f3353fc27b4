// AuditEngine: the (Delta1, Delta2] test-by-sender machinery (Fig. 2).
//
// One engine per node owns the pending-test registry and runs both sides of
// the audit: the source's challenge loop (POR_RQST frames, PoR batch
// verification through Suite::verify_batch, storage-proof recomputation) and
// the relay's response (present PoRs and/or a heavy-HMAC storage proof).
// Both frames cross the session seam (Session::send/recv). The source decides
// a storage proof at challenge time with crypto::heavy_hmac_agree: an honest
// relay's stored copy is byte-equal to the source's and agrees without
// running the chain, while a copy that differs in any byte runs both chains;
// both sides are charged a heavy HMAC either way. The two former
// copies of this loop in the epidemic and delegation nodes differed only in
// how PoRs are presented (PresentMode) and in two delegation-only screens
// (the host's begin_test / screen_pors hooks: destination lookup and the
// chain check).
#pragma once

#include <cstdint>
#include <vector>

#include "g2g/proto/relay/state.hpp"

namespace g2g::proto {
class Session;
}

namespace g2g::proto::relay {

class RelayNode;
struct PorRqstFrame;

class AuditEngine {
 public:
  /// How a challenged relay presents its evidence.
  enum class PresentMode : std::uint8_t {
    /// Epidemic: a full PoR set settles it; otherwise a storage proof plus
    /// whatever PoRs exist (shown, not transferred).
    PorsOrStorage,
    /// Delegation: every PoR is always transferred (the sender chain-checks
    /// them), a storage proof covers the shortfall.
    PorsThenStorage,
  };

  AuditEngine(RelayNode& host, PresentMode mode) : host_(host), mode_(mode) {}

  /// Source side: remember that `test.relay` must be challenged when re-met.
  void arm(PendingTest test) { tests_.push_back(std::move(test)); }

  /// Source side: challenge `peer` for every due pending test.
  void run(Session& s, RelayNode& peer);

  /// Relay side: answer the POR_RQST frame `rqst`. A storage proof is a
  /// STORED_RESP frame plus the stored copy it covers
  /// (TestResponse::stored_copy), which the challenger checks against its
  /// own; all byte accounting, counters, and trace events happen at
  /// challenge time.
  [[nodiscard]] TestResponse respond(Session& s, BytesView rqst);

  [[nodiscard]] std::vector<PendingTest>& tests() { return tests_; }
  [[nodiscard]] const std::vector<PendingTest>& tests() const { return tests_; }
  [[nodiscard]] std::size_t pending_count() const;

 private:
  /// The storage-proof leg of respond(): charge the heavy HMAC, hand over
  /// the stored copy, send STORED_RESP.
  void storage_proof(Session& s, const Hold& hold, const PorRqstFrame& rq, TestResponse& resp);

  RelayNode& host_;
  PresentMode mode_;
  std::vector<PendingTest> tests_;
};

}  // namespace g2g::proto::relay
