// Wire frames for the transient G2G handshake and audit steps.
//
// Every handshake and audit step crosses the contact as one of these frames
// through the session seam (Session::send/recv in node.hpp): the sender
// arena-encodes it and is charged its encoded size plus the control
// signature, the receiver strictly decodes it. Each frame names its own
// accounting as type properties — kWireKind (the wire.<kind> counter it
// feeds) and kControlSigned — so no call site passes a size or a kind. The
// persistent artefacts (ProofOfRelay, QualityDeclaration, ProofOfMisbehavior)
// keep their canonical encodings in wire.hpp.
//
// Framing rules (shared with the artefacts): canonical little-endian, a
// leading one-byte tag, fixed-size fields, and strict decoding — unknown
// tags, truncation, and trailing bytes all throw DecodeError. Every frame
// carries the full codec triple — encode() / decode() / wire_size(), with
// wire_size() computed arithmetically and pinned to encode().size() in
// tests/relay_frames_test.cpp (g2g-lint rule wire-encode-triple).
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "g2g/obs/context.hpp"
#include "g2g/proto/message.hpp"
#include "g2g/proto/wire.hpp"

namespace g2g::proto::relay {

/// One byte of frame discrimination on the wire. RELAY_OK and its decline
/// are distinct tags (the accept bit is the tag), everything else carries
/// its payload after the tag.
enum class FrameTag : std::uint8_t {
  RelayRqst = 1,    ///< step 1: ⟨RELAY_RQST, H(m)⟩
  RelayOk = 2,      ///< step 2: ⟨RELAY_OK, H(m)⟩
  RelayDecline = 3, ///< step 2: the taker already handled H(m)
  RelayData = 4,    ///< step 3: ⟨E_k(m) [, declarations]⟩
  KeyReveal = 5,    ///< step 5: ⟨KEY, H(m), k⟩
  PorRqst = 6,      ///< audit: ⟨POR_RQST, H(m), seed⟩
  StoredResp = 7,   ///< audit: ⟨STORED, H(m), seed, HMAC digest⟩
  FqRqst = 8,       ///< delegation step 8: ⟨FQ_RQST, H(m), D'⟩
};

/// Step 1: the giver offers H(m).
struct RelayRqstFrame {
  static constexpr obs::WireKind kWireKind = obs::WireKind::RelayRqst;
  static constexpr bool kControlSigned = true;

  MessageHash h{};

  [[nodiscard]] Bytes encode() const;
  void encode_into(SpanWriter& w) const;
  [[nodiscard]] static RelayRqstFrame decode(BytesView b);
  [[nodiscard]] std::size_t wire_size() const;
};

/// Step 2: accept (tag RelayOk) or decline (tag RelayDecline).
struct RelayOkFrame {
  static constexpr obs::WireKind kWireKind = obs::WireKind::RelayOk;
  static constexpr bool kControlSigned = true;

  MessageHash h{};
  bool accept = true;

  [[nodiscard]] Bytes encode() const;
  void encode_into(SpanWriter& w) const;
  [[nodiscard]] static RelayOkFrame decode(BytesView b);
  [[nodiscard]] std::size_t wire_size() const;
};

/// Step 3: the encrypted message plus any embedded quality declarations
/// (Delegation's test-by-destination attachments; empty for Epidemic).
/// Payload layout: u64 byte length, then the message's canonical encoding
/// followed by the attachments' canonical encodings back to back.
struct RelayDataFrame {
  MessageHash h{};
  SealedMessage msg;
  std::vector<QualityDeclaration> attachments;

  [[nodiscard]] Bytes encode() const;
  void encode_into(SpanWriter& w) const;
  [[nodiscard]] static RelayDataFrame decode(BytesView b);
  [[nodiscard]] std::size_t wire_size() const;
};

/// Non-owning decode of a RelayData frame: the sealed message is a
/// SealedMessageView into the frame bytes and the attachments stay encoded
/// (back-to-back declarations in `attachments_wire`) until explicitly
/// materialized. The epidemic handshake never carries attachments, so its
/// receive path decodes through this view without touching the heap.
struct RelayDataFrameView {
  MessageHash h{};
  SealedMessageView msg;
  BytesView attachments_wire;

  /// Decode the embedded declarations (empty for Epidemic frames).
  [[nodiscard]] std::vector<QualityDeclaration> decode_attachments() const;
  [[nodiscard]] static RelayDataFrameView decode(BytesView b);
};

/// Step 5: the key reveal. The simulation emulates the encryption (the box
/// seal already protects the content), so the key bytes are a placeholder of
/// the real 32-byte key the frame would carry.
struct KeyRevealFrame {
  static constexpr obs::WireKind kWireKind = obs::WireKind::KeyReveal;
  static constexpr bool kControlSigned = true;

  MessageHash h{};
  std::array<std::uint8_t, 32> key{};

  [[nodiscard]] Bytes encode() const;
  void encode_into(SpanWriter& w) const;
  [[nodiscard]] static KeyRevealFrame decode(BytesView b);
  [[nodiscard]] std::size_t wire_size() const;
};

/// Audit challenge: prove you relayed H(m) (PoRs) or still store it (heavy
/// HMAC over the fresh seed).
struct PorRqstFrame {
  static constexpr obs::WireKind kWireKind = obs::WireKind::PorRqst;
  static constexpr bool kControlSigned = true;

  MessageHash h{};
  std::array<std::uint8_t, 32> seed{};

  [[nodiscard]] Bytes encode() const;
  void encode_into(SpanWriter& w) const;
  [[nodiscard]] static PorRqstFrame decode(BytesView b);
  [[nodiscard]] std::size_t wire_size() const;
};

/// Audit storage proof: the heavy HMAC digest over (m, seed). The relay sends
/// it at challenge time with the digest left zero — a placeholder, like
/// KeyRevealFrame's key bytes: the challenger decides the proof from the
/// relay's stored copy and the echoed h and seed (crypto::heavy_hmac_agree),
/// which runs the chains only when the copy or the seed differs from its own.
struct StoredRespFrame {
  static constexpr obs::WireKind kWireKind = obs::WireKind::StoredResp;
  static constexpr bool kControlSigned = true;

  MessageHash h{};
  std::array<std::uint8_t, 32> seed{};
  crypto::Digest digest{};

  [[nodiscard]] Bytes encode() const;
  void encode_into(SpanWriter& w) const;
  [[nodiscard]] static StoredRespFrame decode(BytesView b);
  [[nodiscard]] std::size_t wire_size() const;
};

/// Borrowed-parts RelayData frame: identical bytes to RelayDataFrame::encode()
/// for the same (h, msg, attachments), but encoded straight from the hold's
/// message and declaration spans — no frame struct, no message copy. This is
/// what the handshake sends; the receiver decodes a RelayDataFrameView.
struct RelayDataParts {
  static constexpr obs::WireKind kWireKind = obs::WireKind::RelayData;
  static constexpr bool kControlSigned = true;

  const MessageHash& h;
  const SealedMessage& msg;
  std::span<const QualityDeclaration> attachments;

  void encode_into(SpanWriter& w) const;
  [[nodiscard]] std::size_t wire_size() const;
};

/// Delegation step 8: request a signed quality declaration toward D'.
struct FqRqstFrame {
  static constexpr obs::WireKind kWireKind = obs::WireKind::FqRqst;
  static constexpr bool kControlSigned = true;

  MessageHash h{};
  NodeId dst;

  [[nodiscard]] Bytes encode() const;
  void encode_into(SpanWriter& w) const;
  [[nodiscard]] static FqRqstFrame decode(BytesView b);
  [[nodiscard]] std::size_t wire_size() const;
};

}  // namespace g2g::proto::relay
