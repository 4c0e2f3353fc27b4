// The relay core's wire frames: canonical round-trips, pinned encoded sizes
// (Session::send charges a frame its encoded size plus the control signature,
// so the cost model hinges on them), and strict rejection of foreign tags
// and trailing bytes.
#include <gtest/gtest.h>

#include "g2g/crypto/identity.hpp"
#include "g2g/proto/message.hpp"
#include "g2g/proto/relay/frames.hpp"
#include "g2g/proto/wire.hpp"
#include "g2g/util/rng.hpp"

namespace g2g::proto::relay {
namespace {

MessageHash hash_of(std::uint8_t fill) {
  MessageHash h;
  h.fill(fill);
  return h;
}

class RelayFrames : public ::testing::Test {
 protected:
  RelayFrames() : suite_(crypto::make_fast_suite(0xF4)), rng_(99), authority_(suite_, rng_) {
    for (std::uint32_t i = 0; i < 2; ++i) {
      ids_.emplace_back(suite_, NodeId(i), authority_, rng_);
      roster_.add(ids_.back().certificate());
    }
  }

  [[nodiscard]] SealedMessage message() {
    return make_message(ids_[0], roster_.get(NodeId(1)), MessageId(7), Bytes{1, 2, 3, 4},
                        rng_);
  }

  [[nodiscard]] QualityDeclaration declaration(std::uint32_t declarer, double value) {
    QualityDeclaration decl;
    decl.declarer = NodeId(declarer);
    decl.dst = NodeId(1);
    decl.value = value;
    decl.frame = 3;
    decl.at = TimePoint::from_seconds(42.0);
    decl.signature = ids_[declarer].sign(decl.signed_payload());
    return decl;
  }

  crypto::SuitePtr suite_;
  Rng rng_;
  crypto::Authority authority_;
  std::vector<crypto::NodeIdentity> ids_;
  Roster roster_;
};

TEST_F(RelayFrames, RelayRqstRoundTripAndSizeIdentity) {
  const RelayRqstFrame f{hash_of(0x11)};
  const Bytes b = f.encode();
  EXPECT_EQ(b.size(), 33u);  // tag + H(m)
  EXPECT_EQ(f.wire_size(), b.size());
  const RelayRqstFrame d = RelayRqstFrame::decode(b);
  EXPECT_EQ(d.h, f.h);
}

TEST_F(RelayFrames, RelayOkCarriesAcceptBitInTheTag) {
  const RelayOkFrame ok{hash_of(0x22), true};
  const RelayOkFrame no{hash_of(0x22), false};
  const Bytes ok_b = ok.encode();
  const Bytes no_b = no.encode();
  EXPECT_EQ(ok_b.size(), no_b.size());  // accept and decline cost the same
  EXPECT_EQ(ok_b.size(), 33u);  // tag + H(m)
  EXPECT_NE(ok_b[0], no_b[0]);
  EXPECT_TRUE(RelayOkFrame::decode(ok_b).accept);
  EXPECT_FALSE(RelayOkFrame::decode(no_b).accept);
  EXPECT_EQ(RelayOkFrame::decode(no_b).h, no.h);
}

TEST_F(RelayFrames, RelayDataRoundTripWithAttachments) {
  RelayDataFrame f;
  f.msg = message();
  f.h = f.msg.hash();
  f.attachments.push_back(declaration(0, 2.5));
  f.attachments.push_back(declaration(1, 7.0));

  std::size_t attach_bytes = 0;
  for (const auto& a : f.attachments) attach_bytes += a.wire_size();
  const Bytes b = f.encode();
  EXPECT_EQ(b.size(), 41 + f.msg.wire_size() + attach_bytes);  // tag + H(m) + u64 length

  const RelayDataFrame d = RelayDataFrame::decode(b);
  EXPECT_EQ(d.h, f.h);
  EXPECT_EQ(d.msg.hash(), f.msg.hash());
  ASSERT_EQ(d.attachments.size(), 2u);
  EXPECT_EQ(d.attachments[0].encode(), f.attachments[0].encode());
  EXPECT_EQ(d.attachments[1].encode(), f.attachments[1].encode());
  EXPECT_EQ(d.encode(), b);
}

TEST_F(RelayFrames, RelayDataWithoutAttachmentsRoundTrips) {
  RelayDataFrame f;
  f.msg = message();
  f.h = f.msg.hash();
  const Bytes b = f.encode();
  EXPECT_EQ(b.size(), 41 + f.msg.wire_size());
  const RelayDataFrame d = RelayDataFrame::decode(b);
  EXPECT_TRUE(d.attachments.empty());
  EXPECT_EQ(d.msg.encode(), f.msg.encode());
}

TEST_F(RelayFrames, KeyRevealRoundTripAndSizeIdentity) {
  KeyRevealFrame f;
  f.h = hash_of(0x33);
  for (std::size_t i = 0; i < f.key.size(); ++i) f.key[i] = static_cast<std::uint8_t>(i);
  const Bytes b = f.encode();
  EXPECT_EQ(b.size(), 65u);  // tag + H(m) + key
  const KeyRevealFrame d = KeyRevealFrame::decode(b);
  EXPECT_EQ(d.h, f.h);
  EXPECT_EQ(d.key, f.key);
}

TEST_F(RelayFrames, PorRqstRoundTripAndSizeIdentity) {
  PorRqstFrame f;
  f.h = hash_of(0x44);
  f.seed.fill(0xAB);
  const Bytes b = f.encode();
  EXPECT_EQ(b.size(), 65u);  // tag + H(m) + seed
  const PorRqstFrame d = PorRqstFrame::decode(b);
  EXPECT_EQ(d.h, f.h);
  EXPECT_EQ(d.seed, f.seed);
}

TEST_F(RelayFrames, StoredRespRoundTripAndSizeIdentity) {
  StoredRespFrame f;
  f.h = hash_of(0x55);
  f.seed.fill(0x01);
  f.digest.fill(0xEE);
  const Bytes b = f.encode();
  EXPECT_EQ(b.size(), 97u);  // tag + H(m) + seed + digest
  const StoredRespFrame d = StoredRespFrame::decode(b);
  EXPECT_EQ(d.h, f.h);
  EXPECT_EQ(d.seed, f.seed);
  EXPECT_EQ(d.digest, f.digest);
}

TEST_F(RelayFrames, FqRqstRoundTripAndSizeIdentity) {
  const FqRqstFrame f{hash_of(0x66), NodeId(321)};
  const Bytes b = f.encode();
  EXPECT_EQ(b.size(), 37u);  // tag + H(m) + D'
  const FqRqstFrame d = FqRqstFrame::decode(b);
  EXPECT_EQ(d.h, f.h);
  EXPECT_EQ(d.dst, f.dst);
}

// The codec-triple invariant g2g-lint enforces statically (wire-encode-triple)
// pinned dynamically: every frame's arithmetic wire_size() is exactly its
// encoded size, including the variable-length RelayData payload.
TEST_F(RelayFrames, WireSizeMatchesEncodedSizeForEveryFrame) {
  const MessageHash h = hash_of(0x99);
  EXPECT_EQ(RelayRqstFrame{h}.wire_size(), RelayRqstFrame{h}.encode().size());
  EXPECT_EQ((RelayOkFrame{h, true}).wire_size(), (RelayOkFrame{h, true}).encode().size());
  EXPECT_EQ((RelayOkFrame{h, false}).wire_size(),
            (RelayOkFrame{h, false}).encode().size());
  KeyRevealFrame key;
  key.h = h;
  EXPECT_EQ(key.wire_size(), key.encode().size());
  PorRqstFrame por;
  por.h = h;
  EXPECT_EQ(por.wire_size(), por.encode().size());
  StoredRespFrame stored;
  stored.h = h;
  EXPECT_EQ(stored.wire_size(), stored.encode().size());
  const FqRqstFrame fq{h, NodeId(7)};
  EXPECT_EQ(fq.wire_size(), fq.encode().size());

  RelayDataFrame data;
  data.msg = message();
  data.h = data.msg.hash();
  EXPECT_EQ(data.wire_size(), data.encode().size());  // no attachments
  data.attachments.push_back(declaration(0, 1.5));
  data.attachments.push_back(declaration(1, 4.0));
  EXPECT_EQ(data.wire_size(), data.encode().size());  // with attachments
}

TEST_F(RelayFrames, ForeignTagsAreRejected) {
  const Bytes rqst = RelayRqstFrame{hash_of(0x77)}.encode();
  EXPECT_THROW((void)KeyRevealFrame::decode(rqst), DecodeError);
  EXPECT_THROW((void)RelayOkFrame::decode(rqst), DecodeError);
  const Bytes fq = FqRqstFrame{hash_of(0x77), NodeId(2)}.encode();
  EXPECT_THROW((void)RelayRqstFrame::decode(fq), DecodeError);
}

TEST_F(RelayFrames, TrailingBytesAreRejected) {
  Bytes b = RelayRqstFrame{hash_of(0x88)}.encode();
  b.push_back(0x00);
  EXPECT_THROW((void)RelayRqstFrame::decode(b), DecodeError);

  RelayDataFrame f;
  f.msg = message();
  f.h = f.msg.hash();
  Bytes db = f.encode();
  db.push_back(0x00);
  EXPECT_THROW((void)RelayDataFrame::decode(db), DecodeError);
}

TEST_F(RelayFrames, RelayDataPayloadLengthIsBoundsChecked) {
  RelayDataFrame f;
  f.msg = message();
  f.h = f.msg.hash();
  Bytes b = f.encode();
  // Inflate the inner length field (bytes 33..40) past the buffer.
  b[33] = 0xFF;
  b[34] = 0xFF;
  EXPECT_THROW((void)RelayDataFrame::decode(b), DecodeError);
}

}  // namespace
}  // namespace g2g::proto::relay
