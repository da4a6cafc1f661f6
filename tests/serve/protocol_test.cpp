#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace cdbp::serve {
namespace {

// Extracts exactly one frame from `bytes` and asserts nothing is left
// over — encoders must produce self-delimiting output.
FrameView extractOne(const std::vector<std::uint8_t>& bytes) {
  FrameView frame;
  std::size_t consumed = 0;
  ExtractStatus status = extractFrame(bytes.data(), bytes.size(),
                                      kDefaultMaxFramePayload, frame,
                                      consumed);
  EXPECT_EQ(status, ExtractStatus::kFrame);
  EXPECT_EQ(consumed, bytes.size());
  return frame;
}

TEST(ServeProtocol, HelloRoundTrip) {
  HelloFrame in;
  in.version = kProtocolVersion;
  in.engine = 1;
  in.minDuration = 0.125;
  in.mu = 24.5;
  in.seed = 0xDEADBEEFCAFEF00Dull;
  in.tenant = "tenant-a";
  in.policySpec = "cdt-ff(rho=2)";

  std::vector<std::uint8_t> bytes;
  appendHello(bytes, in);
  FrameView frame = extractOne(bytes);
  ASSERT_EQ(frame.type, FrameType::kHello);

  HelloFrame out;
  ASSERT_TRUE(decodeHello(frame, out));
  EXPECT_EQ(out.version, in.version);
  EXPECT_EQ(out.engine, in.engine);
  EXPECT_EQ(out.minDuration, in.minDuration);
  EXPECT_EQ(out.mu, in.mu);
  EXPECT_EQ(out.seed, in.seed);
  EXPECT_EQ(out.tenant, in.tenant);
  EXPECT_EQ(out.policySpec, in.policySpec);
}

TEST(ServeProtocol, DoublesTravelBitExactly) {
  // Negative zero, a subnormal, an irrational dyadic tail and a NaN
  // payload all round-trip through the f64 encoding bit for bit.
  const double values[] = {-0.0, std::numeric_limits<double>::denorm_min(),
                           1.0 / 3.0,
                           std::numeric_limits<double>::quiet_NaN()};
  for (double v : values) {
    PlaceFrame in{v, v, v};
    std::vector<std::uint8_t> bytes;
    appendPlace(bytes, in);
    PlaceFrame out;
    ASSERT_TRUE(decodePlace(extractOne(bytes), out));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out.size),
              std::bit_cast<std::uint64_t>(v));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out.arrival),
              std::bit_cast<std::uint64_t>(v));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out.departure),
              std::bit_cast<std::uint64_t>(v));
  }
}

TEST(ServeProtocol, ReplyRoundTrips) {
  {
    HelloOkFrame in{kProtocolVersion, 7, "CDT-FF(rho=2)"};
    std::vector<std::uint8_t> bytes;
    appendHelloOk(bytes, in);
    HelloOkFrame out;
    ASSERT_TRUE(decodeHelloOk(extractOne(bytes), out));
    EXPECT_EQ(out.tenantId, 7u);
    EXPECT_EQ(out.policyName, "CDT-FF(rho=2)");
  }
  {
    PlacedFrame in{41, -1, 1, 3};
    std::vector<std::uint8_t> bytes;
    appendPlaced(bytes, in);
    PlacedFrame out;
    ASSERT_TRUE(decodePlaced(extractOne(bytes), out));
    EXPECT_EQ(out.item, 41u);
    EXPECT_EQ(out.bin, -1);
    EXPECT_EQ(out.openedNewBin, 1);
    EXPECT_EQ(out.category, 3);
  }
  {
    DepartOkFrame in{12, 5};
    std::vector<std::uint8_t> bytes;
    appendDepartOk(bytes, in);
    DepartOkFrame out;
    ASSERT_TRUE(decodeDepartOk(extractOne(bytes), out));
    EXPECT_EQ(out.drained, 12u);
    EXPECT_EQ(out.openBins, 5u);
  }
  {
    StatsOkFrame in{100, 9, 4, 17, 23, 4096};
    std::vector<std::uint8_t> bytes;
    appendStatsOk(bytes, in);
    StatsOkFrame out;
    ASSERT_TRUE(decodeStatsOk(extractOne(bytes), out));
    EXPECT_EQ(out.items, 100u);
    EXPECT_EQ(out.peakResidentBytes, 4096u);
  }
  {
    DrainOkFrame in{100, 12.5, 9, 4, 2, 11.25, 23, 4096};
    std::vector<std::uint8_t> bytes;
    appendDrainOk(bytes, in);
    DrainOkFrame out;
    ASSERT_TRUE(decodeDrainOk(extractOne(bytes), out));
    EXPECT_EQ(out.totalUsage, 12.5);
    EXPECT_EQ(out.lb3, 11.25);
    EXPECT_EQ(out.categoriesUsed, 2u);
  }
  {
    ScrapeOkFrame in{"cdbp_sim_fit_checks 42\n"};
    std::vector<std::uint8_t> bytes;
    appendScrapeOk(bytes, in);
    ScrapeOkFrame out;
    ASSERT_TRUE(decodeScrapeOk(extractOne(bytes), out));
    EXPECT_EQ(out.text, in.text);
  }
  {
    ErrorFrame in{ErrorCode::kBadPolicySpec, "unknown spec 'xx'"};
    std::vector<std::uint8_t> bytes;
    appendError(bytes, in);
    ErrorFrame out;
    ASSERT_TRUE(decodeError(extractOne(bytes), out));
    EXPECT_EQ(out.code, ErrorCode::kBadPolicySpec);
    EXPECT_EQ(out.message, in.message);
  }
}

TEST(ServeProtocol, EmptyBodyRequests) {
  for (auto append : {appendStats, appendDrain, appendScrape}) {
    std::vector<std::uint8_t> bytes;
    append(bytes);
    EXPECT_EQ(bytes.size(), 5u);  // u32 length (=1) + type byte
    FrameView frame = extractOne(bytes);
    EXPECT_TRUE(decodeEmpty(frame));
  }
}

TEST(ServeProtocol, TruncatedBuffersNeedMore) {
  HelloFrame hello{kProtocolVersion, 0, 1.0, 8.0, 42, "t", "ff"};
  std::vector<std::uint8_t> bytes;
  appendHello(bytes, hello);
  // Every strict prefix of a valid frame is kNeedMore, never a crash and
  // never a bogus frame.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    FrameView frame;
    std::size_t consumed = 0;
    EXPECT_EQ(extractFrame(bytes.data(), cut, kDefaultMaxFramePayload, frame,
                           consumed),
              ExtractStatus::kNeedMore)
        << "prefix length " << cut;
  }
}

TEST(ServeProtocol, TruncatedBodiesRejectedByDecoders) {
  HelloFrame hello{kProtocolVersion, 0, 1.0, 8.0, 42, "tenant", "cdt-ff"};
  std::vector<std::uint8_t> bytes;
  appendHello(bytes, hello);
  FrameView whole = extractOne(bytes);
  // Chop the decoded payload at every length: the decoder must return
  // false for all of them (and true only for the full body).
  for (std::size_t n = 0; n < whole.payloadSize; ++n) {
    FrameView cut{whole.type, whole.payload, n};
    HelloFrame out;
    EXPECT_FALSE(decodeHello(cut, out)) << "body length " << n;
  }
  HelloFrame out;
  EXPECT_TRUE(decodeHello(whole, out));
}

TEST(ServeProtocol, TrailingBytesRejected) {
  PlaceFrame place{0.5, 0.0, 1.0};
  std::vector<std::uint8_t> bytes;
  appendPlace(bytes, place);
  bytes.push_back(0x00);            // widen the payload by one junk byte...
  bytes[0] = static_cast<std::uint8_t>(bytes[0] + 1);  // ...and the prefix
  PlaceFrame out;
  EXPECT_FALSE(decodePlace(extractOne(bytes), out));
}

TEST(ServeProtocol, OversizedLengthPrefix) {
  std::vector<std::uint8_t> bytes = {0xFF, 0xFF, 0xFF, 0xFF, 0x01};
  FrameView frame;
  std::size_t consumed = 0;
  EXPECT_EQ(extractFrame(bytes.data(), bytes.size(), kDefaultMaxFramePayload,
                         frame, consumed),
            ExtractStatus::kOversized);
}

TEST(ServeProtocol, ZeroLengthFrameDecodesAsMalformed) {
  std::vector<std::uint8_t> bytes = {0x00, 0x00, 0x00, 0x00};
  FrameView frame;
  std::size_t consumed = 0;
  ASSERT_EQ(extractFrame(bytes.data(), bytes.size(), kDefaultMaxFramePayload,
                         frame, consumed),
            ExtractStatus::kFrame);
  EXPECT_EQ(consumed, 4u);
  // No type byte: the extractor tags it with the reply-only kError type,
  // which no request dispatcher accepts — the server answers
  // kMalformedFrame.
  EXPECT_EQ(frame.type, FrameType::kError);
  EXPECT_EQ(frame.payloadSize, 0u);
}

TEST(ServeProtocol, BackToBackFramesExtractInOrder) {
  std::vector<std::uint8_t> bytes;
  appendStats(bytes);
  appendPlace(bytes, PlaceFrame{0.25, 1.0, 2.0});
  appendDrain(bytes);

  std::size_t offset = 0;
  std::vector<FrameType> types;
  while (offset < bytes.size()) {
    FrameView frame;
    std::size_t consumed = 0;
    ASSERT_EQ(extractFrame(bytes.data() + offset, bytes.size() - offset,
                           kDefaultMaxFramePayload, frame, consumed),
              ExtractStatus::kFrame);
    types.push_back(frame.type);
    offset += consumed;
  }
  EXPECT_EQ(types, (std::vector<FrameType>{FrameType::kStats,
                                           FrameType::kPlace,
                                           FrameType::kDrain}));
}

TEST(ServeProtocol, ErrorCodeNames) {
  EXPECT_STREQ(errorCodeName(ErrorCode::kBadPolicySpec), "bad-policy-spec");
  EXPECT_STREQ(errorCodeName(ErrorCode::kOutOfOrder), "out-of-order");
  EXPECT_STREQ(errorCodeName(ErrorCode::kUnsupportedVersion),
               "unsupported-version");
  EXPECT_STREQ(errorCodeName(static_cast<ErrorCode>(999)), "unknown");
}

TEST(ServeProtocol, NegotiateVersion) {
  EXPECT_EQ(negotiateVersion(0), 0);  // below the floor: reject
  EXPECT_EQ(negotiateVersion(1), 0);  // v1 is no longer spoken: reject
  EXPECT_EQ(negotiateVersion(2), 2);
  EXPECT_EQ(negotiateVersion(3), 2);   // future client: cap at ours
  EXPECT_EQ(negotiateVersion(999), 2);
}

TEST(ServeProtocol, BatchRoundTrip) {
  BatchFrame in;
  BatchOp place;
  place.kind = kBatchOpPlace;
  place.place = PlaceFrame{0.5, 1.0, 9.0};
  BatchOp depart;
  depart.kind = kBatchOpDepart;
  depart.depart = DepartFrame{4.5};
  in.ops = {place, depart, place};

  std::vector<std::uint8_t> bytes;
  appendBatch(bytes, in);
  FrameView frame = extractOne(bytes);
  ASSERT_EQ(frame.type, FrameType::kBatch);

  BatchFrame out;
  ASSERT_TRUE(decodeBatch(frame, out));
  ASSERT_EQ(out.ops.size(), 3u);
  EXPECT_EQ(out.ops[0].kind, kBatchOpPlace);
  EXPECT_EQ(out.ops[0].place.size, 0.5);
  EXPECT_EQ(out.ops[0].place.departure, 9.0);
  EXPECT_EQ(out.ops[1].kind, kBatchOpDepart);
  EXPECT_EQ(out.ops[1].depart.time, 4.5);
  EXPECT_EQ(out.ops[2].place.arrival, 1.0);
}

TEST(ServeProtocol, BatchOkRoundTripSuccessAndFailure) {
  {
    BatchOkFrame in;
    BatchResultEntry placed;
    placed.kind = kBatchOpPlace;
    placed.placed = PlacedFrame{7, 2, 1, 3};
    BatchResultEntry departed;
    departed.kind = kBatchOpDepart;
    departed.depart = DepartOkFrame{12, 4};
    in.results = {placed, departed};

    std::vector<std::uint8_t> bytes;
    appendBatchOk(bytes, in);
    BatchOkFrame out;
    ASSERT_TRUE(decodeBatchOk(extractOne(bytes), out));
    ASSERT_EQ(out.results.size(), 2u);
    EXPECT_EQ(out.results[0].placed.item, 7u);
    EXPECT_EQ(out.results[0].placed.bin, 2);
    EXPECT_EQ(out.results[1].depart.drained, 12u);
    EXPECT_EQ(out.failed, 0);
  }
  {
    // Partial failure: one completed result, op 1 rejected.
    BatchOkFrame in;
    BatchResultEntry placed;
    placed.placed = PlacedFrame{0, 0, 1, 0};
    in.results = {placed};
    in.failed = 1;
    in.failedIndex = 1;
    in.errorCode = ErrorCode::kOutOfOrder;
    in.errorMessage = "arrival behind the session watermark";

    std::vector<std::uint8_t> bytes;
    appendBatchOk(bytes, in);
    BatchOkFrame out;
    ASSERT_TRUE(decodeBatchOk(extractOne(bytes), out));
    ASSERT_EQ(out.results.size(), 1u);
    EXPECT_EQ(out.failed, 1);
    EXPECT_EQ(out.failedIndex, 1u);
    EXPECT_EQ(out.errorCode, ErrorCode::kOutOfOrder);
    EXPECT_EQ(out.errorMessage, in.errorMessage);
  }
}

TEST(ServeProtocol, BatchDecoderRejectsBadKind) {
  BatchFrame in;
  BatchOp op;
  op.kind = kBatchOpPlace;
  in.ops = {op};
  std::vector<std::uint8_t> bytes;
  appendBatch(bytes, in);
  // Wire layout: u32 length | u8 type | u32 count | u8 kind | ... —
  // corrupt the kind byte to an unknown discriminant.
  bytes[9] = 0x7F;
  BatchFrame out;
  EXPECT_FALSE(decodeBatch(extractOne(bytes), out));
}

TEST(ServeProtocol, BatchDecoderRejectsOverCount) {
  // A count above kMaxBatchOps is rejected before any op is read — the
  // body here deliberately contains zero ops.
  BatchFrame empty;
  std::vector<std::uint8_t> bytes;
  appendBatch(bytes, empty);
  std::uint32_t count = static_cast<std::uint32_t>(kMaxBatchOps) + 1;
  for (int i = 0; i < 4; ++i) {
    bytes[5 + i] = static_cast<std::uint8_t>(count >> (8 * i));
  }
  BatchFrame out;
  EXPECT_FALSE(decodeBatch(extractOne(bytes), out));
}

TEST(ServeProtocol, TruncatedBatchBodiesRejected) {
  BatchFrame in;
  BatchOp place;
  place.place = PlaceFrame{0.5, 1.0, 2.0};
  BatchOp depart;
  depart.kind = kBatchOpDepart;
  depart.depart = DepartFrame{1.5};
  in.ops = {place, depart};
  std::vector<std::uint8_t> bytes;
  appendBatch(bytes, in);
  FrameView whole = extractOne(bytes);
  for (std::size_t n = 0; n < whole.payloadSize; ++n) {
    FrameView cut{whole.type, whole.payload, n};
    BatchFrame out;
    EXPECT_FALSE(decodeBatch(cut, out)) << "body length " << n;
  }
  BatchFrame out;
  EXPECT_TRUE(decodeBatch(whole, out));
}

TEST(ServeProtocol, TruncatedBatchOkBodiesRejected) {
  BatchOkFrame in;
  BatchResultEntry placed;
  placed.placed = PlacedFrame{3, 1, 0, 2};
  in.results = {placed};
  in.failed = 1;
  in.failedIndex = 1;
  in.errorCode = ErrorCode::kBadItem;
  in.errorMessage = "size must be positive";
  std::vector<std::uint8_t> bytes;
  appendBatchOk(bytes, in);
  FrameView whole = extractOne(bytes);
  for (std::size_t n = 0; n < whole.payloadSize; ++n) {
    FrameView cut{whole.type, whole.payload, n};
    BatchOkFrame out;
    EXPECT_FALSE(decodeBatchOk(cut, out)) << "body length " << n;
  }
  BatchOkFrame out;
  EXPECT_TRUE(decodeBatchOk(whole, out));
}

}  // namespace
}  // namespace cdbp::serve
