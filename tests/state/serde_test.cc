// The canonical binary encoding under checkpoints and the WAL: every typed
// round trip, the canonical-bytes property, and strict DataLoss on
// structurally damaged input.

#include "state/serde.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

namespace onesql {
namespace state {
namespace {

TEST(SerdeTest, ScalarRoundTrips) {
  Writer w;
  w.PutU8(0xAB);
  w.PutVarint(123456789);
  w.PutSigned(-123456789);
  w.PutBool(true);
  w.PutBool(false);
  w.PutDouble(3.141592653589793);
  w.PutString("hello, streams");
  w.PutTimestamp(Timestamp::FromHMS(8, 7));
  w.PutInterval(Interval::Minutes(10));

  Reader r(w.buffer());
  EXPECT_EQ(r.ReadU8().value(), 0xAB);
  EXPECT_EQ(r.ReadVarint().value(), 123456789u);
  EXPECT_EQ(r.ReadSigned().value(), -123456789);
  EXPECT_TRUE(r.ReadBool().value());
  EXPECT_FALSE(r.ReadBool().value());
  EXPECT_EQ(r.ReadDouble().value(), 3.141592653589793);
  EXPECT_EQ(r.ReadString().value(), "hello, streams");
  EXPECT_EQ(r.ReadTimestamp().value(), Timestamp::FromHMS(8, 7));
  EXPECT_EQ(r.ReadInterval().value(), Interval::Minutes(10));
  EXPECT_TRUE(r.ExpectEnd().ok());
}

TEST(SerdeTest, DoubleBitPatternsSurvive) {
  const std::vector<double> values = {0.0,
                                      -0.0,
                                      1.5,
                                      -1e308,
                                      std::numeric_limits<double>::infinity(),
                                      std::numeric_limits<double>::denorm_min()};
  Writer w;
  for (double v : values) w.PutDouble(v);
  w.PutDouble(std::nan(""));
  Reader r(w.buffer());
  for (double v : values) {
    EXPECT_EQ(r.ReadDouble().value(), v);
  }
  EXPECT_TRUE(std::isnan(r.ReadDouble().value()));
}

TEST(SerdeTest, ValueRoundTripsEveryTag) {
  const std::vector<Value> values = {
      Value::Null(),
      Value::Bool(true),
      Value::Int64(-42),
      Value::Double(2.5),
      Value::String("item4"),
      Value::Time(Timestamp::FromHMS(8, 13)),
      Value::Duration(Interval::Minutes(10)),
  };
  Writer w;
  for (const Value& v : values) w.PutValue(v);
  Reader r(w.buffer());
  for (const Value& v : values) {
    auto got = r.ReadValue();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, v);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerdeTest, RowRoundTrip) {
  const Row row = {Value::Time(Timestamp::FromHMS(8, 1)), Value::Int64(13),
                   Value::String("A"), Value::Null()};
  Writer w;
  w.PutRow(row);
  Reader r(w.buffer());
  EXPECT_TRUE(RowsEqual(r.ReadRow().value(), row));
  EXPECT_TRUE(r.ExpectEnd().ok());
}

TEST(SerdeTest, SchemaRoundTrip) {
  Schema schema({{"bidtime", DataType::kTimestamp, true},
                 {"price", DataType::kBigint},
                 {"item", DataType::kVarchar}});
  Writer w;
  w.PutSchema(schema);
  Reader r(w.buffer());
  auto got = r.ReadSchema();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, schema);
}

TEST(SerdeTest, NestedBlobs) {
  Writer inner;
  inner.PutString("nested");
  inner.PutVarint(7);
  Writer outer;
  outer.PutVarint(99);
  outer.PutBlob(inner);
  outer.PutString("after");

  Reader r(outer.buffer());
  EXPECT_EQ(r.ReadVarint().value(), 99u);
  auto blob = r.ReadBlob();
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(blob->ReadString().value(), "nested");
  EXPECT_EQ(blob->ReadVarint().value(), 7u);
  EXPECT_TRUE(blob->ExpectEnd().ok());
  // The outer reader resumes exactly past the blob.
  EXPECT_EQ(r.ReadString().value(), "after");
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerdeTest, CanonicalBytes) {
  // The same logical content must produce byte-identical buffers — the
  // property the recovery-equivalence tests lean on.
  auto encode = [] {
    Writer w;
    w.PutRow({Value::Int64(5), Value::String("x")});
    w.PutTimestamp(Timestamp::FromHMS(9, 30));
    return w.TakeBuffer();
  };
  EXPECT_EQ(encode(), encode());
}

TEST(SerdeTest, TruncationIsDataLossAtEveryCut) {
  Writer w;
  w.PutValue(Value::String("truncate me"));
  w.PutValue(Value::Double(1.25));
  const std::string full = w.buffer();
  for (size_t cut = 0; cut < full.size(); ++cut) {
    Reader r(std::string_view(full).substr(0, cut));
    // Reading both values must fail somewhere before the final cut.
    auto first = r.ReadValue();
    if (!first.ok()) {
      EXPECT_EQ(first.status().code(), StatusCode::kDataLoss);
      continue;
    }
    auto second = r.ReadValue();
    if (!second.ok()) {
      EXPECT_EQ(second.status().code(), StatusCode::kDataLoss);
      continue;
    }
    // Both decoded: the cut dropped nothing essential — then the reader must
    // be at a strict prefix and ExpectEnd distinguishes it.
    ADD_FAILURE() << "cut at " << cut << " decoded both values";
  }
}

TEST(SerdeTest, UnknownValueTagIsDataLoss) {
  std::string buf;
  buf.push_back(0x63);  // no such tag
  Reader r(buf);
  auto v = r.ReadValue();
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kDataLoss);
}

TEST(SerdeTest, ClockEventIsItsTagAndPtime) {
  FeedEvent clock;
  clock.kind = FeedEvent::Kind::kClock;
  clock.ptime = Timestamp(20'000);
  Writer w;
  w.PutFeedEvent(clock);
  Writer expect;
  expect.PutU8(3);
  expect.PutTimestamp(Timestamp(20'000));
  EXPECT_EQ(w.buffer(), expect.buffer());
  Reader r(w.buffer());
  auto event = r.ReadFeedEvent();
  ASSERT_TRUE(event.ok()) << event.status().ToString();
  EXPECT_EQ(event->kind, FeedEvent::Kind::kClock);
  EXPECT_EQ(event->ptime, Timestamp(20'000));
  EXPECT_TRUE(event->source.empty());
  EXPECT_TRUE(r.ExpectEnd().ok());

  std::string unknown;
  unknown.push_back(4);  // no such feed event kind
  Reader bad(unknown);
  EXPECT_EQ(bad.ReadFeedEvent().status().code(), StatusCode::kDataLoss);
}

TEST(SerdeTest, ImpossibleBlobLengthIsDataLoss) {
  std::string buf;
  Writer w;
  w.PutVarint(1u << 30);  // blob claims 1 GiB, buffer holds 3 bytes
  buf = w.TakeBuffer();
  buf += "abc";
  Reader r(buf);
  auto blob = r.ReadBlob();
  ASSERT_FALSE(blob.ok());
  EXPECT_EQ(blob.status().code(), StatusCode::kDataLoss);
}

TEST(SerdeTest, ExpectEndRejectsTrailingBytes) {
  Writer w;
  w.PutVarint(1);
  w.PutVarint(2);
  Reader r(w.buffer());
  EXPECT_TRUE(r.ReadVarint().ok());
  const Status s = r.ExpectEnd();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace state
}  // namespace onesql
