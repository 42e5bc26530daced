// Unit coverage for the columnar feed history (DESIGN.md §14): the
// ColumnVector lane/demotion rules, ChangeBatch row round-trips and the
// ChunkBuilder's run rule. The end-to-end seam (one Feed call versus one
// call per event) is covered by the fuzz oracles and parallel_test.

#include "exec/change_batch.h"

#include <gtest/gtest.h>

#include <vector>

namespace onesql {
namespace exec {
namespace {

TEST(ColumnVectorTest, TypedLanesRoundTripExactValues) {
  ColumnVector col;
  col.Reset(DataType::kBigint);
  EXPECT_EQ(col.lane(), ColumnVector::Lane::kI64);
  col.Append(Value::Int64(7));
  col.Append(Value::Null());
  col.Append(Value::Int64(-3));
  ASSERT_EQ(col.size(), 3u);
  EXPECT_TRUE(col.ValueAt(0) == Value::Int64(7));
  EXPECT_TRUE(col.ValueAt(1).is_null());
  EXPECT_FALSE(col.IsValid(1));
  EXPECT_TRUE(col.ValueAt(2) == Value::Int64(-3));

  ColumnVector d;
  d.Reset(DataType::kDouble);
  EXPECT_EQ(d.lane(), ColumnVector::Lane::kF64);
  d.Append(Value::Double(0.015625));
  EXPECT_TRUE(d.ValueAt(0) == Value::Double(0.015625));

  ColumnVector t;
  t.Reset(DataType::kTimestamp);
  EXPECT_EQ(t.lane(), ColumnVector::Lane::kI64);
  t.Append(Value::Time(Timestamp(-42)));
  EXPECT_TRUE(t.ValueAt(0) == Value::Time(Timestamp(-42)));
}

TEST(ColumnVectorTest, MismatchedTagDemotesToGenericKeepingPriorEntries) {
  ColumnVector col;
  col.Reset(DataType::kDouble);
  col.Append(Value::Double(1.5));
  col.Append(Value::Null());
  // A BIGINT value into a DOUBLE-declared column (implicit coercion admits
  // it at validation): the column falls back to exact Values.
  col.Append(Value::Int64(2));
  EXPECT_EQ(col.lane(), ColumnVector::Lane::kGeneric);
  EXPECT_TRUE(col.ValueAt(0) == Value::Double(1.5));
  EXPECT_TRUE(col.ValueAt(1).is_null());
  EXPECT_TRUE(col.ValueAt(2) == Value::Int64(2));
}

TEST(ColumnVectorTest, AssignToMatchesValueAt) {
  ColumnVector col;
  col.Reset(DataType::kVarchar);
  col.Append(Value::String("alpha"));
  col.Append(Value::Null());
  col.Append(Value::String("beta"));
  Value scratch = Value::String("previous-contents");
  for (size_t i = 0; i < col.size(); ++i) {
    col.AssignTo(i, &scratch);
    EXPECT_TRUE(scratch == col.ValueAt(i)) << "entry " << i;
  }
}

TEST(ChangeBatchTest, AppendRowRoundTripsRowsWeightsPtimes) {
  ChangeBatch batch;
  batch.ResetForTypes({DataType::kTimestamp, DataType::kBigint,
                       DataType::kVarchar});
  const Row r0 = {Value::Time(Timestamp(5)), Value::Int64(10),
                  Value::String("x")};
  const Row r1 = {Value::Time(Timestamp(6)), Value::Null(), Value::Null()};
  batch.AppendRow(r0, +1, Timestamp(100));
  batch.AppendRow(r1, -1, Timestamp(101));
  ASSERT_EQ(batch.num_rows, 2u);
  EXPECT_TRUE(RowsEqual(batch.RowAt(0), r0));
  EXPECT_TRUE(RowsEqual(batch.RowAt(1), r1));
  EXPECT_EQ(batch.weights[0], 1);
  EXPECT_EQ(batch.weights[1], -1);
  EXPECT_EQ(batch.ptimes[1], Timestamp(101));

  Change change;
  batch.MaterializeChange(1, &change);
  EXPECT_EQ(change.kind, ChangeKind::kDelete);
  EXPECT_TRUE(RowsEqual(change.row, r1));
}

TEST(ChunkBuilderTest, AnyWatermarkClosesRun) {
  std::vector<InputChunk> chunks;
  ChunkBuilder builder(&chunks);
  const Row row = {Value::Int64(1)};
  builder.AddElement("S", row, +1, Timestamp(1));
  builder.AddElement("S", row, +1, Timestamp(2));
  // Another source's watermark closes S's run, as does S's own.
  builder.AddWatermark("R", Timestamp(50), Timestamp(3));
  builder.AddElement("S", row, +1, Timestamp(4));
  builder.AddWatermark("S", Timestamp(60), Timestamp(5));
  builder.AddElement("S", row, -1, Timestamp(6));

  ASSERT_EQ(chunks.size(), 5u);
  EXPECT_EQ(chunks[0].kind, InputChunk::Kind::kRows);
  EXPECT_EQ(chunks[0].NumEvents(), 2u);
  EXPECT_EQ(chunks[0].MaxPtime(), Timestamp(2));
  EXPECT_EQ(chunks[1].kind, InputChunk::Kind::kWatermark);
  EXPECT_EQ(chunks[1].source, "R");
  EXPECT_EQ(chunks[1].NumEvents(), 1u);
  EXPECT_EQ(chunks[1].MaxPtime(), Timestamp(3));
  EXPECT_EQ(chunks[2].kind, InputChunk::Kind::kRows);
  EXPECT_EQ(chunks[2].batch.ptimes, (std::vector<Timestamp>{Timestamp(4)}));
  EXPECT_EQ(chunks[3].kind, InputChunk::Kind::kWatermark);
  EXPECT_EQ(chunks[3].source, "S");
  EXPECT_EQ(chunks[4].kind, InputChunk::Kind::kRows);
  EXPECT_EQ(chunks[4].batch.weights, (std::vector<int8_t>{-1}));
}

TEST(ChunkBuilderTest, OtherSourceElementClosesRun) {
  std::vector<InputChunk> chunks;
  ChunkBuilder builder(&chunks);
  const Row row = {Value::Int64(1)};
  builder.AddElement("S", row, +1, Timestamp(1));
  builder.AddElement("S", row, +1, Timestamp(2));
  builder.AddElement("R", row, +1, Timestamp(3));
  builder.AddElement("S", row, +1, Timestamp(4));

  // Reading the chunks in order, row after row, reads the feed in order.
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[0].source, "S");
  EXPECT_EQ(chunks[0].batch.ptimes,
            (std::vector<Timestamp>{Timestamp(1), Timestamp(2)}));
  EXPECT_EQ(chunks[1].source, "R");
  EXPECT_EQ(chunks[1].batch.ptimes, (std::vector<Timestamp>{Timestamp(3)}));
  EXPECT_EQ(chunks[2].source, "S");
  EXPECT_EQ(chunks[2].batch.ptimes, (std::vector<Timestamp>{Timestamp(4)}));
}

TEST(ChunkBuilderTest, DifferentSpellingClosesRun) {
  std::vector<InputChunk> chunks;
  ChunkBuilder builder(&chunks);
  const Row row = {Value::Int64(1)};
  builder.AddElement("Bid", row, +1, Timestamp(1));
  builder.AddElement("bid", row, +1, Timestamp(2));
  builder.AddElement("bid", row, +1, Timestamp(3));
  builder.AddElement("Bid", row, +1, Timestamp(4));

  // A chunk keeps its exact spelling (the checkpoint writes it back); all
  // of them route to the same lower-cased source.
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[0].source, "Bid");
  EXPECT_EQ(chunks[0].NumEvents(), 1u);
  EXPECT_EQ(chunks[1].source, "bid");
  EXPECT_EQ(chunks[1].NumEvents(), 2u);
  EXPECT_EQ(chunks[2].source, "Bid");
  EXPECT_EQ(chunks[2].NumEvents(), 1u);
  for (const InputChunk& chunk : chunks) EXPECT_EQ(chunk.source_lower, "bid");
}

TEST(ChunkBuilderTest, NeverExtendsAnEarlierBuildersChunk) {
  std::vector<InputChunk> chunks;
  const Row row = {Value::Int64(1)};
  {
    ChunkBuilder first(&chunks);
    first.AddElement("S", row, +1, Timestamp(1));
  }
  ChunkBuilder second(&chunks);
  second.AddElement("S", row, +1, Timestamp(2));
  second.AddElement("S", row, +1, Timestamp(3));

  // One builder per Feed call: a run never spans two calls.
  ASSERT_EQ(chunks.size(), 2u);
  EXPECT_EQ(chunks[0].NumEvents(), 1u);
  EXPECT_EQ(chunks[1].NumEvents(), 2u);
}

}  // namespace
}  // namespace exec
}  // namespace onesql
