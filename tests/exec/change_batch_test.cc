// Unit coverage for the columnar execution core (DESIGN.md §14): the
// ColumnVector lane/demotion rules, ChangeBatch row round-trips, the
// ChunkBuilder's run rule, and the vectorized kernels'
// exact agreement with the scalar evaluator — including the per-batch
// scalar-fallback rules. The end-to-end seam (whole-batch versus per-event
// dispatch) is covered by the fuzz oracles and parallel_test.

#include "exec/change_batch.h"

#include <gtest/gtest.h>

#include <vector>

#include "exec/expr_eval.h"
#include "exec/vector_kernels.h"
#include "plan/bound_expr.h"

namespace onesql {
namespace exec {
namespace {

using plan::BoundExpr;
using plan::BoundExprPtr;
using plan::ScalarOp;

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

  batch.PopRow();
  EXPECT_EQ(batch.num_rows, 1u);
  EXPECT_EQ(batch.columns[0].size(), 1u);

  ChangeBatch copy;
  copy.ResetLike(batch);
  copy.AppendRowFrom(batch, 0);
  EXPECT_TRUE(RowsEqual(copy.RowAt(0), r0));
  EXPECT_EQ(copy.ptimes[0], Timestamp(100));
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

// ---------------------------------------------------------------------------
// Vectorized kernels vs. the scalar evaluator
// ---------------------------------------------------------------------------

ChangeBatch TestBatch() {
  ChangeBatch batch;
  batch.ResetForTypes({DataType::kTimestamp, DataType::kBigint,
                       DataType::kDouble, DataType::kVarchar});
  int64_t n = 0;
  auto add = [&](int64_t ts, const Value& v, const Value& d, const Value& s) {
    batch.AppendRow({Value::Time(Timestamp(ts)), v, d, s}, n % 3 ? +1 : -1,
                    Timestamp(n));
    ++n;
  };
  add(0, Value::Int64(5), Value::Double(1.5), Value::String("a"));
  add(1, Value::Null(), Value::Double(-2.25), Value::Null());
  add(2, Value::Int64(-7), Value::Null(), Value::String(""));
  add(3, Value::Int64(0), Value::Double(0.0), Value::String("b"));
  add(4, Value::Int64(100), Value::Double(64.0), Value::Null());
  return batch;
}

BoundExprPtr Ref(int col, DataType type) {
  return BoundExpr::InputRef(col, type);
}

BoundExprPtr Op2(ScalarOp op, DataType out, BoundExprPtr a, BoundExprPtr b) {
  std::vector<BoundExprPtr> children;
  children.push_back(std::move(a));
  children.push_back(std::move(b));
  return BoundExpr::Op(op, out, std::move(children));
}

void ExpectKernelMatchesScalar(const BoundExpr& expr, const ChangeBatch& batch) {
  ColumnVector out;
  ASSERT_TRUE(EvalExprBatch(expr, batch, &out));
  ASSERT_EQ(out.size(), batch.num_rows);
  Row scratch;
  for (size_t i = 0; i < batch.num_rows; ++i) {
    batch.MaterializeRow(i, &scratch);
    auto scalar = EvalExpr(expr, scratch);
    ASSERT_TRUE(scalar.ok());
    EXPECT_TRUE(out.ValueAt(i) == *scalar)
        << "row " << i << ": kernel " << out.ValueAt(i).ToString()
        << " vs scalar " << scalar->ToString();
  }
}

TEST(VectorKernelTest, ArithmeticComparisonAndLogicMatchScalarEval) {
  const ChangeBatch batch = TestBatch();
  // (v + 1) * 2, with NULL propagation.
  ExpectKernelMatchesScalar(
      *Op2(ScalarOp::kMul, DataType::kBigint,
           Op2(ScalarOp::kAdd, DataType::kBigint, Ref(1, DataType::kBigint),
               BoundExpr::Literal(Value::Int64(1))),
           BoundExpr::Literal(Value::Int64(2))),
      batch);
  // Mixed-type widening: v + d.
  ExpectKernelMatchesScalar(
      *Op2(ScalarOp::kAdd, DataType::kDouble, Ref(1, DataType::kBigint),
           Ref(2, DataType::kDouble)),
      batch);
  // Ternary logic over comparisons with NULL operands.
  ExpectKernelMatchesScalar(
      *Op2(ScalarOp::kAnd, DataType::kBoolean,
           Op2(ScalarOp::kGt, DataType::kBoolean, Ref(1, DataType::kBigint),
               BoundExpr::Literal(Value::Int64(0))),
           Op2(ScalarOp::kLt, DataType::kBoolean, Ref(2, DataType::kDouble),
               BoundExpr::Literal(Value::Double(2.0)))),
      batch);
}

TEST(VectorKernelTest, PredicateMatchesScalarTernarySemantics) {
  const ChangeBatch batch = TestBatch();
  // v % 3 <> 0: literal divisor, so the kernel covers it.
  const auto pred =
      Op2(ScalarOp::kNeq, DataType::kBoolean,
          Op2(ScalarOp::kMod, DataType::kBigint, Ref(1, DataType::kBigint),
              BoundExpr::Literal(Value::Int64(3))),
          BoundExpr::Literal(Value::Int64(0)));
  std::vector<uint8_t> keep;
  ASSERT_TRUE(EvalPredicateBatch(*pred, batch, &keep));
  ASSERT_EQ(keep.size(), batch.num_rows);
  Row scratch;
  for (size_t i = 0; i < batch.num_rows; ++i) {
    batch.MaterializeRow(i, &scratch);
    auto scalar = EvalPredicate(*pred, scratch);
    ASSERT_TRUE(scalar.ok());
    EXPECT_EQ(keep[i] != 0, *scalar) << "row " << i;
  }
}

TEST(VectorKernelTest, FallsBackPerBatchOnDemotedColumnAndPerExprOnDivision) {
  // Same expression, two batches: typed lane -> kernel runs; demoted lane
  // (an int fed into the DOUBLE column) -> kernel declines this batch.
  const auto expr = Op2(ScalarOp::kAdd, DataType::kDouble,
                        Ref(2, DataType::kDouble),
                        BoundExpr::Literal(Value::Double(1.0)));
  ChangeBatch typed = TestBatch();
  ColumnVector out;
  EXPECT_TRUE(EvalExprBatch(*expr, typed, &out));

  ChangeBatch demoted = TestBatch();
  demoted.AppendRow({Value::Time(Timestamp(9)), Value::Int64(1),
                     Value::Int64(2), Value::Null()},
                    +1, Timestamp(9));
  ASSERT_EQ(demoted.columns[2].lane(), ColumnVector::Lane::kGeneric);
  EXPECT_FALSE(EvalExprBatch(*expr, demoted, &out));

  // Division by a column (could be zero at runtime) is outside the subset.
  const auto div = Op2(ScalarOp::kDiv, DataType::kBigint,
                       BoundExpr::Literal(Value::Int64(10)),
                       Ref(1, DataType::kBigint));
  EXPECT_FALSE(EvalExprBatch(*div, typed, &out));
  // Division by a non-zero literal is inside it.
  const auto div_lit = Op2(ScalarOp::kDiv, DataType::kBigint,
                           Ref(1, DataType::kBigint),
                           BoundExpr::Literal(Value::Int64(4)));
  ExpectKernelMatchesScalar(*div_lit, TestBatch());
}

TEST(VectorKernelTest, HashRowsBatchMatchesHashRowOverKeyRows) {
  const ChangeBatch batch = TestBatch();
  // Key = (v, item): one typed lane, one generic lane.
  std::vector<ColumnVector> key_columns = {batch.columns[1],
                                           batch.columns[3]};
  std::vector<size_t> hashes;
  HashRowsBatch(batch, key_columns, &hashes);
  ASSERT_EQ(hashes.size(), batch.num_rows);
  for (size_t i = 0; i < batch.num_rows; ++i) {
    const Row key = {key_columns[0].ValueAt(i), key_columns[1].ValueAt(i)};
    EXPECT_EQ(hashes[i], HashRow(key)) << "row " << i;
  }
}

}  // namespace
}  // namespace exec
}  // namespace onesql
