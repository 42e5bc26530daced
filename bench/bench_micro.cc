// Experiment MICRO: component microbenchmarks — parse/bind/optimize cost,
// expression evaluation, retractable accumulators, window assignment, sink
// materialization.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "exec/accumulator.h"
#include "exec/change_batch.h"
#include "exec/expr_eval.h"
#include "exec/operators.h"
#include "exec/vector_kernels.h"
#include "plan/binder.h"
#include "plan/optimizer.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace onesql {
namespace bench {
namespace {

void BM_LexQ7(benchmark::State& state) {
  const std::string sql = PaperQ7();
  for (auto _ : state) {
    sql::Lexer lexer(sql);
    benchmark::DoNotOptimize(lexer.Tokenize());
  }
}
BENCHMARK(BM_LexQ7);

void BM_ParseQ7(benchmark::State& state) {
  const std::string sql = PaperQ7();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sql::Parser::Parse(sql));
  }
}
BENCHMARK(BM_ParseQ7);

void BM_BindAndOptimizeQ7(benchmark::State& state) {
  plan::Catalog catalog;
  if (!catalog.Register(plan::TableDef{"Bid", PaperBidSchema(), true}).ok()) {
    std::abort();
  }
  auto stmt = sql::Parser::Parse(PaperQ7());
  if (!stmt.ok()) std::abort();
  for (auto _ : state) {
    plan::Binder binder(&catalog);
    auto plan = binder.Bind(**stmt);
    if (!plan.ok()) std::abort();
    benchmark::DoNotOptimize(plan::Optimizer::Optimize(&*plan));
  }
}
BENCHMARK(BM_BindAndOptimizeQ7);

void BM_EvalArithmeticExpr(benchmark::State& state) {
  // (#0 + 1) * 2 < #1
  using plan::BoundExpr;
  using plan::ScalarOp;
  std::vector<plan::BoundExprPtr> add_children;
  add_children.push_back(BoundExpr::InputRef(0, DataType::kBigint));
  add_children.push_back(BoundExpr::Literal(Value::Int64(1)));
  std::vector<plan::BoundExprPtr> mul_children;
  mul_children.push_back(BoundExpr::Op(ScalarOp::kAdd, DataType::kBigint,
                                       std::move(add_children)));
  mul_children.push_back(BoundExpr::Literal(Value::Int64(2)));
  std::vector<plan::BoundExprPtr> cmp_children;
  cmp_children.push_back(BoundExpr::Op(ScalarOp::kMul, DataType::kBigint,
                                       std::move(mul_children)));
  cmp_children.push_back(BoundExpr::InputRef(1, DataType::kBigint));
  auto expr = BoundExpr::Op(ScalarOp::kLt, DataType::kBoolean,
                            std::move(cmp_children));

  const Row row = {Value::Int64(21), Value::Int64(100)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec::EvalExpr(*expr, row));
  }
}
BENCHMARK(BM_EvalArithmeticExpr);

void BM_AccumulatorAddRetract(benchmark::State& state) {
  plan::AggregateCall call;
  call.fn = static_cast<plan::AggFn>(state.range(0));
  call.result_type =
      call.fn == plan::AggFn::kAvg ? DataType::kDouble : DataType::kBigint;
  auto acc = exec::MakeAccumulator(call);
  if (!acc.ok()) std::abort();
  int64_t i = 0;
  for (auto _ : state) {
    (void)(*acc)->Add(Value::Int64(i % 1000));
    if (i > 100) {
      (void)(*acc)->Retract(Value::Int64((i - 100) % 1000));
    }
    ++i;
  }
  benchmark::DoNotOptimize((*acc)->Current());
}
BENCHMARK(BM_AccumulatorAddRetract)
    ->Arg(static_cast<int>(plan::AggFn::kCountStar))
    ->Arg(static_cast<int>(plan::AggFn::kSum))
    ->Arg(static_cast<int>(plan::AggFn::kMax));

void BM_WindowAssignTumble(benchmark::State& state) {
  int64_t t = 0;
  for (auto _ : state) {
    t += 977;
    benchmark::DoNotOptimize(exec::WindowOperator::AssignWindows(
        Timestamp(t), Interval::Minutes(10), Interval::Minutes(10),
        Interval(0)));
  }
}
BENCHMARK(BM_WindowAssignTumble);

void BM_WindowAssignHop(benchmark::State& state) {
  int64_t t = 0;
  for (auto _ : state) {
    t += 977;
    benchmark::DoNotOptimize(exec::WindowOperator::AssignWindows(
        Timestamp(t), Interval::Minutes(10), Interval::Minutes(1),
        Interval(0)));
  }
}
BENCHMARK(BM_WindowAssignHop);

void BM_SinkInstantFlush(benchmark::State& state) {
  exec::SinkConfig config;
  config.version_key_columns = {0};
  exec::MaterializationSink sink(config);
  int64_t i = 0;
  for (auto _ : state) {
    Change change;
    change.kind = ChangeKind::kInsert;
    change.ptime = Timestamp(i);
    change.row = {Value::Int64(i % 64), Value::Int64(i)};
    (void)sink.OnElement(0, change);
    ++i;
  }
  benchmark::DoNotOptimize(sink.emissions().size());
}
BENCHMARK(BM_SinkInstantFlush);

// ---------------------------------------------------------------------------
// Scalar vs vectorized kernels (the changelog hot path). Each pair runs the
// same computation per-row through the Value interpreter and batch-at-a-time
// through the typed-lane kernels, parameterized by batch size: the feed path
// produces small batches (runs between consecutive watermarks), so the
// crossover matters as much as the asymptotic win.
// ---------------------------------------------------------------------------

plan::BoundExprPtr FilterBenchPredicate() {
  // price > 500 AND price % 7 <> 0
  using plan::BoundExpr;
  using plan::ScalarOp;
  std::vector<plan::BoundExprPtr> gt_children;
  gt_children.push_back(BoundExpr::InputRef(1, DataType::kBigint));
  gt_children.push_back(BoundExpr::Literal(Value::Int64(500)));
  std::vector<plan::BoundExprPtr> mod_children;
  mod_children.push_back(BoundExpr::InputRef(1, DataType::kBigint));
  mod_children.push_back(BoundExpr::Literal(Value::Int64(7)));
  std::vector<plan::BoundExprPtr> neq_children;
  neq_children.push_back(BoundExpr::Op(ScalarOp::kMod, DataType::kBigint,
                                       std::move(mod_children)));
  neq_children.push_back(BoundExpr::Literal(Value::Int64(0)));
  std::vector<plan::BoundExprPtr> and_children;
  and_children.push_back(
      BoundExpr::Op(ScalarOp::kGt, DataType::kBoolean, std::move(gt_children)));
  and_children.push_back(BoundExpr::Op(ScalarOp::kNeq, DataType::kBoolean,
                                       std::move(neq_children)));
  return plan::BoundExpr::Op(ScalarOp::kAnd, DataType::kBoolean,
                             std::move(and_children));
}

plan::BoundExprPtr ProjectBenchExpr() {
  // (price + 1) * 2
  using plan::BoundExpr;
  using plan::ScalarOp;
  std::vector<plan::BoundExprPtr> add_children;
  add_children.push_back(BoundExpr::InputRef(1, DataType::kBigint));
  add_children.push_back(BoundExpr::Literal(Value::Int64(1)));
  std::vector<plan::BoundExprPtr> mul_children;
  mul_children.push_back(BoundExpr::Op(ScalarOp::kAdd, DataType::kBigint,
                                       std::move(add_children)));
  mul_children.push_back(BoundExpr::Literal(Value::Int64(2)));
  return plan::BoundExpr::Op(ScalarOp::kMul, DataType::kBigint,
                             std::move(mul_children));
}

exec::ChangeBatch MakeBidBatch(size_t rows) {
  exec::ChangeBatch batch;
  batch.ResetForTypes(
      {DataType::kTimestamp, DataType::kBigint, DataType::kVarchar});
  batch.Reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    batch.AppendRow({Value::Time(Timestamp(static_cast<int64_t>(i))),
                     Value::Int64(static_cast<int64_t>(i * 37 % 1000)),
                     Value::String("item")},
                    +1, Timestamp(static_cast<int64_t>(i)));
  }
  return batch;
}

void BM_FilterKernelScalar(benchmark::State& state) {
  const auto expr = FilterBenchPredicate();
  const auto batch = MakeBidBatch(static_cast<size_t>(state.range(0)));
  Row scratch;
  size_t kept = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < batch.num_rows; ++i) {
      batch.MaterializeRow(i, &scratch);
      auto pass = exec::EvalPredicate(*expr, scratch);
      if (!pass.ok()) std::abort();
      kept += *pass;
    }
  }
  benchmark::DoNotOptimize(kept);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.num_rows));
}
BENCHMARK(BM_FilterKernelScalar)->Arg(8)->Arg(64)->Arg(1024);

void BM_FilterKernelVectorized(benchmark::State& state) {
  const auto expr = FilterBenchPredicate();
  const auto batch = MakeBidBatch(static_cast<size_t>(state.range(0)));
  std::vector<uint8_t> keep;
  size_t kept = 0;
  for (auto _ : state) {
    if (!exec::EvalPredicateBatch(*expr, batch, &keep)) std::abort();
    for (uint8_t k : keep) kept += k;
  }
  benchmark::DoNotOptimize(kept);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.num_rows));
}
BENCHMARK(BM_FilterKernelVectorized)->Arg(8)->Arg(64)->Arg(1024);

void BM_ProjectKernelScalar(benchmark::State& state) {
  const auto expr = ProjectBenchExpr();
  const auto batch = MakeBidBatch(static_cast<size_t>(state.range(0)));
  Row scratch;
  for (auto _ : state) {
    for (size_t i = 0; i < batch.num_rows; ++i) {
      batch.MaterializeRow(i, &scratch);
      auto v = exec::EvalExpr(*expr, scratch);
      if (!v.ok()) std::abort();
      benchmark::DoNotOptimize(*v);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.num_rows));
}
BENCHMARK(BM_ProjectKernelScalar)->Arg(8)->Arg(64)->Arg(1024);

void BM_ProjectKernelVectorized(benchmark::State& state) {
  const auto expr = ProjectBenchExpr();
  const auto batch = MakeBidBatch(static_cast<size_t>(state.range(0)));
  exec::ColumnVector out;
  for (auto _ : state) {
    if (!exec::EvalExprBatch(*expr, batch, &out)) std::abort();
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.num_rows));
}
BENCHMARK(BM_ProjectKernelVectorized)->Arg(8)->Arg(64)->Arg(1024);

void BM_HashKernelScalar(benchmark::State& state) {
  const auto batch = MakeBidBatch(static_cast<size_t>(state.range(0)));
  Row scratch;
  size_t acc = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < batch.num_rows; ++i) {
      batch.MaterializeRow(i, &scratch);
      acc ^= HashRow(scratch);
    }
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.num_rows));
}
BENCHMARK(BM_HashKernelScalar)->Arg(8)->Arg(64)->Arg(1024);

void BM_HashKernelVectorized(benchmark::State& state) {
  const auto batch = MakeBidBatch(static_cast<size_t>(state.range(0)));
  std::vector<size_t> hashes;
  size_t acc = 0;
  for (auto _ : state) {
    exec::HashRowsBatch(batch, batch.columns, &hashes);
    for (size_t h : hashes) acc ^= h;
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.num_rows));
}
BENCHMARK(BM_HashKernelVectorized)->Arg(8)->Arg(64)->Arg(1024);

void BM_AccumulatorAddRetractColumn(benchmark::State& state) {
  // Add/retract driven from a typed i64 lane instead of boxed Values: the
  // accumulator API still takes a Value per call, so this measures the
  // columnar feed path's residual boxing cost against BM_AccumulatorAddRetract
  // (which starts from already-boxed rows).
  plan::AggregateCall call;
  call.fn = plan::AggFn::kSum;
  call.result_type = DataType::kBigint;
  auto acc = exec::MakeAccumulator(call);
  if (!acc.ok()) std::abort();
  const auto batch = MakeBidBatch(1024);
  const std::vector<int64_t>& lane = batch.columns[1].i64();
  for (auto _ : state) {
    for (size_t i = 0; i < lane.size(); ++i) {
      (void)(*acc)->Add(Value::Int64(lane[i]));
      if (i >= 100) (void)(*acc)->Retract(Value::Int64(lane[i - 100]));
    }
  }
  benchmark::DoNotOptimize((*acc)->Current());
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_AccumulatorAddRetractColumn);

void BM_EndToEndFilterProject(benchmark::State& state) {
  Engine engine;
  if (!engine.RegisterStream("Bid", PaperBidSchema()).ok()) std::abort();
  auto q = engine.Execute(
      "SELECT bidtime, price * 2 AS p2 FROM Bid WHERE price > 500");
  if (!q.ok()) std::abort();
  int64_t i = 0;
  for (auto _ : state) {
    ++i;
    (void)engine.Insert("Bid", Timestamp(i),
                        {Value::Time(Timestamp(i)), Value::Int64(i % 1000),
                         Value::String("x")});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EndToEndFilterProject);

}  // namespace
}  // namespace bench
}  // namespace onesql

ONESQL_BENCH_MAIN("micro")
