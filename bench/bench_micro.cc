// Experiment MICRO: component microbenchmarks — parse/bind/optimize cost,
// expression evaluation, retractable accumulators, window assignment, sink
// materialization.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "exec/accumulator.h"
#include "exec/change_batch.h"
#include "exec/expr_eval.h"
#include "exec/operators.h"
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
// The columnar feed history's typed lanes as a data source.
// ---------------------------------------------------------------------------

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
