// Ablation study of the optimizer rules called out in DESIGN.md: what each
// rule buys on the paper's Q7 pipeline.
//
//   full        — pushdown + equi-key extraction + watermark purge
//   no-purge    — hash join, but state never released
//   unoptimized — the binder's raw plan: cross join with the whole WHERE
//                 evaluated above it (nested-loop behavior, no purge)

#include <benchmark/benchmark.h>

#include <chrono>
#include <random>

#include "bench/bench_util.h"
#include "plan/binder.h"
#include "plan/optimizer.h"
#include "sql/parser.h"

namespace onesql {
namespace bench {
namespace {

enum class Variant { kFull, kNoPurge, kUnoptimized };

const char* VariantName(Variant v) {
  switch (v) {
    case Variant::kFull: return "full optimizer";
    case Variant::kNoPurge: return "no watermark purge";
    case Variant::kUnoptimized: return "unoptimized (cross join + filter)";
  }
  return "?";
}

void StripPurges(plan::LogicalNode* node) {
  switch (node->kind()) {
    case plan::LogicalNode::Kind::kJoin: {
      auto* join = static_cast<plan::JoinNode*>(node);
      join->clear_purges();
      StripPurges(join->mutable_left().get());
      StripPurges(join->mutable_right().get());
      break;
    }
    case plan::LogicalNode::Kind::kFilter:
      StripPurges(
          static_cast<plan::FilterNode*>(node)->mutable_input().get());
      break;
    case plan::LogicalNode::Kind::kProject:
      StripPurges(
          static_cast<plan::ProjectNode*>(node)->mutable_input().get());
      break;
    case plan::LogicalNode::Kind::kWindow:
      StripPurges(
          static_cast<plan::WindowNode*>(node)->mutable_input().get());
      break;
    case plan::LogicalNode::Kind::kAggregate:
      StripPurges(
          static_cast<plan::AggregateNode*>(node)->mutable_input().get());
      break;
    default:
      break;
  }
}

std::unique_ptr<exec::Dataflow> BuildVariant(const plan::Catalog& catalog,
                                             Variant variant) {
  auto stmt = sql::Parser::Parse(PaperQ7());
  if (!stmt.ok()) std::abort();
  plan::Binder binder(&catalog);
  auto plan = binder.Bind(**stmt);
  if (!plan.ok()) std::abort();
  if (variant != Variant::kUnoptimized) {
    if (!plan::Optimizer::Optimize(&*plan).ok()) std::abort();
    if (variant == Variant::kNoPurge) StripPurges(plan->root.get());
  }
  auto flow = exec::Dataflow::Build(std::move(*plan));
  if (!flow.ok()) std::abort();
  return std::move(*flow);
}

struct Feed {
  size_t num_bids = 0;
  /// Bids and watermarks (ptime-ordered) chunked once, outside the timed
  /// region, in the form the runtime ingests.
  std::vector<exec::InputChunk> chunks;
  std::vector<const exec::InputChunk*> refs;
};

Feed MakeFeed(int n) {
  std::mt19937 rng(3);
  Feed feed;
  exec::ChunkBuilder builder(&feed.chunks);
  int64_t event_time = T(8, 0).millis();
  Timestamp ptime = T(8, 0);
  for (int i = 0; i < n; ++i) {
    event_time += 1 + static_cast<int64_t>(rng() % 4000);
    ptime = ptime + Interval::Millis(10);
    builder.AddElement("Bid",
                       {Value::Time(Timestamp(event_time)),
                        Value::Int64(1 + static_cast<int64_t>(rng() % 500)),
                        Value::String("x")},
                       +1, ptime);
    if (i % 20 == 19) {
      builder.AddWatermark("Bid", Timestamp(event_time) - Interval::Seconds(5),
                           ptime + Interval::Millis(1));
    }
  }
  feed.num_bids = static_cast<size_t>(n);
  for (const exec::InputChunk& chunk : feed.chunks) feed.refs.push_back(&chunk);
  return feed;
}

struct RunResult {
  double events_per_sec = 0;
  size_t join_rows = 0;
  size_t state_bytes = 0;
};

RunResult Run(Variant variant, const Feed& feed,
              const plan::Catalog& catalog) {
  auto flow = BuildVariant(catalog, variant);
  const auto start = std::chrono::steady_clock::now();
  if (!flow->PushChunks(feed.refs).ok()) std::abort();
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  RunResult out;
  out.events_per_sec = static_cast<double>(feed.num_bids) / secs;
  for (const auto* join : flow->joins()) {
    out.join_rows += join->left_rows() + join->right_rows();
  }
  out.state_bytes = flow->StateBytes();
  return out;
}

void PrintAblation() {
  plan::Catalog catalog;
  if (!catalog.Register(plan::TableDef{"Bid", PaperBidSchema(), true}).ok()) {
    std::abort();
  }
  const int kEvents = 3000;
  const Feed feed = MakeFeed(kEvents);
  PrintSection("Optimizer ablation on Q7 (" + std::to_string(kEvents) +
               " bids, 10-minute windows)");
  std::printf("%-36s %14s %12s %14s\n", "variant", "events/s", "join rows",
              "state bytes");
  for (Variant v :
       {Variant::kFull, Variant::kNoPurge, Variant::kUnoptimized}) {
    const RunResult r = Run(v, feed, catalog);
    std::printf("%-36s %14.0f %12zu %14zu\n", VariantName(v),
                r.events_per_sec, r.join_rows, r.state_bytes);
  }
  std::printf(
      "(equi-key extraction turns the nested-loop cross join into a hash\n"
      " join; purge derivation additionally bounds the retained join "
      "state)\n");
}

void BM_Ablation(benchmark::State& state) {
  plan::Catalog catalog;
  if (!catalog.Register(plan::TableDef{"Bid", PaperBidSchema(), true}).ok()) {
    std::abort();
  }
  const Feed feed = MakeFeed(1000);
  const auto variant = static_cast<Variant>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Run(variant, feed, catalog));
  }
  state.SetItemsProcessed(state.iterations() * 1000);
  state.SetLabel(VariantName(variant));
}
BENCHMARK(BM_Ablation)->Arg(0)->Arg(1)->Arg(2);

}  // namespace
}  // namespace bench
}  // namespace onesql

int main(int argc, char** argv) {
  onesql::bench::PrintAblation();
  return onesql::bench::RunBenchmarksAndDumpJson("ablation", &argc, &argv[0]);
}
