// The operator-state indexes: the aggregate's completion index (a watermark
// visits only the groups it completes) and the join's purge index (a
// retraction finds its entry in O(1), a watermark visits only the rows it
// releases). Each case checks the operator's live state as well as its
// output, including across checkpoint restores.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "exec/dataflow.h"

namespace onesql {
namespace {

Timestamp T(int h, int m) { return Timestamp::FromHMS(h, m); }

Schema StreamSchema(const char* value_name) {
  return Schema({{"t", DataType::kTimestamp, /*is_event_time=*/true},
                 {"k", DataType::kBigint},
                 {value_name, DataType::kBigint}});
}

Row R(Timestamp t, int64_t k, int64_t v) {
  return {Value::Time(t), Value::Int64(k), Value::Int64(v)};
}

FeedEvent Ins(const char* source, Timestamp ptime, Row row) {
  FeedEvent e;
  e.kind = FeedEvent::Kind::kInsert;
  e.source = source;
  e.ptime = ptime;
  e.row = std::move(row);
  return e;
}

FeedEvent Del(const char* source, Timestamp ptime, Row row) {
  FeedEvent e = Ins(source, ptime, std::move(row));
  e.kind = FeedEvent::Kind::kDelete;
  return e;
}

FeedEvent Wm(const char* source, Timestamp ptime, Timestamp mark) {
  FeedEvent e;
  e.kind = FeedEvent::Kind::kWatermark;
  e.source = source;
  e.ptime = ptime;
  e.watermark = mark;
  return e;
}

/// Builds `sql` over streams S(t, k, v), A(t, k, v), B(t, k, w) and P(t, u,
/// v), whose `t` and `u` are both event-time columns.
std::unique_ptr<exec::Dataflow> Build(const std::string& sql,
                                      Interval lateness = Interval(0)) {
  Engine engine;
  EXPECT_TRUE(engine.RegisterStream("S", StreamSchema("v")).ok());
  EXPECT_TRUE(engine.RegisterStream("A", StreamSchema("v")).ok());
  EXPECT_TRUE(engine.RegisterStream("B", StreamSchema("w")).ok());
  EXPECT_TRUE(engine
                  .RegisterStream(
                      "P", Schema({{"t", DataType::kTimestamp, true},
                                   {"u", DataType::kTimestamp, true},
                                   {"v", DataType::kBigint}}))
                  .ok());
  auto plan = engine.Plan(sql);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  plan->allowed_lateness = lateness;
  auto flow = exec::Dataflow::Build(std::move(*plan));
  EXPECT_TRUE(flow.ok()) << flow.status().ToString();
  return std::move(*flow);
}

/// Pushes `feed[begin, end)` as one PushChunks call.
Status Push(exec::Dataflow* flow, const std::vector<FeedEvent>& feed,
            size_t begin, size_t end) {
  std::vector<exec::InputChunk> chunks;
  exec::ChunkBuilder builder(&chunks);
  for (size_t i = begin; i < end; ++i) {
    const FeedEvent& e = feed[i];
    if (e.kind == FeedEvent::Kind::kWatermark) {
      builder.AddWatermark(e.source, e.watermark, e.ptime);
    } else {
      builder.AddElement(e.source, e.row,
                         e.kind == FeedEvent::Kind::kInsert ? +1 : -1,
                         e.ptime);
    }
  }
  std::vector<const exec::InputChunk*> refs;
  for (const exec::InputChunk& chunk : chunks) refs.push_back(&chunk);
  return flow->PushChunks(refs);
}

Status Push(exec::Dataflow* flow, const std::vector<FeedEvent>& feed) {
  return Push(flow, feed, 0, feed.size());
}

size_t NumGroups(const exec::Dataflow& flow) {
  size_t n = 0;
  for (const auto* agg : flow.aggregates()) n += agg->NumGroups();
  return n;
}

int64_t LateDrops(const exec::Dataflow& flow) {
  int64_t n = 0;
  for (const auto* agg : flow.aggregates()) n += agg->late_drops();
  return n;
}

size_t LeftRows(const exec::Dataflow& flow) {
  size_t n = 0;
  for (const auto* join : flow.joins()) n += join->left_rows();
  return n;
}

size_t RightRows(const exec::Dataflow& flow) {
  size_t n = 0;
  for (const auto* join : flow.joins()) n += join->right_rows();
  return n;
}

void ExpectSameEmissions(const exec::Dataflow& got,
                         const exec::Dataflow& want) {
  const auto& g = got.sink().emissions();
  const auto& w = want.sink().emissions();
  ASSERT_EQ(g.size(), w.size());
  for (size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(g[i].ToString(), w[i].ToString()) << "emission " << i;
  }
}

constexpr const char* kKeyedSum =
    "SELECT k, wend, SUM(v) AS total "
    "FROM Tumble(data => TABLE(S), timecol => DESCRIPTOR(t), "
    "dur => INTERVAL '10' MINUTES) w GROUP BY k, wend";

// Equating the event times makes `t` an equi key with zero slack, so both
// join sides purge a row once the combined watermark reaches its `t`.
constexpr const char* kTimedJoin =
    "SELECT a.k AS k, a.t AS t, a.v AS v, b.w AS w "
    "FROM A a JOIN B b ON a.k = b.k AND a.t = b.t";

// ---------------------------------------------------------------------------
// Aggregate completion index
// ---------------------------------------------------------------------------

TEST(AggregateCompletionIndexTest, AllowedLatenessDefersCompletion) {
  auto flow = Build(kKeyedSum, Interval::Minutes(5));
  // Window [8:00, 8:10) of k=1, and a later window [8:20, 8:30).
  ASSERT_TRUE(Push(flow.get(), {Ins("S", T(9, 0), R(T(8, 1), 1, 1)),
                                Ins("S", T(9, 0), R(T(8, 21), 1, 5)),
                                Wm("S", T(9, 1), T(8, 12))})
                  .ok());
  // 8:12 minus 5 minutes of lateness has not reached 8:10: still open, and
  // a correction lands.
  EXPECT_EQ(NumGroups(*flow), 2u);
  ASSERT_TRUE(Push(flow.get(), {Ins("S", T(9, 2), R(T(8, 3), 1, 2))}).ok());
  EXPECT_EQ(LateDrops(*flow), 0);
  ASSERT_TRUE(Push(flow.get(), {Wm("S", T(9, 3), T(8, 15))}).ok());
  EXPECT_EQ(NumGroups(*flow), 1u);  // only [8:20, 8:30) is left
  ASSERT_TRUE(Push(flow.get(), {Ins("S", T(9, 4), R(T(8, 4), 1, 3))}).ok());
  EXPECT_EQ(LateDrops(*flow), 1);
  // insert 1, insert 5, then the correction's retract + insert.
  EXPECT_EQ(flow->sink().emissions().size(), 4u);
  ASSERT_TRUE(Push(flow.get(), {Wm("S", T(9, 5), T(8, 35))}).ok());
  EXPECT_EQ(NumGroups(*flow), 0u);
}

TEST(AggregateCompletionIndexTest, NullEventTimeKeys) {
  // A group whose only event-time key is NULL is complete at any
  // watermark: its input drops as late and no group is kept.
  auto single = Build("SELECT t, COUNT(*) AS n FROM S GROUP BY t");
  ASSERT_TRUE(Push(single.get(),
                   {Ins("S", T(9, 0), {Value::Null(), Value::Int64(1),
                                       Value::Int64(1)})})
                  .ok());
  EXPECT_EQ(NumGroups(*single), 0u);
  EXPECT_EQ(LateDrops(*single), 1);
  EXPECT_TRUE(single->sink().emissions().empty());

  // With two event-time keys, the NULL one is ignored: the group completes
  // once the watermark reaches the other.
  auto pair = Build("SELECT t, u, COUNT(*) AS n FROM P GROUP BY t, u");
  ASSERT_TRUE(Push(pair.get(),
                   {Ins("P", T(9, 0),
                        {Value::Null(), Value::Time(T(8, 10)), Value::Int64(1)}),
                    Ins("P", T(9, 0),
                        {Value::Time(T(8, 20)), Value::Null(), Value::Int64(1)}),
                    Wm("P", T(9, 1), T(8, 9))})
                  .ok());
  EXPECT_EQ(NumGroups(*pair), 2u);
  EXPECT_EQ(LateDrops(*pair), 0);
  ASSERT_TRUE(Push(pair.get(), {Wm("P", T(9, 2), T(8, 10))}).ok());
  EXPECT_EQ(NumGroups(*pair), 1u);
  ASSERT_TRUE(Push(pair.get(), {Wm("P", T(9, 3), T(8, 20))}).ok());
  EXPECT_EQ(NumGroups(*pair), 0u);
}

TEST(AggregateCompletionIndexTest, GroupEmptiedAndRecreatedCompletesOnce) {
  auto flow = Build(kKeyedSum);
  std::vector<FeedEvent> feed;
  // k=1 in [8:00, 8:10) empties and re-forms 50 times; k=2 in [8:10, 8:20)
  // stays live throughout.
  feed.push_back(Ins("S", T(9, 0), R(T(8, 15), 2, 7)));
  for (int i = 0; i < 50; ++i) {
    feed.push_back(Ins("S", T(9, 0), R(T(8, 1), 1, i)));
    feed.push_back(Del("S", T(9, 0), R(T(8, 1), 1, i)));
  }
  feed.push_back(Ins("S", T(9, 0), R(T(8, 2), 1, 100)));
  ASSERT_TRUE(Push(flow.get(), feed).ok());
  EXPECT_EQ(NumGroups(*flow), 2u);

  ASSERT_TRUE(Push(flow.get(), {Wm("S", T(9, 1), T(8, 10))}).ok());
  EXPECT_EQ(NumGroups(*flow), 1u);
  // The completed group is gone for good: a late input is dropped, not
  // folded into a resurrected group.
  ASSERT_TRUE(Push(flow.get(), {Ins("S", T(9, 2), R(T(8, 3), 1, 1))}).ok());
  EXPECT_EQ(LateDrops(*flow), 1);
  EXPECT_EQ(NumGroups(*flow), 1u);
  ASSERT_TRUE(Push(flow.get(), {Wm("S", T(9, 3), T(8, 20))}).ok());
  EXPECT_EQ(NumGroups(*flow), 0u);
}

TEST(AggregateCompletionIndexTest, LoadStateRebuildsTheIndex) {
  std::vector<FeedEvent> feed;
  for (int i = 0; i < 60; ++i) {
    feed.push_back(Ins("S", T(9, 0) + Interval::Seconds(i),
                       R(T(8, 0) + Interval::Minutes(i % 30), i % 7, i)));
  }
  const size_t half = feed.size();
  for (int m = 5; m <= 40; m += 5) {
    feed.push_back(Wm("S", T(9, 1) + Interval::Minutes(m), T(8, m)));
  }
  auto reference = Build(kKeyedSum);
  ASSERT_TRUE(Push(reference.get(), feed).ok());
  EXPECT_EQ(NumGroups(*reference), 0u);

  auto saver = Build(kKeyedSum);
  ASSERT_TRUE(Push(saver.get(), feed, 0, half).ok());
  state::Writer saved;
  ASSERT_TRUE(saver->SaveState(&saved).ok());
  auto loader = Build(kKeyedSum);
  state::Reader r(saved.buffer());
  ASSERT_TRUE(loader->LoadState(&r).ok());
  EXPECT_EQ(NumGroups(*loader), NumGroups(*saver));
  // Each watermark must complete exactly the groups it completes on the
  // uninterrupted run, so the restored index holds every group.
  for (size_t i = half; i < feed.size(); ++i) {
    ASSERT_TRUE(Push(loader.get(), feed, i, i + 1).ok());
    ASSERT_TRUE(Push(saver.get(), feed, i, i + 1).ok());
    EXPECT_EQ(NumGroups(*loader), NumGroups(*saver)) << "event " << i;
  }
  ExpectSameEmissions(*loader, *reference);
}

// ---------------------------------------------------------------------------
// Join purge index
// ---------------------------------------------------------------------------

TEST(JoinPurgeIndexTest, MultiplicityAboveOne) {
  auto flow = Build(kTimedJoin);
  const Row a = R(T(8, 5), 1, 10);
  ASSERT_TRUE(Push(flow.get(), {Ins("A", T(9, 0), a), Ins("A", T(9, 0), a),
                                Ins("B", T(9, 1), R(T(8, 5), 1, 7))})
                  .ok());
  EXPECT_EQ(LeftRows(*flow), 2u);
  EXPECT_EQ(flow->sink().CurrentSnapshot().size(), 2u);

  // Retracting one copy keeps the row (and its purge entry) for the other.
  ASSERT_TRUE(Push(flow.get(), {Del("A", T(9, 2), a)}).ok());
  EXPECT_EQ(LeftRows(*flow), 1u);
  ASSERT_TRUE(Push(flow.get(), {Ins("B", T(9, 3), R(T(8, 5), 1, 8))}).ok());
  EXPECT_EQ(flow->sink().CurrentSnapshot().size(), 2u);  // 1x7 and 1x8

  // Both sides' watermarks pass 8:05: every instance of every row goes.
  ASSERT_TRUE(Push(flow.get(), {Wm("A", T(9, 4), T(8, 5)),
                                Wm("B", T(9, 4), T(8, 5))})
                  .ok());
  EXPECT_EQ(LeftRows(*flow), 0u);
  EXPECT_EQ(RightRows(*flow), 0u);
  const std::vector<Row> want = {
      {Value::Int64(1), Value::Time(T(8, 5)), Value::Int64(10),
       Value::Int64(7)},
      {Value::Int64(1), Value::Time(T(8, 5)), Value::Int64(10),
       Value::Int64(8)}};
  EXPECT_EQ(flow->sink().CurrentSnapshot(), want);
}

TEST(JoinPurgeIndexTest, ManyRowsSharingOneEventTime) {
  constexpr int kRows = 2000;
  auto flow = Build(kTimedJoin);
  std::vector<FeedEvent> feed;
  for (int i = 0; i < kRows; ++i) {
    feed.push_back(Ins("A", T(9, 0), R(T(8, 5), i, i)));   // shares 8:05
    feed.push_back(Ins("A", T(9, 0), R(T(8, 6), i, i)));   // shares 8:06
    if (i % 2 == 0) feed.push_back(Ins("B", T(9, 0), R(T(8, 6), i, -i)));
  }
  ASSERT_TRUE(Push(flow.get(), feed).ok());
  EXPECT_EQ(LeftRows(*flow), 2u * kRows);

  // Every 8:05 row is retracted; half of the 8:06 rows are.
  feed.clear();
  for (int i = 0; i < kRows; ++i) {
    feed.push_back(Del("A", T(9, 1), R(T(8, 5), i, i)));
    if (i % 4 < 2) feed.push_back(Del("A", T(9, 1), R(T(8, 6), i, i)));
  }
  ASSERT_TRUE(Push(flow.get(), feed).ok());
  EXPECT_EQ(LeftRows(*flow), static_cast<size_t>(kRows / 2));
  // Surviving 8:06 rows with an even key (i % 4 == 2) still match.
  EXPECT_EQ(flow->sink().CurrentSnapshot().size(),
            static_cast<size_t>(kRows / 4));

  // The watermark releases the rest.
  ASSERT_TRUE(Push(flow.get(), {Wm("A", T(9, 2), T(8, 6)),
                                Wm("B", T(9, 2), T(8, 6))})
                  .ok());
  EXPECT_EQ(LeftRows(*flow), 0u);
  EXPECT_EQ(RightRows(*flow), 0u);
  EXPECT_EQ(flow->sink().CurrentSnapshot().size(),
            static_cast<size_t>(kRows / 4));
}

TEST(JoinPurgeIndexTest, LoadStateRebuildsTheIndex) {
  // Rows on few event times and keys, with repeats and retractions.
  std::vector<FeedEvent> feed;
  std::vector<Row> live;
  for (int i = 0; i < 240; ++i) {
    const Timestamp ptime = T(9, 0) + Interval::Seconds(i);
    const Timestamp t = T(8, 0) + Interval::Minutes(i / 40);
    const char* source = i % 3 == 0 ? "B" : "A";
    if (i % 5 == 4 && !live.empty()) {
      feed.push_back(Del("A", ptime, live.back()));
      live.pop_back();
    } else {
      const Row row = R(t, i % 6, i % 4);
      feed.push_back(Ins(source, ptime, row));
      if (source[0] == 'A') live.push_back(row);
    }
    if (i % 40 == 39) {
      for (const char* s : {"A", "B"}) feed.push_back(Wm(s, ptime, t));
      live.clear();  // purged: never retracted again
    }
  }
  // Mid-block, so live rows (and purge entries) are checkpointed.
  const size_t half = feed.size() / 2 + 10;
  auto reference = Build(kTimedJoin);
  ASSERT_TRUE(Push(reference.get(), feed).ok());

  auto saver = Build(kTimedJoin);
  ASSERT_TRUE(Push(saver.get(), feed, 0, half).ok());
  ASSERT_GT(LeftRows(*saver), 0u);
  state::Writer saved;
  ASSERT_TRUE(saver->SaveState(&saved).ok());
  auto loader = Build(kTimedJoin);
  state::Reader r(saved.buffer());
  ASSERT_TRUE(loader->LoadState(&r).ok());
  EXPECT_EQ(LeftRows(*loader), LeftRows(*saver));
  EXPECT_EQ(RightRows(*loader), RightRows(*saver));
  EXPECT_EQ(loader->StateBytes(), saver->StateBytes());
  EXPECT_EQ(loader->sink().CurrentSnapshot(), saver->sink().CurrentSnapshot());

  // The state re-encodes to the saved bytes: the purge index is rebuilt from
  // the rows, and the encoding depends on the rows alone.
  state::Writer again;
  ASSERT_TRUE(loader->SaveState(&again).ok());
  EXPECT_EQ(again.buffer(), saved.buffer());

  ASSERT_TRUE(Push(loader.get(), feed, half, feed.size()).ok());
  ExpectSameEmissions(*loader, *reference);
  EXPECT_EQ(loader->sink().CurrentSnapshot(),
            reference->sink().CurrentSnapshot());
  EXPECT_EQ(LeftRows(*loader), LeftRows(*reference));
}

}  // namespace
}  // namespace onesql
