#include "exec/sink.h"

#include <gtest/gtest.h>

namespace onesql {
namespace exec {
namespace {

Timestamp T(int h, int m) { return Timestamp::FromHMS(h, m); }

// Rows: (window_end TIMESTAMP, value BIGINT). Version key = {0}, the window
// end doubles as the completeness column.
Row R(int h, int m, int64_t v) {
  return {Value::Time(T(h, m)), Value::Int64(v)};
}

Change Ins(int ph, int pm, Row row) {
  return Change{ChangeKind::kInsert, std::move(row), T(ph, pm)};
}
Change Del(int ph, int pm, Row row) {
  return Change{ChangeKind::kDelete, std::move(row), T(ph, pm)};
}

SinkConfig GroupedConfig() {
  SinkConfig config;
  config.completeness_column = 0;
  config.version_key_columns = {0};
  return config;
}

TEST(SinkTest, InstantModeEmitsEveryChange) {
  MaterializationSink sink(GroupedConfig());
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 1, R(8, 10, 1))).ok());
  ASSERT_TRUE(sink.OnElement(0, Del(8, 2, R(8, 10, 1))).ok());
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 2, R(8, 10, 2))).ok());
  ASSERT_EQ(sink.emissions().size(), 3u);
  EXPECT_FALSE(sink.emissions()[0].undo);
  EXPECT_EQ(sink.emissions()[0].ver, 0);
  EXPECT_TRUE(sink.emissions()[1].undo);
  EXPECT_EQ(sink.emissions()[1].ver, 1);
  EXPECT_FALSE(sink.emissions()[2].undo);
  EXPECT_EQ(sink.emissions()[2].ver, 2);
}

TEST(SinkTest, VersionCountersAreIndependentPerKey) {
  MaterializationSink sink(GroupedConfig());
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 1, R(8, 10, 1))).ok());
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 2, R(8, 20, 9))).ok());
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 3, R(8, 10, 2))).ok());
  EXPECT_EQ(sink.emissions()[0].ver, 0);  // window 8:10, first change
  EXPECT_EQ(sink.emissions()[1].ver, 0);  // window 8:20, first change
  EXPECT_EQ(sink.emissions()[2].ver, 1);  // window 8:10, second change
}

TEST(SinkTest, SnapshotReflectsPtime) {
  MaterializationSink sink(GroupedConfig());
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 1, R(8, 10, 1))).ok());
  ASSERT_TRUE(sink.OnElement(0, Del(8, 5, R(8, 10, 1))).ok());
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 5, R(8, 10, 2))).ok());
  EXPECT_EQ(sink.SnapshotAt(T(8, 1)).size(), 1u);
  EXPECT_TRUE(RowsEqual(sink.SnapshotAt(T(8, 1))[0], R(8, 10, 1)));
  EXPECT_TRUE(RowsEqual(sink.SnapshotAt(T(8, 6))[0], R(8, 10, 2)));
  EXPECT_TRUE(sink.SnapshotAt(T(8, 0)).empty());
}

TEST(SinkTest, DeleteOfUnknownRowIsError) {
  MaterializationSink sink(GroupedConfig());
  EXPECT_FALSE(sink.OnElement(0, Del(8, 1, R(8, 10, 1))).ok());
}

TEST(SinkTest, AfterWatermarkHoldsUntilComplete) {
  SinkConfig config = GroupedConfig();
  config.after_watermark = true;
  MaterializationSink sink(config);

  ASSERT_TRUE(sink.OnElement(0, Ins(8, 1, R(8, 10, 1))).ok());
  ASSERT_TRUE(sink.OnElement(0, Del(8, 2, R(8, 10, 1))).ok());
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 2, R(8, 10, 2))).ok());
  EXPECT_TRUE(sink.emissions().empty());

  // Watermark below the window end: still nothing.
  ASSERT_TRUE(sink.AdvanceTo(T(8, 5), false).ok());
  ASSERT_TRUE(sink.OnWatermark(0, T(8, 9), T(8, 5)).ok());
  EXPECT_TRUE(sink.emissions().empty());

  // Watermark passes 8:10: only the *net* row materializes, at the
  // watermark arrival's processing time.
  ASSERT_TRUE(sink.AdvanceTo(T(8, 12), false).ok());
  ASSERT_TRUE(sink.OnWatermark(0, T(8, 11), T(8, 12)).ok());
  ASSERT_EQ(sink.emissions().size(), 1u);
  EXPECT_TRUE(RowsEqual(sink.emissions()[0].row, R(8, 10, 2)));
  EXPECT_FALSE(sink.emissions()[0].undo);
  EXPECT_EQ(sink.emissions()[0].ptime, T(8, 12));
  EXPECT_EQ(sink.emissions()[0].ver, 0);
}

TEST(SinkTest, AfterWatermarkDropsLateChanges) {
  SinkConfig config = GroupedConfig();
  config.after_watermark = true;
  MaterializationSink sink(config);
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 1, R(8, 10, 1))).ok());
  ASSERT_TRUE(sink.AdvanceTo(T(8, 12), false).ok());
  ASSERT_TRUE(sink.OnWatermark(0, T(8, 11), T(8, 12)).ok());
  ASSERT_EQ(sink.emissions().size(), 1u);
  // A change for the completed window is dropped.
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 13, R(8, 10, 7))).ok());
  EXPECT_EQ(sink.emissions().size(), 1u);
  EXPECT_EQ(sink.late_drops(), 1);
}

TEST(SinkTest, DelayCoalescesUpdates) {
  SinkConfig config = GroupedConfig();
  config.delay = Interval::Minutes(6);
  MaterializationSink sink(config);

  // Changes at 8:01 and 8:03 coalesce into one net emission at 8:07.
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 1, R(8, 10, 1))).ok());
  ASSERT_TRUE(sink.OnElement(0, Del(8, 3, R(8, 10, 1))).ok());
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 3, R(8, 10, 2))).ok());
  EXPECT_TRUE(sink.emissions().empty());

  ASSERT_TRUE(sink.AdvanceTo(T(8, 7), true).ok());
  ASSERT_EQ(sink.emissions().size(), 1u);
  EXPECT_TRUE(RowsEqual(sink.emissions()[0].row, R(8, 10, 2)));
  EXPECT_EQ(sink.emissions()[0].ptime, T(8, 7));
}

TEST(SinkTest, DelayTimerRearmsAfterFiring) {
  SinkConfig config = GroupedConfig();
  config.delay = Interval::Minutes(6);
  MaterializationSink sink(config);

  ASSERT_TRUE(sink.OnElement(0, Ins(8, 1, R(8, 10, 1))).ok());
  ASSERT_TRUE(sink.AdvanceTo(T(8, 7), true).ok());
  ASSERT_EQ(sink.emissions().size(), 1u);

  // A later change re-arms the timer from its own ptime.
  ASSERT_TRUE(sink.OnElement(0, Del(8, 9, R(8, 10, 1))).ok());
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 9, R(8, 10, 5))).ok());
  ASSERT_TRUE(sink.AdvanceTo(T(8, 14), true).ok());
  EXPECT_EQ(sink.emissions().size(), 1u);  // 8:15 deadline not reached
  ASSERT_TRUE(sink.AdvanceTo(T(8, 15), true).ok());
  ASSERT_EQ(sink.emissions().size(), 3u);
  EXPECT_TRUE(sink.emissions()[1].undo);
  EXPECT_EQ(sink.emissions()[1].ptime, T(8, 15));
  EXPECT_EQ(sink.emissions()[1].ver, 1);
  EXPECT_FALSE(sink.emissions()[2].undo);
  EXPECT_EQ(sink.emissions()[2].ver, 2);
}

TEST(SinkTest, ExclusiveAdvanceLeavesBoundaryTimer) {
  SinkConfig config = GroupedConfig();
  config.delay = Interval::Minutes(5);
  MaterializationSink sink(config);
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 0, R(8, 10, 1))).ok());
  // Exclusive advance to exactly the deadline: not fired yet.
  ASSERT_TRUE(sink.AdvanceTo(T(8, 5), false).ok());
  EXPECT_TRUE(sink.emissions().empty());
  // Inclusive advance fires it.
  ASSERT_TRUE(sink.AdvanceTo(T(8, 5), true).ok());
  EXPECT_EQ(sink.emissions().size(), 1u);
}

TEST(SinkTest, NoChangeNoEmissionOnDelayFire) {
  SinkConfig config = GroupedConfig();
  config.delay = Interval::Minutes(5);
  MaterializationSink sink(config);
  // Insert then delete the same row: net zero at the deadline.
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 0, R(8, 10, 1))).ok());
  ASSERT_TRUE(sink.OnElement(0, Del(8, 1, R(8, 10, 1))).ok());
  ASSERT_TRUE(sink.AdvanceTo(T(8, 10), true).ok());
  EXPECT_TRUE(sink.emissions().empty());
}

TEST(SinkTest, CombinedDelayAndWatermark) {
  SinkConfig config = GroupedConfig();
  config.delay = Interval::Minutes(5);
  config.after_watermark = true;
  MaterializationSink sink(config);

  ASSERT_TRUE(sink.OnElement(0, Ins(8, 0, R(8, 10, 1))).ok());
  // Early firing at 8:05.
  ASSERT_TRUE(sink.AdvanceTo(T(8, 6), false).ok());
  ASSERT_EQ(sink.emissions().size(), 1u);
  // Update, then the watermark completes the window before the next delay
  // deadline: on-time firing happens immediately.
  ASSERT_TRUE(sink.OnElement(0, Del(8, 7, R(8, 10, 1))).ok());
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 7, R(8, 10, 3))).ok());
  ASSERT_TRUE(sink.AdvanceTo(T(8, 8), false).ok());
  ASSERT_TRUE(sink.OnWatermark(0, T(8, 10), T(8, 8)).ok());
  ASSERT_EQ(sink.emissions().size(), 3u);
  EXPECT_TRUE(sink.emissions()[1].undo);
  EXPECT_EQ(sink.emissions()[1].ptime, T(8, 8));
  EXPECT_TRUE(RowsEqual(sink.emissions()[2].row, R(8, 10, 3)));
  // After completion, the pending delay timer must not fire again.
  ASSERT_TRUE(sink.AdvanceTo(T(9, 0), true).ok());
  EXPECT_EQ(sink.emissions().size(), 3u);
}

TEST(SinkTest, DelayTimerRespectsWatermarkGateForUnknownCompleteness) {
  // EMIT AFTER WATERMARK + AFTER DELAY, with the completeness column
  // distinct from the grouping key so completeness can become known late.
  SinkConfig config;
  config.after_watermark = true;
  config.delay = Interval::Minutes(5);
  config.completeness_column = 0;
  config.version_key_columns = {1};
  MaterializationSink sink(config);

  // A change arrives whose completeness timestamp is still NULL: the delay
  // timer must NOT materialize it (there is no watermark gate to have
  // passed). Previously the timer flushed it, leaking an ungated emission
  // and — because Flush advanced `last` — suppressing part of the eventual
  // on-time pane.
  Row unknown = {Value::Null(), Value::Int64(1)};
  ASSERT_TRUE(
      sink.OnElement(0, Change{ChangeKind::kInsert, unknown, T(8, 0)}).ok());
  ASSERT_TRUE(sink.AdvanceTo(T(8, 6), true).ok());
  EXPECT_TRUE(sink.emissions().empty());

  // Completeness becomes known (8:10) via a second change of the grouping.
  Row known = {Value::Time(T(8, 10)), Value::Int64(1)};
  ASSERT_TRUE(
      sink.OnElement(0, Change{ChangeKind::kInsert, known, T(8, 7)}).ok());
  // Until the watermark passes 8:10, nothing materializes (the re-armed
  // delay timer keeps being gated).
  ASSERT_TRUE(sink.AdvanceTo(T(8, 9), true).ok());
  EXPECT_TRUE(sink.emissions().empty());

  // Watermark passes: the on-time pane flushes the complete grouping.
  ASSERT_TRUE(sink.AdvanceTo(T(8, 12), false).ok());
  ASSERT_TRUE(sink.OnWatermark(0, T(8, 11), T(8, 12)).ok());
  ASSERT_EQ(sink.emissions().size(), 2u);
  EXPECT_EQ(sink.emissions()[0].ptime, T(8, 12));
  EXPECT_EQ(sink.emissions()[1].ptime, T(8, 12));

  // The stale delay timer must not re-materialize the completed grouping.
  ASSERT_TRUE(sink.AdvanceTo(T(9, 0), true).ok());
  EXPECT_EQ(sink.emissions().size(), 2u);
}

TEST(SinkTest, UpToDateSnapshotsDoNotReplayTheChangelog) {
  // Regression guard: SnapshotAt used to replay the whole changelog on
  // every call (O(history) per lookup). Up-to-date queries must now be
  // served from the incrementally maintained snapshot without touching the
  // changelog at all.
  MaterializationSink sink(GroupedConfig());
  constexpr int kChanges = 2000;
  for (int i = 0; i < kChanges; ++i) {
    const Change change{ChangeKind::kInsert, R(8, i % 50, i % 7),
                        Timestamp(i)};
    ASSERT_TRUE(sink.OnElement(0, change).ok());
  }
  const Timestamp latest(kChanges - 1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(sink.CurrentSnapshot().size(),
              static_cast<size_t>(kChanges));
    EXPECT_EQ(sink.SnapshotAt(latest).size(), static_cast<size_t>(kChanges));
    EXPECT_EQ(sink.SnapshotAt(Timestamp::Max()).size(),
              static_cast<size_t>(kChanges));
  }
  EXPECT_EQ(sink.changelog_entries_scanned(), 0);

  // Historical point-in-time queries replay only the bounded prefix.
  const auto historical = sink.SnapshotAt(Timestamp(49));
  EXPECT_EQ(historical.size(), 50u);
  EXPECT_EQ(sink.changelog_entries_scanned(), 50);
}

TEST(SinkTest, IncrementalSnapshotMatchesChangelogReplay) {
  // The incrementally maintained bag must render exactly what a full
  // changelog replay renders (same rows, same multiset order), including
  // across deletes that drop multiplicities back to zero.
  MaterializationSink sink(GroupedConfig());
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 1, R(8, 10, 1))).ok());
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 2, R(8, 10, 1))).ok());
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 3, R(8, 20, 2))).ok());
  ASSERT_TRUE(sink.OnElement(0, Del(8, 4, R(8, 10, 1))).ok());
  ASSERT_TRUE(sink.OnElement(0, Del(8, 5, R(8, 10, 1))).ok());
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 6, R(8, 5, 3))).ok());

  const std::vector<Row> current = sink.CurrentSnapshot();
  // Historical replay at the frontier must agree with the incremental bag.
  const std::vector<Row> replayed = sink.SnapshotAt(T(8, 5));
  ASSERT_EQ(current.size(), 2u);
  EXPECT_TRUE(RowsEqual(current[0], R(8, 5, 3)));
  EXPECT_TRUE(RowsEqual(current[1], R(8, 20, 2)));
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_TRUE(RowsEqual(replayed[0], R(8, 20, 2)));
}

TEST(SinkTest, WholeRowKeyWhenNoVersionColumns) {
  SinkConfig config;  // no version key, no completeness
  MaterializationSink sink(config);
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 1, R(8, 10, 1))).ok());
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 2, R(8, 10, 1))).ok());
  ASSERT_EQ(sink.emissions().size(), 2u);
  EXPECT_EQ(sink.emissions()[0].ver, 0);
  EXPECT_EQ(sink.emissions()[1].ver, 1);  // same row, same key
}

// EMIT AFTER WATERMARK + AFTER DELAY with the completeness column apart from
// the version key, so many keys can share one delay deadline while
// completing at different watermarks.
SinkConfig GatedDelayConfig() {
  SinkConfig config;
  config.after_watermark = true;
  config.delay = Interval::Minutes(5);
  config.completeness_column = 0;
  config.version_key_columns = {1};
  return config;
}

TEST(SinkTest, ReclaimingKeysThatShareADeadlineKeepsTheOtherTimers) {
  constexpr int kKeys = 4000;
  MaterializationSink sink(GatedDelayConfig());
  // Every key's first change lands at 8:00, so all timers share the 8:05
  // deadline. Even keys complete at 8:01, odd keys at 8:30.
  for (int k = 0; k < kKeys; ++k) {
    const Timestamp complete = k % 2 == 0 ? T(8, 1) : T(8, 30);
    ASSERT_TRUE(sink.OnElement(0, Ins(8, 0, {Value::Time(complete),
                                             Value::Int64(k)}))
                    .ok());
  }
  // The watermark fires the even keys' on-time panes and reclaims them,
  // timers included, before the shared deadline.
  ASSERT_TRUE(sink.AdvanceTo(T(8, 2), false).ok());
  ASSERT_TRUE(sink.OnWatermark(0, T(8, 1), T(8, 2)).ok());
  ASSERT_EQ(sink.emissions().size(), static_cast<size_t>(kKeys / 2));

  // A checkpoint here carries only the odd keys' timers, and restores them.
  state::Writer w;
  ASSERT_TRUE(sink.SaveState(&w).ok());
  MaterializationSink restored(GatedDelayConfig());
  state::Reader r(w.buffer());
  ASSERT_TRUE(restored.LoadState(&r, nullptr).ok());

  for (MaterializationSink* s : {&sink, &restored}) {
    // At the deadline exactly the odd keys fire their early panes, once.
    ASSERT_TRUE(s->AdvanceTo(T(8, 6), true).ok());
    ASSERT_EQ(s->emissions().size(), static_cast<size_t>(kKeys));
    for (size_t i = kKeys / 2; i < s->emissions().size(); ++i) {
      const Emission& e = s->emissions()[i];
      EXPECT_EQ(e.ptime, T(8, 5));
      EXPECT_EQ(e.row[1].AsInt64() % 2, 1) << i;
    }
    ASSERT_TRUE(s->AdvanceTo(T(9, 0), true).ok());
    EXPECT_EQ(s->emissions().size(), static_cast<size_t>(kKeys));
  }
  state::Writer a, b;
  ASSERT_TRUE(sink.SaveState(&a).ok());
  ASSERT_TRUE(restored.SaveState(&b).ok());
  EXPECT_EQ(a.buffer(), b.buffer());
}

TEST(SinkTest, ReclaimedKeysTimerNeverFlushesItsSuccessor) {
  MaterializationSink sink(GatedDelayConfig());
  const Row first = {Value::Time(T(8, 1)), Value::Int64(7)};
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 0, first)).ok());  // deadline 8:05
  ASSERT_TRUE(sink.AdvanceTo(T(8, 2), false).ok());
  ASSERT_TRUE(sink.OnWatermark(0, T(8, 1), T(8, 2)).ok());
  ASSERT_EQ(sink.emissions().size(), 1u);  // on-time pane; key reclaimed

  // The same key comes back with a later completeness: its own timer is
  // due at 8:08. The reclaimed key's 8:05 timer must not flush it.
  const Row second = {Value::Time(T(8, 30)), Value::Int64(7)};
  ASSERT_TRUE(sink.AdvanceTo(T(8, 3), false).ok());
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 3, second)).ok());
  ASSERT_TRUE(sink.AdvanceTo(T(8, 7), true).ok());
  EXPECT_EQ(sink.emissions().size(), 1u);
  ASSERT_TRUE(sink.AdvanceTo(T(8, 8), true).ok());
  ASSERT_EQ(sink.emissions().size(), 2u);
  EXPECT_EQ(sink.emissions()[1].ptime, T(8, 8));
  EXPECT_TRUE(RowsEqual(sink.emissions()[1].row, second));
}

TEST(SinkTest, RestoreRejectsTimersWithoutAMatchingKey) {
  MaterializationSink sink(GatedDelayConfig());
  ASSERT_TRUE(
      sink.OnElement(0, Ins(8, 0, {Value::Time(T(8, 30)), Value::Int64(1)}))
          .ok());
  state::Writer w;
  ASSERT_TRUE(sink.SaveState(&w).ok());
  // The saved timer queue holds one (8:05, key) entry, followed by the
  // completeness queue's (8:30, key): point the timer at a key the
  // checkpoint does not hold.
  std::string bytes = w.buffer();
  state::Writer key;
  key.PutRow({Value::Int64(1)});
  state::Writer other;
  other.PutRow({Value::Int64(2)});
  const size_t pending = bytes.rfind(key.buffer());
  ASSERT_NE(pending, std::string::npos);
  ASSERT_GT(pending, 0u);
  const size_t at = bytes.rfind(key.buffer(), pending - 1);
  ASSERT_NE(at, std::string::npos);
  bytes.replace(at, key.buffer().size(), other.buffer());
  MaterializationSink restored(GatedDelayConfig());
  state::Reader r(bytes);
  const Status s = restored.LoadState(&r, nullptr);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
}

}  // namespace
}  // namespace exec
}  // namespace onesql
