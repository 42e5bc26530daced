#include "exec/sink.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "obs/instruments.h"

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

// The projection of the emissions onto a changelog: undo is a delete.
Changelog Projection(const MaterializationSink& sink) {
  Changelog log;
  for (const Emission& e : sink.emissions()) {
    log.push_back(Change{e.undo ? ChangeKind::kDelete : ChangeKind::kInsert,
                         e.row, e.ptime});
  }
  return log;
}

void ExpectSameRows(const std::vector<Row>& got, const std::vector<Row>& want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(RowsEqual(got[i], want[i]))
        << what << " row " << i << ": got " << RowToString(got[i])
        << ", want " << RowToString(want[i]);
  }
}

/// SnapshotAt at every emitted ptime, just before each, and at both ends
/// must render exactly what SnapshotOf renders over the emissions'
/// projection.
void ExpectSnapshotsMatchReplay(const MaterializationSink& sink,
                                const std::string& mode) {
  const Changelog log = Projection(sink);
  std::vector<Timestamp> times = {Timestamp::Min(), Timestamp::Max()};
  for (const Emission& e : sink.emissions()) {
    times.push_back(e.ptime);
    times.push_back(Timestamp(e.ptime.millis() - 1));
  }
  for (Timestamp t : times) {
    ExpectSameRows(sink.SnapshotAt(t), SnapshotOf(log, t),
                   mode + " SnapshotAt(" + t.ToString() + ")");
  }
  ExpectSameRows(sink.CurrentSnapshot(), SnapshotOf(log, Timestamp::Max()),
                 mode + " CurrentSnapshot");
}

/// One input of the mixed feed: a change, or a watermark `mark` arriving
/// at `change.ptime`.
struct FeedStep {
  Change change;
  std::optional<Timestamp> mark;
};

/// Duplicates, deletes back to zero, a row that returns, several groupings
/// and watermarks that complete some of them, so every mode emits at many
/// ptimes.
std::vector<FeedStep> MixedFeed() {
  auto change = [](Change c) { return FeedStep{std::move(c), std::nullopt}; };
  auto watermark = [](Timestamp mark, Timestamp ptime) {
    return FeedStep{Change{ChangeKind::kInsert, {}, ptime}, mark};
  };
  return {change(Ins(8, 1, R(8, 10, 1))),
          change(Ins(8, 2, R(8, 10, 1))),
          change(Ins(8, 3, R(8, 20, 2))),
          change(Del(8, 4, R(8, 10, 1))),
          change(Del(8, 5, R(8, 10, 1))),
          change(Ins(8, 6, R(8, 5, 3))),
          change(Ins(8, 7, R(8, 10, 1))),  // back from zero
          watermark(T(8, 10), T(8, 8)),
          change(Ins(8, 9, R(8, 20, 4))),
          change(Del(8, 11, R(8, 20, 2))),
          change(Ins(8, 12, R(8, 30, 5))),
          watermark(T(8, 20), T(8, 13)),
          change(Ins(8, 14, R(8, 30, 6))),
          change(Del(8, 21, R(8, 30, 5))),
          watermark(T(9, 0), T(8, 22))};
}

/// Drives steps [from, to) of the mixed feed. Timers fire before each step,
/// as the runtime fires them; the last step also fires every timer.
void DriveMixedFeed(MaterializationSink* sink, size_t from = 0,
                    size_t to = MixedFeed().size()) {
  const std::vector<FeedStep> steps = MixedFeed();
  for (size_t i = from; i < to; ++i) {
    const FeedStep& step = steps[i];
    ASSERT_TRUE(sink->AdvanceTo(step.change.ptime, false).ok());
    if (step.mark.has_value()) {
      ASSERT_TRUE(sink->OnWatermark(0, *step.mark, step.change.ptime).ok());
    } else {
      ASSERT_TRUE(sink->OnElement(0, step.change).ok());
    }
  }
  if (to == steps.size()) {
    ASSERT_TRUE(sink->AdvanceTo(T(9, 0), true).ok());
  }
}

struct SinkMode {
  const char* name;
  SinkConfig config;
};

std::vector<SinkMode> AllModes() {
  SinkConfig after_watermark = GroupedConfig();
  after_watermark.after_watermark = true;
  SinkConfig after_delay = GroupedConfig();
  after_delay.delay = Interval::Minutes(5);
  return {{"instant whole-row", SinkConfig{}},
          {"version-keyed", GroupedConfig()},
          {"after watermark", after_watermark},
          {"after delay", after_delay}};
}

std::string SavedBlob(const MaterializationSink& sink) {
  state::Writer w;
  EXPECT_TRUE(sink.SaveState(&w).ok());
  return w.buffer();
}

TEST(SinkTest, DeleteOfUnknownRowIsError) {
  // A rejected DELETE creates no state: the sink's size and checkpoint stay
  // those of a sink that never saw it, with or without earlier rows.
  for (const SinkMode& mode : AllModes()) {
    for (bool with_row : {false, true}) {
      MaterializationSink clean(mode.config);
      MaterializationSink sink(mode.config);
      if (with_row) {
        ASSERT_TRUE(clean.OnElement(0, Ins(8, 1, R(8, 10, 1))).ok());
        ASSERT_TRUE(sink.OnElement(0, Ins(8, 1, R(8, 10, 1))).ok());
      }
      for (const Row& row : {R(8, 10, 2), R(8, 20, 1)}) {
        EXPECT_FALSE(sink.OnElement(0, Del(8, 2, row)).ok()) << mode.name;
      }
      EXPECT_EQ(sink.StateBytes(), clean.StateBytes()) << mode.name;
      EXPECT_EQ(SavedBlob(sink), SavedBlob(clean)) << mode.name;
    }
  }
}

TEST(SinkTest, RestoredSinkContinuesLikeAnUninterruptedOne) {
  // Cut the mixed feed at every step, restore, and feed the rest: the
  // emissions, `ver` included, equal the uninterrupted run's.
  const size_t steps = MixedFeed().size();
  for (const SinkMode& mode : AllModes()) {
    MaterializationSink whole(mode.config);
    DriveMixedFeed(&whole);
    for (size_t cut = 0; cut <= steps; ++cut) {
      MaterializationSink first(mode.config);
      DriveMixedFeed(&first, 0, cut);
      const std::string blob = SavedBlob(first);
      MaterializationSink restored(mode.config);
      state::Reader r(blob);
      ASSERT_TRUE(restored.LoadState(&r).ok()) << mode.name;
      ASSERT_TRUE(r.AtEnd()) << mode.name;
      EXPECT_EQ(restored.StateBytes(), first.StateBytes()) << mode.name;
      DriveMixedFeed(&restored, cut, steps);
      ASSERT_EQ(restored.emissions().size(), whole.emissions().size())
          << mode.name << " cut " << cut;
      for (size_t i = 0; i < whole.emissions().size(); ++i) {
        EXPECT_EQ(restored.emissions()[i].ToString(),
                  whole.emissions()[i].ToString())
            << mode.name << " cut " << cut;
      }
      EXPECT_EQ(SavedBlob(restored), SavedBlob(whole)) << mode.name;
    }
  }
}

TEST(SinkTest, IncrementalSnapshotMatchesChangelogReplay) {
  // The incrementally maintained row map, and the fold of the emissions'
  // prefix for historical ptimes, must render exactly what a full
  // changelog replay renders (same rows, same multiset order), including
  // across deletes that drop multiplicities back to zero — in every mode,
  // and again after a save/restore round trip.
  for (const SinkMode& mode : AllModes()) {
    MaterializationSink sink(mode.config);
    DriveMixedFeed(&sink);
    ASSERT_GE(sink.emissions().size(), 3u) << mode.name;
    ExpectSnapshotsMatchReplay(sink, mode.name);

    state::Writer w;
    ASSERT_TRUE(sink.SaveState(&w).ok());
    MaterializationSink restored(mode.config);
    state::Reader r(w.buffer());
    ASSERT_TRUE(restored.LoadState(&r).ok()) << mode.name;
    ASSERT_TRUE(r.AtEnd()) << mode.name;
    ASSERT_EQ(restored.emissions().size(), sink.emissions().size());
    for (size_t i = 0; i < sink.emissions().size(); ++i) {
      EXPECT_EQ(restored.emissions()[i].ToString(),
                sink.emissions()[i].ToString())
          << mode.name;
    }
    ExpectSnapshotsMatchReplay(restored, std::string(mode.name) + " restored");
    state::Writer again;
    ASSERT_TRUE(restored.SaveState(&again).ok());
    EXPECT_EQ(again.buffer(), w.buffer()) << mode.name;
  }
}

TEST(SinkTest, InstantRowDeletedToZeroKeepsItsVerSequence) {
  obs::ObsOptions options;
  options.metrics = true;
  obs::ObsContext ctx(options);
  const obs::SinkMetrics* metrics = ctx.ForSink("q0");
  auto live_rows = [&ctx]() {
    return ctx.registry()->Snapshot().GaugeValue("onesql_sink_snapshot_rows",
                                                 {{"query", "q0"}});
  };
  const Row a = R(8, 10, 1);
  const Row b = R(8, 20, 2);
  MaterializationSink sink(SinkConfig{});
  sink.AttachSinkMetrics(metrics);
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 1, a)).ok());
  ASSERT_TRUE(sink.OnElement(0, Ins(8, 1, b)).ok());
  ASSERT_TRUE(sink.OnElement(0, Del(8, 2, a)).ok());

  // While its count is zero the row is in no rendering and no gauge.
  ExpectSameRows(sink.CurrentSnapshot(), {b}, "current");
  ExpectSameRows(sink.SnapshotAt(T(8, 2)), {b}, "at 8:02");
  sink.SampleObs();
  EXPECT_EQ(live_rows(), 1);

  // A checkpoint taken now carries the zero-count row's ver counter.
  state::Writer w;
  ASSERT_TRUE(sink.SaveState(&w).ok());
  MaterializationSink restored(SinkConfig{});
  state::Reader r(w.buffer());
  ASSERT_TRUE(restored.LoadState(&r).ok());

  for (MaterializationSink* s : {&sink, &restored}) {
    ASSERT_TRUE(s->OnElement(0, Ins(8, 3, a)).ok());
    EXPECT_EQ(s->emissions().back().ver, 2) << "a continues its sequence";
    ExpectSameRows(s->CurrentSnapshot(), {a, b}, "current after re-insert");
    ExpectSameRows(s->SnapshotAt(T(8, 2)), {b}, "history after re-insert");
  }
  sink.SampleObs();
  EXPECT_EQ(live_rows(), 2);
}

/// An instant-mode key state as older checkpoints saved it: never flushed,
/// timed or completed, so only `current` and the `ver` counter carry
/// anything.
struct OldKeyState {
  Row key;
  std::vector<std::pair<Row, int64_t>> current;
  int64_t next_ver = 0;
};

/// `blob` (the current layout, no key states) with `states` spliced in as
/// its key-state section, in key order as older checkpoints wrote them.
std::string WithOldKeyStates(const std::string& blob,
                             std::vector<OldKeyState> states) {
  std::sort(states.begin(), states.end(),
            [](const OldKeyState& a, const OldKeyState& b) {
              return RowLess{}(a.key, b.key);
            });
  state::Writer section;
  section.PutVarint(states.size());
  for (const OldKeyState& state : states) {
    section.PutRow(state.key);
    section.PutVarint(0);  // last
    section.PutVarint(state.current.size());
    for (const auto& [row, count] : state.current) {
      section.PutRow(row);
      section.PutSigned(count);
    }
    section.PutBool(false);  // deadline
    section.PutBool(false);  // completeness
    section.PutBool(false);  // on_time_fired
    section.PutBool(false);  // complete
    section.PutSigned(state.next_ver);
  }
  // The key-state count follows the watermark merger, clock and late drops.
  state::Reader r(blob);
  const uint64_t ports = *r.ReadVarint();
  for (uint64_t i = 0; i < ports + 2; ++i) (void)*r.ReadTimestamp();
  (void)*r.ReadSigned();
  const size_t at = blob.size() - r.remaining();
  EXPECT_EQ(*r.ReadVarint(), 0u) << "instant modes save no key states";
  return blob.substr(0, at) + section.buffer() +
         blob.substr(blob.size() - r.remaining());
}

TEST(SinkTest, RestoreRejectsKeyCountsThatDisagreeWithTheEmissions) {
  // Older checkpoints also saved instant-mode key states. They load when
  // each equals the emissions' fold restricted to its key, and are dropped.
  const Row a = R(8, 10, 1);
  const Row b = R(8, 20, 2);
  const Row c = R(8, 10, 3);
  struct Case {
    const char* name;
    SinkConfig config;
    std::vector<OldKeyState> states;
  };
  // The feed: a, a, b, -b, c. Whole-row keys are the rows; version keys
  // are the window ends, so a and c share one.
  const std::vector<Case> cases = {
      {"instant whole-row",
       SinkConfig{},
       {{a, {{a, 2}}, 2}, {b, {}, 2}, {c, {{c, 1}}, 1}}},
      {"version-keyed",
       GroupedConfig(),
       {{{a[0]}, {{a, 2}, {c, 1}}, 3}, {{b[0]}, {}, 2}}}};
  for (const Case& test : cases) {
    MaterializationSink sink(test.config);
    ASSERT_TRUE(sink.OnElement(0, Ins(8, 1, a)).ok());
    ASSERT_TRUE(sink.OnElement(0, Ins(8, 2, a)).ok());
    ASSERT_TRUE(sink.OnElement(0, Ins(8, 2, b)).ok());
    ASSERT_TRUE(sink.OnElement(0, Del(8, 3, b)).ok());
    ASSERT_TRUE(sink.OnElement(0, Ins(8, 3, c)).ok());
    const std::string blob = SavedBlob(sink);

    auto load = [&](const std::vector<OldKeyState>& states) {
      MaterializationSink restored(test.config);
      const std::string old_layout = WithOldKeyStates(blob, states);
      state::Reader r(old_layout);
      Status s = restored.LoadState(&r);
      if (s.ok()) {
        EXPECT_TRUE(r.AtEnd()) << test.name;
        EXPECT_EQ(SavedBlob(restored), blob) << test.name << " re-saved";
        EXPECT_EQ(restored.StateBytes(), sink.StateBytes()) << test.name;
      }
      return s;
    };
    const Status loaded = load(test.states);
    ASSERT_TRUE(loaded.ok()) << test.name << ": " << loaded.ToString();
    // A rejected DELETE used to leave an empty key state behind.
    std::vector<OldKeyState> with_empty = test.states;
    with_empty.push_back({R(9, 0, 9), {}, 0});
    if (!test.config.version_key_columns.empty()) {
      with_empty.back().key = {Value::Time(T(9, 0))};
    }
    EXPECT_TRUE(load(with_empty).ok()) << test.name;

    std::vector<std::vector<OldKeyState>> damaged;
    for (int64_t delta : {-1, 1}) {
      std::vector<OldKeyState> count = test.states;
      count[0].current[0].second += delta;
      damaged.push_back(count);
      std::vector<OldKeyState> ver = test.states;
      ver[0].next_ver += delta;
      damaged.push_back(ver);
      std::vector<OldKeyState> zero_row_ver = test.states;
      zero_row_ver[1].next_ver += delta;
      damaged.push_back(zero_row_ver);
    }
    damaged.push_back(std::vector<OldKeyState>(test.states.begin() + 1,
                                               test.states.end()));
    std::vector<OldKeyState> missing_row = test.states;
    missing_row[0].current.pop_back();
    damaged.push_back(missing_row);
    std::vector<OldKeyState> deleted_row_live = test.states;
    deleted_row_live[1].current.push_back({b, 1});
    damaged.push_back(deleted_row_live);
    for (size_t i = 0; i < damaged.size(); ++i) {
      const Status s = load(damaged[i]);
      ASSERT_FALSE(s.ok()) << test.name << " case " << i;
      EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
      EXPECT_NE(s.message().find("disagree with the emissions"),
                std::string::npos)
          << s.ToString();
    }
  }
}

TEST(SinkTest, RestoreRejectsVersNoInstantSinkEmits) {
  // An instant-mode counter is the last `ver` + 1, so a negative or
  // maximal `ver` cannot come from a sink: it is damage, not overflow.
  for (const SinkConfig& config : {SinkConfig{}, GroupedConfig()}) {
    const std::string empty = SavedBlob(MaterializationSink(config));
    for (int64_t ver : {int64_t{-1}, std::numeric_limits<int64_t>::max()}) {
      state::Writer emissions;
      emissions.PutVarint(1);
      emissions.PutRow(R(8, 10, 1));
      emissions.PutBool(false);
      emissions.PutTimestamp(T(8, 1));
      emissions.PutSigned(ver);
      // The fresh sink's blob ends with its emission count, 0.
      const std::string bytes =
          empty.substr(0, empty.size() - 1) + emissions.buffer();
      MaterializationSink restored(config);
      state::Reader r(bytes);
      const Status s = restored.LoadState(&r);
      ASSERT_FALSE(s.ok()) << ver;
      EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
    }
  }
}

TEST(SinkTest, OldLayoutTrailingChangelogIsCheckedAndDropped) {
  // Before the log was kept once, the blob ended with the result changelog:
  // the emissions' projection again.
  for (const SinkMode& mode : AllModes()) {
    MaterializationSink sink(mode.config);
    DriveMixedFeed(&sink);
    state::Writer w;
    ASSERT_TRUE(sink.SaveState(&w).ok());
    const Changelog log = Projection(sink);
    auto old_layout = [&](const Changelog& changes) {
      state::Writer tail;
      tail.PutVarint(changes.size());
      for (const Change& c : changes) {
        tail.PutU8(static_cast<uint8_t>(c.kind));
        tail.PutRow(c.row);
        tail.PutTimestamp(c.ptime);
      }
      return w.buffer() + tail.buffer();
    };

    {
      const std::string bytes = old_layout(log);
      MaterializationSink restored(mode.config);
      state::Reader r(bytes);
      ASSERT_TRUE(restored.LoadState(&r).ok()) << mode.name;
      EXPECT_TRUE(r.AtEnd()) << mode.name;
      ExpectSnapshotsMatchReplay(restored, mode.name);
      state::Writer again;
      ASSERT_TRUE(restored.SaveState(&again).ok());
      EXPECT_EQ(again.buffer(), w.buffer()) << "re-saved without the log";
    }

    Changelog flipped = log;
    flipped.back().kind = flipped.back().kind == ChangeKind::kInsert
                              ? ChangeKind::kDelete
                              : ChangeKind::kInsert;
    Changelog shorter(log.begin(), log.end() - 1);
    Changelog later = log;
    later.front().ptime = Timestamp(later.front().ptime.millis() + 1);
    for (const Changelog* bad : {&flipped, &shorter, &later}) {
      const std::string bytes = old_layout(*bad);
      MaterializationSink restored(mode.config);
      state::Reader r(bytes);
      const Status s = restored.LoadState(&r);
      ASSERT_FALSE(s.ok()) << mode.name;
      EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
      EXPECT_NE(s.message().find("changelog disagrees with the emissions"),
                std::string::npos)
          << s.ToString();
    }
  }
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
  ASSERT_TRUE(restored.LoadState(&r).ok());

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
  const Status s = restored.LoadState(&r);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
}

}  // namespace
}  // namespace exec
}  // namespace onesql
