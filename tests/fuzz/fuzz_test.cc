// Tier-1 face of the differential fuzzer (DESIGN.md §12): a fixed-seed
// sweep through all five oracles, replay of the checked-in minimized
// corpus, and unit coverage of the generator/corpus/minimizer plumbing.
// The open-ended seed exploration lives in ci.sh's fuzz leg (fuzz_driver).

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "testing/corpus.h"
#include "testing/minimizer.h"
#include "testing/oracles.h"
#include "tests/state/temp_dir.h"

#ifndef ONESQL_FUZZ_CORPUS_DIR
#define ONESQL_FUZZ_CORPUS_DIR "tests/fuzz/corpus"
#endif

namespace onesql {
namespace testing {
namespace {

TEST(FuzzSweepTest, FixedSeedsPassAllOracles) {
  OracleOptions opts;
  opts.temp_dir = state::NewTempDir("fuzz_sweep");
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const FuzzCase fuzz = GenerateCase(seed);
    OracleOptions case_opts = opts;
    case_opts.crash_use_wal = seed % 16 == 0;
    auto outcome = RunCase(fuzz, case_opts);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_TRUE(outcome->ok())
        << outcome->ToString() << "repro:\n" << SerializeCase(fuzz);
  }
}

// Row-run lengths per stream as the chunk builder will see them: the number
// of consecutive row events of one stream between its own watermarks.
std::vector<size_t> RunLengths(const FuzzCase& fuzz, const std::string& src) {
  std::vector<size_t> runs;
  size_t open = 0;
  for (const FeedEvent& event : fuzz.events) {
    if (event.source != src) continue;
    if (event.kind == FeedEvent::Kind::kWatermark) {
      if (open > 0) runs.push_back(open);
      open = 0;
    } else {
      ++open;
    }
  }
  if (open > 0) runs.push_back(open);
  return runs;
}

TEST(FuzzBoundaryTest, TemplatesShapeTheFeedAsAdvertised) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    {
      const FuzzCase s =
          GenerateBoundaryCase(seed, BoundaryTemplate::kSingletonBatches);
      for (const char* src : {kFuzzStreamS, kFuzzStreamR}) {
        for (size_t run : RunLengths(s, src)) EXPECT_EQ(run, 1u) << src;
      }
    }
    {
      const FuzzCase o = GenerateBoundaryCase(seed, BoundaryTemplate::kOddRuns);
      bool saw_multi = false;
      for (const char* src : {kFuzzStreamS, kFuzzStreamR}) {
        for (size_t run : RunLengths(o, src)) {
          EXPECT_EQ(run % 2, 1u) << src << " run of " << run;
          saw_multi |= run > 1;
        }
      }
      EXPECT_TRUE(saw_multi) << "odd-runs case degenerated to singletons";
    }
    {
      const FuzzCase n =
          GenerateBoundaryCase(seed, BoundaryTemplate::kNullHeavy);
      size_t nulls = 0, cells = 0;
      for (const FeedEvent& event : n.events) {
        if (event.kind == FeedEvent::Kind::kWatermark) continue;
        for (size_t c = 1; c < event.row.size(); ++c) {
          ++cells;
          if (event.row[c].is_null()) ++nulls;
        }
      }
      // ~60% per nullable cell by construction; 25% is the loose floor that
      // still proves the knob is wired (k stays non-null for join/session
      // cases, which drags the average down).
      EXPECT_GT(nulls * 4, cells) << "expected NULL-dominated columns";
    }
    {
      const FuzzCase r =
          GenerateBoundaryCase(seed, BoundaryTemplate::kRetractionDense);
      size_t deletes = 0, rows = 0;
      for (const FeedEvent& event : r.events) {
        if (event.kind == FeedEvent::Kind::kWatermark) continue;
        ++rows;
        if (event.kind == FeedEvent::Kind::kDelete) ++deletes;
      }
      EXPECT_GT(deletes * 10, rows * 2) << "expected retraction-dense feed";
    }
    {
      const FuzzCase e =
          GenerateBoundaryCase(seed, BoundaryTemplate::kSharedEventTimes);
      std::set<int64_t> event_times;
      size_t deletes = 0, rows = 0;
      for (const FeedEvent& event : e.events) {
        if (event.kind == FeedEvent::Kind::kWatermark) continue;
        ++rows;
        if (event.kind == FeedEvent::Kind::kDelete) ++deletes;
        event_times.insert(event.row[0].AsTimestamp().millis());
      }
      EXPECT_LE(event_times.size(), 3u) << "expected shared event times";
      EXPECT_GT(deletes * 10, rows * 2) << "expected retraction-heavy feed";
      for (const QuerySpec& q : e.queries) {
        if (q.shape != QueryShape::kJoin) continue;
        EXPECT_TRUE(q.ts_join);
        EXPECT_NE(q.sql.find("a.ts = b.ts"), std::string::npos) << q.sql;
      }
    }
    {
      // The first query repeats one aggregate subtree, which the runtime
      // compiles once behind a fan-out.
      const FuzzCase c =
          GenerateBoundaryCase(seed, BoundaryTemplate::kSharedSubtrees);
      ASSERT_FALSE(c.queries.empty());
      EXPECT_EQ(c.queries[0].shape, QueryShape::kSharedAggJoin);
      Engine engine;
      ASSERT_TRUE(engine.RegisterStream(kFuzzStreamS, FuzzStreamSchema()).ok());
      ASSERT_TRUE(engine.RegisterStream(kFuzzStreamR, FuzzStreamSchema()).ok());
      auto q = engine.Execute(c.queries[0].sql);
      ASSERT_TRUE(q.ok()) << q.status().ToString() << ": " << c.queries[0].sql;
      EXPECT_EQ((*q)->dataflow().chain().fanouts.size(), 1u)
          << c.queries[0].sql;
    }
    // Same (seed, template) must reproduce the same case bit-for-bit.
    EXPECT_EQ(
        SerializeCase(GenerateBoundaryCase(seed, BoundaryTemplate::kOddRuns)),
        SerializeCase(GenerateBoundaryCase(seed, BoundaryTemplate::kOddRuns)));
  }
}

TEST(FuzzBoundaryTest, TemplatesPassAllOracles) {
  OracleOptions opts;
  opts.temp_dir = state::NewTempDir("fuzz_boundary");
  for (BoundaryTemplate t : kAllBoundaryTemplates) {
    for (uint64_t seed = 1; seed <= 25; ++seed) {
      SCOPED_TRACE(std::string(BoundaryTemplateToString(t)) +
                   " seed=" + std::to_string(seed));
      const FuzzCase fuzz = GenerateBoundaryCase(seed, t);
      OracleOptions case_opts = opts;
      case_opts.crash_use_wal = seed % 8 == 0;
      auto outcome = RunCase(fuzz, case_opts);
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      EXPECT_TRUE(outcome->ok())
          << outcome->ToString() << "repro:\n" << SerializeCase(fuzz);
    }
  }
}

TEST(FuzzGeneratorTest, CoversEveryShapeAndMode) {
  // If the SQL templates drift from the grammar, the planner-rejection
  // fallback silently degrades every query to a plain projection; shape
  // coverage over a fixed window of seeds pins that regression.
  std::map<QueryShape, int> shapes;
  std::map<FeedMode, int> modes;
  Engine prototype;
  ASSERT_TRUE(prototype.RegisterStream(kFuzzStreamS, FuzzStreamSchema()).ok());
  ASSERT_TRUE(prototype.RegisterStream(kFuzzStreamR, FuzzStreamSchema()).ok());
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    const FuzzCase fuzz = GenerateCase(seed);
    modes[fuzz.mode] += 1;
    EXPECT_GE(fuzz.events.size(), 8u) << "seed " << seed;
    for (const QuerySpec& q : fuzz.queries) {
      shapes[q.shape] += 1;
      EXPECT_TRUE(prototype.Plan(q.sql).ok())
          << "seed " << seed << " generated unplannable SQL: " << q.sql;
    }
  }
  for (QueryShape shape :
       {QueryShape::kFilterProject, QueryShape::kTumbleAgg,
        QueryShape::kHopAgg, QueryShape::kSession, QueryShape::kJoin}) {
    EXPECT_GE(shapes[shape], 20) << QueryShapeToString(shape);
  }
  for (FeedMode mode :
       {FeedMode::kDeletesPerfect, FeedMode::kInsertOnlyPerfect,
        FeedMode::kInsertOnlySloppy}) {
    EXPECT_GE(modes[mode], 50) << FeedModeToString(mode);
  }
}

TEST(FuzzGeneratorTest, SameSeedSameCase) {
  const FuzzCase a = GenerateCase(1234);
  const FuzzCase b = GenerateCase(1234);
  EXPECT_EQ(SerializeCase(a), SerializeCase(b));
}

TEST(FuzzCorpusTest, SerializeParseRoundTrips) {
  for (uint64_t seed : {1u, 7u, 42u, 137u, 256u}) {
    const FuzzCase original = GenerateCase(seed);
    const std::string text = SerializeCase(original);
    auto parsed = ParseCase(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(SerializeCase(*parsed), text) << "seed " << seed;
    EXPECT_EQ(parsed->events.size(), original.events.size());
    EXPECT_EQ(parsed->queries.size(), original.queries.size());
  }
}

TEST(FuzzCorpusTest, CheckedInCorpusReplaysClean) {
  // Every minimized reproducer from past fuzz findings must keep passing:
  // this is the regression lock the bug sweep left behind.
  auto corpus = LoadCorpusDir(ONESQL_FUZZ_CORPUS_DIR);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  ASSERT_GE(corpus->size(), 3u)
      << "expected the checked-in reproducers under " << ONESQL_FUZZ_CORPUS_DIR;
  OracleOptions opts;
  opts.temp_dir = state::NewTempDir("fuzz_corpus");
  for (const auto& [path, fuzz] : *corpus) {
    SCOPED_TRACE(path);
    auto outcome = RunCase(fuzz, opts);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_TRUE(outcome->ok()) << outcome->ToString();
  }
}

TEST(FuzzMinimizerTest, ShrinksAroundThePoisonEvent) {
  FuzzCase fuzz = GenerateCase(77);
  // Plant a marker the vocabulary can't produce, then minimize against
  // "still contains the marker": everything else must fall away.
  size_t planted = 0;
  for (size_t i = 0; i < fuzz.events.size(); ++i) {
    if (fuzz.events[i].kind == FeedEvent::Kind::kInsert &&
        2 * i >= fuzz.events.size()) {
      fuzz.events[i].row[4] = Value::String("omega");
      planted = i;
      break;
    }
  }
  ASSERT_GT(planted, 0u);
  const auto has_marker = [](const FuzzCase& candidate) {
    for (const FeedEvent& event : candidate.events) {
      if (event.kind != FeedEvent::Kind::kWatermark &&
          !event.row[4].is_null() && event.row[4].AsString() == "omega") {
        return true;
      }
    }
    return false;
  };
  const FuzzCase minimized = MinimizeCase(fuzz, has_marker);
  EXPECT_TRUE(has_marker(minimized));
  // One surviving insert plus the regenerated final watermarks.
  EXPECT_LE(minimized.events.size(), 4u) << SerializeCase(minimized);
  EXPECT_EQ(minimized.queries.size(), 1u);
}

TEST(FuzzMinimizerTest, RepairDropsOrphanedDeletes) {
  FuzzCase fuzz = GenerateCase(5);
  // Force a delete whose insert is gone: RepairFeed must drop it rather
  // than hand the engine an invalid feed.
  FeedEvent orphan;
  orphan.kind = FeedEvent::Kind::kDelete;
  orphan.source = kFuzzStreamS;
  orphan.ptime = Timestamp(0);
  orphan.row = {Value::Time(Timestamp(1)), Value::Int64(1), Value::Int64(1),
                Value::Null(), Value::Null()};
  std::vector<FeedEvent> events = {orphan};
  RepairFeed(&events);
  EXPECT_TRUE(events.empty());
}

}  // namespace
}  // namespace testing
}  // namespace onesql
