#include "feeds.h"

#include <algorithm>
#include <cmath>

#include "nexmark/nexmark.h"

namespace perfbench {

using onesql::DataType;
using onesql::FeedEvent;
using onesql::Interval;
using onesql::Schema;
using onesql::Timestamp;
using onesql::Value;

namespace {

// Feed sizes per epoch (one epoch = one fresh engine fed the whole feed).
constexpr int kJoinEvents = 40000;
constexpr int kServeEvents = 50000;
constexpr int kRecoverHistoryEvents = 30000;
constexpr int kRecoverLiveEvents = 120000;
constexpr int kKeyedRows = 100000;
constexpr int kKeyedKeys = 10000;
constexpr int kKeyedWatermarkEvery = 256;

constexpr const char* kKeyedAgg =
    "SELECT item, wstart, wend, SUM(price) AS total, COUNT(*) AS cnt "
    "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
    "dur => INTERVAL '10' MINUTES) t GROUP BY item, wend";

Schema KeyedBidSchema() {
  return Schema({{"bidtime", DataType::kTimestamp, true},
                 {"price", DataType::kBigint},
                 {"item", DataType::kVarchar}});
}

std::vector<FeedEvent> NexmarkFeed(uint32_t seed, int events) {
  onesql::nexmark::GeneratorConfig config;
  config.seed = seed;
  config.num_events = events;
  config.max_disorder = 10;
  config.watermark_period = 10;
  config.watermark_strategy = onesql::nexmark::WatermarkStrategy::kPerfect;
  onesql::nexmark::Generator gen(config);
  return gen.Generate();
}

/// bench_parallel's keyed feed: `keys` distinct items, a watermark one
/// minute behind processing time every `wm_every` rows.
std::vector<FeedEvent> KeyedFeed(uint32_t seed, int rows, int keys,
                                 int wm_every) {
  std::vector<FeedEvent> feed;
  feed.reserve(static_cast<size_t>(rows) + static_cast<size_t>(rows / wm_every));
  uint64_t state = 0x9e3779b97f4a7c15ULL ^ seed;
  const Timestamp start = Timestamp::FromHMS(9, 0);
  for (int i = 0; i < rows; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const uint64_t r = state >> 33;
    const Timestamp ptime = start + Interval::Millis(int64_t{i} * 10);
    FeedEvent e;
    e.kind = FeedEvent::Kind::kInsert;
    e.source = "Bid";
    e.ptime = ptime;
    e.row = {Value::Time(ptime - Interval::Seconds(static_cast<int64_t>(r % 60))),
             Value::Int64(static_cast<int64_t>(r % 1000)),
             Value::String("item" +
                           std::to_string(r % static_cast<uint64_t>(keys)))};
    feed.push_back(std::move(e));
    if (i % wm_every == wm_every - 1) {
      FeedEvent wm;
      wm.kind = FeedEvent::Kind::kWatermark;
      wm.source = "Bid";
      wm.ptime = ptime;
      wm.watermark = ptime - Interval::Minutes(1);
      feed.push_back(std::move(wm));
    }
  }
  return feed;
}

void Split(std::vector<FeedEvent> feed, size_t size, Workload* w) {
  w->events += feed.size();
  for (size_t i = 0; i < feed.size(); i += size) {
    const size_t end = std::min(feed.size(), i + size);
    w->batches.emplace_back(std::make_move_iterator(feed.begin() + i),
                            std::make_move_iterator(feed.begin() + end));
  }
}

int Scaled(int n, double scale) {
  return std::max(100, static_cast<int>(std::lround(n * scale)));
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "nexmark-join", "nexmark-serve", "nexmark-recover", "keyed-agg-sharded"};
  return names;
}

std::vector<std::pair<std::string, std::string>> NexmarkQueries() {
  namespace nx = onesql::nexmark;
  return {{"q1", nx::Q1()}, {"q2", nx::Q2()}, {"q3", nx::Q3()},
          {"q4", nx::Q4()}, {"q5", nx::Q5()}, {"q7", nx::Q7()}};
}

bool MakeWorkload(const std::string& name, uint32_t seed, double scale,
                  Workload* w) {
  namespace nx = onesql::nexmark;
  w->name = name;
  if (name == "nexmark-join") {
    w->queries = {{"q3", nx::Q3()}, {"q4", nx::Q4()}, {"q5", nx::Q5()},
                  {"q7", nx::Q7()}};
    w->batch_events = 1000;
    Split(NexmarkFeed(seed, Scaled(kJoinEvents, scale)), w->batch_events, w);
  } else if (name == "nexmark-serve") {
    w->queries = {{"q1", nx::Q1()}, {"q2", nx::Q2()}};
    w->durable = true;
    w->batch_events = 1000;
    Split(NexmarkFeed(seed, Scaled(kServeEvents, scale)), w->batch_events, w);
  } else if (name == "nexmark-recover") {
    w->queries = {{"q4", nx::Q4()}, {"q7", nx::Q7()}};
    w->durable = true;
    w->batch_events = 4000;
    const int history = Scaled(kRecoverHistoryEvents, scale);
    std::vector<FeedEvent> feed =
        NexmarkFeed(seed, history + Scaled(kRecoverLiveEvents, scale));
    // The generator interleaves watermarks, so cut the history at the
    // batch boundary nearest to `history` inserts' worth of events.
    Split(std::move(feed), w->batch_events, w);
    w->history_batches = std::clamp<size_t>(
        static_cast<size_t>(history) / w->batch_events, 1,
        w->batches.size() - 1);
  } else if (name == "keyed-agg-sharded") {
    w->keyed = true;
    w->queries = {{"keyed", kKeyedAgg}};
    w->shards = 2;
    w->batch_events = 2048;
    Split(KeyedFeed(seed, Scaled(kKeyedRows, scale), kKeyedKeys,
                    kKeyedWatermarkEvery),
          w->batch_events, w);
  } else {
    return false;
  }
  return true;
}

onesql::Status Register(onesql::Engine* engine, const Workload& w) {
  if (w.keyed) return engine->RegisterStream("Bid", KeyedBidSchema());
  return onesql::nexmark::RegisterNexmark(engine);
}

onesql::Status ExecuteAll(onesql::Engine* engine, const Workload& w,
                          std::vector<onesql::ContinuousQuery*>* out) {
  onesql::ExecutionOptions options;
  options.shards = w.shards;
  out->clear();
  for (const auto& [label, sql] : w.queries) {
    auto q = engine->Execute(sql, options);
    if (!q.ok()) return q.status();
    out->push_back(q.value());
  }
  return onesql::Status::OK();
}

}  // namespace perfbench
