// The four workloads: which queries run at which shard count, and the feed
// each one sees, generated from the run's seed alone.
#ifndef PERFBENCH_FEEDS_H_
#define PERFBENCH_FEEDS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"

namespace perfbench {

using Batch = std::vector<onesql::FeedEvent>;

struct Workload {
  std::string name;
  /// true: the keyed Bid feed of bench_parallel; false: NEXMark.
  bool keyed = false;
  /// (label, SQL) of the standing queries.
  std::vector<std::pair<std::string, std::string>> queries;
  int shards = 1;
  bool durable = false;
  /// Events per feed call (per wire `feed` line on nexmark-serve).
  size_t batch_events = 1000;
  /// nexmark-recover: leading feed batches fed before any query runs.
  size_t history_batches = 0;
  std::vector<Batch> batches;
  size_t events = 0;
};

/// Names of the workloads, in the order README.md describes them.
const std::vector<std::string>& WorkloadNames();

/// Builds `name` for `seed`; `scale` shrinks the feed (self-test uses < 1).
/// Returns false for an unknown name.
bool MakeWorkload(const std::string& name, uint32_t seed, double scale,
                  Workload* out);

/// Registers the workload's streams (and NEXMark's Category table).
onesql::Status Register(onesql::Engine* engine, const Workload& w);

/// Runs the workload's queries on `engine` at its shard count.
onesql::Status ExecuteAll(onesql::Engine* engine, const Workload& w,
                          std::vector<onesql::ContinuousQuery*>* out);

/// NEXMark's six queries (q1..q7 without q6), for the per-query layer.
std::vector<std::pair<std::string, std::string>> NexmarkQueries();

}  // namespace perfbench

#endif  // PERFBENCH_FEEDS_H_
