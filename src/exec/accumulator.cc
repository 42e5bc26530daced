#include "exec/accumulator.h"

#include <map>

namespace onesql {
namespace exec {

namespace {

using plan::AggFn;

/// Shared serialization for the value->multiplicity maps of MIN/MAX and
/// DISTINCT: varint size, then (value, signed count) pairs in the map's
/// deterministic value order.
template <typename Map>
void SaveCountMap(const Map& map, state::Writer* w) {
  w->PutVarint(map.size());
  for (const auto& [value, count] : map) {
    w->PutValue(value);
    w->PutSigned(count);
  }
}

template <typename Map>
Status LoadCountMap(Map* map, state::Reader* r) {
  ONESQL_ASSIGN_OR_RETURN(uint64_t n, r->ReadVarint());
  if (n > r->remaining()) {
    return Status::DataLoss("impossible count-map size in checkpoint");
  }
  for (uint64_t i = 0; i < n; ++i) {
    ONESQL_ASSIGN_OR_RETURN(Value value, r->ReadValue());
    ONESQL_ASSIGN_OR_RETURN(int64_t count, r->ReadSigned());
    if (count <= 0) {
      return Status::DataLoss("non-positive multiplicity in checkpoint");
    }
    if (!map->emplace(std::move(value), count).second) {
      return Status::DataLoss("duplicate count-map value in checkpoint");
    }
  }
  return Status::OK();
}

class CountStarAccumulator : public Accumulator {
 public:
  Status Add(const Value&) override {
    ++count_;
    return Status::OK();
  }
  Status Retract(const Value&) override {
    if (count_ == 0) return Status::Internal("COUNT(*) retract below zero");
    --count_;
    return Status::OK();
  }
  Value Current() const override { return Value::Int64(count_); }
  size_t StateBytes() const override { return sizeof(count_); }
  void SaveState(state::Writer* w) const override { w->PutSigned(count_); }
  Status LoadState(state::Reader* r) override {
    ONESQL_ASSIGN_OR_RETURN(count_, r->ReadSigned());
    return Status::OK();
  }

 private:
  int64_t count_ = 0;
};

class CountAccumulator : public Accumulator {
 public:
  Status Add(const Value& v) override {
    if (!v.is_null()) ++count_;
    return Status::OK();
  }
  Status Retract(const Value& v) override {
    if (v.is_null()) return Status::OK();
    if (count_ == 0) return Status::Internal("COUNT retract below zero");
    --count_;
    return Status::OK();
  }
  Value Current() const override { return Value::Int64(count_); }
  size_t StateBytes() const override { return sizeof(count_); }
  void SaveState(state::Writer* w) const override { w->PutSigned(count_); }
  Status LoadState(state::Reader* r) override {
    ONESQL_ASSIGN_OR_RETURN(count_, r->ReadSigned());
    return Status::OK();
  }

 private:
  int64_t count_ = 0;
};

/// SUM with exact integer arithmetic for BIGINT and double otherwise; AVG is
/// SUM/COUNT at read time.
class SumAvgAccumulator : public Accumulator {
 public:
  SumAvgAccumulator(bool is_avg, bool integer)
      : is_avg_(is_avg), integer_(integer) {}

  Status Add(const Value& v) override {
    if (v.is_null()) return Status::OK();
    ONESQL_ASSIGN_OR_RETURN(double d, v.ToNumeric());
    if (integer_ && v.type() == DataType::kBigint) {
      int_sum_ += v.AsInt64();
    } else {
      integer_ = false;
    }
    double_sum_ += d;
    ++count_;
    return Status::OK();
  }

  Status Retract(const Value& v) override {
    if (v.is_null()) return Status::OK();
    ONESQL_ASSIGN_OR_RETURN(double d, v.ToNumeric());
    if (count_ == 0) return Status::Internal("SUM retract below zero");
    if (integer_ && v.type() == DataType::kBigint) int_sum_ -= v.AsInt64();
    double_sum_ -= d;
    if (--count_ == 0) {
      // A fully retracted accumulator must be indistinguishable from a fresh
      // one. Float subtraction is not exact inverse addition, so without this
      // reset a long insert/retract history leaves an epsilon (or -0.0)
      // residue in double_sum_ that pollutes every SUM/AVG after the group
      // refills.
      int_sum_ = 0;
      double_sum_ = 0.0;
    }
    return Status::OK();
  }

  Value Current() const override {
    if (count_ == 0) return Value::Null();
    if (is_avg_) return Value::Double(double_sum_ / static_cast<double>(count_));
    if (integer_) return Value::Int64(int_sum_);
    return Value::Double(double_sum_);
  }

  size_t StateBytes() const override { return 3 * sizeof(int64_t); }

  void SaveState(state::Writer* w) const override {
    w->PutBool(integer_);
    w->PutSigned(int_sum_);
    w->PutDouble(double_sum_);
    w->PutSigned(count_);
  }
  Status LoadState(state::Reader* r) override {
    ONESQL_ASSIGN_OR_RETURN(integer_, r->ReadBool());
    ONESQL_ASSIGN_OR_RETURN(int_sum_, r->ReadSigned());
    ONESQL_ASSIGN_OR_RETURN(double_sum_, r->ReadDouble());
    ONESQL_ASSIGN_OR_RETURN(count_, r->ReadSigned());
    return Status::OK();
  }

 private:
  bool is_avg_;
  bool integer_;
  int64_t int_sum_ = 0;
  double double_sum_ = 0;
  int64_t count_ = 0;
};

/// MIN/MAX keep an ordered multiset so retraction is exact — the price the
/// paper alludes to for non-invertible aggregations over changelogs.
class MinMaxAccumulator : public Accumulator {
 public:
  explicit MinMaxAccumulator(bool is_min) : is_min_(is_min) {}

  Status Add(const Value& v) override {
    if (v.is_null()) return Status::OK();
    ++values_[v];
    return Status::OK();
  }

  Status Retract(const Value& v) override {
    if (v.is_null()) return Status::OK();
    auto it = values_.find(v);
    if (it == values_.end()) {
      return Status::Internal("MIN/MAX retract of absent value " +
                              v.ToString());
    }
    if (--it->second == 0) values_.erase(it);
    return Status::OK();
  }

  Value Current() const override {
    if (values_.empty()) return Value::Null();
    return is_min_ ? values_.begin()->first : values_.rbegin()->first;
  }

  size_t StateBytes() const override {
    return values_.size() * (sizeof(Value) + sizeof(int64_t) + 48);
  }

  void SaveState(state::Writer* w) const override {
    SaveCountMap(values_, w);
  }
  Status LoadState(state::Reader* r) override {
    return LoadCountMap(&values_, r);
  }

 private:
  struct ValueLess {
    bool operator()(const Value& a, const Value& b) const {
      return a.Compare(b) < 0;
    }
  };
  bool is_min_;
  std::map<Value, int64_t, ValueLess> values_;
};

/// DISTINCT decorator: forwards each distinct value exactly once to the
/// underlying accumulator, tracking multiplicities.
class DistinctAccumulator : public Accumulator {
 public:
  explicit DistinctAccumulator(AccumulatorPtr inner)
      : inner_(std::move(inner)) {}

  Status Add(const Value& v) override {
    if (v.is_null()) return Status::OK();
    if (++counts_[v] == 1) return inner_->Add(v);
    return Status::OK();
  }

  Status Retract(const Value& v) override {
    if (v.is_null()) return Status::OK();
    auto it = counts_.find(v);
    if (it == counts_.end()) {
      return Status::Internal("DISTINCT retract of absent value");
    }
    if (--it->second == 0) {
      counts_.erase(it);
      return inner_->Retract(v);
    }
    return Status::OK();
  }

  Value Current() const override { return inner_->Current(); }

  size_t StateBytes() const override {
    return inner_->StateBytes() +
           counts_.size() * (sizeof(Value) + sizeof(int64_t) + 48);
  }

  void SaveState(state::Writer* w) const override {
    state::Writer nested;
    inner_->SaveState(&nested);
    w->PutBlob(nested);
    SaveCountMap(counts_, w);
  }
  Status LoadState(state::Reader* r) override {
    ONESQL_ASSIGN_OR_RETURN(state::Reader nested, r->ReadBlob());
    ONESQL_RETURN_NOT_OK(inner_->LoadState(&nested));
    ONESQL_RETURN_NOT_OK(nested.ExpectEnd());
    return LoadCountMap(&counts_, r);
  }

 private:
  struct ValueLess {
    bool operator()(const Value& a, const Value& b) const {
      return a.Compare(b) < 0;
    }
  };
  AccumulatorPtr inner_;
  std::map<Value, int64_t, ValueLess> counts_;
};

}  // namespace

Result<AccumulatorPtr> MakeAccumulator(const plan::AggregateCall& call) {
  AccumulatorPtr base;
  switch (call.fn) {
    case AggFn::kCountStar:
      base = std::make_unique<CountStarAccumulator>();
      break;
    case AggFn::kCount:
      base = std::make_unique<CountAccumulator>();
      break;
    case AggFn::kSum:
      base = std::make_unique<SumAvgAccumulator>(
          /*is_avg=*/false, call.result_type == DataType::kBigint);
      break;
    case AggFn::kAvg:
      base = std::make_unique<SumAvgAccumulator>(/*is_avg=*/true, false);
      break;
    case AggFn::kMin:
      base = std::make_unique<MinMaxAccumulator>(/*is_min=*/true);
      break;
    case AggFn::kMax:
      base = std::make_unique<MinMaxAccumulator>(/*is_min=*/false);
      break;
  }
  if (call.distinct && call.fn != AggFn::kCountStar) {
    base = std::make_unique<DistinctAccumulator>(std::move(base));
  }
  return base;
}

}  // namespace exec
}  // namespace onesql
