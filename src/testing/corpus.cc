#include "testing/corpus.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <algorithm>
#include <sstream>

namespace onesql {
namespace testing {

namespace {

std::string DoubleToken(double d) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", d);  // hexfloat: exact round-trip
  return buf;
}

std::string ValueToken(const Value& v) {
  if (v.is_null()) return "N";
  switch (v.type()) {
    case DataType::kBigint:
      return std::to_string(v.AsInt64());
    case DataType::kDouble:
      return DoubleToken(v.AsDouble());
    case DataType::kVarchar:
      // The fuzz vocabulary is whitespace-free; "s:" disambiguates the
      // empty string from a missing token.
      return "s:" + v.AsString();
    case DataType::kTimestamp:
      return std::to_string(v.AsTimestamp().millis());
    default:
      return "N";
  }
}

Result<int64_t> ParseInt(const std::string& token, const char* what) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(token.c_str(), &end, 10);
  if (errno != 0 || end == token.c_str() || *end != '\0') {
    return Status::InvalidArgument(std::string("bad ") + what +
                                   " token in corpus file: " + token);
  }
  return static_cast<int64_t>(v);
}

Result<Value> ParseRowToken(const std::string& token, DataType type) {
  if (token == "N") return Value::Null();
  switch (type) {
    case DataType::kTimestamp: {
      ONESQL_ASSIGN_OR_RETURN(int64_t ms, ParseInt(token, "timestamp"));
      return Value::Time(Timestamp(ms));
    }
    case DataType::kBigint: {
      ONESQL_ASSIGN_OR_RETURN(int64_t v, ParseInt(token, "bigint"));
      return Value::Int64(v);
    }
    case DataType::kDouble: {
      errno = 0;
      char* end = nullptr;
      const double d = std::strtod(token.c_str(), &end);
      if (errno != 0 || end == token.c_str() || *end != '\0') {
        return Status::InvalidArgument("bad double token in corpus file: " +
                                       token);
      }
      return Value::Double(d);
    }
    case DataType::kVarchar:
      if (token.rfind("s:", 0) != 0) {
        return Status::InvalidArgument("bad string token in corpus file: " +
                                       token);
      }
      return Value::String(token.substr(2));
    default:
      return Status::InvalidArgument("unsupported corpus column type");
  }
}

Result<QueryShape> ParseShape(const std::string& name) {
  for (QueryShape shape :
       {QueryShape::kFilterProject, QueryShape::kTumbleAgg,
        QueryShape::kHopAgg, QueryShape::kSession, QueryShape::kJoin,
        QueryShape::kSharedAggJoin}) {
    if (name == QueryShapeToString(shape)) return shape;
  }
  return Status::InvalidArgument("unknown query shape: " + name);
}

Result<AggKind> ParseAgg(const std::string& name) {
  for (AggKind kind :
       {AggKind::kCountStar, AggKind::kCountV, AggKind::kSumV,
        AggKind::kSumD, AggKind::kAvgD, AggKind::kMinV, AggKind::kMaxV,
        AggKind::kMinItem, AggKind::kMaxItem, AggKind::kCountDistinctV}) {
    if (name == AggKindToString(kind)) return kind;
  }
  return Status::InvalidArgument("unknown aggregate kind: " + name);
}

Result<FeedMode> ParseMode(const std::string& name) {
  for (FeedMode mode :
       {FeedMode::kDeletesPerfect, FeedMode::kInsertOnlyPerfect,
        FeedMode::kInsertOnlySloppy}) {
    if (name == FeedModeToString(mode)) return mode;
  }
  return Status::InvalidArgument("unknown feed mode: " + name);
}

Result<QuerySpec> ParseQueryLine(const std::string& rest) {
  QuerySpec spec;
  const size_t sql_at = rest.find(" sql=");
  if (sql_at == std::string::npos) {
    return Status::InvalidArgument("query line missing sql=: " + rest);
  }
  spec.sql = rest.substr(sql_at + 5);
  std::istringstream fields(rest.substr(0, sql_at));
  std::string field;
  while (fields >> field) {
    const size_t eq = field.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("bad query field: " + field);
    }
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (key == "shape") {
      ONESQL_ASSIGN_OR_RETURN(spec.shape, ParseShape(value));
    } else if (key == "dur") {
      ONESQL_ASSIGN_OR_RETURN(spec.dur_ms, ParseInt(value, "dur"));
    } else if (key == "hop") {
      ONESQL_ASSIGN_OR_RETURN(spec.hop_ms, ParseInt(value, "hop"));
    } else if (key == "gap") {
      ONESQL_ASSIGN_OR_RETURN(spec.gap_ms, ParseInt(value, "gap"));
    } else if (key == "keyed") {
      spec.keyed = value == "1";
    } else if (key == "gated") {
      spec.gated = value == "1";
    } else if (key == "delay") {
      ONESQL_ASSIGN_OR_RETURN(spec.delay_ms, ParseInt(value, "delay"));
    } else if (key == "filter") {
      if (value == "-") {
        spec.has_filter = false;
      } else {
        spec.has_filter = true;
        ONESQL_ASSIGN_OR_RETURN(spec.filter_min_v, ParseInt(value, "filter"));
      }
    } else if (key == "extra_proj") {
      spec.extra_proj = value == "1";
    } else if (key == "extra_join_cond") {
      spec.extra_join_cond = value == "1";
    } else if (key == "ts_join") {
      spec.ts_join = value == "1";
    } else if (key == "aggs") {
      if (value != "-") {
        std::istringstream aggs(value);
        std::string agg;
        while (std::getline(aggs, agg, ',')) {
          ONESQL_ASSIGN_OR_RETURN(AggKind kind, ParseAgg(agg));
          spec.aggs.push_back(kind);
        }
      }
    } else {
      return Status::InvalidArgument("unknown query field: " + key);
    }
  }
  return spec;
}

Result<FeedEvent> ParseEventLine(std::istringstream* line) {
  FeedEvent event;
  std::string kind, ptime;
  if (!(*line >> kind)) return Status::InvalidArgument("empty event line");
  if (kind == "clock") {
    event.kind = FeedEvent::Kind::kClock;
  } else if (!(*line >> event.source)) {
    return Status::InvalidArgument("truncated event line");
  }
  if (!(*line >> ptime)) return Status::InvalidArgument("truncated event line");
  ONESQL_ASSIGN_OR_RETURN(int64_t ptime_ms, ParseInt(ptime, "ptime"));
  event.ptime = Timestamp(ptime_ms);
  if (kind == "clock") return event;
  if (kind == "watermark") {
    event.kind = FeedEvent::Kind::kWatermark;
    std::string wm;
    if (!(*line >> wm)) {
      return Status::InvalidArgument("watermark event missing timestamp");
    }
    ONESQL_ASSIGN_OR_RETURN(int64_t wm_ms, ParseInt(wm, "watermark"));
    event.watermark = Timestamp(wm_ms);
    return event;
  }
  if (kind == "insert") {
    event.kind = FeedEvent::Kind::kInsert;
  } else if (kind == "delete") {
    event.kind = FeedEvent::Kind::kDelete;
  } else {
    return Status::InvalidArgument("unknown event kind: " + kind);
  }
  const Schema schema = FuzzStreamSchema();
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    std::string token;
    if (!(*line >> token)) {
      return Status::InvalidArgument("event row has too few columns");
    }
    ONESQL_ASSIGN_OR_RETURN(Value v,
                            ParseRowToken(token, schema.field(i).type));
    event.row.push_back(std::move(v));
  }
  return event;
}

}  // namespace

std::string SerializeCase(const FuzzCase& fuzz) {
  std::ostringstream out;
  out << "onesql-fuzz-case v1\n";
  out << "seed " << fuzz.seed << "\n";
  out << "mode " << FeedModeToString(fuzz.mode) << "\n";
  for (const QuerySpec& q : fuzz.queries) {
    out << "query shape=" << QueryShapeToString(q.shape) << " dur=" << q.dur_ms
        << " hop=" << q.hop_ms << " gap=" << q.gap_ms
        << " keyed=" << (q.keyed ? 1 : 0) << " gated=" << (q.gated ? 1 : 0)
        << " delay=" << q.delay_ms << " filter=";
    if (q.has_filter) {
      out << q.filter_min_v;
    } else {
      out << "-";
    }
    out << " extra_proj=" << (q.extra_proj ? 1 : 0)
        << " extra_join_cond=" << (q.extra_join_cond ? 1 : 0)
        << " ts_join=" << (q.ts_join ? 1 : 0) << " aggs=";
    if (q.aggs.empty()) {
      out << "-";
    } else {
      for (size_t i = 0; i < q.aggs.size(); ++i) {
        out << (i ? "," : "") << AggKindToString(q.aggs[i]);
      }
    }
    out << " sql=" << q.sql << "\n";
  }
  for (const FeedEvent& event : fuzz.events) {
    if (event.kind == FeedEvent::Kind::kClock) {
      out << "event clock " << event.ptime.millis() << "\n";
      continue;
    }
    if (event.kind == FeedEvent::Kind::kWatermark) {
      out << "event watermark " << event.source << " "
          << event.ptime.millis() << " " << event.watermark.millis() << "\n";
      continue;
    }
    out << "event "
        << (event.kind == FeedEvent::Kind::kInsert ? "insert" : "delete")
        << " " << event.source << " " << event.ptime.millis();
    for (const Value& v : event.row) {
      out << " " << ValueToken(v);
    }
    out << "\n";
  }
  out << "end\n";
  return out.str();
}

Result<FuzzCase> ParseCase(const std::string& text) {
  FuzzCase fuzz;
  std::istringstream in(text);
  std::string line;
  bool saw_header = false, saw_end = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (!saw_header) {
      if (line != "onesql-fuzz-case v1") {
        return Status::InvalidArgument("bad corpus header: " + line);
      }
      saw_header = true;
      continue;
    }
    std::istringstream tokens(line);
    std::string tag;
    tokens >> tag;
    if (tag == "seed") {
      std::string value;
      tokens >> value;
      errno = 0;
      char* end = nullptr;
      fuzz.seed = std::strtoull(value.c_str(), &end, 10);
      if (errno != 0 || end == value.c_str() || *end != '\0') {
        return Status::InvalidArgument("bad seed: " + value);
      }
    } else if (tag == "mode") {
      std::string value;
      tokens >> value;
      ONESQL_ASSIGN_OR_RETURN(fuzz.mode, ParseMode(value));
    } else if (tag == "query") {
      std::string rest;
      std::getline(tokens, rest);
      if (!rest.empty() && rest[0] == ' ') rest.erase(0, 1);
      ONESQL_ASSIGN_OR_RETURN(QuerySpec spec, ParseQueryLine(rest));
      fuzz.queries.push_back(std::move(spec));
    } else if (tag == "event") {
      ONESQL_ASSIGN_OR_RETURN(FeedEvent event, ParseEventLine(&tokens));
      fuzz.events.push_back(std::move(event));
    } else if (tag == "end") {
      saw_end = true;
      break;
    } else {
      return Status::InvalidArgument("unknown corpus line: " + line);
    }
  }
  if (!saw_header || !saw_end) {
    return Status::InvalidArgument("corpus file missing header or end marker");
  }
  if (fuzz.queries.empty()) {
    return Status::InvalidArgument("corpus case has no queries");
  }
  return fuzz;
}

Status WriteCaseFile(const FuzzCase& fuzz, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::DataLoss("cannot open corpus file " + path);
  out << SerializeCase(fuzz);
  out.close();
  if (!out) return Status::DataLoss("failed writing corpus file " + path);
  return Status::OK();
}

Result<FuzzCase> ReadCaseFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::DataLoss("cannot read corpus file " + path);
  std::ostringstream text;
  text << in.rdbuf();
  auto parsed = ParseCase(text.str());
  if (!parsed.ok()) {
    return Status::InvalidArgument(path + ": " + parsed.status().message());
  }
  return parsed;
}

Result<std::vector<std::pair<std::string, FuzzCase>>> LoadCorpusDir(
    const std::string& dir) {
  std::vector<std::pair<std::string, FuzzCase>> cases;
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) return cases;
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) paths.push_back(entry.path().string());
  }
  if (ec) return Status::DataLoss("cannot list corpus dir " + dir);
  std::sort(paths.begin(), paths.end());
  for (const std::string& path : paths) {
    ONESQL_ASSIGN_OR_RETURN(FuzzCase fuzz, ReadCaseFile(path));
    cases.emplace_back(path, std::move(fuzz));
  }
  return cases;
}

}  // namespace testing
}  // namespace onesql
