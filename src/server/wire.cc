#include "server/wire.h"

namespace onesql {
namespace server {

Json EncodeValue(const Value& v) {
  switch (v.type()) {
    case DataType::kNull:
      return Json::Null();
    case DataType::kBoolean:
      return Json::Bool(v.AsBool());
    case DataType::kBigint:
      return Json::Int(v.AsInt64());
    case DataType::kDouble:
      return Json::Double(v.AsDouble());
    case DataType::kVarchar:
      return Json::Str(v.AsString());
    case DataType::kTimestamp:
      return Json::Int(v.AsTimestamp().millis());
    case DataType::kInterval:
      return Json::Int(v.AsInterval().millis());
  }
  return Json::Null();
}

Result<Value> DecodeValue(const Json& j, DataType type) {
  if (j.is_null()) return Value::Null();
  switch (type) {
    case DataType::kNull:
      break;
    case DataType::kBoolean:
      if (j.is_bool()) return Value::Bool(j.AsBool());
      break;
    case DataType::kBigint:
      if (j.is_int()) return Value::Int64(j.AsInt());
      break;
    case DataType::kDouble:
      if (j.is_number()) return Value::Double(j.AsDouble());
      break;
    case DataType::kVarchar:
      if (j.is_string()) return Value::String(j.AsString());
      break;
    case DataType::kTimestamp:
      if (j.is_int()) return Value::Time(Timestamp(j.AsInt()));
      break;
    case DataType::kInterval:
      if (j.is_int()) return Value::Duration(Interval(j.AsInt()));
      break;
  }
  return Status::InvalidArgument(std::string("cannot decode ") +
                                 j.Serialize() + " as " +
                                 DataTypeToString(type));
}

Json EncodeRow(const Row& row) {
  Json out = Json::Array();
  for (const Value& v : row) out.Add(EncodeValue(v));
  return out;
}

Result<Row> DecodeRow(const Json& j, const Schema& schema) {
  if (!j.is_array()) {
    return Status::InvalidArgument("row must be a JSON array");
  }
  if (j.items().size() != schema.num_fields()) {
    return Status::InvalidArgument(
        "row arity mismatch: got " + std::to_string(j.items().size()) +
        " values for " + std::to_string(schema.num_fields()) + " columns");
  }
  Row row;
  row.reserve(j.items().size());
  for (size_t i = 0; i < j.items().size(); ++i) {
    ONESQL_ASSIGN_OR_RETURN(Value v,
                            DecodeValue(j.items()[i], schema.field(i).type));
    row.push_back(std::move(v));
  }
  return row;
}

Result<DataType> ParseDataType(const std::string& name) {
  const std::string lower = ToLower(name);
  if (lower == "boolean") return DataType::kBoolean;
  if (lower == "bigint") return DataType::kBigint;
  if (lower == "double") return DataType::kDouble;
  if (lower == "varchar") return DataType::kVarchar;
  if (lower == "timestamp") return DataType::kTimestamp;
  if (lower == "interval") return DataType::kInterval;
  return Status::InvalidArgument("unknown data type '" + name + "'");
}

Json EncodeSchema(const Schema& schema) {
  Json out = Json::Array();
  for (const Field& f : schema.fields()) {
    Json field = Json::Object();
    field.Set("name", Json::Str(f.name));
    field.Set("type", Json::Str(DataTypeToString(f.type)));
    if (f.is_event_time) field.Set("event_time", Json::Bool(true));
    out.Add(std::move(field));
  }
  return out;
}

Result<Schema> DecodeSchema(const Json& j) {
  if (!j.is_array()) {
    return Status::InvalidArgument("schema must be a JSON array of columns");
  }
  std::vector<Field> fields;
  fields.reserve(j.items().size());
  for (const Json& item : j.items()) {
    if (!item.is_object()) {
      return Status::InvalidArgument("schema column must be a JSON object");
    }
    const Json* name = item.Find("name");
    const Json* type = item.Find("type");
    if (name == nullptr || !name->is_string() || type == nullptr ||
        !type->is_string()) {
      return Status::InvalidArgument(
          "schema column needs string \"name\" and \"type\"");
    }
    Field field;
    field.name = name->AsString();
    ONESQL_ASSIGN_OR_RETURN(field.type, ParseDataType(type->AsString()));
    const Json* et = item.Find("event_time");
    if (et != nullptr) {
      if (!et->is_bool()) {
        return Status::InvalidArgument("\"event_time\" must be a boolean");
      }
      field.is_event_time = et->AsBool();
      if (field.is_event_time && field.type != DataType::kTimestamp) {
        return Status::InvalidArgument("event time column '" + field.name +
                                       "' must be TIMESTAMP");
      }
    }
    fields.push_back(std::move(field));
  }
  return Schema(std::move(fields));
}

Json EncodeFeedEvent(const FeedEvent& event) {
  Json out = Json::Object();
  switch (event.kind) {
    case FeedEvent::Kind::kInsert:
      out.Set("kind", Json::Str("insert"));
      break;
    case FeedEvent::Kind::kDelete:
      out.Set("kind", Json::Str("delete"));
      break;
    case FeedEvent::Kind::kWatermark:
      out.Set("kind", Json::Str("watermark"));
      break;
    case FeedEvent::Kind::kClock:
      out.Set("kind", Json::Str("clock"));
      out.Set("ptime", Json::Int(event.ptime.millis()));
      return out;
  }
  out.Set("source", Json::Str(event.source));
  out.Set("ptime", Json::Int(event.ptime.millis()));
  if (event.kind == FeedEvent::Kind::kWatermark) {
    out.Set("watermark", Json::Int(event.watermark.millis()));
  } else {
    out.Set("row", EncodeRow(event.row));
  }
  return out;
}

Result<FeedEvent> DecodeFeedEvent(const Json& j,
                                  const plan::Catalog& catalog) {
  if (!j.is_object()) {
    return Status::InvalidArgument("feed event must be a JSON object");
  }
  const Json* kind = j.Find("kind");
  const Json* source = j.Find("source");
  const Json* ptime = j.Find("ptime");
  FeedEvent event;
  if (kind != nullptr && kind->is_string() && kind->AsString() == "clock" &&
      ptime != nullptr && ptime->is_int()) {
    event.kind = FeedEvent::Kind::kClock;
    event.ptime = Timestamp(ptime->AsInt());
    return event;
  }
  if (kind == nullptr || !kind->is_string() || source == nullptr ||
      !source->is_string() || ptime == nullptr || !ptime->is_int()) {
    return Status::InvalidArgument(
        "feed event needs string \"kind\", string \"source\", int \"ptime\"");
  }
  event.source = source->AsString();
  event.ptime = Timestamp(ptime->AsInt());
  const std::string& k = kind->AsString();
  if (k == "watermark") {
    event.kind = FeedEvent::Kind::kWatermark;
    const Json* wm = j.Find("watermark");
    if (wm == nullptr || !wm->is_int()) {
      return Status::InvalidArgument(
          "watermark event needs int \"watermark\"");
    }
    event.watermark = Timestamp(wm->AsInt());
    return event;
  }
  if (k == "insert") {
    event.kind = FeedEvent::Kind::kInsert;
  } else if (k == "delete") {
    event.kind = FeedEvent::Kind::kDelete;
  } else {
    return Status::InvalidArgument("unknown feed event kind '" + k + "'");
  }
  const Json* row = j.Find("row");
  if (row == nullptr) {
    return Status::InvalidArgument("row event needs \"row\"");
  }
  ONESQL_ASSIGN_OR_RETURN(const plan::TableDef* def,
                          catalog.Lookup(event.source));
  ONESQL_ASSIGN_OR_RETURN(event.row, DecodeRow(*row, def->schema));
  return event;
}

std::shared_ptr<const std::string> EncodeDeltaPayload(
    const exec::Emission& e) {
  std::string payload = "\"row\":";
  EncodeRow(e.row).SerializeTo(&payload);
  payload += ",\"undo\":";
  payload += e.undo ? "true" : "false";
  payload += ",\"ptime\":";
  payload += std::to_string(e.ptime.millis());
  payload += ",\"ver\":";
  payload += std::to_string(e.ver);
  payload += "}";
  return std::make_shared<const std::string>(std::move(payload));
}

std::string EncodeDeltaLine(uint64_t sub, uint64_t seq,
                            const std::string& payload) {
  std::string line = "{\"push\":\"delta\",\"sub\":";
  line += std::to_string(sub);
  line += ",\"seq\":";
  line += std::to_string(seq);
  line += ",";
  line += payload;
  return line;
}

std::string EncodeDeltaLine(uint64_t sub, uint64_t seq,
                            const exec::Emission& e) {
  return EncodeDeltaLine(sub, seq, *EncodeDeltaPayload(e));
}

Result<Json> EncodeExplainAnalysis(const ExplainAnalysis& analysis) {
  Result<Json> parsed = Json::Parse(analysis.json);
  if (!parsed.ok()) {
    return Status::Internal("EXPLAIN ANALYZE produced malformed JSON: " +
                            parsed.status().message());
  }
  return parsed;
}

}  // namespace server
}  // namespace onesql
