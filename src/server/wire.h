#ifndef ONESQL_SERVER_WIRE_H_
#define ONESQL_SERVER_WIRE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/schema.h"
#include "common/value.h"
#include "engine/engine.h"
#include "exec/sink.h"
#include "server/json.h"

namespace onesql {
namespace server {

/// Value / row / schema codecs for the line-delimited JSON wire protocol
/// (DESIGN.md §13). Shared by the server core, the tests, and the fuzzer's
/// sharing oracle, so there is exactly one encoding of every engine type.

/// Value -> JSON by runtime type: NULL -> null, BOOLEAN -> bool, BIGINT ->
/// int, DOUBLE -> number (round-trip precision), VARCHAR -> string,
/// TIMESTAMP -> int milliseconds, INTERVAL -> int milliseconds. Timestamps
/// and intervals are indistinguishable from BIGINT on the wire — the client
/// disambiguates by the declared schema, exactly as rows carry no type tags
/// inside the engine.
Json EncodeValue(const Value& v);

/// JSON -> Value under a declared column type. Integers widen to DOUBLE
/// columns; null decodes as SQL NULL for any type.
Result<Value> DecodeValue(const Json& j, DataType type);

Json EncodeRow(const Row& row);
Result<Row> DecodeRow(const Json& j, const Schema& schema);

/// Schema <-> JSON: an array of {"name": ..., "type": "BIGINT" | ... ,
/// "event_time": bool?} objects.
Json EncodeSchema(const Schema& schema);
Result<Schema> DecodeSchema(const Json& j);

Result<DataType> ParseDataType(const std::string& name);

/// Feed events: {"kind": "insert"|"delete"|"watermark", "source": ...,
/// "ptime": ms, "row": [...] | "watermark": ms}, or a clock move
/// {"kind": "clock", "ptime": ms} (what `advance` feeds).
Json EncodeFeedEvent(const FeedEvent& event);
Result<FeedEvent> DecodeFeedEvent(const Json& j, const plan::Catalog& catalog);

/// The payload fragment shared by every subscriber of one emission:
/// `"row":[...],"undo":bool,"ptime":ms,"ver":N}` — everything after the
/// per-subscriber prefix. Encoded once per emission and fanned out by
/// shared_ptr, so pushing to 10k subscribers serializes each row once.
std::shared_ptr<const std::string> EncodeDeltaPayload(const exec::Emission& e);

/// One complete pushed changelog line (no trailing newline):
/// {"push":"delta","sub":<sub>,"seq":<seq>,<payload...>}. `seq` is the
/// emission's index in the query's changelog — the re-subscription cursor.
std::string EncodeDeltaLine(uint64_t sub, uint64_t seq,
                            const std::string& payload);

/// Convenience for tests and the sharing oracle: the full line for an
/// emission, built through the same payload path the server uses.
std::string EncodeDeltaLine(uint64_t sub, uint64_t seq,
                            const exec::Emission& e);

/// The `explain` response body: Engine::ExplainAnalyze's JSON rendering
/// re-parsed into the wire document model, so clients receive a structured
/// "analysis" object rather than a doubly-encoded string. Fails (Internal)
/// if the analysis JSON is malformed — a renderer bug, not client error.
Result<Json> EncodeExplainAnalysis(const ExplainAnalysis& analysis);

}  // namespace server
}  // namespace onesql

#endif  // ONESQL_SERVER_WIRE_H_
