#ifndef ONESQL_TESTING_CORPUS_H_
#define ONESQL_TESTING_CORPUS_H_

#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "testing/feed_gen.h"

namespace onesql {
namespace testing {

/// Corpus files are self-contained text renderings of one FuzzCase: the
/// query specs (structural fields plus the rendered SQL) and the exact
/// feed, with doubles in hexfloat so every bit round-trips. A minimized
/// failing case checked into tests/fuzz/corpus/ replays forever in tier-1,
/// independent of how the generator's seed mapping evolves.
///
/// Format (line-oriented, '#' starts a comment line):
///   onesql-fuzz-case v1
///   seed <u64>
///   mode <deletes_perfect|insert_only_perfect|insert_only_sloppy>
///   query shape=<shape> dur=<ms> hop=<ms> gap=<ms> keyed=<0|1> ...
///         aggs=<csv|-> sql=<rest of line>
///   event insert <source> <ptime_ms> <ts_ms> <k|N> <v|N> <d_hex|N> <item|N>
///   event delete <source> ...same columns...
///   event watermark <source> <ptime_ms> <wm_ms>
///   event clock <ptime_ms>
///   end
std::string SerializeCase(const FuzzCase& fuzz);

Result<FuzzCase> ParseCase(const std::string& text);

Status WriteCaseFile(const FuzzCase& fuzz, const std::string& path);

Result<FuzzCase> ReadCaseFile(const std::string& path);

/// Loads every regular file in `dir` (non-recursive), sorted by filename
/// for deterministic replay order. A missing directory is an empty corpus,
/// not an error; an unparseable file is.
Result<std::vector<std::pair<std::string, FuzzCase>>> LoadCorpusDir(
    const std::string& dir);

}  // namespace testing
}  // namespace onesql

#endif  // ONESQL_TESTING_CORPUS_H_
