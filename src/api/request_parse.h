// The one EnumerateRequest wire grammar, shared by every front end that
// accepts requests from outside the process: the CLI `enumerate` / `large`
// argv flags, the CLI `batch` query lines, and the serving daemon's NDJSON
// protocol (serve/). Both forms reject unknown keys and malformed values
// with a structured error instead of silently ignoring them — typos must
// surface before the request runs, because a silently dropped constraint
// changes the answer, not just the performance.
//
// Flag form (argv tokens or a whitespace-split query line):
//
//   --algo NAME --k N | --kl N --kr N
//   --theta-l N --theta-r N --max N --budget SECONDS --max-links N
//   --threads N --opt KEY=VALUE ...
//
// JSON form (the `request` object of the wire protocol, see
// docs/wire_protocol.md):
//
//   {"algo": "itraversal", "k": 2, "kl": 2, "kr": 1,
//    "theta_l": 3, "theta_r": 3, "max": 100, "budget_s": 1.5,
//    "max_links": 0, "threads": 4, "options": {"KEY": "VALUE", ...}}
#ifndef KBIPLEX_API_REQUEST_PARSE_H_
#define KBIPLEX_API_REQUEST_PARSE_H_

#include <string>
#include <vector>

#include "api/enumerate_request.h"
#include "util/json_value.h"

namespace kbiplex {

/// Outcome of consuming one flag token.
enum class RequestFlagParse {
  kConsumed,  // the flag (and its value tokens) were applied to the request
  kUnknown,   // not a request flag; the caller may know it (CLI-only flags)
  kError,     // a request flag with a missing or malformed value
};

/// Parses tokens[*i] (plus its value tokens) into `request`. Advances *i
/// past consumed tokens on kConsumed; fills `error` on kError. The CLI
/// uses this directly so command-specific flags (--format, --queries, ...)
/// can interleave with request flags.
RequestFlagParse ParseRequestFlag(const std::vector<std::string>& tokens,
                                  size_t* i, EnumerateRequest* request,
                                  std::string* error);

/// Parses a whole query line (whitespace-split request flags, the `batch`
/// grammar) into `request`. Returns the error, empty on success; unknown
/// flags are errors here — a query line has no command-specific flags.
std::string ParseRequestLine(const std::string& line,
                             EnumerateRequest* request);

/// Parses the JSON form into `request`. `value` must be a JSON object;
/// unknown keys, wrong member types, and out-of-range numbers are errors.
/// Returns the error, empty on success.
std::string ParseRequestJson(const json::JsonValue& value,
                             EnumerateRequest* request);

/// Serializes `request` as the JSON form, inverse of ParseRequestJson for
/// every field the wire carries (the cancellation pointer is process-local
/// and never serialized). Used by clients that build wire requests from a
/// parsed flag line.
std::string RequestToWireJson(const EnumerateRequest& request);

// Strict full-token numeric parsing shared by the flag grammar: trailing
// garbage ("5x"), a lone "-", and negative values for unsigned fields are
// errors, not silently-truncated or wrapped values. Exposed for front ends
// that parse their own command-specific flags with identical strictness.
bool ParseInt(const std::string& s, int* out);
bool ParseUint64(const std::string& s, uint64_t* out);
bool ParseSize(const std::string& s, size_t* out);
bool ParseDouble(const std::string& s, double* out);

/// Parses an edge token "L:R" (two vertex ids, each at most 4294967295,
/// no sign) with the same strictness. Shared by the CLI `batch` update
/// lines and the client's --insert/--delete flags.
bool ParseEdgeToken(const std::string& s, VertexId* l, VertexId* r);

}  // namespace kbiplex

#endif  // KBIPLEX_API_REQUEST_PARSE_H_
