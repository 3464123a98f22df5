#include "api/request_parse.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <utility>

#include "util/json.h"

namespace kbiplex {

bool ParseInt(const std::string& s, int* out) {
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

bool ParseUint64(const std::string& s, uint64_t* out) {
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

bool ParseSize(const std::string& s, size_t* out) {
  uint64_t v = 0;
  if (!ParseUint64(s, &v)) return false;
  *out = static_cast<size_t>(v);
  return true;
}

// strtod instead of std::from_chars: the floating-point from_chars
// overloads are still missing from some standard libraries (libc++).
// strtod alone is too permissive ("inf", "nan", hex floats, leading
// whitespace/'+' all parse), so the token shape is checked first: plain
// decimal with an optional exponent only.
bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  const char c0 = s[0];
  if (c0 != '-' && c0 != '.' && !(c0 >= '0' && c0 <= '9')) return false;
  for (char c : s) {
    if (std::isalpha(static_cast<unsigned char>(c)) && c != 'e' && c != 'E') {
      return false;
    }
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size() || errno == ERANGE) return false;
  *out = value;
  return true;
}

bool ParseEdgeToken(const std::string& s, VertexId* l, VertexId* r) {
  const size_t colon = s.find(':');
  if (colon == std::string::npos) return false;
  const char* end = s.data() + s.size();
  auto [lp, lec] = std::from_chars(s.data(), s.data() + colon, *l);
  auto [rp, rec] = std::from_chars(s.data() + colon + 1, end, *r);
  return lec == std::errc() && lp == s.data() + colon &&
         rec == std::errc() && rp == end;
}

RequestFlagParse ParseRequestFlag(const std::vector<std::string>& tokens,
                                  size_t* i, EnumerateRequest* request,
                                  std::string* error) {
  const std::string& flag = tokens[*i];
  auto next = [&]() -> std::optional<std::string> {
    if (*i + 1 >= tokens.size()) return std::nullopt;
    return tokens[++*i];
  };
  auto next_parsed = [&](auto parse, auto* out) -> bool {
    auto v = next();
    if (!v.has_value()) {
      *error = flag + " requires a value";
      return false;
    }
    if (!parse(*v, out)) {
      *error = "invalid value for " + flag + ": '" + *v + "'";
      return false;
    }
    return true;
  };

  // A disconnection budget is a count; the JSON form already rejects
  // negatives, the flag form must match.
  auto next_budget = [&](int* out) -> bool {
    if (!next_parsed(ParseInt, out)) return false;
    if (*out < 0) {
      *error = flag + " must be non-negative";
      return false;
    }
    return true;
  };

  if (flag == "--k") {
    int k = 0;
    if (!next_budget(&k)) return RequestFlagParse::kError;
    request->k = KPair::Uniform(k);
  } else if (flag == "--kl") {
    if (!next_budget(&request->k.left)) {
      return RequestFlagParse::kError;
    }
  } else if (flag == "--kr") {
    if (!next_budget(&request->k.right)) {
      return RequestFlagParse::kError;
    }
  } else if (flag == "--max") {
    if (!next_parsed(ParseUint64, &request->max_results)) {
      return RequestFlagParse::kError;
    }
  } else if (flag == "--budget") {
    if (!next_parsed(ParseDouble, &request->time_budget_seconds)) {
      return RequestFlagParse::kError;
    }
    if (request->time_budget_seconds < 0) {
      *error = flag + " must be non-negative";
      return RequestFlagParse::kError;
    }
  } else if (flag == "--max-links") {
    if (!next_parsed(ParseUint64, &request->max_links)) {
      return RequestFlagParse::kError;
    }
  } else if (flag == "--theta-l") {
    if (!next_parsed(ParseSize, &request->theta_left)) {
      return RequestFlagParse::kError;
    }
  } else if (flag == "--theta-r") {
    if (!next_parsed(ParseSize, &request->theta_right)) {
      return RequestFlagParse::kError;
    }
  } else if (flag == "--threads") {
    if (!next_parsed(ParseInt, &request->threads)) {
      return RequestFlagParse::kError;
    }
    if (request->threads < 0) {
      *error = "--threads must be >= 0 (0 = one per hardware thread)";
      return RequestFlagParse::kError;
    }
  } else if (flag == "--algo") {
    auto v = next();
    if (!v) {
      *error = "--algo requires a value";
      return RequestFlagParse::kError;
    }
    request->algorithm = *v;
  } else if (flag == "--opt") {
    auto v = next();
    if (!v) {
      *error = "--opt requires a value";
      return RequestFlagParse::kError;
    }
    const size_t eq = v->find('=');
    if (eq == std::string::npos || eq == 0) {
      *error = "--opt expects KEY=VALUE, got: '" + *v + "'";
      return RequestFlagParse::kError;
    }
    request->backend_options[v->substr(0, eq)] = v->substr(eq + 1);
  } else {
    return RequestFlagParse::kUnknown;
  }
  return RequestFlagParse::kConsumed;
}

std::string ParseRequestLine(const std::string& line,
                             EnumerateRequest* request) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) tokens.push_back(std::move(token));
  for (size_t i = 0; i < tokens.size(); ++i) {
    std::string error;
    switch (ParseRequestFlag(tokens, &i, request, &error)) {
      case RequestFlagParse::kConsumed:
        break;
      case RequestFlagParse::kError:
        return error;
      case RequestFlagParse::kUnknown:
        return "unknown query flag: " + tokens[i];
    }
  }
  return "";
}

namespace {

/// Reads a JSON number member as a non-negative integer that fits `max`.
/// Doubles carry wire integers exactly up to 2^53; protocol fields are far
/// below that, and anything outside [0, max] or non-integral is an error.
bool JsonToUint(const json::JsonValue& v, uint64_t max, uint64_t* out,
                const std::string& key, std::string* error) {
  if (!v.is_number()) {
    *error = "request key '" + key + "' must be a number";
    return false;
  }
  const double d = v.AsNumber();
  if (!(d >= 0) || d != std::floor(d) || d > 9007199254740992.0 ||
      d > static_cast<double>(max)) {
    *error = "request key '" + key + "' must be a non-negative integer";
    return false;
  }
  *out = static_cast<uint64_t>(d);
  return true;
}

}  // namespace

std::string ParseRequestJson(const json::JsonValue& value,
                             EnumerateRequest* request) {
  if (!value.is_object()) return "request must be a JSON object";
  std::string error;
  // 'k' sets both sides, so it conflicts with 'kl'/'kr' in either order.
  bool saw_uniform_k = false;
  std::string saw_side_k;
  for (const auto& [key, v] : value.AsObject()) {
    if (key == "algo" || key == "algorithm") {
      if (!v.is_string()) return "request key '" + key + "' must be a string";
      request->algorithm = v.AsString();
    } else if (key == "k") {
      uint64_t k = 0;
      if (!JsonToUint(v, 1u << 30, &k, key, &error)) return error;
      if (!saw_side_k.empty()) {
        return "request keys 'k' and '" + saw_side_k + "' conflict";
      }
      request->k = KPair::Uniform(static_cast<int>(k));
      saw_uniform_k = true;
    } else if (key == "kl" || key == "kr") {
      uint64_t side_k = 0;
      if (!JsonToUint(v, 1u << 30, &side_k, key, &error)) return error;
      if (saw_uniform_k) return "request keys 'k' and '" + key + "' conflict";
      (key == "kl" ? request->k.left : request->k.right) =
          static_cast<int>(side_k);
      saw_side_k = key;
    } else if (key == "theta_l") {
      uint64_t t = 0;
      if (!JsonToUint(v, UINT64_MAX, &t, key, &error)) return error;
      request->theta_left = static_cast<size_t>(t);
    } else if (key == "theta_r") {
      uint64_t t = 0;
      if (!JsonToUint(v, UINT64_MAX, &t, key, &error)) return error;
      request->theta_right = static_cast<size_t>(t);
    } else if (key == "max") {
      if (!JsonToUint(v, UINT64_MAX, &request->max_results, key, &error)) {
        return error;
      }
    } else if (key == "max_links") {
      if (!JsonToUint(v, UINT64_MAX, &request->max_links, key, &error)) {
        return error;
      }
    } else if (key == "budget_s") {
      if (!v.is_number() || !(v.AsNumber() >= 0)) {
        return "request key 'budget_s' must be a non-negative number";
      }
      request->time_budget_seconds = v.AsNumber();
    } else if (key == "threads") {
      uint64_t t = 0;
      if (!JsonToUint(v, 1u << 16, &t, key, &error)) return error;
      request->threads = static_cast<int>(t);
    } else if (key == "options") {
      if (!v.is_object()) {
        return "request key 'options' must be an object of strings";
      }
      for (const auto& [opt_key, opt_value] : v.AsObject()) {
        if (!opt_value.is_string()) {
          return "request option '" + opt_key + "' must be a string";
        }
        request->backend_options[opt_key] = opt_value.AsString();
      }
    } else {
      return "unknown request key '" + key + "'";
    }
  }
  return "";
}

std::string RequestToWireJson(const EnumerateRequest& request) {
  std::ostringstream os;
  os << "{\"algo\":";
  json::AppendEscaped(os, request.algorithm);
  if (request.k.IsUniform()) {
    os << ",\"k\":" << request.k.left;
  } else {
    os << ",\"kl\":" << request.k.left << ",\"kr\":" << request.k.right;
  }
  if (request.theta_left != 0) os << ",\"theta_l\":" << request.theta_left;
  if (request.theta_right != 0) os << ",\"theta_r\":" << request.theta_right;
  if (request.max_results != 0) os << ",\"max\":" << request.max_results;
  if (request.max_links != 0) os << ",\"max_links\":" << request.max_links;
  if (request.time_budget_seconds > 0) {
    os << ",\"budget_s\":";
    json::AppendDouble(os, request.time_budget_seconds);
  }
  if (request.threads != 1) os << ",\"threads\":" << request.threads;
  if (!request.backend_options.empty()) {
    os << ",\"options\":{";
    bool first = true;
    for (const auto& [key, value] : request.backend_options) {
      if (!first) os << ",";
      first = false;
      json::AppendEscaped(os, key);
      os << ":";
      json::AppendEscaped(os, value);
    }
    os << "}";
  }
  os << "}";
  return os.str();
}

}  // namespace kbiplex
