// The shared EnumerateRequest wire grammar and the strict JSON parser
// under it: both front ends (flag lines, JSON objects) must reject
// unknown keys and malformed values with a structured error — a silently
// dropped constraint changes the answer — and the JSON form must round
// trip through RequestToWireJson.

#include <string>

#include <gtest/gtest.h>

#include "api/request_parse.h"
#include "serve/wire.h"
#include "util/json_value.h"

namespace kbiplex {
namespace {

EnumerateRequest MustParseLine(const std::string& line) {
  EnumerateRequest request;
  const std::string err = ParseRequestLine(line, &request);
  EXPECT_EQ(err, "") << line;
  return request;
}

std::string LineError(const std::string& line) {
  EnumerateRequest request;
  return ParseRequestLine(line, &request);
}

std::string JsonError(const std::string& text) {
  json::ParseResult parsed = json::Parse(text);
  EXPECT_TRUE(parsed.ok()) << parsed.error;
  EnumerateRequest request;
  return ParseRequestJson(parsed.value, &request);
}

TEST(RequestParseTest, FlagLineParsesEveryField) {
  const EnumerateRequest r = MustParseLine(
      "--algo imb --kl 2 --kr 1 --theta-l 3 --theta-r 4 --max 10 "
      "--budget 1.5 --max-links 99 --threads 4 --opt key=value");
  EXPECT_EQ(r.algorithm, "imb");
  EXPECT_EQ(r.k.left, 2);
  EXPECT_EQ(r.k.right, 1);
  EXPECT_EQ(r.theta_left, 3u);
  EXPECT_EQ(r.theta_right, 4u);
  EXPECT_EQ(r.max_results, 10u);
  EXPECT_DOUBLE_EQ(r.time_budget_seconds, 1.5);
  EXPECT_EQ(r.max_links, 99u);
  EXPECT_EQ(r.threads, 4);
  ASSERT_EQ(r.backend_options.count("key"), 1u);
  EXPECT_EQ(r.backend_options.at("key"), "value");
}

TEST(RequestParseTest, FlagLineRejectsUnknownAndMalformed) {
  EXPECT_NE(LineError("--algo itraversal --bogus 3"), "");
  EXPECT_NE(LineError("--k"), "");          // missing value
  EXPECT_NE(LineError("--k 2x"), "");       // trailing garbage
  EXPECT_NE(LineError("--k -1"), "");       // negative budget
  EXPECT_NE(LineError("--budget abc"), "");
  EXPECT_NE(LineError("--opt novalue"), "");  // --opt wants KEY=VALUE
}

TEST(RequestParseTest, EdgeTokenIsStrict) {
  VertexId l = 7, r = 7;
  ASSERT_TRUE(ParseEdgeToken("0:1", &l, &r));
  EXPECT_EQ(l, 0u);
  EXPECT_EQ(r, 1u);
  ASSERT_TRUE(ParseEdgeToken("4294967295:0", &l, &r));
  EXPECT_EQ(l, 4294967295u);
  EXPECT_EQ(r, 0u);

  for (const char* bad : {"4294967296:0", "1x:0", "-1:2", "+1:2", ":3", "3:",
                          "1:2:3", ""}) {
    EXPECT_FALSE(ParseEdgeToken(bad, &l, &r)) << "'" << bad << "'";
  }
}

TEST(RequestParseTest, JsonFormParsesAndRejectsUnknownKeys) {
  json::ParseResult parsed = json::Parse(
      "{\"algo\":\"large-mbp\",\"kl\":2,\"kr\":1,\"theta_l\":3,"
      "\"theta_r\":4,\"max\":7,\"budget_s\":0.25,\"threads\":2,"
      "\"options\":{\"a\":\"b\"}}");
  ASSERT_TRUE(parsed.ok());
  EnumerateRequest r;
  ASSERT_EQ(ParseRequestJson(parsed.value, &r), "");
  EXPECT_EQ(r.algorithm, "large-mbp");
  EXPECT_EQ(r.k.left, 2);
  EXPECT_EQ(r.k.right, 1);
  EXPECT_EQ(r.theta_left, 3u);
  EXPECT_EQ(r.max_results, 7u);
  EXPECT_EQ(r.threads, 2);
  EXPECT_EQ(r.backend_options.at("a"), "b");

  EXPECT_NE(JsonError("{\"k\":1,\"bogus\":true}"), "");
  EXPECT_NE(JsonError("{\"k\":\"two\"}"), "");    // wrong type
  EXPECT_NE(JsonError("{\"k\":-3}"), "");          // out of range
  EXPECT_NE(JsonError("{\"options\":{\"a\":1}}"), "");  // non-string option
}

TEST(RequestParseTest, WireJsonRoundTrips) {
  const EnumerateRequest original = MustParseLine(
      "--algo imb --kl 2 --kr 1 --theta-l 3 --theta-r 4 --max 10 "
      "--budget 1.5 --max-links 99 --threads 4 --opt key=value");
  json::ParseResult parsed = json::Parse(RequestToWireJson(original));
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EnumerateRequest round;
  ASSERT_EQ(ParseRequestJson(parsed.value, &round), "");
  EXPECT_EQ(round.algorithm, original.algorithm);
  EXPECT_EQ(round.k.left, original.k.left);
  EXPECT_EQ(round.k.right, original.k.right);
  EXPECT_EQ(round.theta_left, original.theta_left);
  EXPECT_EQ(round.theta_right, original.theta_right);
  EXPECT_EQ(round.max_results, original.max_results);
  EXPECT_DOUBLE_EQ(round.time_budget_seconds, original.time_budget_seconds);
  EXPECT_EQ(round.max_links, original.max_links);
  EXPECT_EQ(round.threads, original.threads);
  EXPECT_EQ(round.backend_options, original.backend_options);
}

TEST(JsonValueTest, ParsesTheBasics) {
  json::ParseResult r = json::Parse(
      "{\"s\":\"a\\\"b\",\"n\":-1.5e2,\"b\":true,\"z\":null,"
      "\"arr\":[1,2,3],\"obj\":{\"k\":\"v\"}}");
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.value.Find("s")->AsString(), "a\"b");
  EXPECT_DOUBLE_EQ(r.value.Find("n")->AsNumber(), -150.0);
  EXPECT_TRUE(r.value.Find("b")->AsBool());
  EXPECT_TRUE(r.value.Find("z")->is_null());
  EXPECT_EQ(r.value.Find("arr")->AsArray().size(), 3u);
  EXPECT_EQ(r.value.Find("obj")->Find("k")->AsString(), "v");
  EXPECT_EQ(r.value.Find("missing"), nullptr);
}

TEST(JsonValueTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(json::Parse("").ok());
  EXPECT_FALSE(json::Parse("{").ok());
  EXPECT_FALSE(json::Parse("{\"a\":1,}").ok());    // trailing comma
  EXPECT_FALSE(json::Parse("{\"a\" 1}").ok());      // missing colon
  EXPECT_FALSE(json::Parse("[1,2] trailing").ok());
  EXPECT_FALSE(json::Parse("'single'").ok());
  EXPECT_FALSE(json::Parse("{\"a\":01}").ok());     // leading zero
  EXPECT_FALSE(json::Parse("\"\\x\"").ok());        // bad escape
}

TEST(WireCommandTest, ParsesQueryAndRejectsUnknownKeysPerOp) {
  serve::WireCommand cmd;
  ASSERT_EQ(serve::ParseCommand(
                "{\"op\":\"query\",\"id\":42,\"graph\":\"g\","
                "\"deadline_ms\":250,\"emit\":\"count\","
                "\"request\":{\"algo\":\"itraversal\",\"k\":2}}",
                &cmd),
            "");
  EXPECT_EQ(cmd.op, "query");
  EXPECT_EQ(cmd.id, "42");
  EXPECT_EQ(cmd.graph, "g");
  EXPECT_EQ(cmd.deadline_ms, 250u);
  EXPECT_TRUE(cmd.count_only);
  EXPECT_EQ(cmd.request.algorithm, "itraversal");
  EXPECT_EQ(cmd.request.k.left, 2);

  // Unknown keys are per-op errors, and the id survives for the error
  // response even when parsing fails.
  serve::WireCommand bad;
  EXPECT_NE(serve::ParseCommand(
                "{\"op\":\"query\",\"id\":\"q7\",\"graph\":\"g\","
                "\"name\":\"x\",\"request\":{\"k\":1}}",
                &bad),
            "");
  EXPECT_EQ(bad.id, "\"q7\"");
  EXPECT_NE(
      serve::ParseCommand("{\"op\":\"ping\",\"graph\":\"g\"}", &bad), "");
  EXPECT_NE(serve::ParseCommand("{\"op\":\"nope\"}", &bad), "");
  EXPECT_NE(serve::ParseCommand("{\"op\":\"load\",\"name\":\"g\"}", &bad),
            "");  // load requires path
  EXPECT_NE(serve::ParseCommand("not json", &bad), "");
  EXPECT_NE(serve::ParseCommand(
                "{\"op\":\"query\",\"graph\":\"g\",\"request\":"
                "{\"k\":1},\"emit\":\"maybe\"}",
                &bad),
            "");  // emit has two spellings only
}

TEST(WireCommandTest, ResponseLinesAreWellFormedJson) {
  Biplex b;
  b.left = {1, 2};
  b.right = {3};
  json::ParseResult r = json::Parse(serve::SolutionLine("7", b));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value.Find("type")->AsString(), "solution");
  EXPECT_EQ(r.value.Find("left")->AsArray().size(), 2u);

  r = json::Parse(serve::ErrorLine("null", serve::kOverloaded,
                                   "queue \"full\"\n"));
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.value.Find("code")->AsNumber(), 429);
  EXPECT_EQ(r.value.Find("message")->AsString(), "queue \"full\"\n");

  r = json::Parse(serve::DoneLine("7", "{\"solutions\":3}"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value.Find("stats")->Find("solutions")->AsNumber(), 3);
}

}  // namespace
}  // namespace kbiplex
