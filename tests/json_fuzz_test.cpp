// Deterministic mutation fuzzing of the service's input parsers:
// obs::json_parse, which reads every service request line and every trace
// or flight-dump line the schema validator checks; svc::parse_request on
// top of it (revise lines reach inc::parse_patch); and alloc::parse_problem
// on the problem text the submit requests carry. Seeded byte flips,
// truncations, splices, insertions and deep nesting over a corpus of valid
// requests and real trace lines: no parser may crash or hang, each call
// returns a value or a rejection, and every JSON document json_parse
// accepts must survive render -> parse -> render unchanged. The asan and
// ubsan presets run this suite like any other.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc/io.hpp"
#include "obs/events.hpp"
#include "obs/json.hpp"
#include "svc/protocol.hpp"

namespace optalloc {
namespace {

/// Canonical rendering of a parsed document (object keys in map order).
std::string render(const obs::JsonValue& v) {
  switch (v.kind) {
    case obs::JsonValue::Kind::kNull:
      return "null";
    case obs::JsonValue::Kind::kBool:
      return v.b ? "true" : "false";
    case obs::JsonValue::Kind::kNumber:
      return obs::json_number(v.number);
    case obs::JsonValue::Kind::kString:
      return "\"" + obs::json_escape(v.string) + "\"";
    case obs::JsonValue::Kind::kArray: {
      obs::JsonArray a;
      for (const auto& e : v.array) a.push(render(e));
      return a.build();
    }
    case obs::JsonValue::Kind::kObject: {
      obs::JsonObject o;
      for (const auto& [k, e] : v.object) o.raw(k, render(e));
      return o.build();
    }
  }
  return "";
}

/// Valid service requests plus trace and flight-dump lines produced by
/// the real emitters.
std::vector<std::string> corpus() {
  std::vector<std::string> docs = {
      R"({"verb":"submit","problem":"system 3\ntask a period=10 deadline=10 wcet=1,2,3\n","objective":"sum-trt","deadline_ms":1500,"threads":1,"wait":true})",
      R"({"verb":"status","id":"r17"})",
      R"({"verb":"revise","session":"s1","edits":[{"op":"set_deadline","task":"monitor","deadline":140},{"op":"separate","tasks":["a","b"]}]})",
      R"({"verb":"revise","session":"s2","edits":[{"op":"set_wcet","task":"a","ecu":1,"wcet":12},{"op":"add_task","task":"b","period":20,"deadline":15,"wcet":[2,3]},{"op":"add_message","task":"a","target":"b","bytes":4,"deadline":12},{"op":"set_message_size","task":"a","index":0,"bytes":8},{"op":"separate","task":"a","target":"b"}],"deadline_ms":250})",
      R"({"verb":"session_open","problem":"system 5\nmemory 0 100\ngateway_only 1\nmedium k1 token_ring ecus=0,1,2 byte_ticks=1 slot_min=1 slot_max=16 gateway_cost=3\nmedium k2 token_ring ecus=1,3 byte_ticks=1 slot_min=1 slot_max=16\nmedium c can ecus=2,4 bit_ticks=1 bits_per_tick=25\n# leaf tasks\ntask acquire period=200 deadline=80 jitter=2 memory=4 wcet=-,-,-,12,-\ntask logger period=200 deadline=200 wcet=-,-,8,-,8\ntask control period=100 deadline=60 wcet=15,-,18,18,-\nmessage acquire -> logger bytes=4 deadline=150 jitter=0\nmessage control -> logger bytes=2 deadline=80\nseparate control logger\n","objective":"trt:k1"})",
      R"({"verb":"query","metric":"svc.revise_ms.p99","last_s":60.5})",
      R"({"ok":false,"error":"bad \"quote\" \\ and é\t","code":"bad_request"})",
      R"([1,-2.5,3e-7,1.5E+20,true,false,null,"",[],{}])",
      R"({"nested":{"a":[{"b":[[0]]}]},"empty":"","neg":-0})",
  };
  std::ostringstream sink;
  obs::trace_to_stream(&sink);
  obs::flight_reset();
  obs::Event(obs::ev::solve)
      .num("call", 2)
      .num("lo", 10)
      .num("hi", 20)
      .choice("result", "sat", 1)
      .num("conflicts", 1234)
      .num("seconds", 0.012345);
  obs::Event(obs::ev::search_sample)
      .num("conflicts", 2048)
      .num("props_per_sec", 1.25e6)
      .num("lbd_mean", 4.75)
      .boolean("final", false);
  obs::Event(obs::ev::request_done)
      .str("id", "r1")
      .str("state", "done")
      .boolean("proven_optimal", true)
      .num("seconds", 0.5);
  std::size_t n = 0;
  const std::string ring = obs::flight_dump_events(0, &n);
  obs::Event(obs::ev::flight_dump)
      .str("id", "r1")
      .str("reason", "deadline_expired")
      .num("count", static_cast<std::int64_t>(n))
      .raw("events", ring);
  obs::trace_close();
  std::istringstream lines(sink.str());
  std::string line;
  while (std::getline(lines, line)) docs.push_back(line);
  return docs;
}

/// Parse `doc`; if accepted, render -> parse -> render must be stable.
void check(const std::string& doc) {
  const auto parsed = obs::json_parse(doc);
  if (!parsed) return;
  const std::string once = render(*parsed);
  const auto reparsed = obs::json_parse(once);
  ASSERT_TRUE(reparsed.has_value()) << "rendering does not parse: " << once;
  EXPECT_EQ(render(*reparsed), once) << "from: " << doc;
}

TEST(JsonFuzz, CorpusParsesAndRoundTrips) {
  const auto docs = corpus();
  ASSERT_GE(docs.size(), 10u);
  for (const auto& doc : docs) {
    ASSERT_TRUE(obs::json_parse(doc).has_value()) << doc;
    check(doc);
  }
}

/// Seeded mutator: case `c` of a fuzz run turns a random corpus document
/// into a byte-flipped, truncated, spliced, punctuated or deeply nested
/// variant.
class Mutator {
 public:
  explicit Mutator(const std::vector<std::string>& docs) : docs_(docs) {}

  std::string next(int c) {
    std::string doc = docs_[pick(docs_.size())];
    switch (c % 5) {
      case 0:  // flip bytes anywhere
        for (int k = 1 + static_cast<int>(pick(4)); k > 0; --k) {
          if (doc.empty()) break;
          doc[pick(doc.size())] = static_cast<char>(rng_());
        }
        break;
      case 1:  // truncate
        doc.resize(pick(doc.size() + 1));
        break;
      case 2: {  // splice the head of one document onto another's tail
        const std::string& other = docs_[pick(docs_.size())];
        doc = doc.substr(0, pick(doc.size() + 1)) +
              other.substr(pick(other.size() + 1));
        break;
      }
      case 3:  // insert JSON-significant characters
        for (int k = 1 + static_cast<int>(pick(3)); k > 0; --k) {
          doc.insert(pick(doc.size() + 1), 1,
                     kStructural[pick(sizeof kStructural - 1)]);
        }
        break;
      case 4: {  // wrap in a random depth of arrays or objects
        const std::size_t depth = pick(400);
        const bool arrays = (rng_() & 1) != 0;
        std::string open, close;
        for (std::size_t d = 0; d < depth; ++d) {
          open += arrays ? "[" : "{\"k\":";
          close += arrays ? "]" : "}";
        }
        doc = open + doc + close;
        break;
      }
    }
    return doc;
  }

 private:
  static constexpr char kStructural[] = "{}[]\":,\\-.0123456789eEtfnu ";

  std::size_t pick(std::size_t n) {
    return static_cast<std::size_t>(rng_() % (n == 0 ? 1 : n));
  }

  const std::vector<std::string>& docs_;
  std::mt19937_64 rng_{20061};  // fixed seed: the same cases every run
};

constexpr int kCases = 4000;

TEST(JsonFuzz, MutationsNeverCrashAndAcceptedDocumentsRoundTrip) {
  const auto docs = corpus();
  Mutator mutator(docs);
  int accepted = 0;
  for (int c = 0; c < kCases; ++c) {
    const std::string doc = mutator.next(c);
    if (obs::json_parse(doc)) ++accepted;
    check(doc);
    if (HasFatalFailure()) return;
  }
  // The mix must exercise both outcomes.
  EXPECT_GT(accepted, kCases / 20);
  EXPECT_LT(accepted, kCases);
}

TEST(ParserFuzz, RequestMutationsYieldARequestOrARejection) {
  const auto docs = corpus();
  Mutator mutator(docs);
  int accepted = 0, revises = 0, bad_patches = 0;
  for (int c = 0; c < kCases; ++c) {
    const std::string line = mutator.next(c);
    std::string error, code;
    const auto req = svc::parse_request(line, &error, &code);
    if (!req) {
      EXPECT_FALSE(error.empty()) << line;
      EXPECT_FALSE(code.empty()) << line;
      bad_patches += code == "bad_patch" ? 1 : 0;
      continue;
    }
    ++accepted;
    revises += req->verb == svc::Request::Verb::kRevise ? 1 : 0;
  }
  // Mutated revise lines reach inc::parse_patch on both of its paths.
  EXPECT_GT(accepted, kCases / 20);
  EXPECT_LT(accepted, kCases);
  EXPECT_GT(revises, 0);
  EXPECT_GT(bad_patches, 0);
}

/// The problem texts the corpus's requests carry.
std::vector<std::string> problem_corpus() {
  std::vector<std::string> problems;
  for (const auto& doc : corpus()) {
    const auto parsed = obs::json_parse(doc);
    if (!parsed) continue;
    if (const auto text = parsed->get_string("problem")) {
      problems.push_back(*text);
    }
  }
  return problems;
}

/// parse_problem's contract: a Problem, or std::runtime_error naming the
/// offending line. Returns whether `text` was accepted.
bool parse_or_reject(const std::string& text) {
  std::istringstream in(text);
  try {
    alloc::parse_problem(in, "fuzz");
    return true;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("fuzz"), std::string::npos)
        << e.what();
    return false;
  }
}

TEST(ParserFuzz, ProblemMutationsParseOrThrow) {
  const auto problems = problem_corpus();
  ASSERT_GE(problems.size(), 2u);
  for (const auto& text : problems) ASSERT_TRUE(parse_or_reject(text)) << text;
  Mutator mutator(problems);
  int accepted = 0;
  for (int c = 0; c < kCases; ++c) {
    if (parse_or_reject(mutator.next(c))) ++accepted;
    if (HasFailure()) return;
  }
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kCases);
}

TEST(JsonFuzz, DeepNestingIsRejectedNotOverflowed) {
  // A request line of a million '[' would otherwise recurse a million
  // frames deep.
  EXPECT_FALSE(obs::json_parse(std::string(1'000'000, '[')).has_value());
  std::string objects;
  for (int d = 0; d < 200'000; ++d) objects += "{\"k\":";
  EXPECT_FALSE(obs::json_parse(objects).has_value());
  std::string deep(200'000, '[');
  deep += std::string(200'000, ']');
  EXPECT_FALSE(obs::json_parse(deep).has_value());
  // Within the bound nesting still parses.
  std::string ok(256, '[');
  ok += std::string(256, ']');
  EXPECT_TRUE(obs::json_parse(ok).has_value());
  EXPECT_FALSE(obs::json_parse("[" + ok + "]").has_value());
}

}  // namespace
}  // namespace optalloc
