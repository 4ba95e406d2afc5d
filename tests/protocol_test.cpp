// Request-reader regression tests over the seeded corpus in
// parse_corpus.hpp.
//
// tests/data/parse_corpus.golden was produced by building parse_golden.cpp
// against commit 64dd448 — the last tree whose request reader was an
// in-place scanner with a JsonValue-tree fallback — and running
//
//   parse_golden > tests/data/parse_corpus.golden
//
// Each record is that tree's parse_request and parse_json outcome for one
// corpus line, with TGROOM_CHECK_MSG's "check failed: <expr> at
// <file>:<line> — " prefix removed from messages (the single-cursor reader
// reports only the text after " — ").  The current reader must reproduce
// every record, except for two named behaviour changes that the test
// recognizes and counts:
//
//  - Leading zeros.  The old in-place scanner accepted integers such as
//    01, 04 or 00 that parse_json rejects; now the request reader rejects
//    them with parse_json's own "malformed number (leading zero)" error.
//  - Wide integers.  A plain integer literal of 16-18 digits beyond 2^53
//    was read exactly when the whole line was valid, but the old fallback
//    reader (taken on any other line) refused it as "not an exact integer".
//    Now every plain literal of up to 18 digits is read exactly, so such a
//    line reports whatever its next problem is, or is accepted.
//
// Column 4 (the request outcome) has since been edited by hand on the
// lines whose values the reader now bounds: inline-plan wavelengths at or
// above the plan's pair count, and demand endpoints at or above 5e7.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "cluster/cluster_map.hpp"
#include "parse_corpus.hpp"

namespace tgroom {
namespace {

using namespace parse_corpus;

std::vector<std::string> split_tabs(const std::string& line) {
  std::vector<std::string> out(1);
  for (char c : line) {
    if (c == '\t') out.emplace_back();
    else out.back() += c;
  }
  return out;
}

std::vector<std::string> read_golden() {
  std::ifstream in(std::string(TGROOM_TEST_DATA_DIR) + "/parse_corpus.golden");
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

// A plain integer literal of 16-18 digits whose magnitude exceeds 2^53.
bool has_wide_integer(const std::string& text) {
  for (const auto& [at, len] : number_tokens(text)) {
    std::string digits = text.substr(at, len);
    if (digits[0] == '-') digits.erase(0, 1);
    if (digits.size() < 16 || digits.size() > 18 || digits[0] == '0' ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    if (std::stoll(digits) > 9007199254740992LL) return true;
  }
  return false;
}

TEST(ParseCorpus, MatchesRecordedOutcomes) {
  const std::vector<CorpusLine> corpus = build_corpus();
  const std::vector<std::string> golden = read_golden();
  ASSERT_EQ(golden.size(), corpus.size()) << "corpus and golden file differ";
  int leading_zero = 0, wide_integer = 0;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const std::string& text = corpus[i].text;
    const std::vector<std::string> want = split_tabs(golden[i]);
    ASSERT_EQ(want.size(), 5u) << golden[i];
    ASSERT_EQ(want[1], corpus[i].tag) << "line " << i;
    ASSERT_EQ(want[2], hex64(fnv1a(text))) << "line " << i;
    EXPECT_EQ(json_outcome(text), want[4]) << "line " << i << ": " << text;

    const RequestParse parse = parse_request(text);
    const std::string got = request_outcome(parse);
    if (got == want[3]) continue;
    if (want[3].rfind("ok:", 0) == 0 &&
        want[4].find("malformed number (leading zero)") != std::string::npos) {
      EXPECT_EQ(got, "err:0:0:" + want[4].substr(4)) << "line " << i;
      ++leading_zero;
      continue;
    }
    const bool was_exactness_error =
        want[3].find(":JSON number is not an exact integer") !=
            std::string::npos ||
        want[3] == "err:0:0:\"id\" must be an integer";
    if (was_exactness_error && has_wide_integer(text)) {
      EXPECT_EQ(got.find("not an exact integer"), std::string::npos)
          << "line " << i;
      ++wide_integer;
      continue;
    }
    ADD_FAILURE() << "line " << i << " (" << corpus[i].tag << "): " << text
                  << "\n  recorded: " << want[3] << "\n  now:      " << got
                  << (parse.request ? "\n  dump: " + dump_request(parse) : "");
  }
  EXPECT_EQ(leading_zero, 21);
  EXPECT_EQ(wide_integer, 49);
}

TEST(ParseCorpus, IdSpliceRoundTripsEveryAcceptedLine) {
  int accepted = 0;
  for (const CorpusLine& line : build_corpus()) {
    const std::string stripped = cluster::strip_top_level_id(line.text);
    // Lines without a top-level id pass through unchanged.
    bool has_top_level_id = true;
    try {
      const JsonValue doc = parse_json(line.text);
      has_top_level_id = doc.find("id") != nullptr;
    } catch (const CheckError&) {
    }
    if (!has_top_level_id) {
      EXPECT_EQ(stripped, line.text) << line.tag;
    }

    const RequestParse original = parse_request(line.text);
    if (!original.request) continue;
    ++accepted;
    RequestParse want = original;
    want.id = want.request->id = 42;
    want.has_id = want.request->has_id = true;
    const RequestParse forwarded =
        parse_request(cluster::compose_with_id(stripped, 42));
    ASSERT_TRUE(forwarded.request.has_value())
        << line.text << "\n" << forwarded.error;
    EXPECT_EQ(dump_request(forwarded), dump_request(want)) << line.text;

    // The client's id (or null) goes back into both response shapes.
    const ServiceOp op = original.request->op;
    JsonWriter backend, client;
    begin_ok_response(backend, 42, true, op);
    backend.kv("sadms", 3).end_object();
    begin_ok_response(client, original.id, original.has_id, op);
    client.kv("sadms", 3).end_object();
    std::string restored;
    ASSERT_TRUE(cluster::restore_response_id(backend.str(), original.has_id,
                                             original.id, restored));
    EXPECT_EQ(restored, client.str());
    ASSERT_TRUE(cluster::restore_response_id(
        make_error_response(42, true, ServiceError::kOverloaded, "busy"),
        original.has_id, original.id, restored));
    EXPECT_EQ(restored, make_error_response(original.id, original.has_id,
                                            ServiceError::kOverloaded, "busy"));
  }
  EXPECT_GT(accepted, 500);
}

}  // namespace
}  // namespace tgroom
