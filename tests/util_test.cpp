#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <future>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace tgroom {
namespace {

TEST(Check, ThrowsWithMessage) {
  try {
    TGROOM_CHECK_MSG(1 == 2, "math broke");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("math broke"), std::string::npos);
  }
}

TEST(Check, PassesSilently) { TGROOM_CHECK(2 + 2 == 4); }

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(13), 13u);
  }
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(3);
  bool low_hit = false, high_hit = false;
  for (int i = 0; i < 5000; ++i) {
    auto x = rng.uniform_int(-2, 2);
    EXPECT_GE(x, -2);
    EXPECT_LE(x, 2);
    low_hit |= (x == -2);
    high_hit |= (x == 2);
  }
  EXPECT_TRUE(low_hit);
  EXPECT_TRUE(high_hit);
}

TEST(Rng, Uniform01HalfOpen) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(42);
  Rng child = a.split();
  Rng b(42);
  // The child must not replay the parent's post-split outputs.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (child() == b());
  EXPECT_LT(same, 4);
}

TEST(Table, AlignsAndCounts) {
  TextTable t("title");
  t.set_header({"a", "long-column"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  EXPECT_EQ(t.row_count(), 2u);
  std::string s = t.to_string();
  EXPECT_NE(s.find("title"), std::string::npos);
  EXPECT_NE(s.find("long-column"), std::string::npos);
}

TEST(Table, RejectsMismatchedRow) {
  TextTable t;
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(static_cast<long long>(42)), "42");
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, WritesFile) {
  std::string path = ::testing::TempDir() + "/tgroom_csv_test.csv";
  {
    CsvWriter csv(path);
    csv.write_row({"x", "y"});
    csv.write_row({"1", "two,three"});
  }
  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "x,y");
  EXPECT_EQ(line2, "1,\"two,three\"");
}

TEST(Cli, ParsesFlagsAndPositional) {
  const char* argv[] = {"prog",       "--n",    "36",  "--dense=0.5",
                        "positional", "--flag", nullptr};
  CliArgs args(6, argv);
  EXPECT_EQ(args.get_int("n", 0), 36);
  EXPECT_DOUBLE_EQ(args.get_double("dense", 0), 0.5);
  EXPECT_TRUE(args.get_bool("flag", false));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "positional");
  EXPECT_EQ(args.get("missing", "fallback"), "fallback");
}

TEST(Cli, ParsesIntList) {
  const char* argv[] = {"prog", "--k=4,8,16", nullptr};
  CliArgs args(2, argv);
  EXPECT_EQ(args.get_int_list("k", {}), (std::vector<int>{4, 8, 16}));
  EXPECT_EQ(args.get_int_list("other", {1}), (std::vector<int>{1}));
}

TEST(ThreadPool, InlineModeRunsTasks) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 0u);
  auto future = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for_index(100, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ChunksPartitionTheRange) {
  ThreadPool pool(3);
  std::mutex mutex;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  std::vector<std::atomic<int>> hits(103);
  pool.parallel_for_chunks(103, [&](std::size_t begin, std::size_t end) {
    EXPECT_LT(begin, end);
    for (std::size_t i = begin; i < end; ++i) ++hits[i];
    std::lock_guard<std::mutex> lock(mutex);
    chunks.push_back({begin, end});
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // One task per chunk, not per index: 3 workers -> at most 12 chunks.
  EXPECT_LE(chunks.size(), 12u);
  EXPECT_GE(chunks.size(), 3u);
}

TEST(ThreadPool, ChunksInlineWhenNoWorkers) {
  ThreadPool pool(0);
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_for_chunks(7, [&](std::size_t begin, std::size_t end) {
    chunks.push_back({begin, end});
  });
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0], (std::pair<std::size_t, std::size_t>{0, 7}));
  pool.parallel_for_chunks(0, [&](std::size_t, std::size_t) { FAIL(); });
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for_index(
                   8,
                   [&](std::size_t i) {
                     if (i == 5) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
}

TEST(ThreadPool, DestructionRunsQueuedTasks) {
  // Destroying a pool with work still queued must run every accepted task
  // (futures returned by submit() would otherwise dangle as broken
  // promises) and join cleanly.
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    std::promise<void> gate;
    std::shared_future<void> opened = gate.get_future().share();
    // Block the single worker, then pile tasks behind it.
    auto blocker = pool.submit([opened] { opened.wait(); });
    for (int i = 0; i < 32; ++i) {
      pool.submit([&ran] { ran.fetch_add(1); });
    }
    EXPECT_EQ(ran.load(), 0);  // worker still parked on the gate
    gate.set_value();
    blocker.get();
    // Pool destroyed here with most of the 32 tasks still queued.
  }
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPool, ChunkExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(3);
  try {
    pool.parallel_for_chunks(100, [](std::size_t begin, std::size_t) {
      if (begin == 0) throw std::runtime_error("chunk zero failed");
    });
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk zero failed");
  }
  // The pool is still usable after a throwing batch.
  std::atomic<std::size_t> sum{0};
  pool.parallel_for_index(10, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 45u);
}

TEST(ThreadPool, InlineChunkExceptionPropagates) {
  ThreadPool pool(0);
  EXPECT_THROW(pool.parallel_for_chunks(
                   5, [](std::size_t, std::size_t) {
                     throw std::runtime_error("inline boom");
                   }),
               std::runtime_error);
}

TEST(Json, WriterEscapesAndNests) {
  JsonWriter w;
  w.begin_object();
  w.kv("text", "a\"b\\c\n\t\x01z");
  w.kv("flag", true);
  w.kv("count", 42);
  w.kv("big", std::uint64_t{18446744073709551615ULL});
  w.kv("ratio", 2.5);
  w.kv("whole", 3.0);
  w.key("list").begin_array().value(1).null().end_array();
  w.end_object();
  EXPECT_EQ(w.str(),
            R"({"text":"a\"b\\c\n\t\u0001z","flag":true,"count":42,)"
            R"("big":18446744073709551615,"ratio":2.5,"whole":3,)"
            R"("list":[1,null]})");
}

TEST(Json, ParseRoundTrip) {
  const std::string doc =
      R"({"a":[1,2.5,"xé😀"],"b":{"nested":null},"c":-7})";
  JsonValue v = parse_json(doc);
  ASSERT_TRUE(v.is_object());
  const JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_EQ(a->array[0].as_int(), 1);
  EXPECT_DOUBLE_EQ(a->array[1].number, 2.5);
  EXPECT_EQ(a->array[2].string, "x\xC3\xA9\xF0\x9F\x98\x80");
  EXPECT_TRUE(v.find("b")->find("nested")->is_null());
  EXPECT_EQ(v.find("c")->as_int(), -7);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, ParseRejectsMalformed) {
  EXPECT_THROW(parse_json(""), CheckError);
  EXPECT_THROW(parse_json("{"), CheckError);
  EXPECT_THROW(parse_json("{}extra"), CheckError);
  EXPECT_THROW(parse_json(R"({"a":01})"), CheckError);
  EXPECT_THROW(parse_json(R"(["unterminated)"), CheckError);
  EXPECT_THROW(parse_json("[1,]"), CheckError);
}

TEST(Json, AsIntRejectsNonIntegral) {
  EXPECT_THROW(parse_json("2.5").as_int(), CheckError);
  EXPECT_THROW(parse_json("true").as_int(), CheckError);
  EXPECT_EQ(parse_json("9007199254740992").as_int(), 9007199254740992LL);
}

TEST(JsonCursor, ReadsPlainIntegersExactly) {
  // Up to 18 digits: exact int64, even past 2^53.
  JsonNumber n = JsonCursor("123456789012345678").number();
  EXPECT_TRUE(n.exact);
  EXPECT_EQ(n.integer, 123456789012345678LL);
  // Other spellings go through strtod and as_int()'s rule.
  n = JsonCursor("4e0").number();
  EXPECT_TRUE(n.exact);
  EXPECT_EQ(n.integer, 4);
  EXPECT_FALSE(JsonCursor("1234567890123456789").number().exact);
  EXPECT_FALSE(JsonCursor("2.5").number().exact);
  EXPECT_TRUE(std::signbit(JsonCursor("-0").number().value));
  EXPECT_THROW(JsonCursor("01").number(), CheckError);
}

TEST(JsonCursor, WalksMembersAndSkipsValues) {
  const std::string doc = R"( {"a" : [1, {"b":"\u0069d"}], "\u0069d": 7 } )";
  JsonCursor c(doc);
  ASSERT_EQ(c.peek(), JsonValue::Type::kObject);
  ASSERT_TRUE(c.enter_object());
  EXPECT_EQ(c.key(), "a");
  c.skip();
  EXPECT_EQ(doc.substr(c.offset() - 1, 1), "]");
  ASSERT_TRUE(c.next_member());
  EXPECT_EQ(c.key(), "id");  // keys come back decoded
  EXPECT_EQ(c.number().integer, 7);
  EXPECT_FALSE(c.next_member());
  c.finish();
  // Errors carry the byte offset.
  JsonCursor bad(R"({"a" 1})");
  bad.peek();
  bad.enter_object();
  try {
    bad.key();
    FAIL() << "missing ':' accepted";
  } catch (const CheckError& e) {
    EXPECT_STREQ(e.what(), "JSON parse error at offset 5: expected ':'");
  }
}

}  // namespace
}  // namespace tgroom
