// Tests for the util module: status, rng, strings, csv, serialization,
// thread pool, hashing.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/bounded_queue.h"
#include "util/csv.h"
#include "util/csv_stream.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace rpt {
namespace {

// ---- Status / Result -------------------------------------------------------

TEST(StatusTest, OkAndErrorStates) {
  Status ok = Status::Ok();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ToString(), "Ok");

  Status err = Status::InvalidArgument("bad input");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(err.ToString(), "InvalidArgument: bad input");
}

TEST(ResultTest, ValueAndError) {
  Result<int> good = 42;
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);

  Result<int> bad = Status::NotFound("nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  auto owned = std::move(r).value();
  EXPECT_EQ(*owned, 7);
}

// ---- Rng --------------------------------------------------------------------

TEST(RngTest, DeterministicBySeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformIntRespectsBound) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformInt(17), 17u);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(2);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformInt(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NormalMomentsApproximate) {
  Rng rng(4);
  double sum = 0, sumsq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal();
    sum += x;
    sumsq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sumsq / n, 1.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(5);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.25);
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
}

TEST(RngTest, WeightedIndexFollowsWeights) {
  Rng rng(6);
  std::vector<double> w = {1.0, 0.0, 3.0};
  int count2 = 0;
  for (int i = 0; i < 4000; ++i) {
    size_t idx = rng.WeightedIndex(w);
    EXPECT_NE(idx, 1u);  // zero weight never sampled
    if (idx == 2) ++count2;
  }
  EXPECT_NEAR(count2 / 4000.0, 0.75, 0.03);
}

TEST(RngTest, SampleIndicesDistinct) {
  Rng rng(7);
  auto idx = rng.SampleIndices(10, 6);
  std::set<size_t> s(idx.begin(), idx.end());
  EXPECT_EQ(s.size(), 6u);
  for (size_t i : idx) EXPECT_LT(i, 10u);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(8);
  std::vector<int> v(20);
  std::iota(v.begin(), v.end(), 0);
  auto orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(9);
  Rng child = a.Fork();
  // Parent advanced; the two streams should differ.
  EXPECT_NE(a.Next(), child.Next());
}

// ---- string_util -------------------------------------------------------------

TEST(StringUtilTest, Split) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, SplitWhitespace) {
  EXPECT_EQ(SplitWhitespace("  a\tb \n c  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringUtilTest, JoinLowerTrim) {
  EXPECT_EQ(Join({"x", "y"}, ", "), "x, y");
  EXPECT_EQ(ToLower("AbC-9"), "abc-9");
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringUtilTest, StartsEndsReplace) {
  EXPECT_TRUE(StartsWith("iphone 10", "iphone"));
  EXPECT_FALSE(StartsWith("ip", "iphone"));
  EXPECT_TRUE(EndsWith("5.8-inch", "inch"));
  EXPECT_EQ(ReplaceAll("a-b-c", "-", "+"), "a+b+c");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");
}

TEST(StringUtilTest, NumberParsing) {
  EXPECT_TRUE(IsNumber("9.99"));
  EXPECT_TRUE(IsNumber("-3"));
  EXPECT_FALSE(IsNumber("9.99usd"));
  EXPECT_FALSE(IsNumber(""));
  EXPECT_EQ(ParseDoubleOr("2.5", 0.0), 2.5);
  EXPECT_EQ(ParseDoubleOr("x", 7.0), 7.0);
}

TEST(StringUtilTest, FormatNumber) {
  EXPECT_EQ(FormatNumber(64.0), "64");
  EXPECT_EQ(FormatNumber(9.99), "9.99");
  EXPECT_EQ(FormatNumber(5.8), "5.8");
}

// ---- CSV ------------------------------------------------------------------------

TEST(CsvTest, SimpleRoundTrip) {
  std::vector<std::vector<std::string>> rows = {
      {"a", "b"}, {"1", "hello world"}};
  auto parsed = ParseCsv(WriteCsv(rows));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, rows);
}

TEST(CsvTest, QuotedFieldsWithCommasAndNewlines) {
  std::vector<std::vector<std::string>> rows = {
      {"x,y", "line1\nline2", "he said \"hi\""}};
  auto parsed = ParseCsv(WriteCsv(rows));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, rows);
}

TEST(CsvTest, CrLfTolerated) {
  auto parsed = ParseCsv("a,b\r\n1,2\r\n");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[1], (std::vector<std::string>{"1", "2"}));
}

TEST(CsvTest, UnterminatedQuoteIsError) {
  auto parsed = ParseCsv("a,\"unterminated");
  EXPECT_FALSE(parsed.ok());
}

TEST(CsvTest, BareCrIsARowTerminator) {
  // Classic-Mac line endings: "\r" alone ends a row, exactly like "\n".
  auto parsed = ParseCsv("a,b\rc,d\r");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ((*parsed)[1], (std::vector<std::string>{"c", "d"}));
}

TEST(CsvTest, BareCrMidFieldSplitsTheRowNotTheField) {
  // The old parser silently *dropped* a lone CR inside an unquoted field
  // ("a\rb" parsed as one field "ab"); a bare CR is a row boundary.
  auto parsed = ParseCsv("a\rb");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0], (std::vector<std::string>{"a"}));
  EXPECT_EQ((*parsed)[1], (std::vector<std::string>{"b"}));
}

TEST(CsvTest, QuotedCarriageReturnsRoundTrip) {
  // Field-interior CRs survive a write/parse round trip (the writer quotes
  // them; the parser preserves quoted bytes verbatim).
  std::vector<std::vector<std::string>> rows = {
      {"line1\rline2", "crlf\r\ninside", "\r"}};
  auto parsed = ParseCsv(WriteCsv(rows));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, rows);
}

TEST(CsvTest, MixedLineEndingsInOneDocument) {
  auto parsed = ParseCsv("a\r\nb\rc\nd");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 4u);
  EXPECT_EQ((*parsed)[0], (std::vector<std::string>{"a"}));
  EXPECT_EQ((*parsed)[1], (std::vector<std::string>{"b"}));
  EXPECT_EQ((*parsed)[2], (std::vector<std::string>{"c"}));
  EXPECT_EQ((*parsed)[3], (std::vector<std::string>{"d"}));
}

TEST(CsvTest, GarbageAfterClosingQuoteIsAnError) {
  // "ab"cd used to silently parse as "abcd"; it must fail, naming the
  // offset of the first bad byte.
  auto parsed = ParseCsv("\"ab\"cd");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("after closing quote"),
            std::string::npos)
      << parsed.status().message();
  EXPECT_NE(parsed.status().message().find("byte 4"), std::string::npos)
      << parsed.status().message();
}

TEST(CsvTest, SpaceAfterClosingQuoteIsAnError) {
  auto parsed = ParseCsv("x,\"ab\" ,y");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("byte 6"), std::string::npos)
      << parsed.status().message();
}

TEST(CsvTest, ClosingQuoteBeforeSeparatorTerminatorAndEofIsFine) {
  auto parsed = ParseCsv("\"a\",\"b\"\r\n\"c\"");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ((*parsed)[1], (std::vector<std::string>{"c"}));
}

TEST(CsvTest, InteriorBlankLineYieldsSingleEmptyField) {
  // Locked-in behavior: a blank interior line is a one-empty-field row; a
  // trailing newline after the last row adds nothing.
  auto parsed = ParseCsv("a,b\n\nc,d\n");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 3u);
  EXPECT_EQ((*parsed)[1], (std::vector<std::string>{""}));
}

TEST(CsvTest, FileRoundTrip) {
  const std::string path = "/tmp/rpt_csv_test.csv";
  std::vector<std::vector<std::string>> rows = {{"h1", "h2"}, {"v1", "v2"}};
  ASSERT_TRUE(WriteCsvFile(path, rows).ok());
  auto back = ReadCsvFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, rows);
  std::remove(path.c_str());
}

// ---- Streaming CSV reader ----------------------------------------------------------

namespace {

// Writes `content` to a temp file and streams it back through CsvReader
// with the given buffer size.
Result<std::vector<std::vector<std::string>>> StreamFile(
    const std::string& content, size_t buffer_bytes) {
  const std::string path = "/tmp/rpt_csv_stream_test.csv";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr);
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  CsvReader::Options options;
  options.buffer_bytes = buffer_bytes;
  CsvReader reader;
  RPT_RETURN_IF_ERROR(reader.Open(path, options));
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  bool done = false;
  for (;;) {
    RPT_RETURN_IF_ERROR(reader.Next(&row, &done));
    if (done) break;
    rows.push_back(row);
  }
  std::remove(path.c_str());
  return rows;
}

}  // namespace

TEST(CsvStreamTest, AnyBufferSizeMatchesWholeStringParse) {
  // Every tricky construct at once: quoted separators, escaped quotes,
  // CRLF inside quotes, bare-CR row endings, an empty trailing field. A
  // 1-byte buffer forces a chunk boundary between every pair of bytes, so
  // each lookahead state crosses a refill at least once.
  const std::string doc =
      "h1,h2,h3\n"
      "\"a,b\",\"he said \"\"hi\"\"\",plain\r\n"
      "\"multi\r\nline\",x,\r"
      "last,\"q\",\n";
  auto whole = ParseCsv(doc);
  ASSERT_TRUE(whole.ok());
  for (size_t buffer : {size_t{1}, size_t{2}, size_t{3}, size_t{5},
                        size_t{7}, size_t{4096}}) {
    auto streamed = StreamFile(doc, buffer);
    ASSERT_TRUE(streamed.ok()) << "buffer=" << buffer;
    EXPECT_EQ(*streamed, *whole) << "buffer=" << buffer;
  }
}

TEST(CsvStreamTest, QuotedSeparatorAtChunkBoundary) {
  // buffer=4 puts the refill exactly between the opening quote and the
  // comma it protects.
  auto rows = StreamFile("ab,\"c,d\",e\n", 4);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"ab", "c,d", "e"}));
}

TEST(CsvStreamTest, EmptyTrailingLineAddsNoRow) {
  auto rows = StreamFile("a,b\nc,d\n", 3);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
}

TEST(CsvStreamTest, ErrorsCarryAbsoluteOffsetsAcrossChunks) {
  auto rows = StreamFile("aaaa,bbbb\n\"cc\"X\n", 2);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rows.status().message().find("byte 14"), std::string::npos)
      << rows.status().message();
}

TEST(CsvStreamTest, SeekToResumesAtARowBoundary) {
  const std::string path = "/tmp/rpt_csv_seek_test.csv";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const std::string doc = "h\nrow1\nrow2\nrow3\n";
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
  CsvReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  std::vector<std::string> row;
  bool done = false;
  ASSERT_TRUE(reader.Next(&row, &done).ok());  // h
  ASSERT_TRUE(reader.Next(&row, &done).ok());  // row1
  const uint64_t boundary = reader.next_row_offset();
  ASSERT_TRUE(reader.Next(&row, &done).ok());  // row2
  EXPECT_EQ(row, (std::vector<std::string>{"row2"}));
  ASSERT_TRUE(reader.SeekTo(boundary, 2).ok());
  ASSERT_TRUE(reader.Next(&row, &done).ok());
  EXPECT_FALSE(done);
  EXPECT_EQ(row, (std::vector<std::string>{"row2"}));
  EXPECT_EQ(reader.rows_read(), 3u);
  std::remove(path.c_str());
}

// ---- Binary serialization ----------------------------------------------------------

TEST(SerializeTest, PrimitivesRoundTrip) {
  BinaryWriter w;
  w.WriteU32(7);
  w.WriteU64(1ull << 40);
  w.WriteI64(-5);
  w.WriteF32(2.5f);
  w.WriteF64(3.25);
  w.WriteString("hello");
  w.WriteFloatVector({1.0f, 2.0f});
  w.WriteI64Vector({-1, 0, 1});

  BinaryReader r(w.bytes());
  EXPECT_EQ(*r.ReadU32(), 7u);
  EXPECT_EQ(*r.ReadU64(), 1ull << 40);
  EXPECT_EQ(*r.ReadI64(), -5);
  EXPECT_EQ(*r.ReadF32(), 2.5f);
  EXPECT_EQ(*r.ReadF64(), 3.25);
  EXPECT_EQ(*r.ReadString(), "hello");
  EXPECT_EQ(*r.ReadFloatVector(), (std::vector<float>{1.0f, 2.0f}));
  EXPECT_EQ(*r.ReadI64Vector(), (std::vector<int64_t>{-1, 0, 1}));
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, TruncationIsError) {
  BinaryWriter w;
  w.WriteU32(1);
  BinaryReader r(w.bytes());
  EXPECT_TRUE(r.ReadU32().ok());
  EXPECT_FALSE(r.ReadU64().ok());
}

// ---- ThreadPool ----------------------------------------------------------------------

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  std::vector<int> hits(1000, 0);
  ThreadPool::ParallelFor(1000, 4, [&hits](size_t i) { hits[i] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000);
}

TEST(ThreadPoolTest, ParallelForSingleThreadInline) {
  std::vector<int> hits(10, 0);
  ThreadPool::ParallelFor(10, 1, [&hits](size_t i) { hits[i] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 10);
}

TEST(ThreadPoolTest, InstanceParallelForReusesWorkers) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  pool.ParallelFor(1000, [&hits](size_t i) { hits[i] += 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000);
  // Repeated calls on the same pool must stay correct (no leftover state).
  pool.ParallelFor(1000, [&hits](size_t i) { hits[i] += 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 2000);
}

TEST(ThreadPoolTest, InstanceParallelForSmallAndEmptyRanges) {
  ThreadPool pool(8);
  pool.ParallelFor(0, [](size_t) { FAIL() << "body on empty range"; });
  std::vector<int> hits(3, 0);
  pool.ParallelFor(3, [&hits](size_t i) { hits[i] = 1; });  // n < threads
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 3);
}

// ---- BoundedQueue ----------------------------------------------------------------------

using std::chrono::microseconds;

TEST(BoundedQueueTest, TryPushRejectsWhenFull) {
  BoundedQueue<int> q(2);
  EXPECT_EQ(q.TryPush(1), PushResult::kOk);
  EXPECT_EQ(q.TryPush(2), PushResult::kOk);
  // A full queue is backpressure, and must not read as shutdown.
  EXPECT_EQ(q.TryPush(3), PushResult::kFull);
  EXPECT_EQ(q.size(), 2u);
  std::vector<int> popped;
  ASSERT_TRUE(q.PopBatch(&popped, 1, microseconds(1000)));
  EXPECT_EQ(popped, (std::vector<int>{1}));
  EXPECT_EQ(q.TryPush(3), PushResult::kOk);
}

TEST(BoundedQueueTest, PopBatchGathersUpToMax) {
  BoundedQueue<int> q(16);
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(q.TryPush(std::move(i)), PushResult::kOk);
  }
  std::vector<int> batch;
  ASSERT_TRUE(q.PopBatch(&batch, 4, microseconds(100)));
  EXPECT_EQ(batch, (std::vector<int>{0, 1, 2, 3}));
  batch.clear();
  ASSERT_TRUE(q.PopBatch(&batch, 4, microseconds(100)));
  EXPECT_EQ(batch, (std::vector<int>{4, 5}));  // partial batch on timeout
}

TEST(BoundedQueueTest, ZeroWindowTakesWhatIsQueuedAndReturnsAtOnce) {
  BoundedQueue<int> q(16);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(q.TryPush(std::move(i)), PushResult::kOk);
  }
  std::vector<int> batch;
  ASSERT_TRUE(q.PopBatch(&batch, 8, microseconds(0)));
  EXPECT_EQ(batch, (std::vector<int>{0, 1, 2}));

  // One queued item goes out alone: the pop must not wait for a producer
  // that pushes 100 ms later.
  ASSERT_EQ(q.TryPush(7), PushResult::kOk);
  std::thread producer([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    q.TryPush(8);
  });
  batch.clear();
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(q.PopBatch(&batch, 8, microseconds(0)));
  const auto waited = std::chrono::steady_clock::now() - start;
  producer.join();
  EXPECT_EQ(batch, (std::vector<int>{7}));
  EXPECT_LT(waited, std::chrono::milliseconds(50));
  EXPECT_EQ(q.size(), 1u);  // the late push is left for the next pop
}

TEST(BoundedQueueTest, CloseDrainsThenReportsClosed) {
  BoundedQueue<int> q(8);
  ASSERT_EQ(q.TryPush(7), PushResult::kOk);
  q.Close();
  // Closed is distinct from full: the serving layer reports shutdown, not
  // backpressure, for this case.
  EXPECT_EQ(q.TryPush(8), PushResult::kClosed);
  std::vector<int> batch;
  ASSERT_TRUE(q.PopBatch(&batch, 4, microseconds(100)));
  EXPECT_EQ(batch, (std::vector<int>{7}));  // drain survives Close
  batch.clear();
  EXPECT_FALSE(q.PopBatch(&batch, 4, microseconds(100)));
}

TEST(BoundedQueueTest, PopBatchWakesOnConcurrentPush) {
  BoundedQueue<int> q(8);
  std::thread producer([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q.TryPush(42);
  });
  std::vector<int> batch;
  // Blocks until the producer delivers, despite starting on an empty queue.
  ASSERT_TRUE(q.PopBatch(&batch, 4, microseconds(100)));
  EXPECT_EQ(batch, (std::vector<int>{42}));
  producer.join();
}

// ---- Hashing ---------------------------------------------------------------

TEST(HashTest, Fnv1a64MatchesReferenceVectors) {
  // Published FNV-1a test vectors: the stable cross-platform value is the
  // whole point (shard dispatch must not depend on the standard library).
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(HashTest, Fnv1a64IsConstexprAndStable) {
  static_assert(Fnv1a64("clean") == Fnv1a64("clean"));
  static_assert(Fnv1a64("clean") != Fnv1a64("match"));
  EXPECT_EQ(Fnv1a64(std::string("payload_7")), Fnv1a64("payload_7"));
}

TEST(HashTest, Fnv1a64SpreadsShardAssignments) {
  // 64 distinct payloads over 4 shards: every shard must see traffic.
  std::set<uint64_t> shards;
  for (int i = 0; i < 64; ++i) {
    shards.insert(Fnv1a64("cell_" + std::to_string(i)) % 4);
  }
  EXPECT_EQ(shards.size(), 4u);
}

TEST(StatusTest, ServingStatusCodes) {
  Status busy = Status::Unavailable("queue full");
  EXPECT_EQ(busy.code(), StatusCode::kUnavailable);
  EXPECT_EQ(busy.ToString(), "Unavailable: queue full");
  Status late = Status::DeadlineExceeded("too slow");
  EXPECT_EQ(late.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(late.ToString(), "DeadlineExceeded: too slow");
}

}  // namespace
}  // namespace rpt
