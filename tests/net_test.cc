// Tests for the HTTP front-end: incremental parser behavior (1-byte feeds,
// pipelining, malformed inputs, limits), the flat-JSON helpers, the event
// loop's cross-thread Post bridge, and loopback end-to-end checks against a
// live HttpServer + RoutedServer — including the acceptance bar that the
// HTTP path returns byte-identical outputs to a direct Submit on every route,
// and that GET /metrics is valid Prometheus exposition.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/event_loop.h"
#include "net/http_parser.h"
#include "net/http_server.h"
#include "net/json.h"
#include "net/service.h"
#include "prometheus_check.h"
#include "serve/routed_server.h"
#include "serve/sessions.h"

namespace rpt {
namespace {

using net::EventLoop;
using net::HttpParser;
using net::HttpParserLimits;
using net::HttpRequest;
using net::HttpServer;
using net::HttpServerOptions;
using net::RptHttpService;
using std::chrono::microseconds;
using std::chrono::milliseconds;

// ---- HttpParser -------------------------------------------------------------

TEST(HttpParserTest, ParsesSimpleGet) {
  HttpParser parser;
  const std::string msg = "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
  EXPECT_EQ(parser.Feed(msg), msg.size());
  ASSERT_TRUE(parser.done());
  const HttpRequest r = parser.TakeRequest();
  EXPECT_EQ(r.method, "GET");
  EXPECT_EQ(r.path, "/healthz");
  EXPECT_EQ(r.query, "");
  EXPECT_EQ(r.version_minor, 1);
  ASSERT_NE(r.FindHeader("host"), nullptr);  // names are lowercased
  EXPECT_EQ(*r.FindHeader("host"), "x");
  EXPECT_TRUE(r.KeepAlive());
}

TEST(HttpParserTest, OneByteFeedsReachTheSameResult) {
  const std::string msg =
      "POST /v1/clean?stream=1 HTTP/1.1\r\n"
      "Content-Type: application/json\r\n"
      "Content-Length: 17\r\n"
      "\r\n"
      "{\"input\":\"a b\\n\"}";
  HttpParser parser;
  for (size_t i = 0; i < msg.size(); ++i) {
    ASSERT_FALSE(parser.failed()) << "failed at byte " << i;
    EXPECT_EQ(parser.Feed(std::string_view(msg.data() + i, 1)),
              parser.done() ? 0u : 1u);
  }
  ASSERT_TRUE(parser.done());
  const HttpRequest r = parser.TakeRequest();
  EXPECT_EQ(r.method, "POST");
  EXPECT_EQ(r.path, "/v1/clean");
  EXPECT_EQ(r.query, "stream=1");
  EXPECT_EQ(r.body, "{\"input\":\"a b\\n\"}");
}

TEST(HttpParserTest, StopsAtMessageBoundaryForPipelining) {
  const std::string first = "GET /a HTTP/1.1\r\n\r\n";
  const std::string second = "GET /b HTTP/1.1\r\n\r\n";
  HttpParser parser;
  const size_t consumed = parser.Feed(first + second);
  EXPECT_EQ(consumed, first.size());  // does not eat into message two
  ASSERT_TRUE(parser.done());
  EXPECT_EQ(parser.TakeRequest().path, "/a");
  EXPECT_EQ(parser.Feed(second), second.size());
  ASSERT_TRUE(parser.done());
  EXPECT_EQ(parser.TakeRequest().path, "/b");
}

TEST(HttpParserTest, AcceptsBareLfLineEndings) {
  HttpParser parser;
  parser.Feed("GET /x HTTP/1.0\nHost: y\n\n");
  ASSERT_TRUE(parser.done());
  const HttpRequest r = parser.TakeRequest();
  EXPECT_EQ(r.path, "/x");
  EXPECT_EQ(r.version_minor, 0);
  EXPECT_FALSE(r.KeepAlive());  // HTTP/1.0 defaults to close
}

TEST(HttpParserTest, MalformedRequestLinesAre400) {
  for (const char* bad : {
           "GET/HTTP/1.1\r\n\r\n",            // no spaces
           "GET /x HTTP/1.1 extra\r\n\r\n",   // four tokens
           "GET  HTTP/1.1\r\n\r\n",           // empty target
           "GET /x HTTP/2.0\r\n\r\n",         // unsupported version
           "GET /x FTP/1.1\r\n\r\n",          // not HTTP
           "G@T /x HTTP/1.1\r\n\r\n",         // method not a token
       }) {
    HttpParser parser;
    parser.Feed(bad);
    EXPECT_TRUE(parser.failed()) << bad;
    EXPECT_EQ(parser.error_status(), 400) << bad;
  }
}

TEST(HttpParserTest, MalformedHeadersAre400) {
  for (const char* bad : {
           "GET /x HTTP/1.1\r\nNoColonHere\r\n\r\n",
           "GET /x HTTP/1.1\r\nBad Name: v\r\n\r\n",  // space in field name
           "GET /x HTTP/1.1\r\nName : v\r\n\r\n",     // ws before colon
       }) {
    HttpParser parser;
    parser.Feed(bad);
    EXPECT_TRUE(parser.failed()) << bad;
    EXPECT_EQ(parser.error_status(), 400) << bad;
  }
}

TEST(HttpParserTest, OversizedRequestLineIs431) {
  HttpParserLimits limits;
  limits.max_request_line = 64;
  HttpParser parser(limits);
  parser.Feed("GET /" + std::string(100, 'a') + " HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(HttpParserTest, OversizedHeaderBlockIs431) {
  HttpParserLimits limits;
  limits.max_header_bytes = 128;
  HttpParser parser(limits);
  std::string msg = "GET /x HTTP/1.1\r\n";
  for (int i = 0; i < 10; ++i) {
    msg += "X-Pad-" + std::to_string(i) + ": " + std::string(32, 'p') + "\r\n";
  }
  parser.Feed(msg + "\r\n");
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(HttpParserTest, TooManyHeaderFieldsIs431) {
  HttpParserLimits limits;
  limits.max_headers = 4;
  HttpParser parser(limits);
  std::string msg = "GET /x HTTP/1.1\r\n";
  for (int i = 0; i < 6; ++i) {
    msg += "H" + std::to_string(i) + ": v\r\n";
  }
  parser.Feed(msg + "\r\n");
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(HttpParserTest, BodyOverLimitIs413) {
  HttpParserLimits limits;
  limits.max_body_bytes = 16;
  HttpParser parser(limits);
  parser.Feed("POST /x HTTP/1.1\r\nContent-Length: 17\r\n\r\n");
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.error_status(), 413);
}

TEST(HttpParserTest, ContentLengthMismatchesAre400) {
  {
    // Conflicting repeated Content-Length: framing is ambiguous.
    HttpParser parser;
    parser.Feed(
        "POST /x HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\n");
    ASSERT_TRUE(parser.failed());
    EXPECT_EQ(parser.error_status(), 400);
  }
  {
    // Agreeing repeats are allowed (RFC 9112 §6.3).
    HttpParser parser;
    const std::string msg =
        "POST /x HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc";
    EXPECT_EQ(parser.Feed(msg), msg.size());
    EXPECT_TRUE(parser.done());
  }
  {
    // Non-numeric length.
    HttpParser parser;
    parser.Feed("POST /x HTTP/1.1\r\nContent-Length: abc\r\n\r\n");
    ASSERT_TRUE(parser.failed());
    EXPECT_EQ(parser.error_status(), 400);
  }
}

TEST(HttpParserTest, TransferEncodingIsRejected) {
  HttpParser parser;
  parser.Feed("POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.error_status(), 400);
}

TEST(HttpParserTest, ConnectionHeaderOverridesKeepAliveDefault) {
  {
    HttpParser parser;
    parser.Feed("GET /x HTTP/1.1\r\nConnection: close\r\n\r\n");
    ASSERT_TRUE(parser.done());
    EXPECT_FALSE(parser.TakeRequest().KeepAlive());
  }
  {
    HttpParser parser;
    parser.Feed("GET /x HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
    ASSERT_TRUE(parser.done());
    EXPECT_TRUE(parser.TakeRequest().KeepAlive());
  }
}

// ---- JSON helpers -----------------------------------------------------------

TEST(JsonTest, EscapeRoundTripsThroughParse) {
  const std::string nasty = "a\"b\\c\nd\te\x01f";
  const std::string doc = "{\"input\":" + net::JsonString(nasty) + "}";
  std::map<std::string, std::string> fields;
  std::string error;
  ASSERT_TRUE(net::JsonParseFlatObject(doc, &fields, &error)) << error;
  EXPECT_EQ(fields["input"], nasty);
}

TEST(JsonTest, ParsesScalarsAndRejectsNesting) {
  std::map<std::string, std::string> fields;
  std::string error;
  ASSERT_TRUE(net::JsonParseFlatObject(
      "{\"s\": \"x\", \"n\": -1.5e3, \"b\": true, \"z\": null}", &fields,
      &error))
      << error;
  EXPECT_EQ(fields["s"], "x");
  EXPECT_EQ(fields["n"], "-1.5e3");
  EXPECT_EQ(fields["b"], "true");
  EXPECT_EQ(fields["z"], "");
  EXPECT_FALSE(
      net::JsonParseFlatObject("{\"o\": {\"x\": 1}}", &fields, &error));
  EXPECT_FALSE(net::JsonParseFlatObject("{\"a\": [1]}", &fields, &error));
  EXPECT_FALSE(net::JsonParseFlatObject("not json", &fields, &error));
  EXPECT_FALSE(net::JsonParseFlatObject("{\"a\":1} junk", &fields, &error));
}

TEST(JsonTest, DecodesUnicodeEscapesIncludingSurrogatePairs) {
  std::map<std::string, std::string> fields;
  std::string error;
  ASSERT_TRUE(net::JsonParseFlatObject(
      "{\"u\": \"\\u00e9\\u4e2d\\ud83d\\ude00\"}", &fields, &error))
      << error;
  EXPECT_EQ(fields["u"], "\xC3\xA9\xE4\xB8\xAD\xF0\x9F\x98\x80");
}

// ---- timeout_ms query parsing ----------------------------------------------

TEST(ParseTimeoutParamTest, AbsentKeyKeepsTheFallback) {
  milliseconds out{0};
  ASSERT_TRUE(
      net::ParseTimeoutParam("stream=1", milliseconds(250), &out).ok());
  EXPECT_EQ(out, milliseconds(250));
  ASSERT_TRUE(net::ParseTimeoutParam("", milliseconds(250), &out).ok());
  EXPECT_EQ(out, milliseconds(250));
}

TEST(ParseTimeoutParamTest, ValidValueParsesAndComposes) {
  milliseconds out{0};
  ASSERT_TRUE(
      net::ParseTimeoutParam("timeout_ms=125", milliseconds::max(), &out)
          .ok());
  EXPECT_EQ(out, milliseconds(125));
  // Key found anywhere in the query string, split on '&'.
  ASSERT_TRUE(net::ParseTimeoutParam("stream=1&timeout_ms=90",
                                     milliseconds::max(), &out)
                  .ok());
  EXPECT_EQ(out, milliseconds(90));
  // A key that merely *contains* timeout_ms is not a match.
  ASSERT_TRUE(net::ParseTimeoutParam("xtimeout_ms=90", milliseconds(7), &out)
                  .ok());
  EXPECT_EQ(out, milliseconds(7));
}

TEST(ParseTimeoutParamTest, TrailingGarbageIsRejectedNotTruncated) {
  // The old bare-strtol parse read "timeout_ms=5x" as 5 milliseconds.
  milliseconds out{0};
  for (const char* bad :
       {"timeout_ms=5x", "timeout_ms=1e3", "timeout_ms=12 ", "timeout_ms=x",
        "timeout_ms=", "timeout_ms=-5", "timeout_ms=+5", "timeout_ms=0"}) {
    const Status status =
        net::ParseTimeoutParam(bad, milliseconds::max(), &out);
    EXPECT_FALSE(status.ok()) << bad;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(ParseTimeoutParamTest, HugeValuesCapInsteadOfOverflowing) {
  milliseconds out{0};
  // Numeric but beyond long long: the old strtol clamped to LONG_MAX
  // silently; now it caps at the documented bound.
  ASSERT_TRUE(net::ParseTimeoutParam("timeout_ms=99999999999999999999999",
                                     milliseconds::max(), &out)
                  .ok());
  EXPECT_EQ(out, net::kMaxRequestTimeout);
  // In-range but above the cap: same.
  ASSERT_TRUE(net::ParseTimeoutParam("timeout_ms=4611686018427387904",
                                     milliseconds::max(), &out)
                  .ok());
  EXPECT_EQ(out, net::kMaxRequestTimeout);
  // At the cap exactly: passes through.
  ASSERT_TRUE(net::ParseTimeoutParam("timeout_ms=600000",
                                     milliseconds::max(), &out)
                  .ok());
  EXPECT_EQ(out, net::kMaxRequestTimeout);
}

// ---- EventLoop --------------------------------------------------------------

TEST(EventLoopTest, PostRunsClosuresOnTheLoopThread) {
  EventLoop loop;
  ASSERT_TRUE(loop.Init().ok());
  std::thread::id loop_thread_id;
  std::promise<void> ran;
  std::thread loop_thread([&] {
    loop_thread_id = std::this_thread::get_id();
    loop.Run();
  });
  std::atomic<int> count{0};
  std::thread::id observed;
  loop.Post([&] {
    observed = std::this_thread::get_id();
    count.fetch_add(1);
    ran.set_value();
  });
  ran.get_future().wait();
  loop.Stop();
  loop_thread.join();
  EXPECT_EQ(count.load(), 1);
  EXPECT_EQ(observed, loop_thread_id);
  // Posts after the loop has stopped are dropped, not leaked or run.
  loop.Post([&] { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1);
}

// ---- Loopback end-to-end ----------------------------------------------------

/// Blocking loopback HTTP client with a small response parser (enough to
/// check status lines, headers, Content-Length bodies, and decode chunked
/// transfer-encoding).
class TestClient {
 public:
  explicit TestClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
      ADD_FAILURE() << "socket: " << std::strerror(errno);
      return;
    }
    struct timeval tv{30, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ADD_FAILURE() << "connect: " << std::strerror(errno);
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  void SendAll(std::string_view data) {
    size_t off = 0;
    while (off < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      off += static_cast<size_t>(n);
    }
  }

  struct Response {
    int code = 0;
    std::map<std::string, std::string> headers;  // lowercased names
    std::string body;           // chunked bodies are decoded
    bool chunked = false;
    std::vector<std::string> chunks;  // raw chunk payloads, in order
  };

  Response ReadResponse() {
    Response r;
    const std::string status = ReadLine();
    EXPECT_EQ(status.rfind("HTTP/1.1 ", 0), 0u) << "status line: " << status;
    r.code = std::atoi(status.c_str() + 9);
    while (true) {
      const std::string line = ReadLine();
      if (line.empty()) break;
      const size_t colon = line.find(':');
      if (colon == std::string::npos) {
        ADD_FAILURE() << "bad header line: " << line;
        return r;
      }
      std::string name = line.substr(0, colon);
      for (char& c : name) c = static_cast<char>(std::tolower(c));
      size_t v = colon + 1;
      while (v < line.size() && line[v] == ' ') ++v;
      r.headers[name] = line.substr(v);
    }
    if (r.headers.count("transfer-encoding") &&
        r.headers["transfer-encoding"] == "chunked") {
      r.chunked = true;
      while (true) {
        const std::string size_line = ReadLine();
        const size_t size = std::strtoul(size_line.c_str(), nullptr, 16);
        if (size == 0) {
          EXPECT_EQ(ReadLine(), "");  // final CRLF after the 0 chunk
          break;
        }
        const std::string chunk = ReadExact(size);
        r.chunks.push_back(chunk);
        r.body += chunk;
        EXPECT_EQ(ReadLine(), "");  // CRLF chunk terminator
      }
    } else if (r.headers.count("content-length")) {
      r.body = ReadExact(
          std::strtoul(r.headers["content-length"].c_str(), nullptr, 10));
    }
    return r;
  }

  /// Remaining bytes until the peer closes.
  std::string ReadUntilEof() {
    std::string out = std::move(buf_);
    buf_.clear();
    char tmp[4096];
    while (true) {
      const ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
      if (n <= 0) break;
      out.append(tmp, static_cast<size_t>(n));
    }
    return out;
  }

  bool PeerClosed() {
    char tmp[1];
    const ssize_t n = ::recv(fd_, tmp, 1, 0);
    if (n == 0) return true;  // clean FIN
    // A server that closes with unread input still buffered (e.g. an
    // oversized header it refused to read) resets instead of FIN-ing.
    return n < 0 && (errno == ECONNRESET || errno == EPIPE);
  }

 private:
  std::string ReadLine() {
    while (true) {
      const size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        return line;
      }
      if (!Fill()) {
        ADD_FAILURE() << "connection closed mid-line";
        return buf_;
      }
    }
  }

  std::string ReadExact(size_t n) {
    while (buf_.size() < n) {
      if (!Fill()) {
        ADD_FAILURE() << "connection closed mid-body";
        break;
      }
    }
    std::string out = buf_.substr(0, n);
    buf_.erase(0, std::min(n, buf_.size()));
    return out;
  }

  bool Fill() {
    char tmp[4096];
    const ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
    if (n <= 0) return false;
    buf_.append(tmp, static_cast<size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buf_;
};

/// One live HttpServer over a three-route RoutedServer (LabelSession per
/// route), bound to an ephemeral loopback port.
class HttpE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerConfig config;
    config.cache_capacity = 16;
    std::vector<RouteSpec> routes;
    for (const char* name : {"clean", "match", "extract"}) {
      routes.push_back(
          {name, {std::make_shared<SyntheticSession>(microseconds(100),
                                                     microseconds(10))},
           config});
    }
    routed_ = std::make_unique<RoutedServer>(std::move(routes));
    service_ = std::make_unique<RptHttpService>(routed_.get());
    HttpServerOptions options;
    options.port = 0;
    options.limits.max_body_bytes = 1 << 20;
    http_ = std::make_unique<HttpServer>(options);
    service_->Register(http_.get());
    ASSERT_TRUE(http_->Start().ok());
  }

  void TearDown() override {
    http_->Stop();
    routed_->Shutdown();
  }

  static std::string PostRequest(const std::string& target,
                                 const std::string& body,
                                 const char* extra_headers = "") {
    return "POST " + target + " HTTP/1.1\r\nHost: t\r\n" + extra_headers +
           "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n" +
           body;
  }

  std::unique_ptr<RoutedServer> routed_;
  std::unique_ptr<RptHttpService> service_;
  std::unique_ptr<HttpServer> http_;
};

TEST_F(HttpE2eTest, HealthzServesOk) {
  TestClient client(http_->port());
  client.SendAll("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
  const TestClient::Response r = client.ReadResponse();
  EXPECT_EQ(r.code, 200);
  EXPECT_EQ(r.body, "ok\n");
}

/// The acceptance bar: every route's HTTP response carries exactly the
/// bytes a direct Submit returns for the same input.
TEST_F(HttpE2eTest, HttpOutputsAreByteIdenticalToSubmitWait) {
  for (const std::string& route : routed_->RouteNames()) {
    const std::string payload = "probe for " + route;
    const ServeResponse direct = routed_->Submit(route, payload).get();
    ASSERT_TRUE(direct.status.ok()) << direct.status.ToString();

    TestClient client(http_->port());
    client.SendAll(PostRequest(
        "/v1/" + route, "{\"input\":" + net::JsonString(payload) + "}"));
    const TestClient::Response r = client.ReadResponse();
    ASSERT_EQ(r.code, 200) << route << ": " << r.body;
    std::map<std::string, std::string> fields;
    std::string error;
    std::string line = r.body;
    ASSERT_FALSE(line.empty());
    ASSERT_EQ(line.back(), '\n');
    line.pop_back();
    ASSERT_TRUE(net::JsonParseFlatObject(line, &fields, &error)) << error;
    EXPECT_EQ(fields["output"], direct.output)
        << route << " differs between HTTP and a direct Submit";
    EXPECT_EQ(fields["cache_hit"], "true");  // Submit warmed the LRU
  }
}

TEST_F(HttpE2eTest, MultiLineBodyStreamsChunkedInOrder) {
  const std::vector<std::string> payloads = {"alpha", "beta", "gamma"};
  std::string body;
  for (const auto& p : payloads) {
    body += "{\"input\":" + net::JsonString(p) + "}\n";
  }
  TestClient client(http_->port());
  client.SendAll(PostRequest("/v1/clean", body));
  const TestClient::Response r = client.ReadResponse();
  ASSERT_EQ(r.code, 200);
  EXPECT_TRUE(r.chunked) << "multi-line responses must stream chunked";

  // One response line per input line, in request order.
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < r.body.size()) {
    size_t end = r.body.find('\n', pos);
    if (end == std::string::npos) end = r.body.size();
    lines.push_back(r.body.substr(pos, end - pos));
    pos = end + 1;
  }
  ASSERT_EQ(lines.size(), payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    std::map<std::string, std::string> fields;
    std::string error;
    ASSERT_TRUE(net::JsonParseFlatObject(lines[i], &fields, &error))
        << error << " in line: " << lines[i];
    EXPECT_EQ(fields["output"],
              routed_->Submit("clean", payloads[i]).get().output)
        << "line " << i << " out of order or wrong";
  }
}

TEST_F(HttpE2eTest, StreamQueryForcesChunkedForSingleLine) {
  TestClient client(http_->port());
  client.SendAll(PostRequest("/v1/clean?stream=1", "{\"input\":\"solo\"}"));
  const TestClient::Response r = client.ReadResponse();
  EXPECT_EQ(r.code, 200);
  EXPECT_TRUE(r.chunked);
}

TEST_F(HttpE2eTest, MalformedBodyAnswers400BeforeSubmitting) {
  const uint64_t submitted_before = routed_->Stats().total.submitted;
  TestClient client(http_->port());
  client.SendAll(PostRequest("/v1/clean", "{\"input\": nope}"));
  const TestClient::Response r = client.ReadResponse();
  EXPECT_EQ(r.code, 400);
  EXPECT_NE(r.body.find("InvalidArgument"), std::string::npos);
  EXPECT_EQ(routed_->Stats().total.submitted, submitted_before)
      << "a malformed body must not reach the serving layer";
}

TEST_F(HttpE2eTest, MalformedTimeoutAnswers400BeforeSubmitting) {
  const uint64_t submitted_before = routed_->Stats().total.submitted;
  for (const char* query :
       {"?timeout_ms=5x", "?timeout_ms=", "?timeout_ms=-3",
        "?timeout_ms=1e3", "?stream=1&timeout_ms=0"}) {
    TestClient client(http_->port());
    client.SendAll(
        PostRequest("/v1/clean" + std::string(query), "{\"input\":\"t\"}"));
    const TestClient::Response r = client.ReadResponse();
    EXPECT_EQ(r.code, 400) << query;
    EXPECT_NE(r.body.find("timeout_ms"), std::string::npos) << r.body;
  }
  EXPECT_EQ(routed_->Stats().total.submitted, submitted_before)
      << "a malformed timeout must not reach the serving layer";
}

TEST_F(HttpE2eTest, ValidAndHugeTimeoutsAreServed) {
  // In range, above the cap (clamped), and past-integer-range (clamped):
  // all three serve normally.
  for (const char* query :
       {"?timeout_ms=30000", "?timeout_ms=999999999",
        "?timeout_ms=99999999999999999999999"}) {
    TestClient client(http_->port());
    client.SendAll(
        PostRequest("/v1/clean" + std::string(query), "{\"input\":\"t2\"}"));
    const TestClient::Response r = client.ReadResponse();
    EXPECT_EQ(r.code, 200) << query;
    EXPECT_NE(r.body.find("\"output\""), std::string::npos) << r.body;
  }
}

TEST_F(HttpE2eTest, UnknownPathAndWrongMethodAnswer404And405) {
  TestClient client(http_->port());
  client.SendAll("GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_EQ(client.ReadResponse().code, 404);
  // Same (keep-alive) connection: a known path with the wrong method.
  client.SendAll("GET /v1/clean HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_EQ(client.ReadResponse().code, 405);
}

TEST_F(HttpE2eTest, PipelinedKeepAliveRequestsAnswerInOrder) {
  TestClient client(http_->port());
  // Two requests in one write; responses must come back in order on the
  // same connection.
  client.SendAll(PostRequest("/v1/clean", "{\"input\":\"one\"}") +
                 PostRequest("/v1/match", "{\"input\":\"two\"}"));
  const TestClient::Response first = client.ReadResponse();
  const TestClient::Response second = client.ReadResponse();
  ASSERT_EQ(first.code, 200);
  ASSERT_EQ(second.code, 200);
  std::map<std::string, std::string> f1, f2;
  std::string error;
  ASSERT_TRUE(net::JsonParseFlatObject(
      first.body.substr(0, first.body.size() - 1), &f1, &error));
  ASSERT_TRUE(net::JsonParseFlatObject(
      second.body.substr(0, second.body.size() - 1), &f2, &error));
  EXPECT_EQ(f1["output"], routed_->Submit("clean", "one").get().output);
  EXPECT_EQ(f2["output"], routed_->Submit("match", "two").get().output);
}

TEST_F(HttpE2eTest, ParseErrorsAnswerAndCloseTheConnection) {
  {
    TestClient client(http_->port());
    client.SendAll("BROKEN\r\n\r\n");
    const TestClient::Response r = client.ReadResponse();
    EXPECT_EQ(r.code, 400);
    EXPECT_TRUE(client.PeerClosed());
  }
  {
    // Oversized header block: 431, then close.
    TestClient client(http_->port());
    std::string msg = "GET /healthz HTTP/1.1\r\n";
    msg += "X-Pad: " + std::string(64 << 10, 'p') + "\r\n\r\n";
    client.SendAll(msg);
    const TestClient::Response r = client.ReadResponse();
    EXPECT_EQ(r.code, 431);
    EXPECT_TRUE(client.PeerClosed());
  }
  {
    // Declared body over the cap: 413 before the body is ever sent.
    TestClient client(http_->port());
    client.SendAll("POST /v1/clean HTTP/1.1\r\nContent-Length: " +
                   std::to_string(8 << 20) + "\r\n\r\n");
    const TestClient::Response r = client.ReadResponse();
    EXPECT_EQ(r.code, 413);
    EXPECT_TRUE(client.PeerClosed());
  }
}

TEST_F(HttpE2eTest, MetricsEndpointIsValidExpositionWithHttpSeries) {
  // Generate some traffic first so the HTTP series exist.
  TestClient client(http_->port());
  client.SendAll(PostRequest("/v1/clean", "{\"input\":\"m\"}"));
  ASSERT_EQ(client.ReadResponse().code, 200);

  TestClient scraper(http_->port());
  scraper.SendAll("GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
  const TestClient::Response r = scraper.ReadResponse();
  ASSERT_EQ(r.code, 200);
  EXPECT_EQ(r.headers.at("content-type"),
            "text/plain; version=0.0.4; charset=utf-8");
  if constexpr (!obs::kObsEnabled) GTEST_SKIP() << "built with RPT_OBS_OFF";
  testutil::ValidateExposition(r.body);
  EXPECT_GE(testutil::SampleValue(
                r.body, "rpt_http_requests_total",
                "{code=\"200\",endpoint=\"/v1/clean\"}"),
            1.0);
  EXPECT_GE(testutil::SampleValue(r.body, "rpt_http_connections", ""), 1.0);
  EXPECT_GT(testutil::SampleValue(r.body, "rpt_http_bytes_in_total", ""), 0.0);
  EXPECT_GT(testutil::SampleValue(r.body, "rpt_http_bytes_out_total", ""),
            0.0);
}

TEST_F(HttpE2eTest, ConnectionCloseIsHonored) {
  TestClient client(http_->port());
  client.SendAll("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
  const TestClient::Response r = client.ReadResponse();
  EXPECT_EQ(r.code, 200);
  EXPECT_EQ(r.headers.at("connection"), "close");
  EXPECT_TRUE(client.PeerClosed());
}

TEST_F(HttpE2eTest, ManyConcurrentConnectionsAllComplete) {
  constexpr int kClients = 16;
  constexpr int kRequestsEach = 4;
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      TestClient client(http_->port());
      for (int i = 0; i < kRequestsEach; ++i) {
        const std::string payload = "c" + std::to_string(t % 4);
        client.SendAll(PostRequest(
            "/v1/clean", "{\"input\":" + net::JsonString(payload) + "}"));
        if (client.ReadResponse().code == 200) ok.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kClients * kRequestsEach);
}

}  // namespace
}  // namespace rpt
