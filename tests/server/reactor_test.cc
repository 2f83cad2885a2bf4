// Reactor front-end tests: byte-identity with the threaded front-end
// across every route (the two paths must be indistinguishable on the
// wire), pipelined keep-alive, backpressure on a slow reader (the EAGAIN
// path), and the connection guards — keep-alive idle timeout and the
// header-read deadline (slow-loris defence) on BOTH front-ends.

#include "server/reactor.h"

#include <gtest/gtest.h>

#include <chrono>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "net/http.h"
#include "net/socket.h"
#include "server/server.h"

namespace scube {
namespace server {
namespace {

cube::SegregationCube MakeCube(double south_dissimilarity) {
  relational::ItemCatalog catalog;
  using relational::AttributeKind;
  catalog.GetOrAdd(0, "sex", "F", AttributeKind::kSegregation);     // id 0
  catalog.GetOrAdd(1, "region", "north", AttributeKind::kContext);  // id 1
  catalog.GetOrAdd(2, "region", "south", AttributeKind::kContext);  // id 2

  auto make_cell = [](std::vector<fpm::ItemId> sa,
                      std::vector<fpm::ItemId> ca, uint64_t t, uint64_t m,
                      double d) {
    cube::CubeCell cell;
    cell.coords = cube::CellCoordinates{fpm::Itemset(std::move(sa)),
                                        fpm::Itemset(std::move(ca))};
    cell.context_size = t;
    cell.minority_size = m;
    cell.num_units = 2;
    cell.indexes.defined = true;
    cell.indexes.values[static_cast<size_t>(
        indexes::IndexKind::kDissimilarity)] = d;
    return cell;
  };
  cube::SegregationCube cube(std::move(catalog), {"u0", "u1"});
  cube.Insert(make_cell({0}, {}, 100, 40, 0.10));
  cube.Insert(make_cell({0}, {1}, 60, 25, 0.5));
  cube.Insert(make_cell({0}, {2}, 40, 15, south_dissimilarity));
  return cube;
}

/// A cube with `contexts` one-attribute cells — big enough that its
/// streamed answer overflows the reactor's outbox watermark.
cube::SegregationCube MakeWideCube(size_t contexts) {
  relational::ItemCatalog catalog;
  using relational::AttributeKind;
  catalog.GetOrAdd(0, "sex", "F", AttributeKind::kSegregation);
  for (size_t i = 0; i < contexts; ++i) {
    catalog.GetOrAdd(static_cast<fpm::ItemId>(1 + i), "region",
                     "r" + std::to_string(i), AttributeKind::kContext);
  }
  cube::SegregationCube cube(std::move(catalog), {"u0", "u1"});
  for (size_t i = 0; i < contexts; ++i) {
    cube::CubeCell cell;
    cell.coords = cube::CellCoordinates{
        fpm::Itemset({0}),
        fpm::Itemset({static_cast<fpm::ItemId>(1 + i)})};
    cell.context_size = 100 + i;
    cell.minority_size = 10 + (i % 50);
    cell.num_units = 2;
    cell.indexes.defined = true;
    cell.indexes.values[static_cast<size_t>(
        indexes::IndexKind::kDissimilarity)] = 0.25;
    cube.Insert(cell);
  }
  return cube;
}

ServerOptions MakeServerOptions(Frontend frontend) {
  ServerOptions options;
  options.port = 0;
  options.loopback_only = true;
  options.num_connection_threads = 4;
  options.idle_poll_seconds = 0.1;  // fast Stop() in tests
  options.frontend = frontend;
  return options;
}

/// Neutralises the fields that legitimately differ run-to-run (timings,
/// cache state, cursor tokens) so full response bytes can be compared.
std::string Mask(std::string s) {
  s = std::regex_replace(s, std::regex("\"exec_ms\":[0-9.eE+-]+"),
                         "\"exec_ms\":X");
  s = std::regex_replace(s, std::regex("\"cache_hit\":(true|false)"),
                         "\"cache_hit\":X");
  s = std::regex_replace(s, std::regex("\"cells_scanned\":[0-9]+"),
                         "\"cells_scanned\":X");
  s = std::regex_replace(s, std::regex("\"next_cursor\":\"[^\"]*\""),
                         "\"next_cursor\":\"X\"");
  // The digit count of exec_ms varies run-to-run, so the byte length of
  // otherwise-identical bodies (and with it Content-Length and chunk
  // framing) legitimately differs by a byte or two.
  s = std::regex_replace(s, std::regex("Content-Length: [0-9]+"),
                         "Content-Length: X");
  return s;
}

/// Decodes chunked transfer framing so responses can be compared after
/// masking (chunk sizes shift with the masked exec_ms digits). Non-chunked
/// input passes through untouched.
std::string Dechunk(const std::string& raw) {
  const size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) return raw;
  const std::string head = raw.substr(0, head_end + 4);
  if (head.find("Transfer-Encoding: chunked") == std::string::npos) {
    return raw;
  }
  std::string body;
  size_t at = head_end + 4;
  while (at < raw.size()) {
    const size_t line_end = raw.find("\r\n", at);
    if (line_end == std::string::npos) break;
    const size_t size = std::stoul(raw.substr(at, line_end - at), nullptr, 16);
    if (size == 0) break;  // terminal chunk
    body += raw.substr(line_end + 2, size);
    at = line_end + 2 + size + 2;  // past the chunk and its trailing CRLF
  }
  return head + body;
}

/// Sends raw request bytes and reads the connection to EOF.
std::string RawExchange(uint16_t port, const std::string& request) {
  auto connected = net::Connect("127.0.0.1", port);
  EXPECT_TRUE(connected.ok()) << connected.status();
  if (!connected.ok()) return "";
  net::Socket socket = std::move(connected).value();
  EXPECT_TRUE(socket.WriteAll(request).ok());
  std::string out;
  char buf[4096];
  while (true) {
    auto n = socket.Read(buf, sizeof(buf));
    if (!n.ok() || *n == 0) break;
    out.append(buf, *n);
  }
  return out;
}

std::string Req(const std::string& method, const std::string& target,
                const std::string& body = "", bool close = true) {
  std::string r = method + " " + target + " HTTP/1.1\r\nHost: t\r\n";
  if (close) r += "Connection: close\r\n";
  if (!body.empty() || method == "POST") {
    r += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  r += "\r\n" + body;
  return r;
}

/// Both front-ends over the SAME store and service, so any response
/// difference is the front-end's fault, not the data's.
struct DualFixture {
  query::CubeStore store;
  query::QueryService service;
  ScubedServer threaded;
  ScubedServer reactor;

  DualFixture()
      : service(&store, {}),
        threaded(&service, MakeServerOptions(Frontend::kThreads)),
        reactor(&service, MakeServerOptions(Frontend::kReactor)) {
    store.Publish("default", MakeCube(0.2));
    Status t = threaded.Start();
    EXPECT_TRUE(t.ok()) << t;
    Status r = reactor.Start();
    EXPECT_TRUE(r.ok()) << r;
  }

  /// Runs the identical raw request against both front-ends and expects
  /// masked byte-identity; returns the reactor's raw response.
  std::string ExpectIdentical(const std::string& request) {
    const std::string via_threads = RawExchange(threaded.port(), request);
    const std::string via_reactor = RawExchange(reactor.port(), request);
    EXPECT_EQ(Mask(Dechunk(via_threads)), Mask(Dechunk(via_reactor)))
        << request;
    return via_reactor;
  }
};

TEST(ReactorParityTest, BufferedRoutesAreByteIdentical) {
  DualFixture fx;
  EXPECT_NE(fx.ExpectIdentical(Req("GET", "/healthz")).find("200 OK"),
            std::string::npos);
  fx.ExpectIdentical(Req("GET", "/cubes"));
  fx.ExpectIdentical(Req("POST", "/query", "SLICE sa=sex=F"));
  fx.ExpectIdentical(Req("POST", "/query?format=csv", "SLICE sa=sex=F"));
  fx.ExpectIdentical(Req("GET", "/no/such/route"));
  fx.ExpectIdentical(Req("POST", "/query", ""));  // 400: empty body
}

TEST(ReactorParityTest, HeadStripsTheBodyOnBothFrontEnds) {
  DualFixture fx;
  const std::string raw = fx.ExpectIdentical(Req("HEAD", "/healthz"));
  EXPECT_NE(raw.find("Content-Length:"), std::string::npos);
  EXPECT_EQ(raw.substr(raw.size() - 4), "\r\n\r\n");  // headers only
}

TEST(ReactorParityTest, StreamedAndCursorPagesAreByteIdentical) {
  DualFixture fx;
  const std::string streamed =
      fx.ExpectIdentical(Req("POST", "/query?stream=1", "SLICE sa=sex=F"));
  EXPECT_NE(streamed.find("Transfer-Encoding: chunked"), std::string::npos);
  EXPECT_NE(streamed.find("\"rows\":3"), std::string::npos);

  const std::string page1 = fx.ExpectIdentical(
      Req("POST", "/query?stream=1", "SLICE sa=sex=F LIMIT 2"));
  const size_t cursor_at = page1.find("\"next_cursor\":\"");
  ASSERT_NE(cursor_at, std::string::npos) << page1;
  const size_t start = cursor_at + 15;
  const std::string cursor =
      page1.substr(start, page1.find('"', start) - start);
  fx.ExpectIdentical(Req("POST", "/query?stream=1&cursor=" + cursor,
                         "SLICE sa=sex=F LIMIT 2"));
}

TEST(ReactorParityTest, MalformedRequestsGetTheSame400) {
  DualFixture fx;
  // Content-Length over the body cap fails in the header phase — both
  // front-ends must answer the identical 400 and close.
  const std::string raw = fx.ExpectIdentical(
      "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: 99999999\r\n\r\n");
  EXPECT_NE(raw.find("400 Bad Request"), std::string::npos);
  EXPECT_NE(raw.find("exceeds the limit"), std::string::npos);
}

TEST(ReactorParityTest, PipelinedKeepAliveServesEveryRequestInOrder) {
  DualFixture fx;
  // Three requests written before any response is read: the reactor must
  // park the pipelined bytes while each response is in flight.
  const std::string burst = Req("GET", "/healthz", "", /*close=*/false) +
                            Req("GET", "/cubes", "", /*close=*/false) +
                            Req("POST", "/query", "SLICE sa=sex=F");
  const std::string raw = fx.ExpectIdentical(burst);
  size_t heads = 0;
  for (size_t at = raw.find("HTTP/1.1 200 OK"); at != std::string::npos;
       at = raw.find("HTTP/1.1 200 OK", at + 1)) {
    ++heads;
  }
  EXPECT_EQ(heads, 3u);
}

TEST(ReactorParityTest, LineProtocolAnswersAndQuits) {
  DualFixture fx;
  const std::string raw =
      fx.ExpectIdentical("TOPK 1 BY dissimilarity\nQUIT\n");
  EXPECT_NE(raw.find("\"code\":\"OK\""), std::string::npos);
}

TEST(ReactorTest, SlowReaderBackpressuresWithoutLosingBytes) {
  // A streamed answer several times the outbox watermark, read by a
  // client that does not start reading until the writer has hit EAGAIN:
  // exercises EPOLLOUT resumption and the worker's watermark wait.
  query::CubeStore store;
  query::QueryService service(&store, {});
  store.Publish("default", MakeWideCube(6000));
  ScubedServer server(&service, MakeServerOptions(Frontend::kReactor));
  ASSERT_TRUE(server.Start().ok());

  auto connected = net::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok());
  net::Socket socket = std::move(connected).value();
  ASSERT_TRUE(
      socket.WriteAll(Req("POST", "/query?stream=1", "SLICE sa=sex=F"))
          .ok());
  // Let the server fill the socket buffer and the outbox watermark.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  std::string out;
  char buf[4096];
  while (true) {
    auto n = socket.Read(buf, sizeof(buf));
    if (!n.ok() || *n == 0) break;
    out.append(buf, *n);
  }
  EXPECT_NE(out.find("\"rows\":6000"), std::string::npos);
  EXPECT_NE(out.find("\"code\":\"OK\""), std::string::npos);
  server.Stop();
}

TEST(ReactorTest, IdleConnectionsTimeOutAndCount) {
  query::CubeStore store;
  query::QueryService service(&store, {});
  store.Publish("default", MakeCube(0.2));
  ServerOptions options = MakeServerOptions(Frontend::kReactor);
  options.idle_timeout_seconds = 0.3;
  ScubedServer server(&service, options);
  ASSERT_TRUE(server.Start().ok());

  auto connected = net::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok());
  net::Socket socket = std::move(connected).value();
  WallTimer timer;
  char buf[64];
  auto n = socket.Read(buf, sizeof(buf));  // blocks until the server closes
  EXPECT_TRUE(n.ok() && *n == 0) << (n.ok() ? "bytes" : n.status().ToString());
  EXPECT_LT(timer.Millis(), 3000);
  EXPECT_GE(server.metrics().idle_timeout_closes.load(), 1u);
  server.Stop();
}

TEST(ReactorTest, HeaderDeadlineDropsAStalledRequest) {
  query::CubeStore store;
  query::QueryService service(&store, {});
  store.Publish("default", MakeCube(0.2));
  ServerOptions options = MakeServerOptions(Frontend::kReactor);
  options.request_read_seconds = 0.3;
  options.idle_timeout_seconds = 30;  // idle alone must not fire here
  ScubedServer server(&service, options);
  ASSERT_TRUE(server.Start().ok());

  auto connected = net::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok());
  net::Socket socket = std::move(connected).value();
  // A request that starts and then stalls forever.
  ASSERT_TRUE(socket.WriteAll("POST /query HTTP/1.1\r\nHost: t\r\nCon").ok());
  WallTimer timer;
  char buf[64];
  auto n = socket.Read(buf, sizeof(buf));
  EXPECT_TRUE(n.ok() && *n == 0) << (n.ok() ? "bytes" : n.status().ToString());
  EXPECT_LT(timer.Millis(), 3000);
  EXPECT_GE(server.metrics().header_deadline_closes.load(), 1u);
  server.Stop();
}

TEST(ReactorTest, GracefulStopClosesIdleKeepAliveConnections) {
  query::CubeStore store;
  query::QueryService service(&store, {});
  store.Publish("default", MakeCube(0.2));
  ScubedServer server(&service, MakeServerOptions(Frontend::kReactor));
  ASSERT_TRUE(server.Start().ok());

  std::vector<net::Socket> idle;
  for (int i = 0; i < 5; ++i) {
    auto connected = net::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(connected.ok());
    idle.push_back(std::move(connected).value());
  }
  // Give the loop a beat to register them.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  WallTimer timer;
  server.Stop();
  EXPECT_LT(timer.Millis(), 2000);
  for (net::Socket& socket : idle) {
    char buf[16];
    auto n = socket.Read(buf, sizeof(buf));
    EXPECT_TRUE(n.ok() && *n == 0);  // orderly close
  }
  EXPECT_EQ(server.metrics().open_connections.load(), 0);
}

TEST(ThreadedGuardTest, SlowLorisTrickleCannotPinAHandlerThread) {
  // A byte-at-a-time header trickle resets the per-read SO_RCVTIMEO every
  // byte; only the total read deadline stops it. Before that fix this
  // connection held a handler thread for as long as it kept dripping.
  query::CubeStore store;
  query::QueryService service(&store, {});
  store.Publish("default", MakeCube(0.2));
  ServerOptions options = MakeServerOptions(Frontend::kThreads);
  options.request_read_seconds = 0.4;
  ScubedServer server(&service, options);
  ASSERT_TRUE(server.Start().ok());

  auto connected = net::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok());
  net::Socket socket = std::move(connected).value();
  ASSERT_TRUE(socket.WriteAll("GET /healthz HTTP/1.1\r\n").ok());
  socket.SetRecvTimeout(0.05);
  WallTimer timer;
  std::string got;
  bool over = false;
  while (timer.Millis() < 5000) {
    if (!socket.WriteAll("a").ok()) {  // keep dripping header bytes
      over = true;
      break;
    }
    char buf[256];
    auto n = socket.Read(buf, sizeof(buf));
    if (n.ok() && *n == 0) {
      over = true;
      break;
    }
    if (n.ok()) {
      got.append(buf, *n);
      continue;  // drain the 408 until the close
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(over) << "server never gave up on the trickle";
  EXPECT_LT(timer.Millis(), 3000);
  EXPECT_NE(got.find("408"), std::string::npos) << got;
  EXPECT_GE(server.metrics().header_deadline_closes.load(), 1u);
  server.Stop();
}

TEST(ThreadedGuardTest, IdleTimeoutCountsOnTheThreadedFrontEnd) {
  query::CubeStore store;
  query::QueryService service(&store, {});
  store.Publish("default", MakeCube(0.2));
  ServerOptions options = MakeServerOptions(Frontend::kThreads);
  options.idle_timeout_seconds = 0.3;
  ScubedServer server(&service, options);
  ASSERT_TRUE(server.Start().ok());

  auto connected = net::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok());
  net::Socket socket = std::move(connected).value();
  WallTimer timer;
  char buf[16];
  auto n = socket.Read(buf, sizeof(buf));
  EXPECT_TRUE(n.ok() && *n == 0);
  EXPECT_LT(timer.Millis(), 3000);
  EXPECT_GE(server.metrics().idle_timeout_closes.load(), 1u);
  server.Stop();
}

}  // namespace
}  // namespace server
}  // namespace scube
