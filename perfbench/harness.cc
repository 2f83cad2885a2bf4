// perfbench harness: the repository benchmark's in-process load generator.
//
// One process builds the inputs from --seed, sets up the workload (cubes,
// servers), drives it for --seconds and checks every answer it can. It
// touches the libraries only through their public headers and adds no
// instrumentation to them: per-layer numbers come from timing this file's
// own calls into each module and from counters the program already
// exports (CubeBuildStats, cache_stats(), /metrics, PartitionStats).
//
// Workloads (see perfbench/README.md for why each exists):
//   publish  Italian registry -> projection -> clustering -> finalTable ->
//            closed FP-growth -> fill -> seal -> CubeStore publish -> first
//            answer, repeated
//   serve    one scubed over the publish cube; open-loop SCubeQL traffic at
//            a fixed rate plus a rate ladder, PublishAndWarm on a schedule
//   stream   a wide synthetic cube; 100k-row SLICE exported streamed as
//            JSON and CSV, one request at a time
//   scatter  the serve cube over 2 in-process shard scubeds behind a
//            ScatterExecutor router; serve's traffic without publishes
//
// With --trace 0 only end-to-end numbers are taken. With --trace 1 the run
// also makes the per-layer passes, and measures the same end-to-end
// operation once plain and once traced to report the tracing overhead.
//
// Output: human-readable progress on stderr; one JSON record (metadata,
// every metric with unit and sample count, check outcome) as the last
// line of stdout. Exit code 0 when every answer checked out, 1 when a
// check failed, 2 on a usage or set-up error.

#include <sys/resource.h>
#include <unistd.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

#include "cluster/partition.h"
#include "cluster/scatter.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "common/trace.h"
#include "cube/builder.h"
#include "cube/cube.h"
#include "cube/cube_view.h"
#include "datagen/scenarios.h"
#include "etl/table_builder.h"
#include "graph/projection.h"
#include "graph/threshold_clustering.h"
#include "net/http.h"
#include "net/socket.h"
#include "query/ast.h"
#include "query/cube_store.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/query_result.h"
#include "query/row_sink.h"
#include "query/service.h"
#include "query/wire_format.h"
#include "server/server.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace scube;

namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Fixed workload parameters. Changing any of these changes the benchmark.
// ---------------------------------------------------------------------------

/// Italian registry build (publish, serve, scatter): group projection,
/// threshold clustering, closed FP-growth with <= 2 SA / <= 2 CA items.
constexpr uint64_t kMinSupport = 20;
constexpr uint64_t kNextVersionMinSupport = 22;  ///< serve's "next version"
constexpr double kClusterMinWeight = 2.0;

/// Interactive-exploration latency limit for max_qps_at_slo.
constexpr double kSloP99Ms = 20.0;

/// Offered rate of the fixed-rate phase (serve and scatter alike). No
/// recorded analyst traffic exists to take a rate from, so it is set well
/// below both workloads' capacity: over ten seeds on a 4-vCPU VM the median
/// max_qps_at_slo was ~10,000 qps on serve and ~2,000-2,600 qps on scatter,
/// whose single-flight router fell to ~800 qps while the VM ran slow. The
/// phase thus measures service time rather than queueing. At 500 qps
/// scatter's p50 tripled in those slow spells.
constexpr double kFixedQps = 250.0;

/// Open-loop warm-up before the fixed-rate phase, so the cache fills
/// before anything is timed.
constexpr double kWarmupSeconds = 2.0;

/// The rate ladder's grid: kLadderBase * kLadderRatio^k queries/s.
constexpr double kLadderBase = 200.0;
constexpr double kLadderRatio = 1.05;
constexpr double kLadderStepSeconds = 0.5;
constexpr int kLadderAttempts = 3;  ///< tries per rate before it counts missed

/// Share of the run spent at the fixed rate; the ladder gets the rest.
constexpr double kFixedShare = 0.4;

/// A failed or refused request counts as missing any latency limit.
constexpr double kFailedLatencyMs = 60000.0;

/// A generator this far behind its schedule is overloaded for certain; the
/// phase stops instead of draining a backlog that only grows.
constexpr double kAbortLagMs = 1000.0;

/// Statement pool and result cache: the pool is 4x the cache, drawn
/// Zipf-skewed, so some requests hit and some evict.
constexpr size_t kPoolSize = 1024;
constexpr size_t kCacheCapacity = 256;
constexpr double kZipfExponent = 1.0;  ///< assumed, like the verb mix

/// serve: one PublishAndWarm of the next version per this many seconds.
constexpr double kPublishEverySeconds = 1.0;

/// Set-up is repeated until at least kMinSetups ran and they took at least
/// kMinSetupSeconds together; setup_s is their median.
constexpr size_t kMinSetups = 5;
constexpr double kMinSetupSeconds = 4.0;

constexpr size_t kScatterShards = 2;
constexpr size_t kDefaultWideRows = 100000;
const char* const kWideQuery = "SLICE sa=group=minority";

// ---------------------------------------------------------------------------
// Options, statistics and the result record.
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 0.01;  ///< Italian registry scale (1.0 = paper size)
  size_t wide_rows = kDefaultWideRows;
  bool plant_wrong = false;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  std::string compiler = "unknown";
  size_t nproc = 1;
  size_t conns = 1;  ///< client threads/connections (<= nproc, <= 4)
};

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Hands freed heap back to the OS, so peak RSS is not set by garbage.
void ReleaseFreedMemory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
  bool per_layer = false;
};

/// Everything one run reports. Metrics keep insertion order; a name added
/// twice keeps the last value.
class Report {
 public:
  void EndToEnd(const std::string& name, double value, const char* unit,
                uint64_t samples) {
    Put(name, value, unit, samples, false);
  }
  void Layer(const std::string& name, double value, const char* unit,
             uint64_t samples) {
    Put(name, value, unit, samples, true);
  }
  void Meta(const std::string& key, const std::string& value) {
    meta_.emplace_back(key, JsonQuote(value));
  }
  void MetaNum(const std::string& key, double value) {
    meta_.emplace_back(key, Num(value));
  }

  /// One attempted operation; `ok` false counts it failed.
  void Op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void Ops(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// A failed answer check on an operation already counted by Op(): the
  /// operation turns failed and the run incorrect.
  void Wrong(const std::string& why) {
    ++wrong_;
    ++failed_;
    if (errors_.size() < 8) errors_.push_back(why);
    std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return std::min(failed_, attempted_); }
  bool correct() const { return wrong_ == 0; }

  std::string ToJson() const {
    std::string out = "{\"correct\":";
    out += correct() ? "true" : "false";
    out += ",\"attempted\":" + std::to_string(attempted_);
    out += ",\"failed\":" + std::to_string(failed());
    out += ",\"meta\":{";
    for (size_t i = 0; i < meta_.size(); ++i) {
      if (i > 0) out += ',';
      out += JsonQuote(meta_[i].first) + ":" + meta_[i].second;
    }
    out += "},\"errors\":[";
    for (size_t i = 0; i < errors_.size(); ++i) {
      if (i > 0) out += ',';
      out += JsonQuote(errors_[i]);
    }
    out += "],\"metrics\":{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      if (i > 0) out += ',';
      out += JsonQuote(m.name) + ":{\"value\":" + Num(m.value) +
             ",\"unit\":" + JsonQuote(m.unit) +
             ",\"samples\":" + std::to_string(m.samples) +
             ",\"layer\":" + (m.per_layer ? "true" : "false") + "}";
    }
    out += "}}";
    return out;
  }

 private:
  void Put(const std::string& name, double value, const char* unit,
           uint64_t samples, bool per_layer) {
    for (Metric& m : metrics_) {
      if (m.name == name) {
        m = Metric{name, value, unit, samples, per_layer};
        return;
      }
    }
    metrics_.push_back(Metric{name, value, unit, samples, per_layer});
  }

  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<std::string> errors_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t wrong_ = 0;
};

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T Must(Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return std::move(r).value();
}

/// True while the set-up loop has not yet met kMinSetups and
/// kMinSetupSeconds.
bool MoreSetups(const std::vector<double>& setup_s) {
  double total = 0;
  for (double x : setup_s) total += x;
  return setup_s.size() < kMinSetups || total < kMinSetupSeconds;
}

/// Peak RSS so far, as the workload's peak_rss_mb. Each workload calls it
/// when its measured phases end, before it builds the reference answers it
/// checks against, so the checker's own state stays out of the figure.
void ReportPeakRss(Report* report) {
  report->EndToEnd("peak_rss_mb", PeakRssMb(), "MB", 1);
}

/// Ends a workload's set-up loop: returns the heap the discarded set-ups
/// freed to the OS, so it does not count in peak_rss_mb, and reports
/// setup_s. Trimming between set-ups instead made each one re-fault its
/// pages, and page-fault cost varies with the host more than the work does.
void FinishSetups(const std::vector<double>& setup_s, Report* report) {
  ReleaseFreedMemory();
  std::fprintf(stderr, "set-up: %zu times, median %.4f s (%.4f..%.4f)\n",
               setup_s.size(), Median(setup_s),
               *std::min_element(setup_s.begin(), setup_s.end()),
               *std::max_element(setup_s.begin(), setup_s.end()));
  report->EndToEnd("setup_s", Median(setup_s), "s", setup_s.size());
}

// ---------------------------------------------------------------------------
// Cube construction.
// ---------------------------------------------------------------------------

/// Per-stage wall times and counts of one Italian cube build.
struct BuildStages {
  double project_s = 0;
  double cluster_s = 0;
  double table_s = 0;
  uint64_t projected_edges = 0;
  uint64_t units = 0;
  uint64_t rows = 0;
  cube::CubeBuildStats stats;
};

datagen::GeneratedScenario GenerateInputs(const Options& opt) {
  return Must(datagen::GenerateScenario(
                  datagen::ItalianConfig(opt.scale, opt.seed)),
              "generate scenario");
}

/// Scenario 3 of the paper, stage by stage through the public module
/// APIs (the same calls and settings pipeline::RunPipeline makes).
cube::SegregationCube BuildItalianCube(const etl::ScubeInputs& inputs,
                                       uint64_t min_support, size_t threads,
                                       trace::TraceContext* trace,
                                       BuildStages* stages) {
  WallTimer timer;
  graph::ProjectionOptions projection_options;
  projection_options.side = graph::ProjectionSide::kGroups;
  auto projection = Must(
      graph::ProjectBipartite(inputs.membership, projection_options),
      "projection");
  stages->project_s = timer.Seconds();
  stages->projected_edges = projection.graph.NumEdges();

  timer.Reset();
  graph::ThresholdClusteringOptions clustering_options;
  clustering_options.min_weight = kClusterMinWeight;
  auto clustering = Must(
      graph::ThresholdClustering(projection.graph, clustering_options),
      "clustering");
  stages->cluster_s = timer.Seconds();
  stages->units = clustering.num_clusters;

  timer.Reset();
  auto table = Must(etl::BuildFinalTable(inputs, clustering,
                                         etl::TableBuilderOptions{}),
                    "finalTable");
  stages->table_s = timer.Seconds();
  stages->rows = table.NumRows();

  cube::CubeBuilderOptions cube_options;
  cube_options.min_support = min_support;
  cube_options.max_sa_items = 2;
  cube_options.max_ca_items = 2;
  cube_options.mode = fpm::MineMode::kClosed;
  cube_options.num_threads = threads;
  cube_options.trace = trace;
  return Must(cube::BuildSegregationCube(table, cube_options, &stages->stats),
              "cube build");
}

/// A synthetic cube whose `SLICE sa=group=minority` answer has exactly
/// `rows` rows (one SA item shared by every cell, one CA item per cell),
/// built directly without mining. Values vary with the seed.
cube::SegregationCube BuildWideCube(size_t rows, uint64_t seed) {
  relational::ItemCatalog catalog;
  using relational::AttributeKind;
  fpm::ItemId sa_item =
      catalog.GetOrAdd(0, "group", "minority", AttributeKind::kSegregation);
  std::vector<fpm::ItemId> ca_items;
  ca_items.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    ca_items.push_back(catalog.GetOrAdd(1, "ctx", "c" + std::to_string(i),
                                        AttributeKind::kContext));
  }
  std::mt19937_64 rng(seed ^ 0x5eedULL);
  cube::SegregationCube cube(std::move(catalog), {"u0", "u1", "u2"});
  for (size_t i = 0; i < rows; ++i) {
    cube::CubeCell cell;
    cell.coords = cube::CellCoordinates{fpm::Itemset({sa_item}),
                                        fpm::Itemset({ca_items[i]})};
    cell.context_size = 100 + rng() % 5000;
    cell.minority_size = 1 + rng() % 99;
    cell.num_units = 3;
    cell.indexes.defined = true;
    for (double& v : cell.indexes.values) {
      v = static_cast<double>(rng() % 1000000) / 1000000.0;
    }
    cube.Insert(cell);
  }
  return cube;
}

/// FNV-1a over every sealed cell in the view's deterministic order:
/// coordinates, counts, definedness and the six index bit patterns.
uint64_t CubeDigest(const cube::CubeView& view) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const cube::CubeCell& c : view.Cells()) {
    mix(c.coords.sa.size());
    for (fpm::ItemId item : c.coords.sa.items()) mix(item);
    mix(c.coords.ca.size());
    for (fpm::ItemId item : c.coords.ca.items()) mix(item);
    mix(c.context_size);
    mix(c.minority_size);
    mix(c.num_units);
    mix(c.indexes.defined ? 1 : 0);
    for (double v : c.indexes.values) {
      uint64_t bits;
      std::memcpy(&bits, &v, sizeof(bits));
      mix(bits);
    }
  }
  return h;
}

/// Duration of the named span in `trace` (first occurrence), seconds.
double SpanSeconds(const trace::TraceContext& trace, const char* name) {
  for (const auto& span : trace.Spans()) {
    if (std::strcmp(span.name, name) == 0) return span.duration_ms / 1e3;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// HTTP client side.
// ---------------------------------------------------------------------------

/// One keep-alive client connection; reconnects lazily after an error.
class HttpConn {
 public:
  explicit HttpConn(uint16_t port) : port_(port) {}

  Result<net::HttpClientResponse> Do(const std::string& method,
                                     const std::string& target,
                                     const std::string& body = "") {
    if (!socket_ && !Connect()) return Status::IoError("connect failed");
    auto resp = net::RoundTrip(socket_.get(), reader_.get(), method, target,
                               body);
    if (!resp.ok()) Drop();
    return resp;
  }

  /// \brief Outcome of one streamed (chunked) request.
  struct Streamed {
    int status = 0;
    double ttfb_ms = 0;   ///< request sent -> response head read
    double total_ms = 0;  ///< request sent -> terminal chunk read
    uint64_t bytes = 0;   ///< body bytes
    bool prefix_matches = false;  ///< body starts with `want`
  };

  /// POSTs `body` to a chunked-streaming target and consumes the answer
  /// chunk by chunk, comparing it against `want` on the fly (O(chunk)
  /// client memory, so the client does not dominate what is measured).
  Result<Streamed> Stream(const std::string& target, const std::string& body,
                          const std::string& want) {
    if (!socket_ && !Connect()) return Status::IoError("connect failed");
    std::string request = "POST " + target + " HTTP/1.1\r\n";
    request += "Host: localhost\r\nContent-Type: text/plain\r\n";
    request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    request += "Connection: keep-alive\r\n\r\n";
    request += body;
    Streamed out;
    const auto start = Clock::now();
    Status sent = socket_->WriteAll(request);
    if (!sent.ok()) {
      Drop();
      return sent;
    }
    auto head = net::ReadHttpResponseHead(reader_.get());
    if (!head.ok() || !head->chunked) {
      Drop();
      return head.ok() ? Status::Internal("response not chunked")
                       : head.status();
    }
    out.ttfb_ms = SecondsSince(start) * 1e3;
    out.status = head->status;
    net::ChunkedBodyReader chunks(reader_.get());
    bool matches = true;
    while (true) {
      chunk_.clear();
      auto more = chunks.ReadSome(&chunk_);
      if (!more.ok()) {
        Drop();
        return more.status();
      }
      if (out.bytes < want.size() && matches) {
        const size_t n = std::min<size_t>(chunk_.size(),
                                          want.size() - out.bytes);
        matches = want.compare(out.bytes, n, chunk_, 0, n) == 0;
      }
      out.bytes += chunk_.size();
      if (!*more) break;
    }
    out.total_ms = SecondsSince(start) * 1e3;
    out.prefix_matches = matches && out.bytes >= want.size();
    return out;
  }

  bool Connect() {
    auto connected = net::Connect("127.0.0.1", port_);
    if (!connected.ok()) return false;
    socket_ = std::make_unique<net::Socket>(std::move(connected).value());
    socket_->SetNoDelay();
    reader_ = std::make_unique<net::BufferedReader>(socket_.get());
    return true;
  }
 private:
  void Drop() {
    reader_.reset();
    socket_.reset();
  }

  uint16_t port_;
  std::unique_ptr<net::Socket> socket_;
  std::unique_ptr<net::BufferedReader> reader_;
  std::string chunk_;  ///< reused chunk buffer of Stream()
};

/// Sum of every sample of `name` (all label sets) in a Prometheus body.
double MetricSum(const std::string& exposition, const std::string& name) {
  double total = 0;
  size_t pos = 0;
  while (pos < exposition.size()) {
    size_t end = exposition.find('\n', pos);
    if (end == std::string::npos) end = exposition.size();
    std::string_view line(exposition.data() + pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    if (line.substr(0, name.size()) != name) continue;
    if (line.size() > name.size() && line[name.size()] != ' ' &&
        line[name.size()] != '{') {
      continue;
    }
    size_t space = line.rfind(' ');
    if (space == std::string_view::npos) continue;
    total += std::atof(std::string(line.substr(space + 1)).c_str());
  }
  return total;
}

double ScrapeMetric(uint16_t port, const std::string& name) {
  HttpConn conn(port);
  auto resp = conn.Do("GET", "/metrics");
  if (!resp.ok() || resp->status != 200) return 0;
  return MetricSum(resp->body, name);
}

/// Median GET /healthz round trip, microseconds.
double RttFloorUs(uint16_t port, size_t n, size_t* samples) {
  HttpConn conn(port);
  std::vector<double> us;
  for (size_t i = 0; i < n; ++i) {
    const auto t = Clock::now();
    auto resp = conn.Do("GET", "/healthz");
    if (resp.ok() && resp->status == 200) us.push_back(SecondsSince(t) * 1e6);
  }
  *samples = us.size();
  return Median(us);
}

/// Masks what legitimately differs between a routed and a single-node
/// answer (the CI sharded smoke's mask): scan accounting, cursor tokens,
/// cache state and execution time.
std::string MaskVolatile(const std::string& body) {
  std::string out;
  out.reserve(body.size());
  static const char* const kKeys[] = {"\"cells_scanned\":", "\"cache_hit\":",
                                      "\"exec_ms\":"};
  size_t i = 0;
  while (i < body.size()) {
    bool masked = false;
    for (const char* key : kKeys) {
      const size_t len = std::strlen(key);
      if (body.compare(i, len, key) == 0) {
        out.append(key, len);
        out += 'X';
        i += len;
        while (i < body.size() && body[i] != ',' && body[i] != '}' &&
               body[i] != ']') {
          ++i;
        }
        masked = true;
        break;
      }
    }
    if (masked) continue;
    static const char kCursor[] = "\"next_cursor\":\"";
    if (body.compare(i, sizeof(kCursor) - 1, kCursor) == 0) {
      out += kCursor;
      out += "X\"";
      i = body.find('"', i + sizeof(kCursor) - 1);
      i = i == std::string::npos ? body.size() : i + 1;
      continue;
    }
    out += body[i++];
  }
  return out;
}

// ---------------------------------------------------------------------------
// Single-node serving stack.
// ---------------------------------------------------------------------------

query::ServiceOptions ServingOptions(const Options& opt) {
  query::ServiceOptions o;
  o.num_workers = opt.nproc;
  o.cache_capacity = kCacheCapacity;
  o.max_pending = 256;
  o.default_deadline_ms = 0;
  o.warm_top_n = 8;
  o.seal_threads = opt.nproc;
  return o;
}

/// ServingOptions without the result cache: every answer is computed.
query::ServiceOptions UncachedOptions(const Options& opt) {
  query::ServiceOptions o = ServingOptions(opt);
  o.cache_capacity = 0;
  return o;
}

server::ServerOptions FrontEndOptions(const Options& opt, bool trace_all) {
  server::ServerOptions o;
  o.port = 0;
  o.loopback_only = true;
  o.num_connection_threads = 2 * opt.conns + 4;
  o.max_queued_connections = 64;
  o.idle_poll_seconds = 0.1;
  o.max_idle_polls = 600;
  o.trace_all = trace_all;
  return o;
}

/// A CubeStore + QueryService + scubed front-end. Members are declared in
/// dependency order, so destruction stops the server first.
struct Node {
  query::CubeStore store;
  std::unique_ptr<query::QueryService> service;
  std::unique_ptr<server::ScubedServer> server;
  std::unique_ptr<server::ScubedServer> traced_server;  ///< trace_all

  ~Node() {
    if (traced_server) traced_server->Stop();
    if (server) server->Stop();
    if (service) service->Shutdown();
  }
  uint16_t port() const { return server->port(); }
};

std::unique_ptr<server::ScubedServer> StartServer(query::QueryBackend* backend,
                                                  const Options& opt,
                                                  bool trace_all) {
  auto s = std::make_unique<server::ScubedServer>(
      backend, FrontEndOptions(opt, trace_all));
  Status started = s->Start();
  if (!started.ok()) Die("server start: " + started.ToString());
  return s;
}

// ---------------------------------------------------------------------------
// Statement pool: all seven verbs, WHERE / ORDER BY / LIMIT, coordinates
// taken from cells of the cube so navigation verbs find something.
// ---------------------------------------------------------------------------

std::string Coords(const relational::ItemCatalog& catalog,
                   const fpm::Itemset& items) {
  std::string out;
  for (fpm::ItemId item : items.items()) {
    const auto& info = catalog.info(item);
    if (!out.empty()) out += " & ";
    out += info.attr_name + "='" + info.value + "'";
  }
  return out;
}

std::string Part(const char* axis, const std::string& coords) {
  return coords.empty() ? "" : std::string(axis) + "=" + coords;
}

std::vector<std::string> BuildPool(const cube::CubeView& view,
                                   const std::vector<const query::Executor*>&
                                       validators,
                                   uint64_t seed) {
  static const char* const kIndexes[] = {"dissimilarity", "gini",
                                         "information", "isolation",
                                         "interaction", "atkinson"};
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
  const auto cells = view.Cells();
  std::vector<std::string> pool;
  std::unordered_set<std::string> seen;
  size_t tries = 0;
  while (pool.size() < kPoolSize && tries < kPoolSize * 40) {
    ++tries;
    const cube::CubeCell& cell = cells[pick(cells.size())];
    const std::string sa = Coords(view.catalog(), cell.coords.sa);
    const std::string ca = Coords(view.catalog(), cell.coords.ca);
    const std::string idx = kIndexes[pick(6)];
    const std::string limit = " LIMIT " + std::to_string(5 + pick(46));
    const std::string where = " WHERE T >= " + std::to_string(20 + pick(400));
    std::string order;
    switch (pick(3)) {
      case 0: order = " ORDER BY " + idx + " DESC"; break;
      case 1: order = " ORDER BY T DESC"; break;
      default: order = " ORDER BY M ASC"; break;
    }
    // Verb mix (%): TOPK 20, SLICE 20, DICE 15, ROLLUP 15, DRILLDOWN 20,
    // SURPRISES 5, REVERSALS 5. An assumption, not a measurement: no
    // SCubeQL traffic trace exists. Navigation of a few cells dominates; the
    // whole-cube scans (SURPRISES, REVERSALS) are rare.
    std::string text;
    const size_t verb = pick(100);
    if (verb < 20) {
      text = "TOPK " + std::to_string(3 + pick(28)) + " BY " + idx + where;
      if (pick(2) == 0) text += " AND M >= " + std::to_string(1 + pick(40));
    } else if (verb < 40) {
      if (sa.empty() && ca.empty()) continue;
      std::string coords = Part("sa", sa);
      if (!ca.empty() && (coords.empty() || pick(2) == 0)) {
        coords += (coords.empty() ? "" : " | ") + Part("ca", ca);
      }
      text = "SLICE " + coords;
      if (pick(2) == 0) text += where;
      text += order + limit;
    } else if (verb < 55) {
      if (cell.coords.sa.empty()) continue;
      const fpm::Itemset one({cell.coords.sa[pick(cell.coords.sa.size())]});
      text = "DICE sa=" + Coords(view.catalog(), one) + where + order + limit;
    } else if (verb < 70) {
      if (sa.empty() && ca.empty()) continue;
      std::string coords = Part("sa", sa);
      if (!ca.empty()) coords += (coords.empty() ? "" : " | ") + Part("ca", ca);
      text = "ROLLUP " + coords;
    } else if (verb < 90) {
      if (sa.empty()) continue;
      text = "DRILLDOWN " + Part("sa", sa);
      if (pick(2) == 0 && !ca.empty()) text += " | " + Part("ca", ca);
      text += order + limit;
    } else if (verb < 95) {
      text = "SURPRISES BY " + idx + " MINDELTA 0." +
             std::to_string(10 + pick(40)) + limit;
    } else {
      text = "REVERSALS BY " + idx + " MINGAP 0." +
             std::to_string(10 + pick(40)) + limit;
    }
    if (!seen.insert(text).second) continue;
    auto parsed = query::Parse(text);
    if (!parsed.ok()) continue;
    bool valid = true;
    for (const query::Executor* exec : validators) {
      valid = valid && exec->Execute(*parsed).ok();
    }
    if (valid) pool.push_back(std::move(text));
  }
  if (pool.size() < kPoolSize / 2) Die("statement pool too small");
  return pool;
}

/// Zipf-skewed draw sequence over the pool (rank order shuffled by seed).
std::vector<uint32_t> ZipfDraws(size_t pool_size, size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed * 31 + 7);
  std::vector<uint32_t> by_rank(pool_size);
  for (size_t i = 0; i < pool_size; ++i) by_rank[i] = static_cast<uint32_t>(i);
  std::shuffle(by_rank.begin(), by_rank.end(), rng);
  std::vector<double> cdf(pool_size);
  double total = 0;
  for (size_t r = 0; r < pool_size; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    cdf[r] = total;
  }
  std::uniform_real_distribution<double> u(0, total);
  std::vector<uint32_t> draws(n);
  for (auto& d : draws) {
    size_t r = std::lower_bound(cdf.begin(), cdf.end(), u(rng)) - cdf.begin();
    d = by_rank[std::min(r, pool_size - 1)];
  }
  return draws;
}

// ---------------------------------------------------------------------------
// Open-loop load generation.
// ---------------------------------------------------------------------------

struct Captured {
  uint32_t text = 0;
  std::string body;
};

struct LoadSpec {
  uint16_t port = 0;
  const std::vector<std::string>* pool = nullptr;
  const std::vector<uint32_t>* draws = nullptr;
  size_t conns = 1;
  size_t capture_every = 0;  ///< 0 = capture nothing
  size_t capture_max = 0;    ///< per client thread
};

struct PhaseResult {
  double offered_qps = 0;
  double seconds = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t shed = 0;
  std::vector<double> latency_ms;  ///< every attempt; failures = limit
  std::vector<double> lag_ms;
  double early_lag_ms = 0;  ///< median lag over the first third
  double late_lag_ms = 0;   ///< median lag over the last third
  bool overloaded = false;  ///< stopped early: lag passed kAbortLagMs
  std::vector<Captured> captured;

  double p50() const { return Quantile(latency_ms, 0.50); }
  double p99() const { return Quantile(latency_ms, 0.99); }
  bool MeetsSlo() const {
    return attempted > 0 && failed == 0 && !overloaded &&
           p99() <= kSloP99Ms && late_lag_ms <= early_lag_ms + 1.0;
  }
};

/// Sends requests on a fixed schedule, `qps` in total across
/// spec.conns keep-alive connections (request g is due at start + g/qps on
/// connection g % conns). Each request is timed from when it was due, so
/// a stall charges every request queued behind it; lag is how late the
/// generator actually sent.
PhaseResult RunOpenLoop(const LoadSpec& spec, double qps, double seconds,
                        size_t draw_offset) {
  struct Local {
    std::vector<std::pair<uint64_t, double>> lag;  // (request index, ms)
    std::vector<double> latency;
    uint64_t attempted = 0, failed = 0, shed = 0;
    std::vector<Captured> captured;
  };
  std::vector<Local> locals(spec.conns);
  std::atomic<bool> overloaded{false};
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < spec.conns; ++c) {
    threads.emplace_back([&, c] {
      Local& local = locals[c];
      HttpConn conn(spec.port);
      conn.Connect();
      for (uint64_t k = 0;; ++k) {
        const uint64_t g = c + k * spec.conns;
        const double due_s = static_cast<double>(g) / qps;
        if (due_s >= seconds) break;
        const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(due_s));
        std::this_thread::sleep_until(due);
        const auto sent = Clock::now();
        if (overloaded.load(std::memory_order_relaxed)) break;
        if (std::chrono::duration<double, std::milli>(sent - due).count() >
            kAbortLagMs) {
          overloaded.store(true, std::memory_order_relaxed);
          break;
        }
        const uint32_t ti =
            (*spec.draws)[(draw_offset + g) % spec.draws->size()];
        auto resp = conn.Do("POST", "/query", (*spec.pool)[ti]);
        const auto done = Clock::now();
        ++local.attempted;
        local.lag.emplace_back(
            g, std::chrono::duration<double, std::milli>(sent - due).count());
        bool ok = resp.ok() && resp->status == 200 &&
                  resp->body.find("\"code\":\"OK\"") != std::string::npos;
        if (resp.ok() && resp->status == 503) ++local.shed;
        if (ok) {
          local.latency.push_back(
              std::chrono::duration<double, std::milli>(done - due).count());
          if (spec.capture_every > 0 && k % spec.capture_every == 0 &&
              local.captured.size() < spec.capture_max) {
            local.captured.push_back(Captured{ti, std::move(resp->body)});
          }
        } else {
          ++local.failed;
          local.latency.push_back(kFailedLatencyMs);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  PhaseResult out;
  out.offered_qps = qps;
  out.seconds = seconds;
  out.overloaded = overloaded.load();
  std::vector<std::pair<uint64_t, double>> lag;
  for (Local& l : locals) {
    out.attempted += l.attempted;
    out.failed += l.failed;
    out.shed += l.shed;
    out.latency_ms.insert(out.latency_ms.end(), l.latency.begin(),
                          l.latency.end());
    lag.insert(lag.end(), l.lag.begin(), l.lag.end());
    for (Captured& cap : l.captured) out.captured.push_back(std::move(cap));
  }
  std::sort(lag.begin(), lag.end());
  std::vector<double> early, late;
  for (size_t i = 0; i < lag.size(); ++i) {
    out.lag_ms.push_back(lag[i].second);
    if (i < lag.size() / 3) early.push_back(lag[i].second);
    if (i >= lag.size() - lag.size() / 3) late.push_back(lag[i].second);
  }
  out.early_lag_ms = Median(early);
  out.late_lag_ms = Median(late);
  return out;
}

double LadderRate(int k) {
  return kLadderBase * std::pow(kLadderRatio, static_cast<double>(k));
}

struct Ladder {
  double max_qps = 0;
  int steps = 0;
  std::vector<PhaseResult> phases;  ///< every step run, in order
};

/// Finds the highest grid rate that meets the limit, within `budget_s`
/// seconds of load: verify the grid rate at or below the fixed rate, gallop
/// up (+4, +8, +16, +16, ... grid steps) until a rate misses, then bisect
/// between the last pass and the first miss. A rate counts as missed after
/// kLadderAttempts misses, so a stall of the machine does not end the
/// search; a step whose backlog kept growing is overload and is not retried.
Ladder RunLadder(const LoadSpec& spec, double budget_s, size_t* draw_offset) {
  Ladder out;
  double spent = 0;
  // 1 = met the limit, 0 = missed, -1 = out of budget.
  auto step = [&](int k) {
    for (int attempt = 0; attempt < kLadderAttempts; ++attempt) {
      if (spent + kLadderStepSeconds > budget_s + 1e-9) return -1;
      out.phases.push_back(RunOpenLoop(spec, LadderRate(k),
                                       kLadderStepSeconds, *draw_offset));
      const PhaseResult& p = out.phases.back();
      *draw_offset += p.attempted;
      spent += kLadderStepSeconds;
      ++out.steps;
      if (p.MeetsSlo()) return 1;
      if (p.overloaded || p.late_lag_ms > kSloP99Ms) return 0;
    }
    return 0;
  };
  int lo = static_cast<int>(std::floor(std::log(kFixedQps / kLadderBase) /
                                       std::log(kLadderRatio)));
  int r;
  while ((r = step(lo)) == 0 && lo >= 8) lo -= 8;
  if (r != 1) return out;
  int hi = -1;
  for (int inc = 4;; inc = std::min(2 * inc, 16)) {
    r = step(lo + inc);
    if (r == 1) {
      lo += inc;
    } else {
      if (r == 0) hi = lo + inc;
      break;
    }
  }
  while (hi > lo + 1) {
    const int mid = (lo + hi) / 2;
    r = step(mid);
    if (r < 0) break;
    (r == 1 ? lo : hi) = mid;
  }
  out.max_qps = LadderRate(lo);
  return out;
}

// ---------------------------------------------------------------------------
// Per-layer passes shared by several workloads.
// ---------------------------------------------------------------------------

/// A sink that keeps nothing (the executor's own walk, no rendering).
class DiscardSink : public query::RowSink {
 public:
  bool Begin(const query::ResultHeader&) override { return true; }
  bool Row(const query::ResultRow&) override { return true; }
  void Finish(const query::ResultTrailer&) override {}
};

/// Parser, executor and serializer timings over `texts` against `exec`.
/// Every statement runs `reps` times; medians are per statement.
void ExecutorLayers(const query::Executor& exec,
                    const std::vector<std::string>& texts, int reps,
                    Report* report) {
  std::vector<double> parse_us, serialize_us, stream_ms, json_ms, csv_ms;
  std::vector<std::pair<std::string, std::vector<double>>> per_verb;
  double scanned = 0, rows = 0, bytes = 0;
  for (const std::string& text : texts) {
    for (int r = 0; r < reps; ++r) {
      auto t = Clock::now();
      auto parsed = query::Parse(text);
      parse_us.push_back(SecondsSince(t) * 1e6);
      if (!parsed.ok()) continue;

      t = Clock::now();
      auto result = exec.Execute(*parsed);
      const double exec_us = SecondsSince(t) * 1e6;
      if (!result.ok()) continue;
      std::string key = query::VerbToString(parsed->verb);
      for (char& c : key) c = static_cast<char>(std::tolower(c));
      auto it = std::find_if(per_verb.begin(), per_verb.end(),
                             [&](const auto& p) { return p.first == key; });
      if (it == per_verb.end()) {
        per_verb.emplace_back(key, std::vector<double>{});
        it = per_verb.end() - 1;
      }
      it->second.push_back(exec_us);

      t = Clock::now();
      DiscardSink discard;
      if (!exec.ExecuteToSink(*parsed, {}, discard).ok()) continue;
      stream_ms.push_back(SecondsSince(t) * 1e3);

      t = Clock::now();
      const std::string json = query::ToJson(*result);
      serialize_us.push_back(SecondsSince(t) * 1e6);

      uint64_t json_bytes = 0, csv_bytes = 0;
      t = Clock::now();
      query::JsonWriter json_writer([&json_bytes](std::string_view d) {
        json_bytes += d.size();
        return true;
      });
      query::ReplayResult(*result, json_writer);
      json_ms.push_back(SecondsSince(t) * 1e3);
      t = Clock::now();
      query::CsvWriter csv_writer([&csv_bytes](std::string_view d) {
        csv_bytes += d.size();
        return true;
      });
      query::ReplayResult(*result, csv_writer);
      csv_ms.push_back(SecondsSince(t) * 1e3);

      if (r == 0) {
        scanned += static_cast<double>(result->cells_scanned);
        rows += static_cast<double>(result->rows.size());
        bytes += static_cast<double>(json.size());
      }
    }
  }
  report->Layer("query.parse_us", Median(parse_us), "us", parse_us.size());
  for (const auto& [verb, us] : per_verb) {
    report->Layer("query.execute_us." + verb, Median(us), "us", us.size());
  }
  report->Layer("query.cells_scanned_per_row",
                rows > 0 ? scanned / rows : 0, "ratio",
                static_cast<uint64_t>(rows));
  report->Layer("query.stream_execute_ms", Median(stream_ms), "ms",
                stream_ms.size());
  report->Layer("query.serialize_us", Median(serialize_us), "us",
                serialize_us.size());
  report->Layer("query.json_write_ms", Median(json_ms), "ms", json_ms.size());
  report->Layer("query.csv_write_ms", Median(csv_ms), "ms", csv_ms.size());
  report->Layer("wire.bytes_per_row", rows > 0 ? bytes / rows : 0, "bytes",
                static_cast<uint64_t>(rows));
}

/// In-process ExecuteOne on a cache-disabled service over the same store:
/// the service layer's cold cost, microseconds per statement.
void ColdServiceLayer(query::CubeStore* store, const Options& opt,
                      const std::vector<std::string>& texts, int reps,
                      Report* report) {
  query::QueryService cold(store, UncachedOptions(opt));
  std::vector<double> us;
  for (int r = 0; r < reps; ++r) {
    for (const std::string& text : texts) {
      const auto t = Clock::now();
      cold.ExecuteOne(text);
      us.push_back(SecondsSince(t) * 1e6);
    }
  }
  cold.Shutdown();
  report->Layer("query.service_us", Median(us), "us", us.size());
}

void BuildLayers(const BuildStages& st, double seal_s, uint64_t n,
                 Report* report) {
  report->Layer("graph.project_s", st.project_s, "s", n);
  report->Layer("graph.cluster_s", st.cluster_s, "s", n);
  report->Layer("graph.projected_edges", static_cast<double>(st.projected_edges),
                "count", n);
  report->Layer("graph.units", static_cast<double>(st.units), "count", n);
  report->Layer("etl.table_s", st.table_s, "s", n);
  report->Layer("etl.rows", static_cast<double>(st.rows), "count", n);
  report->Layer("cube.encode_s", st.stats.seconds_encoding, "s", n);
  report->Layer("fpm.mine_s", st.stats.seconds_mining, "s", n);
  report->Layer("cube.group_s", st.stats.seconds_grouping, "s", n);
  report->Layer("cube.fill_s", st.stats.seconds_filling, "s", n);
  report->Layer("cube.seal_s", seal_s, "s", n);
  report->Layer("fpm.itemsets", static_cast<double>(st.stats.mined_itemsets),
                "count", n);
  report->Layer("cube.contexts_memoized",
                static_cast<double>(st.stats.contexts_memoized), "count", n);
  report->Layer("cube.defined_ratio",
                st.stats.mined_itemsets > 0
                    ? static_cast<double>(st.stats.cells_defined) /
                          static_cast<double>(st.stats.mined_itemsets)
                    : 0,
                "ratio", n);
}

void CubeCounts(const cube::CubeView& view, Report* report) {
  report->Layer("cube.cells", static_cast<double>(view.NumCells()), "count", 1);
  report->Layer("cube.cells_defined",
                static_cast<double>(view.NumDefinedCells()), "count", 1);
}

// ---------------------------------------------------------------------------
// Workload: publish.
// ---------------------------------------------------------------------------

const char* const kFirstAnswer = "TOPK 10 BY dissimilarity WHERE T >= 30";

int RunPublish(const Options& opt, Report* report) {
  // Set-up: generate the inputs, stand up the store and service and
  // publish the initial cube, so every measured publish replaces a live
  // version as it would in service.
  std::vector<double> setup_s;
  datagen::GeneratedScenario scenario;
  std::unique_ptr<query::CubeStore> store;
  std::unique_ptr<query::QueryService> service;
  while (MoreSetups(setup_s)) {
    service.reset();
    store.reset();
    const auto t = Clock::now();
    scenario = GenerateInputs(opt);
    store = std::make_unique<query::CubeStore>();
    service = std::make_unique<query::QueryService>(store.get(),
                                                    ServingOptions(opt));
    BuildStages initial;
    store->Publish("default",
                   BuildItalianCube(scenario.inputs, kMinSupport, opt.nproc,
                                    nullptr, &initial),
                   opt.nproc);
    setup_s.push_back(SecondsSince(t));
  }
  FinishSetups(setup_s, report);
  const etl::ScubeInputs& inputs = scenario.inputs;

  struct Sample {
    double total_s = 0;
    double first_answer_ms = 0;
    BuildStages stages;
    double seal_s = 0;
    // What the checks compare with the reference once it exists.
    uint64_t version = 0;
    bool consistent = false;  ///< snapshot and answer name `version`
    size_t cells = 0;
    uint64_t digest = 0;
    std::string answer;
  };
  // One publish: raw inputs to the first answer from the new version.
  auto publish_once = [&](bool traced, Sample* s) {
    trace::TraceContext tc;
    trace::TraceContext* trace = traced ? &tc : nullptr;
    const auto t = Clock::now();
    cube::SegregationCube cube =
        BuildItalianCube(inputs, kMinSupport, opt.nproc, trace, &s->stages);
    const uint64_t version =
        store->Publish("default", std::move(cube), opt.nproc, trace);
    const auto answer_start = Clock::now();
    query::QueryResponse first = service->ExecuteOne(kFirstAnswer);
    s->first_answer_ms = SecondsSince(answer_start) * 1e3;
    s->total_s = SecondsSince(t);
    if (traced) s->seal_s = SpanSeconds(tc, "build.seal");

    // What the checks need, taken outside the timed window.
    uint64_t got_version = 0;
    auto snapshot = store->Get("default", &got_version);
    s->version = version;
    s->consistent = snapshot && got_version == version &&
                    first.status.ok() && first.cube_version == version;
    s->cells = snapshot ? snapshot->NumCells() : 0;
    s->digest = snapshot ? CubeDigest(*snapshot) : 0;
    if (first.status.ok()) s->answer = query::ToJson(first.result);
  };

  auto measure = [&](bool traced, double seconds, int min_samples) {
    std::vector<Sample> samples;
    const auto start = Clock::now();
    while (SecondsSince(start) < seconds ||
           static_cast<int>(samples.size()) < min_samples) {
      Sample s;
      publish_once(traced, &s);
      samples.push_back(std::move(s));
    }
    return samples;
  };

  std::vector<Sample> plain = measure(false, opt.seconds, 3);
  ReportPeakRss(report);
  std::vector<double> totals;
  for (const Sample& s : plain) totals.push_back(s.total_s);
  const double publish_s = Median(totals);
  std::vector<Sample> traced;
  if (opt.trace) traced = measure(true, opt.seconds, 3);

  // Reference: a 1-thread build of the same inputs, outside every timed
  // window; every published version must match it cell for cell.
  BuildStages ref_stages;
  cube::SegregationCube ref_cube =
      BuildItalianCube(inputs, kMinSupport, 1, nullptr, &ref_stages);
  const auto seal1_start = Clock::now();
  cube::CubeView ref_view = ref_cube.Seal(1);
  const double ref_seal_s = SecondsSince(seal1_start);
  const uint64_t ref_digest = CubeDigest(ref_view);
  const query::Executor ref_exec(ref_view);
  const std::string ref_answer =
      query::ToJson(Must(ref_exec.Execute(Must(query::Parse(kFirstAnswer),
                                               "parse")),
                         "reference answer"));
  std::fprintf(stderr, "publish: %zu input rows, reference cube %zu cells\n",
               inputs.individuals.NumRows(), ref_view.NumCells());
  for (const std::vector<Sample>* samples : {&plain, &traced}) {
    for (const Sample& s : *samples) {
      const uint64_t digest = opt.plant_wrong ? s.digest ^ 1 : s.digest;
      report->Op(true);
      if (!s.consistent || s.cells != ref_view.NumCells() ||
          digest != ref_digest) {
        report->Wrong("publish v" + std::to_string(s.version) +
                      ": cube differs from the 1-thread reference build");
      } else if (s.answer != ref_answer) {
        report->Wrong("publish v" + std::to_string(s.version) +
                      ": first answer differs from the reference");
      }
    }
  }

  report->EndToEnd("publish_s", publish_s, "s", totals.size());
  report->EndToEnd("op_p50_ms", publish_s * 1e3, "ms", totals.size());
  report->EndToEnd("failed_ratio",
                   static_cast<double>(report->failed()) /
                       static_cast<double>(report->attempted()),
                   "ratio", report->attempted());

  if (opt.trace) {
    std::vector<double> total, project, cluster, table, encode, mine, group,
        fill, seal, first;
    for (const Sample& s : traced) {
      total.push_back(s.total_s);
      project.push_back(s.stages.project_s);
      cluster.push_back(s.stages.cluster_s);
      table.push_back(s.stages.table_s);
      encode.push_back(s.stages.stats.seconds_encoding);
      mine.push_back(s.stages.stats.seconds_mining);
      group.push_back(s.stages.stats.seconds_grouping);
      fill.push_back(s.stages.stats.seconds_filling);
      seal.push_back(s.seal_s);
      first.push_back(s.first_answer_ms);
    }
    const uint64_t n = traced.size();
    BuildStages med = traced.back().stages;
    med.project_s = Median(project);
    med.cluster_s = Median(cluster);
    med.table_s = Median(table);
    med.stats.seconds_encoding = Median(encode);
    med.stats.seconds_mining = Median(mine);
    med.stats.seconds_grouping = Median(group);
    med.stats.seconds_filling = Median(fill);
    BuildLayers(med, Median(seal), traced.size(), report);
    report->Layer("query.first_answer_ms", Median(first), "ms", n);
    const double stages = med.project_s + med.cluster_s + med.table_s +
                          med.stats.seconds_encoding +
                          med.stats.seconds_mining +
                          med.stats.seconds_grouping +
                          med.stats.seconds_filling + Median(seal) +
                          Median(first) / 1e3;
    report->Layer("publish.unaccounted_s", Median(total) - stages, "s", n);
    report->Layer("fpm.mine_speedup",
                  ref_stages.stats.seconds_mining / Median(mine), "x", n);
    report->Layer("cube.fill_speedup",
                  ref_stages.stats.seconds_filling / Median(fill), "x", n);
    report->Layer("cube.seal_speedup", ref_seal_s / Median(seal), "x", n);
    report->Layer("trace.overhead_ratio", Median(total) / publish_s, "ratio",
                  n);
    CubeCounts(ref_view, report);
    ExecutorLayers(ref_exec, {kFirstAnswer}, 50, report);
    ColdServiceLayer(store.get(), opt, {kFirstAnswer}, 50, report);
    const auto cs = service->cache_stats();
    report->Layer("query.cache_hit_ratio",
                  cs.hits + cs.misses > 0
                      ? static_cast<double>(cs.hits) /
                            static_cast<double>(cs.hits + cs.misses)
                      : 0,
                  "ratio", cs.hits + cs.misses);
    report->Layer("query.shed", static_cast<double>(service->stats().rejected),
                  "count", 1);
  }
  report->MetaNum("cube_cells", static_cast<double>(ref_view.NumCells()));
  report->MetaNum("cube_cells_defined",
                  static_cast<double>(ref_view.NumDefinedCells()));
  report->MetaNum("input_rows",
                  static_cast<double>(inputs.individuals.NumRows()));
  service->Shutdown();
  return 0;
}

// ---------------------------------------------------------------------------
// Workloads: serve and scatter share the traffic.
// ---------------------------------------------------------------------------

/// Verifies captured single-node HTTP answers against the in-process
/// executor of the version each answer names.
void CheckServeAnswers(const std::vector<Captured>& captured,
                       const std::vector<std::string>& pool,
                       const std::function<const query::Executor*(uint64_t)>&
                           executor_for,
                       bool plant_wrong, Report* report) {
  size_t checked = 0;
  for (const Captured& cap : captured) {
    std::string body = cap.body;
    if (plant_wrong && checked == 0) body[body.size() / 2] ^= 1;
    ++checked;
    const size_t vpos = body.find("\"version\":");
    const size_t rpos = body.find("\"result\":");
    if (vpos == std::string::npos || rpos == std::string::npos) {
      report->Wrong("answer without version/result: " + pool[cap.text]);
      continue;
    }
    const uint64_t version = std::strtoull(body.c_str() + vpos + 10, nullptr, 10);
    const query::Executor* exec = executor_for(version);
    if (exec == nullptr) {
      report->Wrong("answer names unknown version " + std::to_string(version));
      continue;
    }
    const query::Query parsed = Must(query::Parse(pool[cap.text]), "parse");
    auto expected = exec->Execute(parsed);
    if (!expected.ok()) {
      report->Wrong("in-process execution failed: " + pool[cap.text]);
      continue;
    }
    // A page that stops before the row stream ends carries the resume
    // token the service stamps: cube, version, next row, statement hash.
    if (!expected->exhausted) {
      expected->next_cursor = query::EncodeCursor(
          query::Cursor{"default", version, expected->next_offset,
                        query::CursorQueryHash(parsed)});
    }
    const std::string want = query::ToJson(*expected);
    if (body.compare(rpos + 9, want.size(), want) != 0) {
      report->Wrong("HTTP answer differs from the in-process executor: " +
                    pool[cap.text]);
    }
  }
  report->MetaNum("answers_checked", static_cast<double>(checked));
}

/// The fixed-rate phase's end-to-end numbers.
void ReportFixedRate(const PhaseResult& fixed, Report* report) {
  report->EndToEnd("query_p50_ms", fixed.p50(), "ms", fixed.latency_ms.size());
  report->EndToEnd("query_p99_ms", fixed.p99(), "ms", fixed.latency_ms.size());
  report->EndToEnd("op_p50_ms", fixed.p50(), "ms", fixed.latency_ms.size());
}

void ReportLadder(const Ladder& ladder, const PhaseResult& fixed,
                  Report* report) {
  report->EndToEnd("max_qps_at_slo", ladder.max_qps, "qps", ladder.steps);
  uint64_t attempted = fixed.attempted, failed = fixed.failed;
  for (const PhaseResult& p : ladder.phases) {
    if (p.offered_qps > ladder.max_qps) continue;
    attempted += p.attempted;
    failed += p.failed;
  }
  report->Ops(attempted, failed);
  report->EndToEnd("failed_ratio",
                   attempted > 0 ? static_cast<double>(failed) /
                                       static_cast<double>(attempted)
                                 : 0,
                   "ratio", attempted);
  std::string steps = "  ladder:";
  for (const PhaseResult& p : ladder.phases) {
    steps += " " + std::to_string(static_cast<int>(p.offered_qps)) +
             (p.MeetsSlo() ? "+" : "-");
  }
  std::fprintf(stderr, "%s\n", steps.c_str());
  std::fprintf(stderr,
               "  fixed %.0f qps: p50 %.3f ms p99 %.3f ms (%llu req, %llu "
               "failed) | ladder max %.0f qps in %d steps\n",
               fixed.offered_qps, fixed.p50(), fixed.p99(),
               static_cast<unsigned long long>(fixed.attempted),
               static_cast<unsigned long long>(fixed.failed), ladder.max_qps,
               ladder.steps);
}

/// Sequential idle requests over the first `n` draws: per-text HTTP
/// latency (microseconds), in the draw order.
std::vector<double> IdleHttp(uint16_t port, const std::vector<std::string>& pool,
                             const std::vector<uint32_t>& draws, size_t n) {
  HttpConn conn(port);
  std::vector<double> us;
  for (size_t i = 0; i < n; ++i) {
    const auto t = Clock::now();
    auto resp = conn.Do("POST", "/query", pool[draws[i % draws.size()]]);
    us.push_back(resp.ok() && resp->status == 200 ? SecondsSince(t) * 1e6
                                                  : kFailedLatencyMs * 1e3);
  }
  return us;
}

struct ServeSetup {
  datagen::GeneratedScenario scenario;
  BuildStages stages;
  cube::SegregationCube current;  ///< content A (odd versions)
  cube::SegregationCube next;     ///< content B (even versions)
  std::unique_ptr<Node> node;
};

/// Open-loop load at kFixedQps on `port` while a publisher thread runs
/// PublishAndWarm of the alternate content every kPublishEverySeconds.
/// After each publish, `prober` (a cache-disabled service over the same
/// store) times the first answer from the new version: it can be neither
/// a cache hit nor one of the texts the publish warmed.
PhaseResult PublishingPhase(const LoadSpec& spec, double seconds,
                            size_t offset, ServeSetup* setup,
                            query::QueryService* prober,
                            std::vector<double>* publish_warm_ms,
                            std::vector<double>* warmed,
                            std::vector<double>* first_answer_ms) {
  query::QueryService& service = *setup->node->service;
  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    const auto start = Clock::now();
    for (int n = 0;; ++n) {
      const uint64_t next_version = setup->node->store.Version("default") + 1;
      cube::SegregationCube copy =
          next_version % 2 == 0 ? setup->next : setup->current;
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       kPublishEverySeconds * (n + 0.5)));
      while (Clock::now() < due && !stop.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      if (stop.load()) return;
      auto t = Clock::now();
      auto info = service.PublishAndWarm("default", std::move(copy));
      publish_warm_ms->push_back(SecondsSince(t) * 1e3);
      warmed->push_back(static_cast<double>(info.warmed));
      t = Clock::now();
      prober->ExecuteOne(kFirstAnswer);
      first_answer_ms->push_back(SecondsSince(t) * 1e3);
    }
  });
  PhaseResult out = RunOpenLoop(spec, kFixedQps, seconds, offset);
  stop = true;
  publisher.join();
  return out;
}

int RunServe(const Options& opt, Report* report) {
  std::vector<double> setup_s;
  std::unique_ptr<ServeSetup> setup;
  while (MoreSetups(setup_s)) {
    setup.reset();
    const auto t = Clock::now();
    auto s = std::make_unique<ServeSetup>();
    s->scenario = GenerateInputs(opt);
    s->current = BuildItalianCube(s->scenario.inputs, kMinSupport, opt.nproc,
                                  nullptr, &s->stages);
    BuildStages next_stages;
    s->next = BuildItalianCube(s->scenario.inputs, kNextVersionMinSupport,
                               opt.nproc, nullptr, &next_stages);
    s->node = std::make_unique<Node>();
    s->node->service = std::make_unique<query::QueryService>(
        &s->node->store, ServingOptions(opt));
    s->node->service->PublishAndWarm("default", s->current);
    s->node->server = StartServer(s->node->service.get(), opt, false);
    setup_s.push_back(SecondsSince(t));
    setup = std::move(s);
  }
  FinishSetups(setup_s, report);
  Node& node = *setup->node;
  query::QueryService& service = *node.service;

  // The statement pool: every text must answer on both contents. The
  // sealed copies are dropped before the load and sealed again for the
  // checks after it, so peak_rss_mb does not count them.
  std::vector<std::string> pool;
  {
    const cube::CubeView view_a = setup->current.Seal(opt.nproc);
    const cube::CubeView view_b = setup->next.Seal(opt.nproc);
    const query::Executor exec_a(view_a), exec_b(view_b);
    pool = BuildPool(view_a, {&exec_a, &exec_b}, opt.seed);
  }
  ReleaseFreedMemory();
  const std::vector<uint32_t> draws = ZipfDraws(pool.size(), 1 << 18, opt.seed);
  query::QueryService prober(&node.store, UncachedOptions(opt));
  std::fprintf(stderr, "serve: pool %zu\n", pool.size());

  LoadSpec spec;
  spec.port = node.port();
  spec.pool = &pool;
  spec.draws = &draws;
  spec.conns = opt.conns;
  spec.capture_every = 16;
  spec.capture_max = 48;
  size_t offset = 0;
  std::vector<Captured> captured;
  auto keep = [&captured](PhaseResult* p) {
    for (Captured& c : p->captured) captured.push_back(std::move(c));
    p->captured.clear();
  };

  PhaseResult warm = RunOpenLoop(spec, kFixedQps, kWarmupSeconds, offset);
  offset += warm.attempted;
  report->Ops(warm.attempted, warm.failed);
  keep(&warm);

  const auto cache_before = service.cache_stats();
  std::vector<double> publish_warm_ms, warmed, first_answer_ms;
  PhaseResult fixed =
      PublishingPhase(spec, kFixedShare * opt.seconds, offset, setup.get(),
                      &prober, &publish_warm_ms, &warmed, &first_answer_ms);
  offset += fixed.attempted;
  const auto cache_after = service.cache_stats();
  keep(&fixed);
  ReportFixedRate(fixed, report);

  Ladder ladder = RunLadder(spec, (1 - kFixedShare) * opt.seconds, &offset);
  for (PhaseResult& p : ladder.phases) keep(&p);
  ReportLadder(ladder, fixed, report);
  ReportPeakRss(report);

  // Checker state: both contents sealed, outside every timed window.
  const auto seal_start = Clock::now();
  const cube::CubeView view_a = setup->current.Seal(opt.nproc);
  const double seal_s = SecondsSince(seal_start);
  const cube::CubeView view_b = setup->next.Seal(opt.nproc);
  const query::Executor exec_a(view_a), exec_b(view_b);
  auto executor_for = [&](uint64_t v) -> const query::Executor* {
    return v == 0 ? nullptr : (v % 2 == 1 ? &exec_a : &exec_b);
  };
  std::fprintf(stderr, "serve: cube %zu cells (next %zu)\n",
               view_a.NumCells(), view_b.NumCells());
  if (opt.trace) {
    // Same fixed-rate phase against a front-end that traces every request.
    node.traced_server = StartServer(&service, opt, true);
    LoadSpec traced_spec = spec;
    traced_spec.port = node.traced_server->port();
    traced_spec.capture_every = 0;
    std::vector<double> unused_a, unused_b, unused_c;
    PhaseResult traced =
        PublishingPhase(traced_spec, kFixedShare * opt.seconds, offset,
                        setup.get(), &prober, &unused_a, &unused_b, &unused_c);
    offset += traced.attempted;
    report->Layer("trace.overhead_ratio", traced.p50() / fixed.p50(), "ratio",
                  traced.latency_ms.size());

    const size_t n = 400;
    std::vector<std::string> texts;
    for (size_t i = 0; i < n; ++i) texts.push_back(pool[draws[i]]);
    const std::vector<double> idle_us = IdleHttp(node.port(), pool, draws, n);
    std::vector<double> inproc_us;
    for (const std::string& text : texts) {
      const auto t = Clock::now();
      service.ExecuteOne(text);
      inproc_us.push_back(SecondsSince(t) * 1e6);
    }
    report->Layer("query.load_wait_us", fixed.p50() * 1e3 - Median(idle_us),
                  "us", fixed.latency_ms.size());
    report->Layer("server.overhead_us", Median(idle_us) - Median(inproc_us),
                  "us", idle_us.size());
    size_t rtt_samples = 0;
    const double rtt_us = RttFloorUs(node.port(), 300, &rtt_samples);
    report->Layer("net.rtt_floor_us", rtt_us, "us", rtt_samples);
    report->Layer("query.publish_warm_ms", Median(publish_warm_ms), "ms",
                  publish_warm_ms.size());
    report->Layer("query.warmed", Median(warmed), "count", warmed.size());
    report->Layer("query.first_answer_ms", Median(first_answer_ms), "ms",
                  first_answer_ms.size());
    const uint64_t hits = cache_after.hits - cache_before.hits;
    const uint64_t lookups = hits + cache_after.misses - cache_before.misses;
    report->Layer("query.cache_hit_ratio",
                  lookups > 0 ? static_cast<double>(hits) /
                                    static_cast<double>(lookups)
                              : 0,
                  "ratio", lookups);
    report->Layer("query.shed", static_cast<double>(service.stats().rejected),
                  "count", 1);
    report->Layer("net.stream_peak_buffer_bytes",
                  ScrapeMetric(node.port(), "scubed_streamed_buffer_peak_bytes"),
                  "bytes", 1);
    report->Layer("loadgen.lag_p99_ms", Quantile(fixed.lag_ms, 0.99), "ms",
                  fixed.lag_ms.size());
    std::vector<std::string> sample(pool.begin(),
                                    pool.begin() + std::min<size_t>(200, pool.size()));
    ExecutorLayers(exec_a, sample, 3, report);
    ColdServiceLayer(&node.store, opt, sample, 1, report);
    BuildLayers(setup->stages, seal_s, 1, report);
    const auto seal1 = Clock::now();
    (void)setup->current.Seal(1);
    report->Layer("cube.seal_speedup", SecondsSince(seal1) / seal_s, "x", 1);
    CubeCounts(view_a, report);
  }

  CheckServeAnswers(captured, pool, executor_for, opt.plant_wrong, report);
  report->MetaNum("cube_cells", static_cast<double>(view_a.NumCells()));
  report->MetaNum("cube_cells_defined",
                  static_cast<double>(view_a.NumDefinedCells()));
  report->MetaNum("next_cube_cells", static_cast<double>(view_b.NumCells()));
  report->MetaNum("publishes", static_cast<double>(publish_warm_ms.size()));
  return 0;
}

// ---------------------------------------------------------------------------
// Workload: scatter.
// ---------------------------------------------------------------------------

struct ScatterSetup {
  datagen::GeneratedScenario scenario;
  BuildStages stages;
  cube::SegregationCube current;
  std::unique_ptr<cube::CubeView> view;
  double seal_s = 0;
  double partition_s = 0;
  double first_answer_ms = 0;
  cluster::PartitionStats partition_stats;
  std::vector<std::unique_ptr<Node>> shards;
  std::unique_ptr<cluster::ScatterExecutor> scatter;
  std::unique_ptr<server::ScubedServer> router;
  std::unique_ptr<server::ScubedServer> traced_router;

  ~ScatterSetup() {
    if (traced_router) traced_router->Stop();
    if (router) router->Stop();
  }
};

int RunScatter(const Options& opt, Report* report) {
  std::vector<double> setup_s;
  std::unique_ptr<ScatterSetup> setup;
  while (MoreSetups(setup_s)) {
    setup.reset();
    const auto t = Clock::now();
    auto s = std::make_unique<ScatterSetup>();
    s->scenario = GenerateInputs(opt);
    s->current = BuildItalianCube(s->scenario.inputs, kMinSupport, opt.nproc,
                                  nullptr, &s->stages);
    auto phase = Clock::now();
    s->view = std::make_unique<cube::CubeView>(s->current.Seal(opt.nproc));
    s->seal_s = SecondsSince(phase);
    phase = Clock::now();
    cluster::PartitionOptions partition_options;
    partition_options.num_shards = kScatterShards;
    std::vector<cube::SegregationCube> parts = cluster::PartitionCube(
        *s->view, partition_options, &s->partition_stats);
    s->partition_s = SecondsSince(phase);
    std::vector<cluster::ShardSpec> specs;
    for (size_t k = 0; k < parts.size(); ++k) {
      auto shard = std::make_unique<Node>();
      shard->store.Publish("default", std::move(parts[k]), opt.nproc);
      shard->service = std::make_unique<query::QueryService>(
          &shard->store, ServingOptions(opt));
      if (k == 0) {
        phase = Clock::now();
        shard->service->ExecuteOne(kFirstAnswer);
        s->first_answer_ms = SecondsSince(phase) * 1e3;
      }
      shard->server = StartServer(shard->service.get(), opt, false);
      cluster::ShardSpec spec;
      spec.replicas.push_back(
          cluster::ShardEndpoint{"127.0.0.1", shard->server->port()});
      specs.push_back(std::move(spec));
      s->shards.push_back(std::move(shard));
    }
    s->scatter = std::make_unique<cluster::ScatterExecutor>(std::move(specs));
    s->router = StartServer(s->scatter.get(), opt, false);
    setup_s.push_back(SecondsSince(t));
    setup = std::move(s);
  }
  FinishSetups(setup_s, report);

  const cube::CubeView& view = *setup->view;
  const query::Executor exec(view);
  const std::vector<std::string> pool = BuildPool(view, {&exec}, opt.seed);
  const std::vector<uint32_t> draws = ZipfDraws(pool.size(), 1 << 18, opt.seed);
  std::fprintf(stderr, "scatter: cube %zu cells over %zu shards, pool %zu\n",
               view.NumCells(), kScatterShards, pool.size());

  LoadSpec spec;
  spec.port = setup->router->port();
  spec.pool = &pool;
  spec.draws = &draws;
  spec.conns = opt.conns;
  spec.capture_every = 16;
  spec.capture_max = 48;
  size_t offset = 0;
  std::vector<Captured> captured;
  auto keep = [&captured](PhaseResult* p) {
    for (Captured& c : p->captured) captured.push_back(std::move(c));
    p->captured.clear();
  };

  PhaseResult warm = RunOpenLoop(spec, kFixedQps, kWarmupSeconds, offset);
  offset += warm.attempted;
  report->Ops(warm.attempted, warm.failed);
  keep(&warm);
  PhaseResult fixed =
      RunOpenLoop(spec, kFixedQps, kFixedShare * opt.seconds, offset);
  offset += fixed.attempted;
  keep(&fixed);
  ReportFixedRate(fixed, report);
  Ladder ladder = RunLadder(spec, (1 - kFixedShare) * opt.seconds, &offset);
  for (PhaseResult& p : ladder.phases) keep(&p);
  ReportLadder(ladder, fixed, report);
  ReportPeakRss(report);

  // The single-node reference the routed answers must equal, outside
  // every timed window.
  Node reference;
  reference.store.Publish("default", setup->current, opt.nproc);
  reference.service = std::make_unique<query::QueryService>(
      &reference.store, UncachedOptions(opt));
  reference.server = StartServer(reference.service.get(), opt, false);
  if (opt.trace) {
    setup->traced_router = StartServer(setup->scatter.get(), opt, true);
    LoadSpec traced_spec = spec;
    traced_spec.port = setup->traced_router->port();
    traced_spec.capture_every = 0;
    PhaseResult traced =
        RunOpenLoop(traced_spec, kFixedQps, kFixedShare * opt.seconds, offset);
    report->Layer("trace.overhead_ratio", traced.p50() / fixed.p50(), "ratio",
                  traced.latency_ms.size());

    const uint16_t shard0 = setup->shards[0]->port();
    std::vector<double> preflight_us;
    {
      HttpConn conn(shard0);
      for (int i = 0; i < 200; ++i) {
        const auto t = Clock::now();
        auto resp = conn.Do("GET", "/cubes");
        if (resp.ok() && resp->status == 200) {
          preflight_us.push_back(SecondsSince(t) * 1e6);
        }
      }
    }
    report->Layer("cluster.preflight_us", Median(preflight_us), "us",
                  preflight_us.size());

    // Per text: each shard's direct wire RTT, then the routed idle latency.
    const size_t n = 300;
    std::vector<HttpConn> shard_conns;
    for (const auto& shard : setup->shards) shard_conns.emplace_back(shard->port());
    HttpConn routed(setup->router->port());
    std::vector<double> shard0_us, routed_us, overhead_us, decode_us, inproc_us;
    const double requests_before = ScrapeMetric(
        setup->router->port(), "scubed_shard_requests_total");
    for (size_t i = 0; i < n; ++i) {
      const std::string& text = pool[draws[i]];
      double slowest = 0;
      for (size_t k = 0; k < shard_conns.size(); ++k) {
        const auto t = Clock::now();
        auto resp = shard_conns[k].Do("POST", "/query?stream=1&format=wire",
                                      text);
        const double us = SecondsSince(t) * 1e6;
        slowest = std::max(slowest, us);
        if (k != 0 || !resp.ok()) continue;
        shard0_us.push_back(us);
        const auto d = Clock::now();
        size_t pos = 0;
        const std::string& body = resp->body;
        while (pos < body.size()) {
          size_t end = body.find('\n', pos);
          if (end == std::string::npos) end = body.size();
          if (end > pos) {
            (void)query::ParseWireLine(
                std::string_view(body.data() + pos, end - pos));
          }
          pos = end + 1;
        }
        decode_us.push_back(SecondsSince(d) * 1e6);
      }
      const auto t = Clock::now();
      auto resp = routed.Do("POST", "/query", text);
      const double us = SecondsSince(t) * 1e6;
      routed_us.push_back(us);
      overhead_us.push_back(us - slowest);
    }
    const double requests_after = ScrapeMetric(
        setup->router->port(), "scubed_shard_requests_total");
    for (size_t i = 0; i < n; ++i) {
      const auto t = Clock::now();
      setup->scatter->ExecuteOne(pool[draws[i]], query::QueryContext{});
      inproc_us.push_back(SecondsSince(t) * 1e6);
    }
    report->Layer("cluster.shard_rtt_us", Median(shard0_us), "us",
                  shard0_us.size());
    report->Layer("query.wire_decode_us", Median(decode_us), "us",
                  decode_us.size());
    report->Layer("cluster.router_overhead_us", Median(overhead_us), "us",
                  overhead_us.size());
    report->Layer("cluster.shard_requests_per_query",
                  (requests_after - requests_before) / static_cast<double>(n),
                  "count", n);
    report->Layer("query.load_wait_us", fixed.p50() * 1e3 - Median(routed_us),
                  "us", fixed.latency_ms.size());
    report->Layer("server.overhead_us", Median(routed_us) - Median(inproc_us),
                  "us", routed_us.size());
    report->Layer("cluster.partition_s", setup->partition_s, "s", 1);
    double owned = 0, ghosts = 0;
    for (size_t x : setup->partition_stats.owned) owned += static_cast<double>(x);
    for (size_t x : setup->partition_stats.ghosts) ghosts += static_cast<double>(x);
    report->Layer("cluster.ghost_ratio", owned > 0 ? ghosts / owned : 0,
                  "ratio", 1);
    size_t rtt_samples = 0;
    const double rtt_us = RttFloorUs(setup->router->port(), 300, &rtt_samples);
    report->Layer("net.rtt_floor_us", rtt_us, "us", rtt_samples);
    report->Layer("net.stream_peak_buffer_bytes",
                  ScrapeMetric(shard0, "scubed_streamed_buffer_peak_bytes"),
                  "bytes", 1);
    report->Layer("loadgen.lag_p99_ms", Quantile(fixed.lag_ms, 0.99), "ms",
                  fixed.lag_ms.size());
    uint64_t hits = 0, lookups = 0, shed = 0;
    for (const auto& shard : setup->shards) {
      const auto cs = shard->service->cache_stats();
      hits += cs.hits;
      lookups += cs.hits + cs.misses;
      shed += shard->service->stats().rejected;
    }
    report->Layer("query.cache_hit_ratio",
                  lookups > 0 ? static_cast<double>(hits) /
                                    static_cast<double>(lookups)
                              : 0,
                  "ratio", lookups);
    report->Layer("query.shed", static_cast<double>(shed + fixed.shed),
                  "count", 1);
    report->Layer("query.first_answer_ms", setup->first_answer_ms, "ms", 1);
    std::vector<std::string> sample(pool.begin(),
                                    pool.begin() + std::min<size_t>(200, pool.size()));
    ExecutorLayers(exec, sample, 3, report);
    ColdServiceLayer(&reference.store, opt, sample, 1, report);
    BuildLayers(setup->stages, setup->seal_s, 1, report);
    const auto seal1 = Clock::now();
    (void)setup->current.Seal(1);
    report->Layer("cube.seal_speedup", SecondsSince(seal1) / setup->seal_s,
                  "x", 1);
    CubeCounts(view, report);
  }

  // Routed bytes must equal single-node bytes, up to the volatile fields.
  HttpConn single(reference.port());
  size_t checked = 0;
  for (const Captured& cap : captured) {
    auto direct = single.Do("POST", "/query", pool[cap.text]);
    std::string routed_body = cap.body;
    if (opt.plant_wrong && checked == 0) routed_body[routed_body.size() / 2] ^= 1;
    ++checked;
    if (!direct.ok() || direct->status != 200 ||
        MaskVolatile(routed_body) != MaskVolatile(direct->body)) {
      report->Wrong("routed answer differs from single-node: " +
                    pool[cap.text]);
    }
  }
  report->MetaNum("answers_checked", static_cast<double>(checked));
  report->MetaNum("cube_cells", static_cast<double>(view.NumCells()));
  report->MetaNum("cube_cells_defined",
                  static_cast<double>(view.NumDefinedCells()));
  return 0;
}

// ---------------------------------------------------------------------------
// Workload: stream.
// ---------------------------------------------------------------------------

struct StreamSetup {
  std::unique_ptr<Node> node;
  double seal_s = 0;
};

int RunStream(const Options& opt, Report* report) {
  std::vector<double> setup_s;
  std::unique_ptr<StreamSetup> setup;
  while (MoreSetups(setup_s)) {
    setup.reset();
    const auto t = Clock::now();
    auto s = std::make_unique<StreamSetup>();
    s->node = std::make_unique<Node>();
    cube::SegregationCube wide = BuildWideCube(opt.wide_rows, opt.seed);
    trace::TraceContext tc;
    s->node->store.Publish("default", std::move(wide), opt.nproc, &tc);
    s->seal_s = SpanSeconds(tc, "build.seal");
    s->node->service = std::make_unique<query::QueryService>(
        &s->node->store, ServingOptions(opt));
    s->node->server = StartServer(s->node->service.get(), opt, false);
    setup_s.push_back(SecondsSince(t));
    setup = std::move(s);
  }
  FinishSetups(setup_s, report);
  Node& node = *setup->node;

  // Expected bytes: the program's own buffered rendering of the same
  // answer (ToJson / ToCsv), computed outside every timed window.
  auto exec = node.store.GetExecutor("default", node.store.Version("default"));
  if (!exec) Die("stream: no executor for the published cube");
  const query::Query wide_query = Must(query::Parse(kWideQuery), "parse");
  std::string want_json, want_csv;
  {
    const query::QueryResult expected =
        Must(exec->Execute(wide_query), "execute");
    if (expected.rows.size() != opt.wide_rows) {
      report->Wrong("wide SLICE has " + std::to_string(expected.rows.size()) +
                    " rows, want " + std::to_string(opt.wide_rows));
    }
    // The streamed JSON envelope embeds the buffered rendering verbatim:
    // {"query":...,"result":<ToJson>,"code":"OK",...}. CSV is ToCsv alone.
    want_json = std::string("{\"query\":\"") + kWideQuery + "\",\"result\":" +
                query::ToJson(expected) + ",\"code\":\"OK\"";
    want_csv = query::ToCsv(expected);
  }
  if (opt.plant_wrong) want_json[want_json.size() / 2] ^= 1;
  if (opt.plant_wrong) want_csv[want_csv.size() / 2] ^= 1;
  std::fprintf(stderr, "stream: %zu rows, %zu JSON bytes, %zu CSV bytes\n",
               opt.wide_rows, want_json.size(), want_csv.size());

  struct Export {
    double ttfb_ms = 0;
    double total_ms = 0;
  };
  // One export: streamed JSON or CSV of the wide answer, checked.
  auto export_once = [&](HttpConn* conn, bool csv, bool check) {
    Export e;
    const std::string& want = csv ? want_csv : want_json;
    auto resp = conn->Stream(csv ? "/query?stream=1&format=csv"
                                 : "/query?stream=1",
                             kWideQuery, want);
    bool ok = resp.ok() && resp->status == 200;
    if (ok) {
      e.ttfb_ms = resp->ttfb_ms;
      e.total_ms = resp->total_ms;
    }
    if (check) report->Op(ok);
    if (ok && check) {
      const bool same = resp->prefix_matches &&
                        (!csv || resp->bytes == want_csv.size());
      if (!same) {
        report->Wrong(std::string("streamed ") + (csv ? "CSV" : "JSON") +
                      " differs from the buffered rendering");
      }
    }
    return e;
  };
  auto measure = [&](uint16_t port, double seconds, bool check) {
    HttpConn conn(port);
    std::vector<Export> exports;
    const auto start = Clock::now();
    while (SecondsSince(start) < seconds || exports.size() < 4) {
      exports.push_back(export_once(&conn, exports.size() % 2 == 1, check));
    }
    return exports;
  };

  // One unmeasured export per format first (lazy set-up, page cache).
  {
    HttpConn conn(node.port());
    export_once(&conn, false, false);
    export_once(&conn, true, false);
  }
  std::vector<Export> exports = measure(node.port(), opt.seconds, true);
  // The figure includes the two expected renderings the on-the-fly
  // comparison needs (~30 MB at 100k rows).
  ReportPeakRss(report);
  // Exports alternate JSON (even) and CSV (odd). The delivery rate is
  // that of one median JSON export plus one median CSV export.
  std::vector<double> ttfb, total, json_total, csv_total;
  for (size_t i = 0; i < exports.size(); ++i) {
    ttfb.push_back(exports[i].ttfb_ms);
    total.push_back(exports[i].total_ms);
    (i % 2 == 0 ? json_total : csv_total).push_back(exports[i].total_ms);
  }
  const double rows_per_s = 2.0 * static_cast<double>(opt.wide_rows) /
                            ((Median(json_total) + Median(csv_total)) / 1e3);
  report->EndToEnd("ttfb_ms", Median(ttfb), "ms", ttfb.size());
  report->EndToEnd("stream_rows_per_s", rows_per_s, "rows/s", exports.size());
  report->EndToEnd("op_p50_ms", Median(ttfb), "ms", ttfb.size());
  report->EndToEnd("failed_ratio",
                   report->attempted() > 0
                       ? static_cast<double>(report->failed()) /
                             static_cast<double>(report->attempted())
                       : 0,
                   "ratio", report->attempted());
  if (opt.trace) {
    node.traced_server = StartServer(node.service.get(), opt, true);
    std::vector<Export> traced =
        measure(node.traced_server->port(), opt.seconds, false);
    std::vector<double> traced_json;
    for (size_t i = 0; i < traced.size(); i += 2) {
      traced_json.push_back(traced[i].total_ms);
    }
    report->Layer("trace.overhead_ratio",
                  Median(traced_json) / Median(json_total), "ratio",
                  traced_json.size());

    // In-process streamed execution into a discarding JSON writer: the
    // front-end's share of an export is the HTTP time minus this.
    std::vector<double> inproc_ms;
    for (int i = 0; i < 5; ++i) {
      query::JsonWriter writer([](std::string_view) { return true; });
      const auto t = Clock::now();
      node.service->ExecuteStreaming(kWideQuery, writer);
      inproc_ms.push_back(SecondsSince(t) * 1e3);
    }
    report->Layer("server.overhead_us",
                  (Median(json_total) - Median(inproc_ms)) * 1e3, "us",
                  json_total.size());
    size_t rtt_samples = 0;
    const double rtt_us = RttFloorUs(node.port(), 300, &rtt_samples);
    report->Layer("net.rtt_floor_us", rtt_us, "us", rtt_samples);
    report->Layer("net.stream_peak_buffer_bytes",
                  ScrapeMetric(node.port(), "scubed_streamed_buffer_peak_bytes"),
                  "bytes", 1);
    ExecutorLayers(*exec, {kWideQuery}, 5, report);
    {
      query::QueryService cold(&node.store, UncachedOptions(opt));
      std::vector<double> ms;
      for (int i = 0; i < 5; ++i) {
        const auto t = Clock::now();
        cold.ExecuteOne(kWideQuery);
        ms.push_back(SecondsSince(t) * 1e3);
      }
      cold.Shutdown();
      report->Layer("query.first_answer_ms", ms.front(), "ms", 1);
      std::vector<double> us;
      for (double m : ms) us.push_back(m * 1e3);
      report->Layer("query.service_us", Median(us), "us", us.size());
    }
    const auto cs = node.service->cache_stats();
    report->Layer("query.cache_hit_ratio",
                  cs.hits + cs.misses > 0
                      ? static_cast<double>(cs.hits) /
                            static_cast<double>(cs.hits + cs.misses)
                      : 0,
                  "ratio", cs.hits + cs.misses);
    report->Layer("query.shed",
                  static_cast<double>(node.service->stats().rejected), "count",
                  1);
    report->Layer("cube.seal_s", setup->seal_s, "s", 1);
    {
      cube::SegregationCube wide = BuildWideCube(opt.wide_rows, opt.seed);
      auto t = Clock::now();
      (void)wide.Seal(1);
      const double one = SecondsSince(t);
      t = Clock::now();
      (void)wide.Seal(opt.nproc);
      report->Layer("cube.seal_speedup", one / SecondsSince(t), "x", 1);
    }
    CubeCounts(*node.store.Get("default"), report);
  }
  report->MetaNum("cube_cells", static_cast<double>(opt.wide_rows));
  report->MetaNum("wide_rows", static_cast<double>(opt.wide_rows));
  report->MetaNum("exports", static_cast<double>(exports.size()));
  return 0;
}

// ---------------------------------------------------------------------------

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload publish|serve|stream|"
               "scatter --seed N --seconds S --trace 0|1\n"
               "       [--scale F] [--wide-rows N] "
               "[--plant-wrong]\n"
               "       [--git-sha SHA] [--source-digest HEX] "
               "[--compiler ID]\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") opt.workload = value();
    else if (arg == "--seed") opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (arg == "--seconds") opt.seconds = std::atof(value().c_str());
    else if (arg == "--trace") opt.trace = value() == "1";
    else if (arg == "--scale") opt.scale = std::atof(value().c_str());
    else if (arg == "--wide-rows") opt.wide_rows = std::strtoull(value().c_str(), nullptr, 10);
    else if (arg == "--plant-wrong") opt.plant_wrong = true;
    else if (arg == "--git-sha") opt.git_sha = value();
    else if (arg == "--source-digest") opt.source_digest = value();
    else if (arg == "--compiler") opt.compiler = value();
    else {
      Usage();
      return 2;
    }
  }
  if (opt.seconds <= 0 || opt.wide_rows == 0 || opt.scale <= 0) {
    Usage();
    return 2;
  }
  opt.nproc = std::max(1u, std::thread::hardware_concurrency());
  opt.conns = std::min<size_t>(4, opt.nproc);

  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  if (build_type != "Release" || !ndebug) {
    std::fprintf(stderr,
                 "\n*** perfbench: NOT A RELEASE BUILD (build type %s, NDEBUG "
                 "%s): numbers are not comparable ***\n\n",
                 build_type.c_str(), ndebug ? "on" : "off");
    return 2;
  }

  Report report;
  report.Meta("workload", opt.workload);
  report.MetaNum("seed", static_cast<double>(opt.seed));
  report.MetaNum("seconds", opt.seconds);
  report.MetaNum("trace", opt.trace ? 1 : 0);
  report.MetaNum("scale", opt.scale);
  report.MetaNum("nproc", static_cast<double>(opt.nproc));
  report.MetaNum("client_connections", static_cast<double>(opt.conns));
  report.Meta("compiler", opt.compiler + " (" + __VERSION__ + ")");
  report.Meta("build_type", build_type);
  report.MetaNum("ndebug", ndebug ? 1 : 0);
  report.Meta("git_sha", opt.git_sha);
  report.Meta("source_digest", opt.source_digest);
  report.MetaNum("fixed_qps", kFixedQps);
  report.MetaNum("slo_p99_ms", kSloP99Ms);

  int rc;
  if (opt.workload == "publish") rc = RunPublish(opt, &report);
  else if (opt.workload == "serve") rc = RunServe(opt, &report);
  else if (opt.workload == "scatter") rc = RunScatter(opt, &report);
  else if (opt.workload == "stream") rc = RunStream(opt, &report);
  else {
    Usage();
    return 2;
  }
  if (rc != 0) return rc;
  std::fflush(stderr);
  std::printf("%s\n", report.ToJson().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
