#include "server/metrics.h"

#include "common/string_util.h"

namespace scube {
namespace server {

using trace::MetricCounter;
using trace::MetricFamily;
using trace::MetricGauge;
using trace::MetricHistogram;

namespace {

/// Lower-case per-verb label values, in query::Verb enumerator order.
constexpr const char* kVerbLabels[query::kNumVerbs] = {
    "slice", "dice", "rollup", "drilldown", "topk", "surprises", "reversals"};

}  // namespace

const char* RouteLabel(Route route) {
  switch (route) {
    case Route::kQuery:
      return "query";
    case Route::kStream:
      return "stream";
    case Route::kCubes:
      return "cubes";
    case Route::kHealthz:
      return "healthz";
    case Route::kMetrics:
      return "metrics";
    case Route::kLine:
      return "line";
    case Route::kOther:
      return "other";
  }
  return "other";
}

Route ClassifyRoute(const net::HttpRequest& request) {
  if (request.path == "/query") {
    return request.Param("stream") == "1" ? Route::kStream : Route::kQuery;
  }
  if (request.path == "/cubes") return Route::kCubes;
  if (request.path == "/healthz") return Route::kHealthz;
  if (request.path == "/metrics") return Route::kMetrics;
  return Route::kOther;
}

void ServerMetrics::ObserveVerb(const std::string& verb, double ms) {
  const std::string lowered = ToLower(verb);
  for (size_t i = 0; i < query::kNumVerbs; ++i) {
    if (lowered == kVerbLabels[i]) {
      verb_latency[i].Observe(ms);
      return;
    }
  }
  // Unknown verb strings (parse errors leave QueryResponse::verb empty)
  // carry no execution worth attributing — dropped by design.
}

std::string RenderPrometheus(const ServerMetrics& metrics,
                             const query::QueryBackend& backend) {
  std::string out;
  out.reserve(2048);

  MetricCounter(&out, "scubed_connections_total",
                metrics.connections.load(std::memory_order_relaxed),
                "TCP connections accepted");
  MetricCounter(&out, "scubed_connections_shed_total",
                metrics.connections_shed.load(std::memory_order_relaxed),
                "Connections refused because the connection queue was full");
  MetricCounter(&out, "scubed_connections_closed_total",
                metrics.connections_closed.load(std::memory_order_relaxed),
                "TCP connections closed (any reason)");
  MetricGauge(&out, "scubed_open_connections",
              static_cast<double>(
                  metrics.open_connections.load(std::memory_order_relaxed)),
              "Currently open connections (accepted minus closed/shed)");
  MetricCounter(&out, "scubed_idle_timeout_closes_total",
                metrics.idle_timeout_closes.load(std::memory_order_relaxed),
                "Connections dropped by the keep-alive idle timeout");
  MetricCounter(&out, "scubed_header_deadline_closes_total",
                metrics.header_deadline_closes.load(std::memory_order_relaxed),
                "Connections dropped by the header-read deadline "
                "(slow-loris defence)");
  MetricCounter(&out, "scubed_reactor_loops_total",
                metrics.reactor_loops.load(std::memory_order_relaxed),
                "Reactor event-loop iterations (0 under --frontend=threads)");
  MetricCounter(&out, "scubed_http_requests_total",
                metrics.http_requests.load(std::memory_order_relaxed),
                "HTTP requests handled");
  MetricCounter(&out, "scubed_http_errors_total",
                metrics.http_errors.load(std::memory_order_relaxed),
                "HTTP responses with a 4xx/5xx status");
  MetricCounter(&out, "scubed_line_requests_total",
                metrics.line_requests.load(std::memory_order_relaxed),
                "Line-protocol queries handled");
  MetricCounter(&out, "scubed_streamed_requests_total",
                metrics.streamed_requests.load(std::memory_order_relaxed),
                "Chunked streaming responses begun (POST /query?stream=1)");
  MetricCounter(&out, "scubed_streamed_rows_total",
                metrics.streamed_rows.load(std::memory_order_relaxed),
                "Result rows streamed to clients");
  MetricCounter(&out, "scubed_streamed_bytes_total",
                metrics.streamed_bytes.load(std::memory_order_relaxed),
                "Wire bytes of streamed responses (including chunk framing)");
  MetricCounter(&out, "scubed_streamed_errors_total",
                metrics.streamed_errors.load(std::memory_order_relaxed),
                "Streamed responses that failed after the 200 head left "
                "(error carried in the body tail)");
  MetricGauge(&out, "scubed_streamed_buffer_peak_bytes",
              static_cast<double>(
                  metrics.streamed_buffer_peak.load(std::memory_order_relaxed)),
              "High-water mark of the streamed-response chunk buffer "
              "(bounded by the flush threshold, flat in the result size)");
  MetricGauge(&out, "scubed_buffered_body_peak_bytes",
              static_cast<double>(
                  metrics.buffered_body_peak.load(std::memory_order_relaxed)),
              "High-water mark of buffered response bodies (the whole "
              "serialised answer)");

  query::ServiceStats stats = backend.stats();
  MetricCounter(&out, "scubed_queries_accepted_total", stats.accepted,
                "Queries admitted past the admission queue bound");
  MetricCounter(&out, "scubed_queries_rejected_total", stats.rejected,
                "Queries shed by admission control (HTTP 503)");
  MetricCounter(&out, "scubed_queries_deadline_expired_total",
                stats.deadline_expired,
                "Queries answered DeadlineExceeded");
  MetricCounter(&out, "scubed_queries_completed_total", stats.completed,
                "Admitted queries answered (any status)");

  // Backend-specific series: queue depth + cache counters (QueryService)
  // or per-shard fanout counters (scatter router) — emitted here so the
  // exposition's series order is stable across backends.
  backend.AppendBackendMetrics(&out);

  MetricCounter(&out, "scubed_slow_queries_total",
                metrics.slow_queries.load(std::memory_order_relaxed),
                "Requests that crossed the slow-query threshold "
                "(--slow-query-ms; 0 when the slow-query log is disabled)");

  // Latency histograms. Every label value is emitted even at zero count,
  // so dashboards and the CI exposition check see the full series set
  // from the first scrape.
  MetricFamily(&out, "scubed_request_latency_seconds", "histogram",
               "End-to-end request latency by route, handler entry to last "
               "byte written");
  for (size_t i = 0; i < kNumRoutes; ++i) {
    MetricHistogram(&out, "scubed_request_latency_seconds",
                    std::string("route=\"") +
                        RouteLabel(static_cast<Route>(i)) + "\"",
                    metrics.route_latency[i]);
  }

  MetricFamily(&out, "scubed_query_latency_seconds", "histogram",
               "Query execution latency by SCubeQL verb (cache hits "
               "included)");
  for (size_t i = 0; i < query::kNumVerbs; ++i) {
    MetricHistogram(&out, "scubed_query_latency_seconds",
                    std::string("verb=\"") + kVerbLabels[i] + "\"",
                    metrics.verb_latency[i]);
  }

  MetricFamily(&out, "scubed_stream_ttfb_seconds", "histogram",
               "Streaming time-to-first-byte: request entry until the first "
               "response byte reaches the socket");
  MetricHistogram(&out, "scubed_stream_ttfb_seconds", "",
                  metrics.stream_ttfb);
  return out;
}

}  // namespace server
}  // namespace scube
