// ScatterExecutor: a query::QueryBackend that answers SCubeQL by fanning
// each statement out to N shard scubeds and k-way merging their wire
// streams back into the exact single-node row order.
//
// How byte-identity works, end to end:
//   1. cluster/partition.h splits a sealed cube by context coordinate;
//      each shard's row stream is a disjoint subsequence of the global
//      stream (ghost cells cover cross-shard adjacency, the executor
//      never emits them).
//   2. Shards answer POST /query?stream=1&format=wire with every row
//      stamped by an order-preserving merge key (query/merge_key.h) and
//      every double as its raw IEEE-754 bit pattern (query/wire_format.h).
//   3. This executor opens all shard streams concurrently (scatter.fanout
//      span, per-shard shard[i].rtt spans), then pops the smallest key
//      across streams (scatter.merge span) — reproducing the global
//      stream — and pushes rows into the caller's RowSink, where the very
//      same JsonWriter/CsvWriter as a single node renders them.
//
// Pagination: LIMIT/OFFSET is executed at the router. Shards are asked
// for OFFSET <consumed_i> LIMIT <page + 1> of their own streams (LIMIT
// pushdown still applies shard-side), and the resume token is a
// *composite* cursor recording how many rows of each shard's stream the
// client has consumed. Stitched pages equal the unpaginated answer for
// the same reason single-node pages do: every shard stream is
// deterministic.
//
// Versions: a statement costs one request per shard, and each shard's
// stream opens with an H line naming the sealed version the shard
// resolved (query/wire_format.h). The router reads it from every stream
// before it emits anything. Shards must agree: a mismatch (a rolling
// publish in progress) is Unavailable and names both shards; a cube
// missing everywhere is NotFound, a cube missing on one shard is
// Unavailable naming that shard. A cursor or FROM name@version pins the
// version in the shard requests themselves, and a page's cursor carries
// the agreed version, so later pages read the same snapshot even across
// a publish. Unpinned shard statements are the shards' own cacheable
// texts, so a shard's publish warms routed traffic too.
//
// Failure: a failed shard fails the request with an error envelope that
// names it ("shard 2 (host:port): ..."). With ?allow_partial=1, analytic
// verbs (TOPK / SURPRISES / REVERSALS) instead answer from the shards
// that responded — navigation verbs never degrade silently.
//
// Concurrency: one request at a time (an internal mutex). The executor
// owns one connection pool; scaling request concurrency means running
// more router processes, which are stateless.

#ifndef SCUBE_CLUSTER_SCATTER_H_
#define SCUBE_CLUSTER_SCATTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "cluster/shard_client.h"
#include "net/http.h"
#include "query/backend.h"

namespace scube {
namespace cluster {

/// \brief Router tuning knobs.
struct ScatterOptions {
  /// Cube name used when a statement has no FROM clause (must match the
  /// shards' default for unqualified queries to resolve).
  std::string default_cube = "default";

  /// Connect/read timeouts and retry policy for all shard round trips.
  net::ClientOptions client;

  /// Deadline applied to requests that carry none (milliseconds, 0 =
  /// unbounded); forwarded to shards as ?deadline_ms=.
  double default_deadline_ms = 0;
};

/// \brief The composite resume token of a scattered stream: the pinned
/// cube/version, the statement fingerprint, and how many rows of each
/// shard's stream the client has consumed (skipped offsets included).
struct ScatterCursor {
  std::string cube;
  uint64_t version = 0;
  uint64_t query_hash = 0;          ///< query::CursorQueryHash
  std::vector<uint64_t> consumed;   ///< one entry per shard, shard order
};

/// Renders a composite cursor as an opaque URL-safe token.
std::string EncodeScatterCursor(const ScatterCursor& cursor);

/// Parses a token; InvalidArgument when malformed or not a scatter
/// cursor (single-node tokens are a different format).
Result<ScatterCursor> DecodeScatterCursor(std::string_view token);

/// \brief Scatter-gather query backend over a shard topology.
class ScatterExecutor : public query::QueryBackend {
 public:
  ScatterExecutor(std::vector<ShardSpec> shards, ScatterOptions options = {});
  ~ScatterExecutor() override;

  ScatterExecutor(const ScatterExecutor&) = delete;
  ScatterExecutor& operator=(const ScatterExecutor&) = delete;

  std::vector<query::QueryResponse> ExecuteBatch(
      const std::vector<std::string>& texts,
      const query::QueryContext& ctx) override;

  query::StreamOutcome ExecuteStreaming(const std::string& text,
                                        query::RowSink& sink,
                                        const query::QueryContext& ctx,
                                        const std::string& cursor) override;

  query::ServiceStats stats() const override;

  /// The cubes every reachable shard agrees on (same latest version);
  /// cells/defined_cells are summed across shards and therefore count
  /// ghost replicas once per holding shard.
  std::vector<query::CubeInfo> ListCubes() const override;

  /// Per-shard fan-out series: scubed_shard_requests_total,
  /// scubed_shard_failures_total, scubed_shard_rtt_seconds and
  /// scubed_scatter_partial_total.
  void AppendBackendMetrics(std::string* out) const override;

  size_t num_shards() const { return clients_.size(); }

 private:
  struct ShardStream;  // one in-flight shard wire stream (scatter.cc)

  query::StreamOutcome ScatterLocked(const std::string& text,
                                     query::RowSink& sink,
                                     const query::QueryContext& ctx,
                                     const std::string& cursor)
      REQUIRES(request_mu_);

  ScatterOptions options_;

  /// The vector itself is const after construction (safe to size/iterate
  /// anywhere); each ShardClient's connection state is single-flight and
  /// only touched under request_mu_ — not expressible through
  /// vector<unique_ptr>, so the discipline is documented here. The
  /// atomic health counters inside ShardClient are the exception: they
  /// exist precisely so /metrics can read them off-lock.
  std::vector<std::unique_ptr<ShardClient>> clients_;
  std::unique_ptr<ThreadPool> pool_ PT_GUARDED_BY(request_mu_);

  /// Serialises requests: the shard connection pool (and the per-shard
  /// merge state) is single-flight by design.
  mutable sync::Mutex request_mu_;

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> deadline_expired_{0};
  std::atomic<uint64_t> partial_{0};  ///< requests answered from a subset

  /// Head latency (request out -> response head in) per shard.
  std::vector<std::unique_ptr<trace::LatencyHistogram>> rtt_;
};

}  // namespace cluster
}  // namespace scube

#endif  // SCUBE_CLUSTER_SCATTER_H_
