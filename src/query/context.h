// QueryContext: per-request execution constraints carried alongside a
// SCubeQL batch. Today that is one thing — a deadline. The service applies
// its configured default when a request carries none; the executor checks
// the deadline cooperatively at batch-statement boundaries (and periodically
// inside the shared analytic scan), so an expired query returns
// DeadlineExceeded instead of burning a worker to completion.

#ifndef SCUBE_QUERY_CONTEXT_H_
#define SCUBE_QUERY_CONTEXT_H_

#include <chrono>
#include <limits>
#include <optional>

#include "common/trace.h"

namespace scube {
namespace query {

/// \brief Deadline (and future per-request knobs) for one query batch.
/// Cheap to copy; an empty context imposes no constraints.
struct QueryContext {
  using Clock = std::chrono::steady_clock;

  /// Absolute deadline; unset = unbounded.
  std::optional<Clock::time_point> deadline;

  /// Span sink for this request; null = tracing off (the common case —
  /// every instrumentation site passes this straight to trace::Span,
  /// which is a no-op on null). Non-owning: the router keeps the
  /// TraceContext alive for the request's duration.
  trace::TraceContext* trace = nullptr;

  /// Stamp each emitted row with an order-preserving merge key
  /// (ResultRow::skey, see query/merge_key.h). Set by the shard-side wire
  /// route so a scatter-gather router can k-way merge shard streams back
  /// into the exact single-node emission order. Costs a small allocation
  /// per row; off for ordinary requests.
  bool merge_keys = false;

  /// Scatter-gather only (?allow_partial=1): analytic verbs may answer
  /// from the shards that responded when one shard fails, instead of
  /// failing the whole request. Ignored by single-node backends.
  bool allow_partial = false;

  /// The longest timeout WithTimeout represents: half the steady clock's
  /// range (~146 years at nanosecond ticks), so now() + timeout cannot
  /// overflow. Request edges reject anything larger, NaN or infinite.
  static constexpr double kMaxTimeoutMs =
      std::chrono::duration<double, std::milli>(Clock::duration::max())
          .count() /
      2;

  /// A context whose deadline is `ms` milliseconds from now. Non-positive
  /// `ms` yields an already-expired context (useful in tests); `ms` must
  /// not exceed kMaxTimeoutMs.
  static QueryContext WithTimeout(double ms) {
    QueryContext ctx;
    ctx.deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(ms));
    return ctx;
  }

  bool has_deadline() const { return deadline.has_value(); }

  /// True once the deadline has passed. Never true without a deadline.
  bool Expired() const { return deadline && Clock::now() >= *deadline; }

  /// Milliseconds until expiry; negative once expired, +infinity when
  /// unbounded.
  double RemainingMillis() const {
    if (!deadline) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double, std::milli>(*deadline - Clock::now())
        .count();
  }
};

/// \brief Amortised deadline probe for tight loops (index walks, posting
/// intersections): one clock read per `stride` ticks instead of per
/// iteration. Once expired, stays expired.
class DeadlineTicker {
 public:
  explicit DeadlineTicker(const QueryContext& ctx, uint64_t stride = 1024)
      : ctx_(&ctx), stride_(stride == 0 ? 1 : stride) {}

  /// Call once per loop iteration; true once the deadline has passed.
  /// The very first tick probes the clock, so an already-expired context
  /// stops a walk before it inspects anything.
  bool Tick() {
    if (expired_) return true;
    if (count_++ % stride_ == 0 && ctx_->Expired()) expired_ = true;
    return expired_;
  }

  bool expired() const { return expired_; }

 private:
  const QueryContext* ctx_;
  uint64_t stride_;
  uint64_t count_ = 0;
  bool expired_ = false;
};

}  // namespace query
}  // namespace scube

#endif  // SCUBE_QUERY_CONTEXT_H_
