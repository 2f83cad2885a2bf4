#include "common/trace.h"

#include <algorithm>
#include <cstdio>

#include "common/string_util.h"

namespace scube {
namespace trace {

namespace {

// Innermost open span on this thread: Span's constructor pushes, its
// destructor pops. This is what links nested spans to their parent and
// what CurrentTraceId() reads from the logging layer.
struct ThreadCursor {
  TraceContext* trace = nullptr;
  uint32_t span = TraceContext::kNoParent;
};
thread_local ThreadCursor t_cursor;

// splitmix64 finalizer: turns a weak sequential seed into a well-mixed
// 64-bit id. Good enough for trace ids (uniqueness, not security).
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t NextTraceId() {
  static std::atomic<uint64_t> counter{0};
  const uint64_t seq = counter.fetch_add(1, std::memory_order_relaxed);
  const uint64_t ticks = static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  uint64_t id = Mix64(seq ^ (ticks << 17));
  if (id == 0) id = 1;  // 0 means "no trace" everywhere else
  return id;
}

void AppendSpanJson(const std::vector<TraceContext::SpanView>& spans,
                    uint32_t parent, std::string* out) {
  out->push_back('[');
  bool first = true;
  for (const auto& s : spans) {
    if (s.parent != parent) continue;
    if (!first) out->push_back(',');
    first = false;
    out->append("{\"name\":");
    out->append(JsonQuote(s.name));
    out->append(",\"start_ms\":");
    out->append(FormatDouble(s.start_ms, 3));
    out->append(",\"ms\":");
    out->append(FormatDouble(s.duration_ms, 3));
    // Children are rare; skip the sub-array entirely for leaves.
    bool has_children = false;
    for (const auto& c : spans) {
      if (c.parent == s.id) {
        has_children = true;
        break;
      }
    }
    if (has_children) {
      out->append(",\"spans\":");
      AppendSpanJson(spans, s.id, out);
    }
    out->push_back('}');
  }
  out->push_back(']');
}

/// "%g" rendering of a sample or bucket bound ("0.005", "2.5", "1e-05").
std::string MetricNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

}  // namespace

TraceContext::TraceContext()
    : trace_id_(NextTraceId()), epoch_(Clock::now()) {}

std::string TraceContext::trace_id_hex() const { return TraceIdHex(trace_id_); }

double TraceContext::ElapsedMillis() const {
  return static_cast<double>(NowMicros()) / 1000.0;
}

uint32_t TraceContext::spans_recorded() const {
  return std::min(next_.load(std::memory_order_acquire), kMaxSpans);
}

int64_t TraceContext::NowMicros() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               epoch_)
      .count();
}

uint32_t TraceContext::Open(const char* name, uint32_t parent) {
  const uint32_t idx = next_.fetch_add(1, std::memory_order_acq_rel);
  if (idx >= kMaxSpans) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  SpanRecord& rec = spans_[idx];
  rec.name = name;
  rec.parent = parent;
  rec.start_us = NowMicros();
  rec.end_us = -1;
  return idx + 1;
}

void TraceContext::Close(uint32_t slot) {
  if (slot == 0 || slot > kMaxSpans) return;
  spans_[slot - 1].end_us = NowMicros();
}

uint32_t TraceContext::Record(const char* name, Clock::time_point start,
                              Clock::time_point end, uint32_t parent) {
  const uint32_t slot = Open(name, parent);
  if (slot == 0) return 0;
  SpanRecord& rec = spans_[slot - 1];
  rec.start_us = std::max<int64_t>(
      0, std::chrono::duration_cast<std::chrono::microseconds>(start - epoch_)
             .count());
  rec.end_us = std::max<int64_t>(
      rec.start_us,
      std::chrono::duration_cast<std::chrono::microseconds>(end - epoch_)
          .count());
  return slot;
}

std::vector<TraceContext::SpanView> TraceContext::Spans() const {
  const uint32_t n = spans_recorded();
  const int64_t now_us = NowMicros();
  std::vector<SpanView> out;
  out.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    const SpanRecord& rec = spans_[i];
    SpanView v;
    v.name = rec.name;
    v.id = i + 1;
    v.parent = rec.parent;
    v.start_ms = static_cast<double>(rec.start_us) / 1000.0;
    v.open = rec.end_us < 0;
    const int64_t end_us = v.open ? now_us : rec.end_us;
    v.duration_ms = static_cast<double>(end_us - rec.start_us) / 1000.0;
    out.push_back(v);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const SpanView& a, const SpanView& b) {
                     return a.start_ms < b.start_ms;
                   });
  return out;
}

std::string TraceContext::ToJson() const {
  const auto spans = Spans();
  std::string out = "{\"trace_id\":";
  out.append(JsonQuote(trace_id_hex()));
  out.append(",\"total_ms\":");
  out.append(FormatDouble(ElapsedMillis(), 3));
  out.append(",\"spans_dropped\":");
  out.append(std::to_string(spans_dropped()));
  out.append(",\"spans\":");
  AppendSpanJson(spans, kNoParent, &out);
  out.push_back('}');
  return out;
}

std::string TraceContext::Summary() const {
  std::string out;
  for (const auto& s : Spans()) {
    if (s.parent != kNoParent) continue;
    if (!out.empty()) out.push_back(' ');
    out.append(s.name);
    out.push_back('=');
    out.append(FormatDouble(s.duration_ms, 3));
    out.append("ms");
  }
  return out;
}

Span::Span(TraceContext* trace, const char* name) {
  if (trace == nullptr) return;  // disabled: no clock read, no atomics
  // Only spans opened under an ancestor of the SAME trace nest; a worker
  // thread picking up a chunk of some request starts at root level.
  const uint32_t parent = (t_cursor.trace == trace) ? t_cursor.span
                                                    : TraceContext::kNoParent;
  const uint32_t slot = trace->Open(name, parent);
  if (slot == 0) return;  // buffer full: already counted as dropped
  trace_ = trace;
  slot_ = slot;
  prev_trace_ = t_cursor.trace;
  prev_span_ = t_cursor.span;
  t_cursor.trace = trace;
  t_cursor.span = slot;
}

void Span::End() {
  if (trace_ == nullptr) return;
  trace_->Close(slot_);
  // Restore the cursor only if we are still the innermost span — an
  // out-of-order End() (moved-from scope guards, early End calls) must
  // not clobber a deeper frame.
  if (t_cursor.trace == trace_ && t_cursor.span == slot_) {
    t_cursor.trace = prev_trace_;
    t_cursor.span = prev_span_;
  }
  trace_ = nullptr;
  slot_ = 0;
}

uint64_t CurrentTraceId() {
  return t_cursor.trace != nullptr ? t_cursor.trace->trace_id() : 0;
}

std::string TraceIdHex(uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(id));
  return std::string(buf);
}

void LatencyHistogram::Observe(double ms) {
  if (ms < 0) ms = 0;
  const auto& bounds = kBucketBoundsMs;
  const size_t idx =
      std::lower_bound(bounds.begin(), bounds.end(), ms) - bounds.begin();
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_us_.fetch_add(static_cast<uint64_t>(ms * 1000.0),
                    std::memory_order_relaxed);
}

double LatencyHistogram::Quantile(double q) const {
  const uint64_t total = count();
  if (total == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    const uint64_t in_bucket = bucket(i);
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= rank) {
      if (i == kNumBuckets - 1) return kBucketBoundsMs.back();
      const double lo = i == 0 ? 0.0 : kBucketBoundsMs[i - 1];
      const double hi = kBucketBoundsMs[i];
      const double frac =
          (rank - static_cast<double>(cumulative)) /
          static_cast<double>(in_bucket);
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    cumulative += in_bucket;
  }
  return kBucketBoundsMs.back();
}

void MetricFamily(std::string* out, const char* name, const char* type,
                  const char* help) {
  *out += "# HELP ";
  *out += name;
  *out += ' ';
  *out += help;
  *out += "\n# TYPE ";
  *out += name;
  *out += ' ';
  *out += type;
  *out += '\n';
}

void MetricCounter(std::string* out, const char* name, uint64_t value,
                   const char* help) {
  MetricFamily(out, name, "counter", help);
  *out += name;
  *out += ' ';
  *out += std::to_string(value);
  *out += '\n';
}

void MetricGauge(std::string* out, const char* name, double value,
                 const char* help) {
  MetricFamily(out, name, "gauge", help);
  *out += name;
  *out += ' ';
  *out += MetricNumber(value);
  *out += '\n';
}

void MetricHistogram(std::string* out, const char* name,
                     const std::string& label, const LatencyHistogram& hist) {
  auto bucket_line = [&](const std::string& le, uint64_t cumulative) {
    *out += name;
    *out += "_bucket{";
    if (!label.empty()) {
      *out += label;
      *out += ',';
    }
    *out += "le=\"";
    *out += le;
    *out += "\"} ";
    *out += std::to_string(cumulative);
    *out += '\n';
  };
  uint64_t cumulative = 0;
  for (size_t i = 0; i < LatencyHistogram::kBucketBoundsMs.size(); ++i) {
    cumulative += hist.bucket(i);
    bucket_line(MetricNumber(LatencyHistogram::kBucketBoundsMs[i] / 1000.0),
                cumulative);
  }
  cumulative += hist.bucket(LatencyHistogram::kNumBuckets - 1);
  bucket_line("+Inf", cumulative);

  auto sample = [&](const char* suffix, const std::string& value) {
    *out += name;
    *out += suffix;
    if (!label.empty()) {
      *out += '{';
      *out += label;
      *out += '}';
    }
    *out += ' ';
    *out += value;
    *out += '\n';
  };
  sample("_sum", MetricNumber(hist.sum_ms() / 1000.0));
  sample("_count", std::to_string(hist.count()));
}

}  // namespace trace
}  // namespace scube
