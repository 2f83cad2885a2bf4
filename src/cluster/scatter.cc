#include "cluster/scatter.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <utility>

#include "cluster/merge.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "query/ast.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/wire_format.h"

namespace scube {
namespace cluster {

namespace {

// Composite cursor layout (before base64url): the consumed counts join
// with ';' so '|' stays free as the field separator, and the cube name
// goes last because it alone may contain '|'.
constexpr char kScatterCursorMagic[] = "scx1";
constexpr char kScatterCursorSep = '|';

/// Span names must be string literals (TraceContext stores the pointer);
/// shards beyond the table share one generic label.
const char* ShardRttName(size_t shard) {
  static const char* kNames[] = {
      "shard[0].rtt", "shard[1].rtt", "shard[2].rtt", "shard[3].rtt",
      "shard[4].rtt", "shard[5].rtt", "shard[6].rtt", "shard[7].rtt",
  };
  return shard < 8 ? kNames[shard] : "shard[n].rtt";
}

/// The front-end's HttpStatusFor, inverted: a shard's buffered error
/// response mapped back onto the status it left the shard with.
StatusCode CodeForHttpStatus(int status) {
  switch (status) {
    case 400:
      return StatusCode::kInvalidArgument;
    case 404:
      return StatusCode::kNotFound;
    case 503:
      return StatusCode::kUnavailable;
    case 504:
      return StatusCode::kDeadlineExceeded;
    default:
      return StatusCode::kInternal;
  }
}

/// Parses the JSON string whose opening '"' is at (*pos); leaves *pos one
/// past the closing quote. Understands exactly what JsonEscape emits.
bool ParseJsonString(const std::string& body, size_t* pos, std::string* out) {
  size_t i = *pos;
  while (i < body.size() && (body[i] == ' ' || body[i] == '\t')) ++i;
  if (i >= body.size() || body[i] != '"') return false;
  ++i;
  out->clear();
  while (i < body.size()) {
    char c = body[i];
    if (c == '"') {
      *pos = i + 1;
      return true;
    }
    if (c == '\\') {
      if (i + 1 >= body.size()) return false;
      char e = body[i + 1];
      switch (e) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'u': {
          if (i + 5 >= body.size()) return false;
          auto hex = ParseHexU64(body.substr(i + 2, 4));
          if (!hex.ok()) return false;
          // JsonEscape only \u-encodes control bytes, so the low byte is
          // the whole code point.
          *out += static_cast<char>(*hex & 0xFF);
          i += 4;
          break;
        }
        default:
          return false;
      }
      i += 2;
      continue;
    }
    *out += c;
    ++i;
  }
  return false;
}

/// "error" field of a shard's buffered JSON error body; falls back to the
/// raw (trimmed) body for anything unexpected.
std::string ParseErrorBody(const std::string& body) {
  size_t pos = body.find("\"error\":");
  if (pos != std::string::npos) {
    pos += std::strlen("\"error\":");
    std::string message;
    if (ParseJsonString(body, &pos, &message)) return message;
  }
  std::string fallback(Trim(body));
  return fallback.empty() ? "(empty error body)" : fallback;
}

/// Decimal digits at (*pos) as a uint64, advancing past them.
bool ParseJsonUint(const std::string& body, size_t* pos, uint64_t* out) {
  size_t i = *pos;
  uint64_t v = 0;
  bool any = false;
  while (i < body.size() && body[i] >= '0' && body[i] <= '9') {
    v = v * 10 + static_cast<uint64_t>(body[i] - '0');
    any = true;
    ++i;
  }
  if (!any) return false;
  *pos = i;
  *out = v;
  return true;
}

/// Parses GET /cubes output. Fixed-shape: this JSON is produced by this
/// repo's own HandleCubes, so a key scan (not a general JSON parser) is
/// exact — every object carries name/version/retained/cells/defined_cells
/// in that order.
Result<std::vector<query::CubeInfo>> ParseCubesJson(const std::string& body) {
  std::vector<query::CubeInfo> cubes;
  constexpr char kNameKey[] = "\"name\":";
  size_t pos = body.find(kNameKey);
  while (pos != std::string::npos) {
    pos += std::strlen(kNameKey);
    query::CubeInfo info;
    if (!ParseJsonString(body, &pos, &info.name)) {
      return Status::ParseError("malformed /cubes body: bad cube name");
    }
    auto number_after = [&](const char* key, uint64_t* out) {
      size_t k = body.find(key, pos);
      if (k == std::string::npos) return false;
      k += std::strlen(key);
      if (!ParseJsonUint(body, &k, out)) return false;
      pos = k;
      return true;
    };
    if (!number_after("\"version\":", &info.version)) {
      return Status::ParseError("malformed /cubes body: missing version");
    }
    size_t ret = body.find("\"retained\":[", pos);
    if (ret == std::string::npos) {
      return Status::ParseError("malformed /cubes body: missing retained");
    }
    pos = ret + std::strlen("\"retained\":[");
    while (pos < body.size() && body[pos] != ']') {
      if (body[pos] == ',') {
        ++pos;
        continue;
      }
      uint64_t v = 0;
      if (!ParseJsonUint(body, &pos, &v)) {
        return Status::ParseError("malformed /cubes body: bad retained list");
      }
      info.retained.push_back(v);
    }
    if (!number_after("\"cells\":", &info.cells) ||
        !number_after("\"defined_cells\":", &info.defined_cells)) {
      return Status::ParseError("malformed /cubes body: missing cell counts");
    }
    cubes.push_back(std::move(info));
    pos = body.find(kNameKey, pos);
  }
  return cubes;
}

/// Reads a non-200 response's body so the connection ends at a message
/// boundary and the shard's error message is recoverable.
Status ReadErrorResponseBody(net::BufferedReader* reader,
                             const net::HttpResponseHead& head,
                             std::string* body) {
  if (head.chunked) {
    net::ChunkedBodyReader chunks(reader);
    for (;;) {
      auto more = chunks.ReadSome(body);
      if (!more.ok()) return more.status();
      if (!*more) return Status::OK();
    }
  }
  if (head.have_length) return reader->ReadExactAppend(head.length, body);
  return Status::IoError("error response without body framing");
}

}  // namespace

std::string EncodeScatterCursor(const ScatterCursor& cursor) {
  char hash_hex[17];
  std::snprintf(hash_hex, sizeof(hash_hex), "%016llx",
                static_cast<unsigned long long>(cursor.query_hash));
  std::string consumed;
  for (uint64_t c : cursor.consumed) {
    if (!consumed.empty()) consumed += ';';
    consumed += std::to_string(c);
  }
  std::string plain = std::string(kScatterCursorMagic) + kScatterCursorSep +
                      std::to_string(cursor.version) + kScatterCursorSep +
                      hash_hex + kScatterCursorSep + consumed +
                      kScatterCursorSep + cursor.cube;
  std::string token = Base64Encode(plain);
  for (char& c : token) {
    if (c == '+') c = '-';
    if (c == '/') c = '_';
  }
  return token;
}

Result<ScatterCursor> DecodeScatterCursor(std::string_view token) {
  std::string standard(token);
  for (char& c : standard) {
    if (c == '-') c = '+';
    if (c == '_') c = '/';
  }
  auto plain = Base64Decode(standard);
  if (!plain.ok()) {
    return Status::InvalidArgument("malformed cursor: not base64");
  }
  std::vector<std::string> parts = Split(*plain, kScatterCursorSep);
  if (parts.size() < 5 || parts[0] != kScatterCursorMagic) {
    return Status::InvalidArgument("malformed cursor: not a scatter cursor");
  }
  ScatterCursor cursor;
  cursor.cube = parts[4];
  for (size_t i = 5; i < parts.size(); ++i) {
    cursor.cube += kScatterCursorSep;
    cursor.cube += parts[i];
  }
  if (cursor.cube.empty()) {
    return Status::InvalidArgument("malformed cursor: empty cube name");
  }
  auto version = ParseInt64(parts[1]);
  if (!version.ok() || *version <= 0) {
    return Status::InvalidArgument("malformed cursor: bad version");
  }
  cursor.version = static_cast<uint64_t>(*version);
  if (parts[2].size() != 16) {
    return Status::InvalidArgument("malformed cursor: bad query hash");
  }
  auto hash = ParseHexU64(parts[2]);
  if (!hash.ok()) {
    return Status::InvalidArgument("malformed cursor: bad query hash");
  }
  cursor.query_hash = *hash;
  for (const std::string& c : Split(parts[3], ';')) {
    auto v = ParseInt64(c);
    if (!v.ok() || *v < 0) {
      return Status::InvalidArgument("malformed cursor: bad consumed count");
    }
    cursor.consumed.push_back(static_cast<uint64_t>(*v));
  }
  if (cursor.consumed.empty()) {
    return Status::InvalidArgument("malformed cursor: no consumed counts");
  }
  return cursor;
}

// ---------------------------------------------------------------------------
// ShardStream: one shard's in-flight wire stream during a scatter.

struct ScatterExecutor::ShardStream {
  size_t index = 0;
  ShardClient* client = nullptr;

  std::unique_ptr<net::ChunkedBodyReader> body;
  std::string buf;        ///< undecoded tail of the body
  size_t pos = 0;         ///< parse position into buf
  bool body_done = false; ///< terminal chunk consumed

  Status error;           ///< fan-out failure (StartStream / HTTP error)
  bool started = false;   ///< a stream is open on the shard connection
  bool ended = false;     ///< parsed to the end of the wire stream
  bool dropped = false;   ///< removed from the request (allow_partial)

  query::ResultHeader header;
  bool have_header = false;
  query::ResultRow row;   ///< the shard's current (unconsumed) row
  bool have_row = false;

  uint64_t cells_scanned = 0;
  bool have_trailer = false;
  std::string shard_cursor;  ///< shard's own resume token (unused; sanity)

  bool have_status = false;  ///< the closing S line arrived
  StatusCode code = StatusCode::kOk;
  std::string message;
  bool cache_hit = false;

  /// Next '\n'-terminated line of the stream body. `*have` false at a
  /// clean end of stream; a body ending mid-line is a transport error.
  Status NextLine(std::string* line, bool* have);

  /// Pulls wire events until the next row (`stop_at_row`) or the end of
  /// the stream, recording H/T/S along the way. At the end, a missing S
  /// line is a transport failure and a non-OK S is the shard's own
  /// execution error.
  Status Advance(bool stop_at_row);
};

Status ScatterExecutor::ShardStream::NextLine(std::string* line, bool* have) {
  ShardStream& s = *this;
  *have = false;
  for (;;) {
    size_t nl = s.buf.find('\n', s.pos);
    if (nl != std::string::npos) {
      line->assign(s.buf, s.pos, nl - s.pos);
      s.pos = nl + 1;
      *have = true;
      return Status::OK();
    }
    if (s.body_done) {
      if (s.pos < s.buf.size()) {
        return Status::IoError("shard stream ended mid-line");
      }
      return Status::OK();
    }
    if (s.pos > 0) {
      s.buf.erase(0, s.pos);
      s.pos = 0;
    }
    auto more = s.body->ReadSome(&s.buf);
    if (!more.ok()) return more.status();
    if (!*more) s.body_done = true;
  }
}

Status ScatterExecutor::ShardStream::Advance(bool stop_at_row) {
  ShardStream& s = *this;
  while (!s.ended) {
    std::string line;
    bool have = false;
    Status read = NextLine(&line, &have);
    if (!read.ok()) return read;
    if (!have) {
      s.ended = true;
      if (!s.have_status) {
        return Status::IoError("shard stream ended without a status line");
      }
      if (s.code != StatusCode::kOk) return Status(s.code, s.message);
      return Status::OK();
    }
    auto event = query::ParseWireLine(line);
    if (!event.ok()) return event.status();
    switch (event->kind) {
      case query::WireEvent::Kind::kHeader:
        s.header = std::move(event->header);
        s.have_header = true;
        break;
      case query::WireEvent::Kind::kRow:
        if (stop_at_row) {
          s.row = std::move(event->row);
          s.have_row = true;
          return Status::OK();
        }
        break;
      case query::WireEvent::Kind::kTrailer:
        s.cells_scanned = event->cells_scanned;
        s.shard_cursor = std::move(event->next_cursor);
        s.have_trailer = true;
        break;
      case query::WireEvent::Kind::kStatus:
        s.have_status = true;
        s.code = event->code;
        s.message = std::move(event->message);
        s.cache_hit = event->cache_hit;
        break;
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ScatterExecutor

ScatterExecutor::ScatterExecutor(std::vector<ShardSpec> shards,
                                 ScatterOptions options)
    : options_(std::move(options)) {
  clients_.reserve(shards.size());
  rtt_.reserve(shards.size());
  for (ShardSpec& spec : shards) {
    clients_.push_back(
        std::make_unique<ShardClient>(std::move(spec), options_.client));
    rtt_.push_back(std::make_unique<trace::LatencyHistogram>());
  }
  // One worker per shard: the fan-out opens every shard stream
  // concurrently (ParallelFor adds the calling thread as a participant).
  pool_ = std::make_unique<ThreadPool>(std::max<size_t>(1, clients_.size()));
}

ScatterExecutor::~ScatterExecutor() = default;

query::StreamOutcome ScatterExecutor::ExecuteStreaming(
    const std::string& text, query::RowSink& sink,
    const query::QueryContext& ctx, const std::string& cursor) {
  sync::MutexLock lock(&request_mu_);
  return ScatterLocked(text, sink, ctx, cursor);
}

std::vector<query::QueryResponse> ScatterExecutor::ExecuteBatch(
    const std::vector<std::string>& texts, const query::QueryContext& ctx) {
  sync::MutexLock lock(&request_mu_);
  std::vector<query::QueryResponse> responses;
  responses.reserve(texts.size());
  for (const std::string& text : texts) {
    query::VectorSink sink;
    query::StreamOutcome outcome = ScatterLocked(text, sink, ctx, "");
    query::QueryResponse resp;
    resp.text = outcome.text;
    resp.canonical = outcome.canonical;
    resp.cube = outcome.cube;
    resp.verb = outcome.verb;
    resp.cube_version = outcome.cube_version;
    resp.status = std::move(outcome.status);
    resp.cache_hit = outcome.cache_hit;
    resp.exec_ms = outcome.exec_ms;
    if (resp.status.ok()) {
      resp.result = sink.TakeResult();
      auto parsed = query::Parse(text);
      if (parsed.ok()) resp.query_hash = query::CursorQueryHash(*parsed);
    }
    responses.push_back(std::move(resp));
  }
  return responses;
}

query::ServiceStats ScatterExecutor::stats() const {
  query::ServiceStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.deadline_expired = deadline_expired_.load(std::memory_order_relaxed);
  s.rejected = 0;  // admission control lives on the shards
  return s;
}

std::vector<query::CubeInfo> ScatterExecutor::ListCubes() const {
  sync::MutexLock lock(&request_mu_);
  const size_t n = clients_.size();
  std::vector<std::vector<query::CubeInfo>> per(n);
  std::vector<char> responded(n, 0);
  pool_->ParallelFor(n, [&](size_t i) {
    auto resp = clients_[i]->RoundTrip("GET", "/cubes");
    if (!resp.ok() || resp->status != 200) return;
    auto cubes = ParseCubesJson(resp->body);
    if (!cubes.ok()) return;
    per[i] = std::move(cubes).value();
    responded[i] = 1;
  });

  size_t base = n;
  for (size_t i = 0; i < n; ++i) {
    if (responded[i]) {
      base = i;
      break;
    }
  }
  std::vector<query::CubeInfo> out;
  if (base == n) return out;

  for (const query::CubeInfo& info : per[base]) {
    query::CubeInfo merged;
    merged.name = info.name;
    merged.version = info.version;
    std::vector<uint64_t> retained = info.retained;
    std::sort(retained.begin(), retained.end());
    bool agree = true;
    for (size_t j = 0; j < n && agree; ++j) {
      if (!responded[j]) continue;
      const query::CubeInfo* found = nullptr;
      for (const query::CubeInfo& c : per[j]) {
        if (c.name == info.name) {
          found = &c;
          break;
        }
      }
      if (found == nullptr || found->version != info.version) {
        agree = false;
        break;
      }
      std::vector<uint64_t> theirs = found->retained;
      std::sort(theirs.begin(), theirs.end());
      std::vector<uint64_t> common;
      std::set_intersection(retained.begin(), retained.end(), theirs.begin(),
                            theirs.end(), std::back_inserter(common));
      retained = std::move(common);
      merged.cells += found->cells;
      merged.defined_cells += found->defined_cells;
    }
    if (!agree) continue;
    merged.retained = std::move(retained);
    out.push_back(std::move(merged));
  }
  return out;
}

query::StreamOutcome ScatterExecutor::ScatterLocked(
    const std::string& text, query::RowSink& sink,
    const query::QueryContext& ctx, const std::string& cursor) {
  query::StreamOutcome outcome;
  outcome.text = text;
  accepted_.fetch_add(1, std::memory_order_relaxed);

  auto finish = [this, &outcome](Status status) -> query::StreamOutcome& {
    outcome.status = std::move(status);
    if (outcome.status.code() == StatusCode::kDeadlineExceeded) {
      deadline_expired_.fetch_add(1, std::memory_order_relaxed);
    }
    completed_.fetch_add(1, std::memory_order_relaxed);
    return outcome;
  };

  if (clients_.empty()) {
    return finish(Status::Internal("scatter executor has no shards"));
  }

  query::QueryContext context = ctx;
  if (!context.deadline && options_.default_deadline_ms > 0) {
    context.deadline =
        query::QueryContext::Clock::now() +
        std::chrono::duration_cast<query::QueryContext::Clock::duration>(
            std::chrono::duration<double, std::milli>(
                options_.default_deadline_ms));
  }

  auto parsed = query::Parse(text);
  if (!parsed.ok()) return finish(parsed.status());
  query::Query q = std::move(parsed).value();
  outcome.canonical = query::Canonical(q);
  outcome.cube = q.cube.empty() ? options_.default_cube : q.cube;
  outcome.verb = query::VerbToString(q.verb);
  const uint64_t query_hash = query::CursorQueryHash(q);
  const size_t n = clients_.size();

  // Degrading to a shard subset only ever applies to analytic verbs: an
  // incomplete TOPK/SURPRISES/REVERSALS answer is still a meaningful
  // ranking, an incomplete SLICE is silently wrong data.
  const bool partial_ok =
      context.allow_partial && (q.verb == query::Verb::kTopK ||
                                q.verb == query::Verb::kSurprises ||
                                q.verb == query::Verb::kReversals);

  // TOPK with an explicit ORDER BY is the one verb shape where the
  // selection order (ranked index, count-capped at k) differs from the
  // emission order (the ORDER BY key). Merging shard streams in emission
  // order and stopping at k would pick the k best *by the ORDER BY key*
  // from the union of shard-local top-ks — the wrong set. Instead the
  // router asks shards for their natural ranked streams, merges the
  // global top-k exactly as for plain TOPK, then re-sorts with the
  // executor's own SortRows (stable: ties keep ranked order, matching
  // the single node's stable_sort) and pages the sorted rows locally.
  const bool ranked_reorder =
      q.verb == query::Verb::kTopK && q.order.has_value();

  WallTimer timer;

  std::vector<ShardStream> streams(n);
  for (size_t i = 0; i < n; ++i) {
    streams[i].index = i;
    streams[i].client = clients_[i].get();
  }

  bool used_partial = false;
  auto live_count = [&streams]() {
    size_t count = 0;
    for (const ShardStream& s : streams) {
      if (!s.dropped) ++count;
    }
    return count;
  };
  auto shard_error = [this](size_t i, const Status& s) {
    return Status(s.code(), "shard " + std::to_string(i) + " (" +
                                clients_[i]->spec().Label() +
                                "): " + s.message());
  };
  // Drops shard i from the request when the partial policy allows it
  // (analytic verb, opted in, at least one other shard still live).
  auto try_drop = [&](size_t i) {
    if (!partial_ok || live_count() <= 1) return false;
    ShardStream& s = streams[i];
    if (s.started && !s.ended) s.client->FinishStream(false);
    s.dropped = true;
    used_partial = true;
    return true;
  };
  auto abort_started = [&streams]() {
    for (ShardStream& s : streams) {
      if (!s.dropped && s.started && !s.ended) s.client->FinishStream(false);
    }
  };
  auto sum_scanned = [&streams]() {
    uint64_t total = 0;
    for (const ShardStream& s : streams) {
      if (!s.dropped && s.have_trailer) total += s.cells_scanned;
    }
    return total;
  };

  // --- pin the version up front only where the request names it (a
  // cursor or FROM name@v). Otherwise every shard answers from its latest
  // version and reports it in the H line; priming checks that they agree.
  std::optional<uint64_t> pin = q.cube_version;
  std::vector<uint64_t> consumed(n, 0);
  uint64_t router_skip = q.offset.value_or(0);

  if (!cursor.empty()) {
    auto decoded = DecodeScatterCursor(cursor);
    if (!decoded.ok()) return finish(decoded.status());
    if (decoded->cube != outcome.cube) {
      return finish(Status::InvalidArgument(
          "cursor belongs to cube '" + decoded->cube +
          "', but the query addresses '" + outcome.cube + "'"));
    }
    if (decoded->query_hash != query_hash) {
      return finish(Status::InvalidArgument(
          "cursor was issued for a different query; resend the original "
          "statement (the page size may change, the rest may not)"));
    }
    if (decoded->consumed.size() != n) {
      return finish(Status::InvalidArgument(
          "cursor was issued for a " +
          std::to_string(decoded->consumed.size()) +
          "-shard topology, but this router has " + std::to_string(n) +
          " shards; restart the scan"));
    }
    if (q.cube_version && *q.cube_version != decoded->version) {
      return finish(Status::InvalidArgument(
          "cursor pins version " + std::to_string(decoded->version) +
          ", but the query pins @" + std::to_string(*q.cube_version)));
    }
    pin = decoded->version;
    consumed = std::move(decoded->consumed);
    // The original OFFSET was consumed while producing the first page (it
    // is part of the consumed counts); resumption never re-skips.
    router_skip = 0;
  } else if (context.Expired()) {
    return finish(Status::DeadlineExceeded("deadline expired before fan-out"));
  }
  outcome.cube_version = pin.value_or(0);

  // ranked_reorder pagination is positional in the *sorted* stream: the
  // global selection must be recomputed every page, so per-shard resume
  // offsets are meaningless. The cursor's consumed[] instead carries the
  // post-sort resume position (its sum; encoded in slot 0) — unambiguous
  // because the query hash pins the statement shape.
  uint64_t sort_start = 0;
  if (ranked_reorder) {
    for (uint64_t c : consumed) sort_start += c;
    consumed.assign(n, 0);
    sort_start += router_skip;  // a fresh request's OFFSET
    router_skip = 0;
  }

  // --- per-shard statements. Each shard is asked for the page-relevant
  // slice of ITS OWN stream: resume at consumed[i], deliver at most
  // skip + page + 1 rows (the +1 row proves non-exhaustion without a
  // second round trip). TOPK additionally caps global pops at k below.
  std::optional<uint64_t> pops_cap;
  if (q.verb == query::Verb::kTopK) {
    uint64_t used = 0;
    for (uint64_t c : consumed) used += c;
    pops_cap = q.k > used ? q.k - used : 0;
  }

  std::string target = "/query?stream=1&format=wire";
  if (context.has_deadline()) {
    double remaining = context.RemainingMillis();
    if (remaining < 1.0) remaining = 1.0;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", remaining);
    target += "&deadline_ms=";
    target += buf;
  }

  std::vector<std::string> bodies(n);
  for (size_t i = 0; i < n; ++i) {
    query::Query shard_q = q;
    shard_q.cube = outcome.cube;
    shard_q.cube_version = pin;
    if (consumed[i] > 0) {
      shard_q.offset = consumed[i];
    } else {
      shard_q.offset.reset();
    }
    if (q.limit && !ranked_reorder) {
      shard_q.limit = router_skip + *q.limit + 1;
    } else {
      shard_q.limit.reset();
    }
    if (ranked_reorder) {
      // Natural ranked streams: the shard's local top-k in selection
      // order, bounded by k rows — the router sorts and pages.
      shard_q.order.reset();
    }
    bodies[i] = query::Canonical(shard_q);
  }

  // --- fan out: open every shard stream concurrently.
  {
    trace::Span fanout(context.trace, "scatter.fanout");
    pool_->ParallelFor(n, [&](size_t i) {
      ShardStream& s = streams[i];
      auto t0 = trace::TraceContext::Clock::now();
      auto head =
          s.client->StartStream("POST", target, bodies[i], "text/plain");
      auto t1 = trace::TraceContext::Clock::now();
      rtt_[i]->Observe(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
      if (context.trace != nullptr) {
        context.trace->Record(ShardRttName(i), t0, t1);
      }
      if (!head.ok()) {
        s.error = head.status();
        return;
      }
      if (head->status != 200) {
        // The shard rejected the statement before streaming (parse error,
        // missing version, shed). Recover its error message and leave the
        // connection clean.
        std::string body;
        Status read = ReadErrorResponseBody(s.client->reader(), *head, &body);
        s.client->FinishStream(read.ok());
        s.error = Status(CodeForHttpStatus(head->status),
                         read.ok() ? ParseErrorBody(body)
                                   : "HTTP " + std::to_string(head->status));
        return;
      }
      if (!head->chunked) {
        s.client->FinishStream(false);
        s.error = Status::IoError("streamed response is not chunked");
        return;
      }
      s.started = true;
      s.body = std::make_unique<net::ChunkedBodyReader>(s.client->reader());
    });
  }
  // Fan-out failures. Without a pin, a shard that lacks the cube answers
  // CubeNotPublished: the cube is then missing everywhere (NotFound) or
  // on that shard only (Unavailable, naming the shard).
  const Status not_published = query::CubeNotPublished(outcome.cube);
  std::vector<size_t> missing;
  for (size_t i = 0; i < n; ++i) {
    ShardStream& s = streams[i];
    if (s.dropped || s.started) continue;
    if (!pin && s.error == not_published) {
      missing.push_back(i);
      continue;
    }
    Status err = shard_error(i, s.error);
    if (!try_drop(i)) {
      abort_started();
      return finish(std::move(err));
    }
  }
  if (!missing.empty() && missing.size() == live_count()) {
    return finish(not_published);
  }
  for (size_t i : missing) {
    Status err = shard_error(
        i, Status::Unavailable("cube '" + outcome.cube +
                               "' not published on this shard"));
    if (!try_drop(i)) {
      abort_started();
      return finish(std::move(err));
    }
  }

  // --- prime: the H line and first row (or end) of every stream, before
  // Begin, so an early shard failure or a version disagreement can still
  // be answered as a plain HTTP error.
  for (size_t i = 0; i < n; ++i) {
    ShardStream& s = streams[i];
    if (s.dropped) continue;
    Status st = s.Advance(/*stop_at_row=*/true);
    if (st.ok() && !s.have_header) {
      // A 200-chunked wire stream always opens with H; without it the
      // shard's version is unknown.
      st = Status::Internal("wire stream without a result header");
    }
    if (!st.ok()) {
      Status err = shard_error(i, st);
      if (!try_drop(i)) {
        abort_started();
        return finish(std::move(err));
      }
    }
  }

  // Version agreement: a rolling publish that has reached only some
  // shards must not produce a Frankenstein answer. At least one stream is
  // live here: try_drop never drops the last one.
  const ShardStream* first = nullptr;
  for (const ShardStream& s : streams) {
    if (s.dropped) continue;
    if (first == nullptr) {
      first = &s;
    } else if (s.header.cube_version != first->header.cube_version) {
      abort_started();
      return finish(Status::Unavailable(
          "cube '" + outcome.cube + "' is at version " +
          std::to_string(first->header.cube_version) + " on shard " +
          std::to_string(first->index) + " (" +
          clients_[first->index]->spec().Label() + ") but version " +
          std::to_string(s.header.cube_version) + " on shard " +
          std::to_string(s.index) + " (" + clients_[s.index]->spec().Label() +
          "); retry once the rolling publish settles"));
    }
  }
  const query::ResultHeader& header = first->header;
  const uint64_t version = header.cube_version;
  outcome.cube_version = version;

  outcome.begun = true;
  if (!sink.Begin(header)) {
    // Mirror the single-node path: an aborted stream is still closed with
    // a trailer, reports OK, and never carries a resume cursor.
    abort_started();
    query::ResultTrailer trailer;
    trailer.cells_scanned = sum_scanned();
    sink.Finish(trailer);
    outcome.cells_scanned = trailer.cells_scanned;
    outcome.exec_ms = timer.Millis();
    return finish(Status::OK());
  }

  // --- the merge: pop the globally-smallest key until the page fills,
  // the global TOPK budget is spent, or every stream runs dry.
  KWayMerger merger;
  for (const ShardStream& s : streams) {
    if (!s.dropped && s.have_row) merger.Push(s.index, s.row.skey);
  }

  uint64_t pops = 0;
  uint64_t emitted = 0;
  bool more = false;
  bool aborted = false;
  bool cap_break = false;
  Status merge_error;
  std::vector<query::ResultRow> ranked_rows;  // ranked_reorder selection
  query::DeadlineTicker ticker(context, 64);
  {
    trace::Span merge_span(context.trace, "scatter.merge");
    while (!merger.empty()) {
      if (pops_cap && pops >= *pops_cap) {
        // The global top-k is complete even though shards (each asked for
        // their own top k) still hold rows.
        cap_break = true;
        break;
      }
      if (ticker.Tick()) {
        merge_error =
            Status::DeadlineExceeded("deadline expired during scatter merge");
        break;
      }
      size_t si = merger.Pop();
      ShardStream& s = streams[si];
      if (!ranked_reorder && q.limit && router_skip == 0 &&
          emitted >= *q.limit) {
        // Offered a row beyond the page: the stream is provably not
        // exhausted. The row stays unconsumed (not counted in consumed[]),
        // exactly like the single-node Pager.
        more = true;
        break;
      }
      query::ResultRow row = std::move(s.row);
      s.have_row = false;
      ++consumed[si];
      ++pops;
      if (ranked_reorder) {
        // Selection only: the page is cut after the re-sort below.
        ranked_rows.push_back(std::move(row));
      } else if (router_skip > 0) {
        --router_skip;
      } else if (!sink.Row(std::move(row))) {
        aborted = true;
        break;
      } else {
        ++emitted;
      }
      Status advanced = s.Advance(/*stop_at_row=*/true);
      if (!advanced.ok()) {
        Status err = shard_error(si, advanced);
        if (!try_drop(si)) {
          merge_error = std::move(err);
          break;
        }
        continue;
      }
      if (s.have_row) merger.Push(si, s.row.skey);
    }
  }

  if (ranked_reorder && merge_error.ok() && !aborted) {
    // The merged pops are the global top-k in ranked order — exactly the
    // single node's pre-sort sequence. SortRows is stable, so ties keep
    // that order, and the sorted stream is byte-identical.
    query::SortRows(*q.order, &ranked_rows);
    size_t at = sort_start < ranked_rows.size()
                    ? static_cast<size_t>(sort_start)
                    : ranked_rows.size();
    while (at < ranked_rows.size()) {
      if (q.limit && emitted >= *q.limit) {
        more = true;
        break;
      }
      if (ticker.Tick()) {
        merge_error =
            Status::DeadlineExceeded("deadline expired during scatter merge");
        break;
      }
      if (!sink.Row(std::move(ranked_rows[at]))) {
        aborted = true;
        break;
      }
      ++emitted;
      ++at;
    }
  }

  if (!merge_error.ok()) {
    // Post-Begin failure: rows are already on the wire, so close the
    // stream properly (no cursor — a broken merge has no resume point)
    // and surface the error status for the envelope/trailing diagnostics.
    abort_started();
    query::ResultTrailer trailer;
    trailer.cells_scanned = sum_scanned();
    sink.Finish(trailer);
    outcome.rows = emitted;
    outcome.cells_scanned = trailer.cells_scanned;
    outcome.exec_ms = timer.Millis();
    return finish(std::move(merge_error));
  }

  if (aborted) {
    // Client gone: leftover shard bodies may be unbounded, tear down.
    abort_started();
  } else {
    // Page filled / budget spent: the leftovers are bounded by the LIMIT
    // pushdown, so drain them — the connections stay reusable and the
    // shard trailers (scan accounting, cache bits) become available.
    for (ShardStream& s : streams) {
      if (s.dropped || !s.started || s.ended) continue;
      s.have_row = false;
      Status drained = s.Advance(/*stop_at_row=*/false);
      if (!drained.ok()) s.client->FinishStream(false);
    }
  }

  bool exhausted;
  if (aborted || more) {
    exhausted = false;
  } else if (cap_break) {
    exhausted = true;
  } else {
    // Merger drained. With the +1-row shard limit this implies every
    // shard's stream truly ended, but trust the shards' own cursors over
    // the inference.
    exhausted = true;
    for (const ShardStream& s : streams) {
      if (!s.dropped && !s.shard_cursor.empty()) exhausted = false;
    }
  }

  query::ResultTrailer trailer;
  trailer.cells_scanned = sum_scanned();
  // A partial answer gets no cursor: resuming it could reach the failed
  // shard again and stitch rows the first page never saw.
  if (!aborted && !exhausted && !used_partial) {
    std::vector<uint64_t> resume = consumed;
    if (ranked_reorder) {
      // Positional resume in the sorted stream (see sort_start above).
      resume.assign(n, 0);
      resume[0] = sort_start + emitted;
    }
    trailer.next_cursor = EncodeScatterCursor(
        ScatterCursor{outcome.cube, version, query_hash, std::move(resume)});
  }
  outcome.next_cursor = trailer.next_cursor;
  sink.Finish(trailer);

  bool cache_hit = true;
  for (const ShardStream& s : streams) {
    if (s.dropped) continue;
    if (!s.have_status || !s.cache_hit) cache_hit = false;
  }
  outcome.cache_hit = cache_hit;
  outcome.rows = emitted;
  outcome.cells_scanned = trailer.cells_scanned;
  outcome.exec_ms = timer.Millis();
  if (used_partial) partial_.fetch_add(1, std::memory_order_relaxed);
  return finish(Status::OK());
}

// ---------------------------------------------------------------------------
// Metrics

void ScatterExecutor::AppendBackendMetrics(std::string* out) const {
  const size_t n = clients_.size();
  auto shard_label = [this](size_t i) {
    return "shard=\"" + std::to_string(i) + "\",backend=\"" +
           clients_[i]->spec().Label() + "\"";
  };

  trace::MetricFamily(out, "scubed_shard_requests_total", "counter",
                      "Round trips the scatter router attempted per shard.");
  for (size_t i = 0; i < n; ++i) {
    *out += "scubed_shard_requests_total{" + shard_label(i) + "} " +
            std::to_string(clients_[i]->health().requests) + "\n";
  }
  trace::MetricFamily(out, "scubed_shard_failures_total", "counter",
                      "Round trips that exhausted every replica of a shard.");
  for (size_t i = 0; i < n; ++i) {
    *out += "scubed_shard_failures_total{" + shard_label(i) + "} " +
            std::to_string(clients_[i]->health().failures) + "\n";
  }
  trace::MetricFamily(out, "scubed_scatter_partial_total", "counter",
                      "Requests answered from a shard subset (allow_partial).");
  *out += "scubed_scatter_partial_total " +
          std::to_string(partial_.load(std::memory_order_relaxed)) + "\n";

  trace::MetricFamily(out, "scubed_shard_rtt_seconds", "histogram",
                      "Shard stream head latency (request out to head in).");
  for (size_t i = 0; i < n; ++i) {
    trace::MetricHistogram(out, "scubed_shard_rtt_seconds", shard_label(i),
                           *rtt_[i]);
  }
}

}  // namespace cluster
}  // namespace scube
