#include "query/service.h"

#include <algorithm>
#include <map>
#include <memory>

#include "common/logging.h"
#include "common/timer.h"
#include "common/trace.h"
#include "query/executor.h"
#include "query/parser.h"

namespace scube {
namespace query {

namespace {

/// Stamps resume tokens onto answers whose row stream has more pages:
/// the token pins the exact snapshot (name@version) plus the absolute
/// resume position, so the next page continues the same deterministic
/// stream. Deterministic, so cached and freshly executed answers carry
/// identical tokens.
void StampCursor(QueryResponse* resp) {
  if (!resp->status.ok() || resp->result.exhausted) return;
  resp->result.next_cursor =
      EncodeCursor(Cursor{resp->cube, resp->cube_version,
                          resp->result.next_offset, resp->query_hash});
}

/// A cached answer stamped with merge keys serves any request; a keyless
/// one cannot answer a merge-keys request (the shard wire path) — that
/// request must re-execute so its rows carry keys, and the re-execution's
/// Put upgrades the entry.
bool UsableFromCache(const QueryResult& result, const QueryContext& ctx) {
  return !ctx.merge_keys || result.rows.empty() ||
         !result.rows.front().skey.empty();
}

/// Forwards a stream to `out` while materialising a copy for the result
/// cache — up to `max_rows` rows, beyond which the copy is dropped and the
/// stream stays O(1): giant answers flow through uncached.
class CachingTee : public RowSink {
 public:
  CachingTee(RowSink& out, size_t max_rows)
      : out_(out), max_rows_(max_rows) {}

  bool Begin(const ResultHeader& header) override {
    vec_.Begin(header);
    return out_.Begin(header);
  }

  bool Row(const ResultRow& row) override {
    CollectForCache(row);
    return out_.Row(row);
  }

  bool Row(ResultRow&& row) override {
    CollectForCache(row);  // the cache copy; the original moves onward
    return out_.Row(std::move(row));
  }

  void Finish(const ResultTrailer& trailer) override {
    vec_.Finish(trailer);
    out_.Finish(trailer);
  }

  bool cacheable() const { return cacheable_; }
  VectorSink& collected() { return vec_; }

 private:
  void CollectForCache(const ResultRow& row) {
    if (!cacheable_) return;
    if (vec_.result().rows.size() >= max_rows_) {
      cacheable_ = false;
      vec_ = VectorSink();  // free what was collected
    } else {
      vec_.Row(row);
    }
  }

  RowSink& out_;
  size_t max_rows_;
  VectorSink vec_;
  bool cacheable_ = true;
};

}  // namespace

QueryService::QueryService(CubeStore* store, ServiceOptions options)
    : store_(store),
      options_(std::move(options)),
      cache_(options_.cache_capacity) {
  options_.num_workers = std::max<size_t>(1, options_.num_workers);
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryService::~QueryService() { Shutdown(); }

void QueryService::Shutdown() {
  {
    sync::MutexLock lock(&queue_mu_);
    stopping_ = true;
  }
  queue_cv_.SignalAll();
  // Workers drain the queue before exiting, so every admitted batch's
  // chunks still execute and their ExecuteBatch callers return normally.
  // join_mu_ serialises concurrent Shutdown() callers: every caller
  // (including the destructor) blocks until the join has finished, so
  // no caller can start tearing the service down while another is still
  // joining.
  sync::MutexLock join_lock(&join_mu_);
  if (joined_) return;
  for (std::thread& worker : workers_) worker.join();
  joined_ = true;
}

void QueryService::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      sync::MutexLock lock(&queue_mu_);
      while (!stopping_ && queue_.empty()) queue_cv_.Wait(&queue_mu_);
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

ServiceStats QueryService::stats() const {
  ServiceStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.deadline_expired = deadline_expired_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  return s;
}

size_t QueryService::queue_depth() const {
  sync::MutexLock lock(&queue_mu_);
  return queue_.size();
}

Status QueryService::AdmitOrShed(bool stream) {
  sync::MutexLock lock(&queue_mu_);
  if (stopping_) return Status::Unavailable("service is shutting down");
  const size_t backlog =
      queue_.size() + streams_in_flight_.load(std::memory_order_relaxed);
  if (backlog >= options_.max_pending) {
    return Status::Unavailable(
        "admission queue full (" + std::to_string(backlog) +
        " pending >= " + std::to_string(options_.max_pending) +
        "); retry later");
  }
  if (stream) streams_in_flight_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

QueryContext QueryService::WithDefaultDeadline(const QueryContext& ctx) const {
  if (ctx.has_deadline() || options_.default_deadline_ms <= 0) return ctx;
  // Copy, don't rebuild: the context carries more than the deadline now
  // (the trace pointer), and all of it must survive defaulting.
  QueryContext with_deadline = ctx;
  with_deadline.deadline =
      QueryContext::WithTimeout(options_.default_deadline_ms).deadline;
  return with_deadline;
}

QueryResponse QueryService::ExecuteOne(const std::string& text,
                                       const QueryContext& ctx) {
  return std::move(ExecuteBatch({text}, ctx)[0]);
}

std::vector<QueryResponse> QueryService::ExecuteBatch(
    const std::vector<std::string>& texts, const QueryContext& ctx) {
  std::vector<QueryResponse> responses(texts.size());

  // --- admission control --------------------------------------------------
  // Shedding must be cheap: check the backlog before any parse or cache
  // work, and reject the whole batch when the queue is at its bound. The
  // front-end maps Unavailable to HTTP 503 + Retry-After.
  trace::Span admit_span(ctx.trace, "admit");
  Status admitted = AdmitOrShed(/*stream=*/false);
  admit_span.End();
  if (!admitted.ok()) {
    for (size_t i = 0; i < texts.size(); ++i) {
      responses[i].text = texts[i];
      responses[i].status = admitted;
    }
    rejected_.fetch_add(texts.size(), std::memory_order_relaxed);
    return responses;
  }
  accepted_.fetch_add(texts.size(), std::memory_order_relaxed);

  QueryContext context = WithDefaultDeadline(ctx);

  // --- parse, resolve cube, consult the cache -----------------------------
  // A miss is one distinct (canonical) query awaiting execution, plus every
  // response slot it answers: duplicates inside a batch execute once.
  struct Miss {
    std::vector<size_t> indices;
    Query query;
  };
  // Misses grouped by cube snapshot identity (name + version).
  struct Group {
    CubeStore::Snapshot snapshot;
    std::vector<Miss> misses;
    std::unordered_map<std::string, size_t> by_canonical;  // -> misses index
  };
  std::map<std::string, Group> groups;  // key: name \x1F version

  trace::Span prepare_span(context.trace, "prepare");
  for (size_t i = 0; i < texts.size(); ++i) {
    QueryResponse& resp = responses[i];
    resp.text = texts[i];

    WallTimer parse_timer;
    auto parsed = Parse(texts[i]);
    resp.parse_ms = parse_timer.Millis();
    if (!parsed.ok()) {
      resp.status = parsed.status();
      continue;
    }
    Query query = std::move(parsed).value();
    resp.canonical = Canonical(query);
    resp.cube = query.cube.empty() ? options_.default_cube : query.cube;
    resp.verb = VerbToString(query.verb);
    resp.query_hash = CursorQueryHash(query);

    uint64_t version = 0;
    CubeStore::Snapshot snapshot;
    if (query.cube_version) {
      // FROM name@version pin: the store keeps the last K sealed versions.
      version = *query.cube_version;
      snapshot = store_->GetVersion(resp.cube, version);
      if (snapshot == nullptr) {
        resp.status = Status::NotFound(
            "no version " + std::to_string(version) + " of cube '" +
            resp.cube + "' (evicted or never published)");
        continue;
      }
    } else {
      snapshot = store_->Get(resp.cube, &version);
      if (snapshot == nullptr) {
        resp.status = CubeNotPublished(resp.cube);
        continue;
      }
    }
    resp.cube_version = version;
    query.cube_version = version;  // the answer's header names its snapshot

    if (auto cached =
            cache_.Get(resp.cube, resp.cube_version, resp.canonical);
        cached && UsableFromCache(*cached, context)) {
      resp.result = std::move(*cached);
      resp.cache_hit = true;
      continue;
    }

    std::string key = resp.cube + '\x1F' + std::to_string(resp.cube_version);
    Group& group = groups[key];
    group.snapshot = std::move(snapshot);
    auto [it, inserted] =
        group.by_canonical.emplace(resp.canonical, group.misses.size());
    if (inserted) {
      group.misses.push_back(Miss{{i}, std::move(query)});
    } else {
      group.misses[it->second].indices.push_back(i);
    }
  }
  prepare_span.End();

  if (groups.empty()) {
    completed_.fetch_add(texts.size(), std::memory_order_relaxed);
    for (QueryResponse& resp : responses) StampCursor(&resp);
    return responses;
  }

  // --- fan the misses out to the worker pool ------------------------------
  // Each chunk shares one cube scan; chunks across (and within) groups run
  // concurrently. With G groups and W workers, each group gets ~W/G chunks.
  struct Chunk {
    const Group* group;
    std::vector<Miss> misses;
    std::vector<QueryResponse>* responses;
    ResultCache* cache;
    std::string cube_name;
    uint64_t cube_version;
    QueryContext ctx;
    /// When the chunk entered the worker queue; the gap to execution start
    /// is recorded retroactively as the "queue_wait" span.
    QueryContext::Clock::time_point enqueued;
  };
  std::vector<std::unique_ptr<Chunk>> chunks;
  size_t chunks_per_group =
      std::max<size_t>(1, options_.num_workers / groups.size());
  for (auto& [key, group] : groups) {
    size_t n = group.misses.size();
    size_t num_chunks = std::min(n, chunks_per_group);
    size_t base = n / num_chunks, extra = n % num_chunks;
    size_t next = 0;
    for (size_t c = 0; c < num_chunks; ++c) {
      size_t take = base + (c < extra ? 1 : 0);
      auto chunk = std::make_unique<Chunk>();
      chunk->group = &group;
      chunk->responses = &responses;
      chunk->cache = &cache_;
      const Miss& first = group.misses[next];
      chunk->cube_name = responses[first.indices[0]].cube;
      chunk->cube_version = responses[first.indices[0]].cube_version;
      chunk->ctx = context;
      chunk->misses.assign(
          std::make_move_iterator(group.misses.begin() + next),
          std::make_move_iterator(group.misses.begin() + next + take));
      next += take;
      chunks.push_back(std::move(chunk));
    }
  }

  sync::Mutex done_mu;
  sync::CondVar done_cv;
  size_t remaining = chunks.size();  // guarded by done_mu (local: the
                                     // analysis cannot annotate locals)

  auto run_chunk = [this, &done_mu, &done_cv, &remaining](Chunk* chunk) {
    if (chunk->ctx.trace != nullptr) {
      // Queue wait spans two threads (enqueue on the batch thread, start
      // here), so it is recorded retroactively rather than via RAII.
      chunk->ctx.trace->Record("queue_wait", chunk->enqueued,
                               QueryContext::Clock::now());
    }
    trace::Span execute_span(chunk->ctx.trace, "execute");
    // A chunk whose deadline passed while it sat in the queue answers
    // DeadlineExceeded outright — no executor construction, no scan: the
    // worker moves straight on to still-live work.
    if (chunk->ctx.Expired()) {
      for (const Miss& miss : chunk->misses) {
        for (size_t slot : miss.indices) {
          (*chunk->responses)[slot].status = Status::DeadlineExceeded(
              "query deadline expired while queued");
        }
      }
    } else {
      WallTimer timer;
      // The per-snapshot executor is built once at publish; falling back
      // to a one-off build only happens if the version was evicted after
      // prepare (the chunk's snapshot keeps the view itself alive).
      std::shared_ptr<const Executor> executor =
          store_->GetExecutor(chunk->cube_name, chunk->cube_version);
      if (executor == nullptr) {
        executor = std::make_shared<const Executor>(*chunk->group->snapshot);
      }
      std::vector<Query> queries;
      queries.reserve(chunk->misses.size());
      for (const Miss& miss : chunk->misses) queries.push_back(miss.query);
      auto results = executor->ExecuteBatch(queries, chunk->ctx);
      double elapsed = timer.Millis();

      for (size_t i = 0; i < chunk->misses.size(); ++i) {
        bool cached = false;
        for (size_t slot : chunk->misses[i].indices) {
          QueryResponse& resp = (*chunk->responses)[slot];
          resp.exec_ms = elapsed;
          resp.shared_batch = static_cast<uint32_t>(chunk->misses.size());
          if (!results[i].ok()) {
            resp.status = results[i].status();
            continue;
          }
          resp.result = results[i].value();
          if (!cached) {
            chunk->cache->Put(chunk->cube_name, chunk->cube_version,
                              resp.canonical, resp.result);
            cached = true;
          }
        }
      }
    }
    // The span must close BEFORE the notify below: once remaining hits 0
    // the batch thread returns and the caller may destroy the
    // TraceContext, so no touch of it may follow the notify.
    execute_span.End();
    {
      // Notify while holding the lock: the batch thread cannot observe
      // remaining == 0 (and destroy done_cv) before this worker is done
      // touching it.
      sync::MutexLock lock(&done_mu);
      --remaining;
      done_cv.Signal();
    }
  };

  // Enqueue every chunk in one critical section so no chunk can slip in
  // after Shutdown() flipped `stopping_` (workers drain, then exit; a
  // later enqueue would hang this batch forever).
  bool enqueued = false;
  {
    sync::MutexLock lock(&queue_mu_);
    if (!stopping_) {
      const auto now = QueryContext::Clock::now();
      for (auto& chunk_ptr : chunks) {
        Chunk* chunk = chunk_ptr.get();
        chunk->enqueued = now;
        queue_.push_back([chunk, &run_chunk] { run_chunk(chunk); });
      }
      enqueued = true;
    }
  }
  uint64_t shed_in_race = 0;
  if (enqueued) {
    queue_cv_.SignalAll();
    sync::MutexLock lock(&done_mu);
    while (remaining != 0) done_cv.Wait(&done_mu);
  } else {
    // Lost the race with Shutdown(): answer the misses as shed. They
    // move from accepted to rejected (and are not completed), keeping
    // the invariants accepted == completed + in-flight and
    // accepted + rejected == submitted.
    for (auto& chunk_ptr : chunks) {
      for (const Miss& miss : chunk_ptr->misses) {
        for (size_t slot : miss.indices) {
          responses[slot].status =
              Status::Unavailable("service is shutting down");
          ++shed_in_race;
        }
      }
    }
    rejected_.fetch_add(shed_in_race, std::memory_order_relaxed);
    accepted_.fetch_sub(shed_in_race, std::memory_order_relaxed);
  }

  uint64_t expired = 0;
  for (const QueryResponse& resp : responses) {
    if (resp.status.code() == StatusCode::kDeadlineExceeded) ++expired;
  }
  if (expired > 0) {
    deadline_expired_.fetch_add(expired, std::memory_order_relaxed);
  }
  completed_.fetch_add(texts.size() - shed_in_race,
                       std::memory_order_relaxed);
  for (QueryResponse& resp : responses) StampCursor(&resp);
  return responses;
}

QueryService::StreamOutcome QueryService::ExecuteStreaming(
    const std::string& text, RowSink& sink, const QueryContext& ctx,
    const std::string& cursor) {
  StreamOutcome outcome;
  outcome.text = text;

  // --- admission control: streams obey the same backlog bound as batches.
  // Streaming runs on the caller's thread, but each stream still holds a
  // cube snapshot and burns CPU, so it occupies an admission slot for its
  // whole lifetime (streams_in_flight_) and an overloaded service sheds
  // new work the same way (the front-end maps Unavailable to 503 +
  // Retry-After).
  trace::Span admit_span(ctx.trace, "admit");
  Status admitted = AdmitOrShed(/*stream=*/true);
  admit_span.End();
  if (!admitted.ok()) {
    outcome.status = std::move(admitted);
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return outcome;
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);

  QueryContext context = WithDefaultDeadline(ctx);

  // Every post-admission exit funnels through here: the admission slot is
  // released exactly once, when the stream is done.
  auto finish = [this, &outcome](Status status) -> StreamOutcome& {
    streams_in_flight_.fetch_sub(1, std::memory_order_relaxed);
    outcome.status = std::move(status);
    if (outcome.status.code() == StatusCode::kDeadlineExceeded) {
      deadline_expired_.fetch_add(1, std::memory_order_relaxed);
    }
    completed_.fetch_add(1, std::memory_order_relaxed);
    return outcome;
  };

  // --- parse and resolve the snapshot -------------------------------------
  trace::Span prepare_span(context.trace, "prepare");
  auto parsed = Parse(text);
  if (!parsed.ok()) return finish(parsed.status());
  Query query = std::move(parsed).value();
  outcome.canonical = Canonical(query);
  outcome.cube = query.cube.empty() ? options_.default_cube : query.cube;
  outcome.verb = VerbToString(query.verb);
  const uint64_t query_hash = CursorQueryHash(query);

  CubeStore::Snapshot snapshot;
  uint64_t version = 0;
  if (!cursor.empty()) {
    // Resume: the token pins the snapshot the previous page walked, so the
    // stitched stream is deterministic even across publishes.
    auto decoded = DecodeCursor(cursor);
    if (!decoded.ok()) return finish(decoded.status());
    if (decoded->cube != outcome.cube) {
      return finish(Status::InvalidArgument(
          "cursor belongs to cube '" + decoded->cube +
          "', but the query addresses '" + outcome.cube + "'"));
    }
    if (decoded->query_hash != query_hash) {
      // A cursor resumes the stream that issued it; offsetting into a
      // different statement's stream would silently return wrong rows.
      return finish(Status::InvalidArgument(
          "cursor was issued for a different query; resend the original "
          "statement (the page size may change, the rest may not)"));
    }
    if (query.cube_version && *query.cube_version != decoded->version) {
      return finish(Status::InvalidArgument(
          "cursor pins version " + std::to_string(decoded->version) +
          ", but the query pins @" + std::to_string(*query.cube_version)));
    }
    version = decoded->version;
    snapshot = store_->GetVersion(outcome.cube, version);
    if (snapshot == nullptr) {
      return finish(Status::NotFound(
          "cursor version " + std::to_string(version) + " of cube '" +
          outcome.cube + "' is gone (evicted); restart the scan"));
    }
    query.offset = decoded->position;
  } else if (query.cube_version) {
    version = *query.cube_version;
    snapshot = store_->GetVersion(outcome.cube, version);
    if (snapshot == nullptr) {
      return finish(Status::NotFound(
          "no version " + std::to_string(version) + " of cube '" +
          outcome.cube + "' (evicted or never published)"));
    }
  } else {
    snapshot = store_->Get(outcome.cube, &version);
    if (snapshot == nullptr) {
      return finish(CubeNotPublished(outcome.cube));
    }
  }
  outcome.cube_version = version;
  // The answer's header (the wire format's H line) names the snapshot.
  query.cube_version = version;
  prepare_span.End();

  // --- cache: hits replay through the sink, byte-identical to a live
  // stream (cursor-resumed pages are never cached or served from cache).
  if (cursor.empty()) {
    if (auto cached = cache_.Get(outcome.cube, version, outcome.canonical);
        cached && UsableFromCache(*cached, context)) {
      outcome.cache_hit = true;
      outcome.begun = true;
      ResultTrailer trailer;
      trailer.cells_scanned = cached->cells_scanned;
      if (!cached->exhausted) {
        trailer.next_cursor = EncodeCursor(Cursor{
            outcome.cube, version, cached->next_offset, query_hash});
      }
      WallTimer timer;
      // ReplayResult suppresses the cursor when the sink aborts
      // mid-replay: a partial stream has no resume point, exactly as on
      // the live path below.
      bool aborted = false;
      trace::Span replay_span(context.trace, "cache_replay");
      outcome.rows = ReplayResult(*cached, sink, &trailer, &aborted);
      replay_span.End();
      outcome.exec_ms = timer.Millis();
      outcome.cells_scanned = cached->cells_scanned;
      outcome.next_cursor = aborted ? "" : trailer.next_cursor;
      return finish(Status::OK());
    }
  }

  // --- execute on the caller's thread, streaming as the walks produce ----
  const bool try_cache =
      cursor.empty() && options_.cache_capacity > 0;
  CachingTee tee(sink, options_.cache_max_rows);
  RowSink& target = try_cache ? static_cast<RowSink&>(tee) : sink;

  WallTimer timer;
  std::shared_ptr<const Executor> executor =
      store_->GetExecutor(outcome.cube, version);
  if (executor == nullptr) {
    // The version was evicted between snapshot resolution and here (or the
    // snapshot came from a cursor pin that outlived retention).
    executor = std::make_shared<const Executor>(*snapshot);
  }
  StreamStats stats;
  trace::Span execute_span(context.trace, "execute");
  Status status = executor->ExecuteToSink(query, context, target, &stats);
  execute_span.End();
  outcome.exec_ms = timer.Millis();
  outcome.begun = stats.begun;
  outcome.rows = stats.rows_emitted;
  outcome.cells_scanned = stats.cells_scanned;

  if (!status.ok()) {
    // A stream that failed after Begin (deadline mid-walk) is still closed
    // properly — the writer can terminate its output — but never gets a
    // resume cursor and never enters the cache.
    if (stats.begun) {
      ResultTrailer trailer;
      trailer.cells_scanned = stats.cells_scanned;
      target.Finish(trailer);
    }
    return finish(std::move(status));
  }

  ResultTrailer trailer;
  trailer.cells_scanned = stats.cells_scanned;
  if (!stats.exhausted && !stats.aborted) {
    trailer.next_cursor = EncodeCursor(
        Cursor{outcome.cube, version, stats.next_offset, query_hash});
  }
  outcome.next_cursor = trailer.next_cursor;
  target.Finish(trailer);

  if (try_cache && !stats.aborted && tee.cacheable()) {
    tee.collected().SetPagination(stats.exhausted, stats.next_offset);
    cache_.Put(outcome.cube, version, outcome.canonical,
               tee.collected().TakeResult());
  }
  return finish(Status::OK());
}

QueryService::PublishInfo QueryService::PublishAndWarm(
    const std::string& name, cube::SegregationCube cube) {
  PublishInfo info;
  // Publishes are rare and expensive enough to always trace: the span
  // summary (build.seal + warm phases) goes to the log so publish latency
  // regressions are attributable without flipping any flag.
  trace::TraceContext tc;
  // The warming set is decided by traffic up to now: the hottest cached
  // texts for this cube, across the versions currently in cache.
  std::vector<std::string> hottest = cache_.Hottest(name, options_.warm_top_n);
  info.version =
      store_->Publish(name, std::move(cube), options_.seal_threads, &tc);
  auto log_summary = [&] {
    SCUBE_LOG(Info) << "published '" << name << "' v" << info.version
                    << " warmed=" << info.warmed << " [" << tc.Summary()
                    << "]";
  };
  if (hottest.empty()) {
    log_summary();
    return info;
  }

  CubeStore::Snapshot snapshot = store_->GetVersion(name, info.version);
  if (snapshot == nullptr) {
    log_summary();
    return info;
  }

  std::vector<Query> queries;
  std::vector<std::string> canonicals;
  for (const std::string& text : hottest) {
    auto parsed = Parse(text);
    if (!parsed.ok()) continue;
    Query q = std::move(parsed).value();
    // Version-pinned texts target their old snapshot, not the new one.
    if (q.cube_version) continue;
    canonicals.push_back(Canonical(q));
    q.cube_version = info.version;
    queries.push_back(std::move(q));
  }
  if (queries.empty()) {
    log_summary();
    return info;
  }

  // Warming runs on the publisher's thread, off the admission queue: it
  // cannot be shed by the very overload it exists to soften, and it does
  // not displace live traffic from the workers.
  trace::Span warm_span(&tc, "warm");
  std::shared_ptr<const Executor> executor =
      store_->GetExecutor(name, info.version);
  if (executor == nullptr) {
    executor = std::make_shared<const Executor>(*snapshot);
  }
  // With merge keys, a warmed answer also serves the shard wire path
  // (UsableFromCache); JSON and CSV never render the keys.
  QueryContext keyed;
  keyed.merge_keys = true;
  auto results = executor->ExecuteBatch(queries, keyed);
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) continue;
    cache_.Put(name, info.version, canonicals[i],
               std::move(results[i]).value());
    ++info.warmed;
  }
  warm_span.End();
  log_summary();
  return info;
}

std::vector<CubeInfo> QueryService::ListCubes() const {
  std::vector<CubeInfo> out;
  for (const std::string& name : store_->Names()) {
    uint64_t version = 0;
    CubeStore::Snapshot snapshot = store_->Get(name, &version);
    if (snapshot == nullptr) continue;
    CubeInfo info;
    info.name = name;
    info.version = version;
    info.retained = store_->RetainedVersions(name);
    info.cells = snapshot->NumCells();
    info.defined_cells = snapshot->NumDefinedCells();
    out.push_back(std::move(info));
  }
  return out;
}

void QueryService::AppendBackendMetrics(std::string* out) const {
  using trace::MetricCounter;
  using trace::MetricGauge;
  MetricGauge(out, "scubed_queue_depth",
              static_cast<double>(queue_depth()),
              "Worker tasks currently queued");
  ResultCache::Stats cache = cache_.stats();
  MetricCounter(out, "scubed_cache_hits_total", cache.hits,
                "Result-cache hits");
  MetricCounter(out, "scubed_cache_misses_total", cache.misses,
                "Result-cache misses");
  MetricCounter(out, "scubed_cache_evictions_total", cache.evictions,
                "Result-cache LRU evictions");
  uint64_t lookups = cache.hits + cache.misses;
  MetricGauge(out, "scubed_cache_hit_rate",
              lookups == 0 ? 0.0
                           : static_cast<double>(cache.hits) /
                                 static_cast<double>(lookups),
              "Result-cache hit fraction since start");
}

}  // namespace query
}  // namespace scube
