#include "cube/builder.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "fpm/fpgrowth.h"
#include "indexes/counts.h"

namespace scube {
namespace cube {

namespace {

// Sparse per-unit histogram built by bucketing a cover through row_unit.
// A dense scratch array plus a touched list keeps resets O(#touched).
class UnitHistogrammer {
 public:
  explicit UnitHistogrammer(size_t num_units) : counts_(num_units, 0) {}

  // Returns (unit, count) pairs sorted by unit, and the cover cardinality.
  std::vector<std::pair<uint32_t, uint64_t>> Histogram(
      const EwahBitmap& cover, const std::vector<uint32_t>& row_unit) {
    for (uint32_t unit : touched_) counts_[unit] = 0;
    touched_.clear();
    cover.ForEach([this, &row_unit](uint64_t row) {
      uint32_t unit = row_unit[row];
      if (counts_[unit] == 0) touched_.push_back(unit);
      ++counts_[unit];
    });
    std::sort(touched_.begin(), touched_.end());
    std::vector<std::pair<uint32_t, uint64_t>> out;
    out.reserve(touched_.size());
    for (uint32_t unit : touched_) out.emplace_back(unit, counts_[unit]);
    return out;
  }

 private:
  std::vector<uint64_t> counts_;
  std::vector<uint32_t> touched_;
};

// All candidate cells sharing one context B: the context's cover,
// histogram and total are computed exactly once, by exactly one worker.
struct ContextGroup {
  fpm::Itemset ca;
  std::vector<fpm::Itemset> sas;  // one cell per entry, mined order
};

// Per-worker mutable state: no worker ever touches another worker's
// scratch, so the fill needs no locks at all.
struct WorkerScratch {
  explicit WorkerScratch(size_t num_units)
      : histogrammer(num_units), minority_counts(num_units, 0) {}

  UnitHistogrammer histogrammer;
  std::vector<uint64_t> minority_counts;  // dense m_i scratch
  std::vector<uint32_t> touched;          // units with minority_counts != 0
  std::vector<fpm::ItemId> sa_by_size;    // SA items, support-ascending
};

// Fills every cell of one context group into `out_cells` (same order as
// grp.sas). Returns the first index-computation error, if any.
Status FillContextGroup(const relational::EncodedRelation& encoded,
                        const CubeBuilderOptions& options,
                        const ContextGroup& grp, WorkerScratch& ws,
                        std::vector<CubeCell>* out_cells) {
  const EwahBitmap ctx_cover = encoded.db.Cover(grp.ca);
  const uint64_t ctx_total = ctx_cover.Cardinality();
  const std::vector<std::pair<uint32_t, uint64_t>> unit_totals =
      ws.histogrammer.Histogram(ctx_cover, encoded.row_unit);

  out_cells->reserve(grp.sas.size());
  for (const fpm::Itemset& sa : grp.sas) {
    // Minority cover: cover(A ∪ B) = cover(B) ∩ item covers of A.
    // Intersect smallest-cardinality-first so intermediates shrink as
    // fast as possible, and chain through one scratch bitmap instead of
    // copying ctx_cover up front and reallocating per And.
    std::vector<fpm::ItemId>& by_size = ws.sa_by_size;
    by_size.assign(sa.items().begin(), sa.items().end());
    std::stable_sort(by_size.begin(), by_size.end(),
                     [&](fpm::ItemId a, fpm::ItemId b) {
                       return encoded.db.ItemSupport(a) <
                              encoded.db.ItemSupport(b);
                     });
    const EwahBitmap* minority = &ctx_cover;
    EwahBitmap scratch;
    for (fpm::ItemId item : by_size) {
      scratch = minority->And(encoded.db.ItemCover(item));
      minority = &scratch;
    }

    CubeCell cell;
    cell.coords = CellCoordinates{sa, grp.ca};
    cell.context_size = ctx_total;
    cell.minority_size = minority->Cardinality();
    cell.num_units = static_cast<uint32_t>(unit_totals.size());

    // Per-unit minority counts.
    ws.touched.clear();
    minority->ForEach([&](uint64_t row) {
      uint32_t unit = encoded.row_unit[row];
      if (ws.minority_counts[unit] == 0) ws.touched.push_back(unit);
      ++ws.minority_counts[unit];
    });
    indexes::GroupDistribution dist;
    for (const auto& [unit, t] : unit_totals) {
      dist.AddUnit(t, ws.minority_counts[unit]);
    }
    for (uint32_t unit : ws.touched) ws.minority_counts[unit] = 0;

    auto idx = indexes::ComputeAllIndexes(dist, options.index_params);
    if (!idx.ok()) return idx.status();
    cell.indexes = idx.value();
    out_cells->push_back(std::move(cell));
  }
  return Status::OK();
}

}  // namespace

Result<SegregationCube> BuildSegregationCube(
    const relational::EncodedRelation& encoded,
    const CubeBuilderOptions& options, CubeBuildStats* stats) {
  CubeBuildStats local_stats;
  CubeBuildStats* st = stats != nullptr ? stats : &local_stats;
  *st = CubeBuildStats{};

  if (options.max_sa_items == 0) {
    return Status::InvalidArgument("max_sa_items must be >= 1");
  }
  const size_t num_rows = encoded.db.NumTransactions();
  if (num_rows == 0) {
    return Status::FailedPrecondition("finalTable has no rows");
  }

  uint64_t min_support = options.min_support;
  if (options.min_support_fraction > 0.0) {
    min_support = std::max(
        min_support, static_cast<uint64_t>(std::ceil(
                         options.min_support_fraction * num_rows)));
  }
  if (min_support < 1) min_support = 1;

  // --- Mining -------------------------------------------------------------
  WallTimer timer;
  trace::Span mine_span(options.trace, "build.mine");
  fpm::MinerOptions mine_opts;
  mine_opts.min_support = min_support;
  mine_opts.max_length = options.max_sa_items + options.max_ca_items;
  mine_opts.mode = options.mode;
  mine_opts.include_empty = true;  // the all-⋆ root and pure-SA cells
  auto mined = fpm::MineFpGrowth(encoded.db, mine_opts);
  if (!mined.ok()) return mined.status();
  mine_span.End();
  st->seconds_mining = timer.Seconds();
  st->mined_itemsets = mined.value().size();

  // --- Grouping prepass ---------------------------------------------------
  // Split/filter every mined itemset and group the survivors by context B,
  // in first-seen (mined) order. Workers then own whole groups, so a
  // context's cover and histogram are computed exactly once with no shared
  // memo map to contend on.
  timer.Reset();
  trace::Span group_span(options.trace, "build.group");
  std::vector<ContextGroup> groups;
  std::unordered_map<fpm::Itemset, size_t, fpm::ItemsetHash> group_of;
  for (const fpm::FrequentItemset& fs : mined.value()) {
    fpm::Itemset sa, ca;
    encoded.catalog.Split(fs.items, &sa, &ca);
    if (sa.size() > options.max_sa_items) continue;
    if (ca.size() > options.max_ca_items) continue;
    auto [it, inserted] = group_of.try_emplace(ca, groups.size());
    if (inserted) groups.push_back(ContextGroup{std::move(ca), {}});
    groups[it->second].sas.push_back(std::move(sa));
  }
  // TransactionDb builds item covers lazily behind a const facade; force
  // them (and the support cache) into existence before any worker reads.
  if (encoded.db.NumItems() > 0) encoded.db.ItemCover(0);
  group_span.End();
  st->seconds_grouping = timer.Seconds();

  // --- Filling ------------------------------------------------------------
  timer.Reset();
  trace::Span fill_span(options.trace, "build.fill");
  SegregationCube cube(encoded.catalog, encoded.unit_labels);
  size_t threads =
      std::min(ThreadPool::EffectiveThreads(options.num_threads),
               std::max<size_t>(1, groups.size()));
  if (threads > 1) {
    // The shared pool caps achievable parallelism at its worker count
    // plus the calling thread; report what can actually run, not what
    // was asked for.
    threads = std::min(threads, ThreadPool::Shared().num_threads() + 1);
  }
  st->threads_used = static_cast<uint32_t>(threads);

  std::vector<std::vector<CubeCell>> group_cells(groups.size());
  std::vector<Status> group_status(groups.size());
  const size_t num_units = encoded.unit_labels.size();
  // The explicit sequential branch keeps single-threaded builds from
  // instantiating the process-wide pool (ParallelFor would work, but
  // Shared() spawns hardware_concurrency workers on first touch).
  if (threads <= 1) {
    WorkerScratch scratch(num_units);
    for (size_t g = 0; g < groups.size(); ++g) {
      group_status[g] = FillContextGroup(encoded, options, groups[g], scratch,
                                         &group_cells[g]);
    }
  } else {
    std::vector<std::unique_ptr<WorkerScratch>> scratch(threads);
    ThreadPool::Shared().ParallelFor(
        groups.size(), threads, [&](size_t worker, size_t g) {
          if (scratch[worker] == nullptr) {
            scratch[worker] = std::make_unique<WorkerScratch>(num_units);
          }
          group_status[g] = FillContextGroup(encoded, options, groups[g],
                                             *scratch[worker], &group_cells[g]);
        });
  }

  // Deterministic merge: group order, then mined order within the group —
  // the same cells, values and stats as the sequential fill, bit for bit.
  for (size_t g = 0; g < groups.size(); ++g) {
    if (!group_status[g].ok()) return group_status[g];
    for (CubeCell& cell : group_cells[g]) {
      if (cell.indexes.defined) ++st->cells_defined;
      ++st->cells_created;
      cube.Insert(std::move(cell));
    }
  }
  fill_span.End();
  st->seconds_filling = timer.Seconds();
  st->contexts_memoized = groups.size();
  return cube;
}

Result<SegregationCube> BuildSegregationCube(
    const relational::Table& final_table, const CubeBuilderOptions& options,
    CubeBuildStats* stats) {
  WallTimer timer;
  trace::Span encode_span(options.trace, "build.encode");
  auto encoded = relational::EncodeForAnalysis(final_table);
  encode_span.End();
  if (!encoded.ok()) return encoded.status();
  double encode_secs = timer.Seconds();
  auto cube = BuildSegregationCube(encoded.value(), options, stats);
  if (cube.ok() && stats != nullptr) stats->seconds_encoding = encode_secs;
  return cube;
}

}  // namespace cube
}  // namespace scube
