#include "fpm/brute_force.h"

#include <algorithm>

namespace scube {
namespace fpm {

namespace {

// Counts support of `items` by scanning every transaction.
uint64_t ScanSupport(const TransactionDb& db, const std::vector<ItemId>& items) {
  uint64_t support = 0;
  for (uint32_t tid = 0; tid < db.NumTransactions(); ++tid) {
    const auto& t = db.Transaction(tid);
    if (std::includes(t.begin(), t.end(), items.begin(), items.end())) {
      ++support;
    }
  }
  return support;
}

void Dfs(const TransactionDb& db, const MinerOptions& options,
         std::vector<ItemId>* prefix, ItemId next_item,
         std::vector<FrequentItemset>* out) {
  if (prefix->size() >= options.max_length) return;
  for (ItemId item = next_item; item < db.NumItems(); ++item) {
    prefix->push_back(item);
    uint64_t support = ScanSupport(db, *prefix);
    if (support >= options.min_support) {
      out->push_back({Itemset(*prefix), support});
      Dfs(db, options, prefix, item + 1, out);
    }
    prefix->pop_back();
  }
}

}  // namespace

Result<std::vector<FrequentItemset>> MineBruteForce(
    const TransactionDb& db, const MinerOptions& options) {
  SCUBE_RETURN_IF_ERROR(ValidateMinerOptions(options));
  std::vector<FrequentItemset> out;
  if (options.include_empty) {
    out.push_back({Itemset(), db.NumTransactions()});
  }
  std::vector<ItemId> prefix;
  Dfs(db, options, &prefix, 0, &out);
  switch (options.mode) {
    case MineMode::kAll:
      break;
    case MineMode::kClosed:
      out = FilterClosed(std::move(out));
      break;
    case MineMode::kMaximal:
      out = FilterMaximal(std::move(out));
      break;
  }
  SortItemsets(&out);
  return out;
}

}  // namespace fpm
}  // namespace scube
