// TransactionDb: the in-memory transaction database mined by SCube.
//
// Each transaction is a sorted set of items (one transaction per individual
// in the finalTable). The database also materialises per-item EWAH covers
// (tidsets) used by the cube builder and support counting.

#ifndef SCUBE_FPM_TRANSACTION_DB_H_
#define SCUBE_FPM_TRANSACTION_DB_H_

#include <cstdint>
#include <vector>

#include "common/ewah.h"
#include "fpm/item.h"
#include "fpm/itemset.h"

namespace scube {
namespace fpm {

/// \brief Append-only transaction database with per-item covers.
class TransactionDb {
 public:
  TransactionDb() = default;

  /// Appends a transaction (items are sorted/deduplicated internally).
  /// Returns the transaction id (0-based, dense).
  uint32_t AddTransaction(std::vector<ItemId> items);

  /// Number of transactions.
  size_t NumTransactions() const { return transactions_.size(); }

  /// One past the largest item id seen (dense item universe size).
  size_t NumItems() const { return num_items_; }

  /// The (sorted) items of transaction `tid`.
  const std::vector<ItemId>& Transaction(uint32_t tid) const {
    return transactions_[tid];
  }

  /// Number of transactions containing `item` (0 for unseen items).
  uint64_t ItemSupport(ItemId item) const;

  /// EWAH cover (set of tids) of a single item. Covers are built lazily on
  /// first call; subsequent calls are O(1).
  const EwahBitmap& ItemCover(ItemId item) const;

  /// Cover of an itemset: intersection of the item covers. The empty itemset
  /// covers every transaction.
  EwahBitmap Cover(const Itemset& items) const;

  /// Support of an itemset (cover cardinality; counted without materialising
  /// the full intersection when possible).
  uint64_t Support(const Itemset& items) const;

  /// Total number of item occurrences across all transactions.
  uint64_t TotalItemOccurrences() const { return total_occurrences_; }

 private:
  void BuildCovers() const;

  std::vector<std::vector<ItemId>> transactions_;
  size_t num_items_ = 0;
  uint64_t total_occurrences_ = 0;

  // Lazily built; logically const.
  mutable std::vector<EwahBitmap> covers_;
  mutable std::vector<uint64_t> supports_;
  mutable bool covers_built_ = false;
};

}  // namespace fpm
}  // namespace scube

#endif  // SCUBE_FPM_TRANSACTION_DB_H_
