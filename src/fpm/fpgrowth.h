// FP-Growth: the production frequent-itemset engine (Han et al.).
//
// From-scratch replacement for the Borgelt FPGrowth binary the original
// SCube shells out to. Implements the standard FP-tree with header chains,
// recursive conditional trees, and the single-prefix-path shortcut.

#ifndef SCUBE_FPM_FPGROWTH_H_
#define SCUBE_FPM_FPGROWTH_H_

#include "fpm/miner.h"

namespace scube {
namespace fpm {

/// Mines `db` under `options` with an FP-tree; the cube builder's engine.
/// Deterministic; the result is in SortItemsets order.
Result<std::vector<FrequentItemset>> MineFpGrowth(const TransactionDb& db,
                                                 const MinerOptions& options);

}  // namespace fpm
}  // namespace scube

#endif  // SCUBE_FPM_FPGROWTH_H_
