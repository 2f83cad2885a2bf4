// Brute-force reference miner: exhaustive DFS with per-set transaction scans.
//
// Exponential; only for tests (ground truth on small inputs) and as the
// pedagogical baseline in the mining benchmark.

#ifndef SCUBE_FPM_BRUTE_FORCE_H_
#define SCUBE_FPM_BRUTE_FORCE_H_

#include "fpm/miner.h"

namespace scube {
namespace fpm {

/// Mines `db` under `options` by exhaustive enumeration: the reference
/// MineFpGrowth must match exactly. The result is in SortItemsets order.
Result<std::vector<FrequentItemset>> MineBruteForce(
    const TransactionDb& db, const MinerOptions& options);

}  // namespace fpm
}  // namespace scube

#endif  // SCUBE_FPM_BRUTE_FORCE_H_
