// TPC-B transaction driver (paper section 5.1): each transaction updates
// the account, teller, and branch balances and appends a history record.
// Tests run single-user (multiprogramming level 1) by default, the paper's
// worst case; the driver also supports multiple concurrent terminals.
#ifndef LFSTX_TPCB_DRIVER_H_
#define LFSTX_TPCB_DRIVER_H_

#include "common/metrics.h"
#include "common/random.h"
#include "tpcb/loader.h"

namespace lfstx {

/// \brief Runs TPC-B transactions against a loaded database.
class TpcbDriver {
 public:
  /// Minimum virtual-time pause before a deadlock retry. The ceiling
  /// doubles with each consecutive deadlock of the same transaction, up
  /// to 64x, with uniform jitter drawn from the driver's seeded RNG.
  static constexpr SimTime kDeadlockBackoffFloor = 500;  // us
  struct RunStats {
    uint64_t transactions = 0;
    uint64_t deadlock_retries = 0;
    SimTime elapsed = 0;
    HdrHistogram latency;  ///< per-transaction virtual latency

    double tps() const {
      return elapsed == 0 ? 0.0
                          : static_cast<double>(transactions) /
                                ToSeconds(elapsed);
    }
  };

  TpcbDriver(DbBackend* backend, TpcbDatabase* db, const TpcbConfig& config,
             uint64_t seed);

  /// Execute one transaction (with deadlock retry).
  Status RunOne();
  /// Execute `n` transactions, measuring virtual time.
  Result<RunStats> Run(uint64_t n);

  const RunStats& stats() const { return stats_; }

  /// Transaction id of the most recent attempt that reached Begin (after a
  /// successful RunOne: the id of the transaction that committed). The
  /// open-loop harness uses it to join latency exemplars against the
  /// wait-edge blame graph, whose edges carry transaction ids.
  TxnId last_txn() const { return last_txn_; }

 private:
  Status TryOne(uint64_t account, uint32_t teller, uint32_t branch,
                int64_t delta);

  DbBackend* backend_;
  TpcbDatabase* db_;
  TpcbConfig config_;
  Random rng_;
  RunStats stats_;
  TxnId last_txn_ = kNoTxn;
};

}  // namespace lfstx

#endif  // LFSTX_TPCB_DRIVER_H_
