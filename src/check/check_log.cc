// CheckLog: full integrity sweep of the LIBTP write-ahead log. ScanAll
// deliberately stops *cleanly* at the first undecodable record (a torn
// tail is normal after a crash), so this checker walks the retained
// region itself, through the same chunked LogManager::Reader, and treats
// any decode failure below durable_lsn as corruption — everything the log
// manager promised was forced to disk must still checksum. Along the way
// it verifies LSN monotonicity (each record advances by exactly its
// encoded size), truncation-epoch consistency, and each transaction's
// prev_lsn backchain.
#include <map>

#include "check/checkers.h"
#include "harness/table.h"
#include "libtp/log_manager.h"

namespace lfstx {

Result<CheckReport> CheckLog(const CheckContext& ctx) {
  CheckReport report;
  if (ctx.log == nullptr) {
    report.Counter("skipped") = 1;
    return report;
  }
  LogManager* log = ctx.log;
  const Lsn base = log->base_lsn();
  const Lsn durable = log->durable_lsn();
  const Lsn next = log->next_lsn();

  if (base > durable) {
    report.Problem(Fmt("base_lsn %llu > durable_lsn %llu",
                       (unsigned long long)base,
                       (unsigned long long)durable));
  }
  if (durable > next) {
    report.Problem(Fmt("durable_lsn %llu > next_lsn %llu",
                       (unsigned long long)durable,
                       (unsigned long long)next));
  }
  if (!report.clean) return report;  // ranges invalid; don't scan

  uint64_t records = 0, bytes = 0;
  std::map<TxnId, Lsn> last_lsn;  // per-transaction backchain head
  LogManager::Reader reader = log->ReadFrom(base);
  Lsn lsn = base;
  while (lsn < next) {
    auto rec_or = reader.Next();
    if (!rec_or.ok()) {
      // Below durable_lsn this region was fsync'd — it must decode.
      // At or above it the record still lives in the user-space tail,
      // which must also be intact in a running system.
      report.Problem(Fmt("record at LSN %llu (%s durable point) fails to "
                         "decode: %s", (unsigned long long)lsn,
                         lsn < durable ? "below" : "above",
                         rec_or.status().ToString().c_str()));
      break;
    }
    const LogRecord& rec = rec_or.value();
    if (rec.epoch != log->epoch()) {
      report.Problem(Fmt("record at LSN %llu carries epoch %u, log is at "
                         "epoch %u", (unsigned long long)lsn, rec.epoch,
                         log->epoch()));
    }
    if (rec.txn != kNoTxn) {
      auto it = last_lsn.find(rec.txn);
      const Lsn expect = it == last_lsn.end() ? kNullLsn : it->second;
      // A transaction's first retained record could chain below base_lsn
      // only if truncation happened mid-transaction, which Truncate
      // forbids — so the backchain must match exactly.
      if (rec.prev_lsn != expect) {
        report.Problem(
            Fmt("txn %llu record at LSN %llu chains to %llu, expected %llu",
                (unsigned long long)rec.txn, (unsigned long long)lsn,
                (unsigned long long)rec.prev_lsn,
                (unsigned long long)expect));
      }
      last_lsn[rec.txn] = lsn;
    }
    const size_t sz = rec.EncodedSize();
    if (sz == 0) {
      report.Problem(Fmt("record at LSN %llu has zero encoded size",
                         (unsigned long long)lsn));
      break;
    }
    records++;
    bytes += sz;
    lsn += sz;
  }
  if (report.clean && lsn != next) {
    report.Problem(Fmt("scan ended at LSN %llu, next_lsn is %llu — records "
                       "do not tile the log", (unsigned long long)lsn,
                       (unsigned long long)next));
  }

  report.Counter("records") = records;
  report.Counter("bytes") = bytes;
  return report;
}

}  // namespace lfstx
