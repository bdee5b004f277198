#include "check/registry.h"

#include "cache/buffer_cache.h"
#include "common/metrics.h"
#include "embedded/kernel_txn.h"
#include "harness/machine.h"
#include "harness/rig.h"
#include "lfs/lfs.h"
#include "sim/sim_env.h"
#include "sim/trace.h"

namespace lfstx {

void CheckRegistry::Register(const std::string& name, CheckFn fn) {
  checks_.push_back({name, fn});
}

CheckSummary CheckRegistry::RunAll(const CheckContext& ctx) const {
  CheckSummary summary;
  MetricCounter* runs = nullptr;
  MetricCounter* problems = nullptr;
  Tracer* tracer = nullptr;
  if (ctx.env != nullptr) {
    runs = ctx.env->metrics()->GetCounter(
        "check.runs", "runs", "invariant-checker sweeps completed");
    problems = ctx.env->metrics()->GetCounter(
        "check.problems", "problems", "invariant violations found");
    tracer = ctx.env->tracer();
  }
  for (const Entry& e : checks_) {
    auto result = e.fn(ctx);
    CheckReport report;
    if (result.ok()) {
      report = std::move(result).value();
    } else {
      report.Problem("checker failed to run: " + result.status().ToString());
    }
    report.checker = e.name;
    if (runs != nullptr) runs->Inc();
    if (problems != nullptr) problems->Inc(report.problems.size());
    LFSTX_TRACE(tracer, TraceCat::kCheck, "check_run",
                {"checker", e.name.c_str()}, {"clean", report.clean},
                {"problems", static_cast<uint64_t>(report.problems.size())});
    for (const std::string& p : report.problems) {
      LFSTX_TRACE(tracer, TraceCat::kCheck, "check_problem",
                  {"checker", e.name.c_str()}, {"detail", p.c_str()});
    }
    summary.reports.push_back(std::move(report));
  }
  return summary;
}

const CheckRegistry& CheckRegistry::Default() {
  static const CheckRegistry kDefault = [] {
    CheckRegistry r;
    r.Register("lfs", &CheckLfsStructure);
    r.Register("ffs", &CheckFfsStructure);
    r.Register("cache", &CheckBufferCache);
    r.Register("locks", &CheckLocks);
    r.Register("log", &CheckLog);
    r.Register("txn", &CheckTxn);
    // Last on purpose: compares the generation snapshot taken at
    // MakeCheckContext against the live counters after every other
    // checker ran.
    r.Register("gens", &CheckGenerations);
    return r;
  }();
  return kDefault;
}

CheckContext MakeCheckContext(Machine& m) {
  CheckContext ctx;
  ctx.env = m.env.get();
  ctx.cache = m.cache.get();
  ctx.lfs = m.lfs();
  if (ctx.lfs == nullptr) {
    ctx.ffs = dynamic_cast<Ffs*>(m.fs.get());
  }
  EmbeddedTxnManager* etm = m.kernel ? m.kernel->txn_manager() : nullptr;
  if (etm != nullptr) {
    ctx.etm = etm;
    ctx.kernel_locks = etm->locks();
  }
  if (ctx.lfs != nullptr && ctx.cache != nullptr) {
    ctx.gens_captured = true;
    ctx.gens_cache_clean = ctx.cache->dirty_count() == 0;
    ctx.gen_imap = ctx.lfs->imap().mutation_gen();
    ctx.gen_usage = ctx.lfs->usage().mutation_gen();
    ctx.gen_cache = ctx.cache->mutation_gen();
    ctx.gen_log_head = ctx.lfs->mutation_gen();
  }
  return ctx;
}

CheckContext MakeCheckContext(ArchRig& rig) {
  CheckContext ctx = MakeCheckContext(*rig.machine);
  if (rig.libtp != nullptr) {
    ctx.libtp = rig.libtp.get();
    ctx.user_locks = rig.libtp->locks();
    ctx.log = rig.libtp->log();
  }
  return ctx;
}

CheckSummary RunAllChecks(const CheckContext& ctx) {
  return CheckRegistry::Default().RunAll(ctx);
}

CheckSummary RunAllChecks(Machine& m) {
  return RunAllChecks(MakeCheckContext(m));
}

CheckSummary RunAllChecks(ArchRig& rig) {
  return RunAllChecks(MakeCheckContext(rig));
}

}  // namespace lfstx
