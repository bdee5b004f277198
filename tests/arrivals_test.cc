// Open-loop arrival process and the admission-queue harness: streams are
// deterministic pure functions of (config, seed) with the offered mean
// rate, the bounded queue sheds exactly what it cannot hold, and the whole
// harness is byte-identical across simulator execution backends.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "harness/arrivals.h"
#include "harness/open_loop.h"
#include "machines.h"
#include "tpcb/driver.h"

namespace lfstx {
namespace {

std::vector<SimTime> Stream(const ArrivalConfig& cfg, uint64_t n) {
  ArrivalProcess p(cfg);
  std::vector<SimTime> out;
  out.reserve(n);
  for (uint64_t i = 0; i < n; i++) out.push_back(p.Next());
  return out;
}

TEST(ArrivalProcessTest, SameSeedSameStreamDifferentSeedDifferent) {
  ArrivalConfig cfg;
  cfg.offered_tps = 50;
  cfg.seed = 7;
  std::vector<SimTime> a = Stream(cfg, 500);
  std::vector<SimTime> b = Stream(cfg, 500);
  EXPECT_EQ(a, b);

  cfg.seed = 8;
  std::vector<SimTime> c = Stream(cfg, 500);
  EXPECT_NE(a, c);

  // Monotone non-decreasing arrival instants.
  for (size_t i = 1; i < a.size(); i++) EXPECT_LE(a[i - 1], a[i]);
}

TEST(ArrivalProcessTest, PoissonLongRunRateMatchesOffered) {
  ArrivalConfig cfg;
  cfg.offered_tps = 200;
  cfg.seed = 3;
  const uint64_t kN = 20000;
  std::vector<SimTime> s = Stream(cfg, kN);
  double mean_gap_us = static_cast<double>(s.back()) / static_cast<double>(kN);
  // Expected gap 5000 us; 20k exponential draws put the sample mean well
  // within 3%.
  EXPECT_NEAR(mean_gap_us, 1e6 / cfg.offered_tps, 0.03 * 1e6 / cfg.offered_tps);
}

// ------------------------------------------------------ open-loop harness --

TpcbConfig TinyConfig() {
  TpcbConfig c;
  c.accounts = 500;
  c.tellers = 10;
  c.branches = 2;
  return c;
}

OpenLoopOptions OverloadOptions() {
  OpenLoopOptions o;
  o.arrivals.offered_tps = 2000;  // far beyond a 2-server drain rate
  o.arrivals.seed = 99;
  o.workers = 2;
  o.queue_cap = 4;
  o.target_arrivals = 80;
  o.exemplars = 5;
  return o;
}

TEST(OpenLoopTest, OverloadShedsAndAccountsExactly) {
  auto rig = TestRig::Create(Arch::kEmbedded);
  rig->Run([&] {
    TpcbConfig cfg = TinyConfig();
    auto db =
        LoadTpcb(rig->backend.get(), rig->machine->kernel.get(), cfg, 100);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    OpenLoopOptions opts = OverloadOptions();
    OpenLoopDriver ol(rig->backend.get(), &db.value(), cfg, opts);
    auto res = ol.Run();
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    const OpenLoopResult& r = res.value();

    // Conservation: every arrival either joined the queue or was shed, and
    // every admitted request was eventually served.
    EXPECT_EQ(r.arrivals, opts.target_arrivals);
    EXPECT_EQ(r.arrivals, r.admitted + r.shed);
    EXPECT_EQ(r.completed, r.admitted);
    EXPECT_LE(r.committed, r.completed);
    EXPECT_GT(r.shed, 0u) << "an overloaded bounded queue must shed";
    EXPECT_LE(r.max_queue_depth, opts.queue_cap);
    EXPECT_LE(r.max_in_flight, opts.workers);

    // Histogram counts mirror the completion count.
    EXPECT_EQ(r.sojourn.count(), r.completed);
    EXPECT_EQ(r.queued.count(), r.completed);
    EXPECT_EQ(r.service.count(), r.completed);

    // Goodput can never exceed the offered rate (nominal-window floor).
    EXPECT_LE(r.goodput_tps(), r.offered_tps + 1e-9);

    // Exemplars: slowest-first committed transactions whose profiler phase
    // deltas partition the service time exactly.
    ASSERT_FALSE(r.exemplars.empty());
    ASSERT_LE(r.exemplars.size(), opts.exemplars);
    for (size_t i = 1; i < r.exemplars.size(); i++) {
      EXPECT_GE(r.exemplars[i - 1].sojourn_us, r.exemplars[i].sojourn_us);
    }
    for (const TailExemplar& ex : r.exemplars) {
      EXPECT_NE(ex.txn, 0u);
      EXPECT_EQ(ex.sojourn_us, ex.queued_us + ex.service_us);
      uint64_t phase_sum = 0;
      for (int ph = 0; ph < kNumPhases; ph++) phase_sum += ex.phase_us[ph];
      EXPECT_EQ(phase_sum, ex.service_us);
    }

    // The registry carries the same accounting for the sampler's benefit.
    MetricsRegistry* m = rig->env()->metrics();
    std::map<std::string, double> flat;
    for (const auto& kv : m->SampleNumeric()) flat[kv.first] = kv.second;
    EXPECT_EQ(flat["openloop.arrivals"], static_cast<double>(r.arrivals));
    EXPECT_EQ(flat["openloop.shed"], static_cast<double>(r.shed));
    EXPECT_EQ(flat["openloop.committed"], static_cast<double>(r.committed));
    EXPECT_EQ(flat["openloop.sojourn_us.count"],
              static_cast<double>(r.completed));
    // Queue drained, nothing in flight: the lazy gauges read zero.
    EXPECT_EQ(flat["openloop.queue_depth"], 0.0);
    EXPECT_EQ(flat["openloop.in_flight"], 0.0);
    // Queued time was charged as a blame source.
    EXPECT_GT(flat["blame.admission.queued_us.count"], 0.0);
  });
}

TEST(OpenLoopTest, MetricsAreByteIdenticalAcrossSimBackends) {
  std::string json[2];
  const SimBackend backends[] = {SimBackend::kThreads, SimBackend::kFibers};
  for (int i = 0; i < 2; i++) {
    Machine::Options mo;
    mo.sim_backend = backends[i];
    auto rig = TestRig::Create(Arch::kEmbedded, mo);
    rig->Run([&] {
      TpcbConfig cfg = TinyConfig();
      auto db =
          LoadTpcb(rig->backend.get(), rig->machine->kernel.get(), cfg, 100);
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      OpenLoopDriver ol(rig->backend.get(), &db.value(), cfg,
                        OverloadOptions());
      auto res = ol.Run();
      ASSERT_TRUE(res.ok()) << res.status().ToString();
      json[i] = rig->MetricsJson();
    });
  }
  // The scheduler owns every decision; execution backends may only change
  // how fast the simulation computes, never what it computes.
  EXPECT_EQ(json[0], json[1]);
}

}  // namespace
}  // namespace lfstx
