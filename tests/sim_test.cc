#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "sim/clock.h"
#include "sim/sim_env.h"
#include "sim/sync.h"

namespace lfstx {
namespace {

TEST(SimEnvTest, MalformedStackSizeKeepsTheDefault) {
  // strtoull would read "64k" as 64 and run every fiber on 64 KiB.
  setenv("LFSTX_SIM_STACK_KB", "64k", 1);
  testing::internal::CaptureStderr();
  { SimEnv env; }
  std::string err = testing::internal::GetCapturedStderr();
  unsetenv("LFSTX_SIM_STACK_KB");
  EXPECT_NE(err.find("lfstx: ignoring LFSTX_SIM_STACK_KB=64k"),
            std::string::npos)
      << err;
}

TEST(SimEnvTest, ConsumeAdvancesClock) {
  SimEnv env;
  env.Spawn("p", [&] { env.Consume(1234); });
  EXPECT_EQ(env.Run(), 1234u);
}

TEST(SimEnvTest, SleepAdvancesClock) {
  SimEnv env;
  env.Spawn("p", [&] {
    env.SleepFor(5 * kSecond);
    env.Consume(1);
  });
  EXPECT_EQ(env.Run(), 5 * kSecond + 1);
}

TEST(SimEnvTest, TwoProcessesInterleaveDeterministically) {
  SimEnv env;
  std::vector<int> order;
  env.Spawn("a", [&] {
    order.push_back(1);
    env.Yield();
    order.push_back(3);
  });
  env.Spawn("b", [&] {
    order.push_back(2);
    env.Yield();
    order.push_back(4);
  });
  env.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(SimEnvTest, ContextSwitchesAreCharged) {
  CostModel costs;
  costs.context_switch_us = 100;
  SimEnv env(costs);
  env.Spawn("a", [&] { env.Yield(); });
  env.Spawn("b", [&] { env.Yield(); });
  env.Run();
  EXPECT_GE(env.stats().context_switches, 2u);
}

TEST(SimEnvTest, SyscallChargesAndCounts) {
  SimEnv env;
  env.Spawn("p", [&] {
    env.Syscall();
    env.Syscall(10);
  });
  SimTime end = env.Run();
  EXPECT_EQ(env.stats().syscalls, 2u);
  EXPECT_EQ(end, 2 * env.costs().syscall_us + 10);
}

TEST(SimEnvTest, LatchCostDependsOnTestAndSet) {
  {
    CostModel costs;
    costs.hardware_test_and_set = false;
    SimEnv env(costs);
    env.Spawn("p", [&] { env.LatchOp(); });
    EXPECT_EQ(env.Run(), costs.semaphore_syscall_us);
    EXPECT_EQ(env.stats().syscalls, 1u);
  }
  {
    CostModel costs;
    costs.hardware_test_and_set = true;
    SimEnv env(costs);
    env.Spawn("p", [&] { env.LatchOp(); });
    EXPECT_EQ(env.Run(), costs.latch_us);
    EXPECT_EQ(env.stats().syscalls, 0u);
  }
}

TEST(SimEnvTest, TimersFireInOrder) {
  SimEnv env;
  std::vector<int> fired;
  env.Spawn("p", [&] {
    env.At(300, [&] { fired.push_back(3); });
    env.At(100, [&] { fired.push_back(1); });
    env.At(200, [&] { fired.push_back(2); });
    env.SleepFor(1000);
  });
  env.Run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(SimEnvTest, WaitQueueWakeOne) {
  SimEnv env;
  WaitQueue q(&env);
  std::vector<int> order;
  env.Spawn("sleeper", [&] {
    WakeReason r = q.Sleep();
    EXPECT_EQ(r, WakeReason::kWoken);
    order.push_back(2);
  });
  env.Spawn("waker", [&] {
    env.Consume(50);
    order.push_back(1);
    q.WakeOne();
  });
  env.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimEnvTest, WaitQueueTimeout) {
  SimEnv env;
  WaitQueue q(&env);
  WakeReason got = WakeReason::kWoken;
  env.Spawn("sleeper", [&] { got = q.SleepFor(500); });
  SimTime end = env.Run();
  EXPECT_EQ(got, WakeReason::kTimeout);
  EXPECT_GE(end, 500u);
}

TEST(SimEnvTest, DaemonsAreStoppedAtShutdown) {
  CostModel costs;
  costs.context_switch_us = 0;  // keep the tick arithmetic exact
  SimEnv env(costs);
  int rounds = 0;
  env.Spawn(
      "daemon",
      [&] {
        while (!env.stop_requested()) {
          env.SleepFor(10);
          rounds++;
          if (rounds > 1000000) break;
        }
      },
      /*daemon=*/true);
  env.Spawn("main", [&] { env.SleepFor(105); });
  env.Run();
  // The daemon ticked while main was alive, then got stopped.
  EXPECT_GE(rounds, 5);
  EXPECT_LE(rounds, 20);
}

TEST(SimEnvTest, BlockedDaemonIsForceWokenAtShutdown) {
  SimEnv env;
  WaitQueue q(&env);
  WakeReason reason = WakeReason::kWoken;
  env.Spawn("daemon", [&] { reason = q.Sleep(); }, /*daemon=*/true);
  env.Spawn("main", [&] { env.Consume(10); });
  env.Run();
  EXPECT_EQ(reason, WakeReason::kStopped);
}

TEST(SimMutexTest, MutualExclusionFifo) {
  SimEnv env;
  SimMutex m(&env);
  std::vector<int> order;
  for (int i = 0; i < 3; i++) {
    env.Spawn("p" + std::to_string(i), [&, i] {
      SimMutexGuard g(&m);
      order.push_back(i);
      env.SleepFor(100);  // hold across a block point
    });
  }
  env.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(IoEventTest, FireBeforeWait) {
  SimEnv env;
  IoEvent ev(&env);
  env.Spawn("p", [&] {
    ev.Fire();
    EXPECT_TRUE(ev.Wait());
  });
  env.Run();
}

TEST(IoEventTest, WaitThenFire) {
  SimEnv env;
  IoEvent ev(&env);
  bool waited = false;
  env.Spawn("waiter", [&] {
    EXPECT_TRUE(ev.Wait());
    waited = true;
  });
  env.Spawn("firer", [&] {
    env.SleepFor(200);
    ev.Fire();
  });
  env.Run();
  EXPECT_TRUE(waited);
}

TEST(ClockTest, FormatDuration) {
  EXPECT_EQ(FormatDuration(512), "512us");
  EXPECT_EQ(FormatDuration(9300), "9.3ms");
  EXPECT_EQ(FormatDuration(2 * kSecond + 500 * kMillisecond), "2.5s");
  EXPECT_EQ(FormatDuration(2 * kHour + 40 * kMinute), "2h40m");
}

TEST(SimEnvTest, SpawnFromWithinProcess) {
  SimEnv env;
  bool child_ran = false;
  env.Spawn("parent", [&] {
    env.Consume(10);
    env.Spawn("child", [&] { child_ran = true; });
    env.SleepFor(100);
  });
  env.Run();
  EXPECT_TRUE(child_ran);
}

// ---------------------------------------------------------------------------
// Backend-parameterized contract tests (SIMULATOR.md): every case below must
// behave identically under the thread backend (the oracle) and the fiber
// backend (the default). The non-parameterized tests above run under the
// session default (LFSTX_SIM_BACKEND, fibers when unset), so the sanitizer
// jobs exercise fiber stacks through the whole suite.
// ---------------------------------------------------------------------------

class SimBackendTest : public ::testing::TestWithParam<SimBackend> {
 protected:
  SimBackend backend() const { return GetParam(); }
};

INSTANTIATE_TEST_SUITE_P(
    Backends, SimBackendTest,
    ::testing::Values(SimBackend::kThreads, SimBackend::kFibers),
    [](const ::testing::TestParamInfo<SimBackend>& info) {
      return std::string(SimBackendName(info.param));
    });

TEST_P(SimBackendTest, SpawnAndWakeOrderingIsFifo) {
  SimEnv env(CostModel(), backend());
  WaitQueue q(&env);
  std::vector<int> order;
  for (int i = 0; i < 4; i++) {
    env.Spawn("sleeper" + std::to_string(i), [&, i] {
      EXPECT_EQ(q.Sleep(), WakeReason::kWoken);
      order.push_back(i);
    });
  }
  env.Spawn("waker", [&] {
    env.Consume(10);
    q.WakeOne();  // wakes sleeper0 (longest waiting)
    q.WakeOne();  // sleeper1
    q.WakeAll();  // sleeper2, sleeper3 in queue order
  });
  env.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST_P(SimBackendTest, DaemonStoppedDuringSleep) {
  CostModel costs;
  costs.context_switch_us = 0;
  SimEnv env(costs, backend());
  int rounds = 0;
  bool saw_stop = false;
  env.Spawn(
      "daemon",
      [&] {
        while (!env.stop_requested()) {
          env.SleepFor(10);
          rounds++;
          if (rounds > 1000000) break;
        }
        saw_stop = true;
      },
      /*daemon=*/true);
  env.Spawn("main", [&] { env.SleepFor(55); });
  env.Run();
  EXPECT_TRUE(saw_stop);
  EXPECT_GE(rounds, 3);
  EXPECT_LE(rounds, 10);
}

TEST_P(SimBackendTest, DaemonForceWokenFromBlockedQueue) {
  SimEnv env(CostModel(), backend());
  WaitQueue q(&env);
  WakeReason reason = WakeReason::kWoken;
  env.Spawn("daemon", [&] { reason = q.Sleep(); }, /*daemon=*/true);
  env.Spawn("main", [&] { env.Consume(10); });
  env.Run();
  EXPECT_EQ(reason, WakeReason::kStopped);
}

TEST_P(SimBackendTest, NestedWaitQueueWake) {
  // A woken process immediately blocks on (and is woken from) a second
  // queue while further wakes are still pending on the first: wake
  // delivery must not lose or reorder anything across the nesting.
  SimEnv env(CostModel(), backend());
  WaitQueue outer(&env);
  WaitQueue inner(&env);
  std::vector<std::string> log;
  for (int i = 0; i < 2; i++) {
    env.Spawn("w" + std::to_string(i), [&, i] {
      EXPECT_EQ(outer.Sleep(), WakeReason::kWoken);
      log.push_back("outer" + std::to_string(i));
      EXPECT_EQ(inner.Sleep(), WakeReason::kWoken);
      log.push_back("inner" + std::to_string(i));
    });
  }
  env.Spawn("waker", [&] {
    env.Consume(5);
    outer.WakeAll();          // both runnable, none reached inner yet
    env.SleepFor(10);         // let them park on the inner queue
    log.push_back("waking-inner");
    inner.WakeOne();
    inner.WakeOne();
  });
  env.Run();
  EXPECT_EQ(log, (std::vector<std::string>{"outer0", "outer1",
                                           "waking-inner", "inner0",
                                           "inner1"}));
}

TEST_P(SimBackendTest, ThousandProcSmoke) {
  SimEnv env(CostModel(), backend());
  // Held across the sleep on purpose: every process blocks on the gate.
  SimMutex gate(&env, "gate", /*yield_ok=*/true);
  uint64_t done = 0;
  const int kProcs = 1000;
  for (int i = 0; i < kProcs; i++) {
    env.Spawn("p" + std::to_string(i), [&] {
      {
        SimMutexGuard g(&gate);
        ASSERT_TRUE(g.locked());
        env.Consume(5);
        env.SleepFor(10);
      }
      done++;
    });
  }
  env.Run();
  EXPECT_EQ(done, static_cast<uint64_t>(kProcs));
  EXPECT_EQ(env.stats().processes_spawned, static_cast<uint64_t>(kProcs));
  EXPECT_GT(env.stats().context_switches, static_cast<uint64_t>(kProcs));
}

TEST_P(SimBackendTest, SpawnFromWithinProcess) {
  SimEnv env(CostModel(), backend());
  bool child_ran = false;
  env.Spawn("parent", [&] {
    env.Consume(10);
    env.Spawn("child", [&] { child_ran = true; });
    env.SleepFor(100);
  });
  env.Run();
  EXPECT_TRUE(child_ran);
}

TEST_P(SimBackendTest, DeepStacksAreIsolated) {
  // Each process recurses with its own frame-local state across block
  // points; a shared or corrupted stack would scramble the sums.
  SimEnv env(CostModel(), backend());
  struct Rec {
    static uint64_t Down(SimEnv* env, int depth, uint64_t acc) {
      if (depth == 0) {
        env->SleepFor(20);  // suspend with the whole frame chain live
        return acc;
      }
      volatile uint64_t local = static_cast<uint64_t>(depth);
      uint64_t below = Down(env, depth - 1, acc + local);
      return below + local;
    }
  };
  uint64_t sums[3] = {};
  for (int i = 0; i < 3; i++) {
    env.Spawn("deep" + std::to_string(i), [&, i] {
      sums[i] = Rec::Down(&env, 200, 0);
    });
  }
  env.Run();
  // sum = 2 * (1 + 2 + ... + 200)
  for (uint64_t s : sums) EXPECT_EQ(s, 2u * (200u * 201u / 2));
}

// The two backends must execute the *same* schedule: identical wake order,
// identical virtual end time, identical scheduler statistics. This is the
// unit-level version of CI's threads-vs-fibers fig4 step, which asserts
// byte-identical traces and metrics on a full fig4 run.
TEST(SimBackendEquivalenceTest, IdenticalScheduleAndStats) {
  auto workload = [](SimBackend backend, std::vector<std::string>* log,
                     SimEnv::Stats* stats) {
    SimEnv env(CostModel(), backend);
    SimMutex mu(&env);
    WaitQueue q(&env);
    env.Spawn(
        "ticker",
        [&] {
          while (!env.stop_requested()) {
            env.SleepFor(30);
            log->push_back("tick@" + std::to_string(env.Now()));
          }
        },
        /*daemon=*/true);
    for (int i = 0; i < 5; i++) {
      env.Spawn("worker" + std::to_string(i), [&, i] {
        for (int r = 0; r < 3; r++) {
          SimMutexGuard g(&mu);
          env.Syscall();
          env.Consume(7);
          if (i % 2 == 0) env.Yield();
          env.SleepFor(11);
        }
        log->push_back("done" + std::to_string(i) + "@" +
                       std::to_string(env.Now()));
        q.WakeAll();
      });
    }
    SimTime end = env.Run();
    log->push_back("end@" + std::to_string(end));
    *stats = env.stats();
  };
  std::vector<std::string> log_threads, log_fibers;
  SimEnv::Stats st_threads, st_fibers;
  workload(SimBackend::kThreads, &log_threads, &st_threads);
  workload(SimBackend::kFibers, &log_fibers, &st_fibers);
  EXPECT_EQ(log_threads, log_fibers);
  EXPECT_EQ(st_threads.context_switches, st_fibers.context_switches);
  EXPECT_EQ(st_threads.syscalls, st_fibers.syscalls);
  EXPECT_EQ(st_threads.cpu_busy_us, st_fibers.cpu_busy_us);
  EXPECT_EQ(st_threads.processes_spawned, st_fibers.processes_spawned);
}

}  // namespace
}  // namespace lfstx
