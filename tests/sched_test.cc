// Scheduler + machine-loop tests: task execution, sleep/wakeup, round-robin
// fairness, voluntary yield, multicore placement, WFI idle accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/base/status.h"
#include "src/ulib/usys.h"
#include "src/vos/prototypes.h"
#include "src/vos/system.h"
#include "tests/run_in_os.h"

namespace vos {
namespace {

SystemOptions Proto2Opts() {
  SystemOptions opt = OptionsForStage(Stage::kProto2);
  return opt;
}

TEST(Sched, KernelTasksRunAndExit) {
  System sys(Proto2Opts());
  int ran = 0;
  sys.kernel().CreateKernelTask("t1", [&] { ++ran; });
  sys.kernel().CreateKernelTask("t2", [&] { ++ran; });
  sys.Run(Ms(50));
  EXPECT_EQ(ran, 2);
}

TEST(Sched, SleepWakesAtTheRightTime) {
  System sys(Proto2Opts());
  Kernel& k = sys.kernel();
  Cycles slept_from = 0, woke_at = 0;
  k.CreateKernelTask("sleeper", [&] {
    slept_from = k.Now();
    k.KSleepMs(25);
    woke_at = k.Now();
  });
  sys.Run(Ms(100));
  ASSERT_GT(woke_at, 0u);
  double ms = ToMs(woke_at - slept_from);
  EXPECT_GE(ms, 25.0);
  EXPECT_LT(ms, 28.0);  // wake + schedule slack
}

// sleep() waits out its deadline. A child's exit wakes its parent's wait()
// channel; a parent asleep meanwhile must sleep on.
TEST(Sched, SleepOutlastsAChildsExit) {
  System sys(OptionsForStage(Stage::kProto5));
  Kernel* k = &sys.kernel();
  Cycles slept = 0;
  Cycles blocked = 0;
  int rc = RunInOs(sys, "sleepkid", [k, &slept, &blocked](AppEnv& env) -> int {
    std::int64_t child = ufork(env, [k]() -> int {
      AppEnv me = ChildEnv(k);
      UBurn(me, static_cast<double>(Ms(20)));
      return 0;
    });
    if (child <= 0) {
      return 1;
    }
    Task* self = k->CurrentTask();
    Cycles t0 = k->Now();
    Cycles blocked0 = self->blocked_time;
    usleep_ms(env, 100);
    slept = k->Now() - t0;
    blocked = self->blocked_time - blocked0;
    int status;
    return uwait(env, &status) == child ? 0 : 2;
  });
  EXPECT_EQ(rc, 0);
  EXPECT_GE(ToMs(slept), 100.0);
  EXPECT_GE(ToMs(blocked), 100.0);
}

// Block's early returns: none of them parks the task.
TEST(Sched, BlockReturnsWithoutParkingOnNonblockKillOrNoTask) {
  System sys(Proto2Opts());
  Kernel& k = sys.kernel();
  char chan = 0;
  std::int64_t nonblock = 1;
  std::int64_t killed = 1;
  Cycles blocked = 1;
  k.CreateKernelTask("blocker", [&] {
    Task* self = k.CurrentTask();
    nonblock = k.sched().Block(self, &chan, nullptr, /*nonblock=*/true);
    self->killed = true;
    killed = k.sched().Block(self, &chan, nullptr, /*nonblock=*/false);
    blocked = self->blocked_time;
  });
  EXPECT_EQ(k.sched().Block(nullptr, &chan, nullptr, /*nonblock=*/false), kErrAgain);
  sys.Run(Ms(10));
  EXPECT_EQ(nonblock, kErrAgain);
  EXPECT_EQ(killed, kErrIntr);
  EXPECT_EQ(blocked, 0u);
}

TEST(Sched, RoundRobinSharesTheCpuFairly) {
  System sys(Proto2Opts());
  Kernel& k = sys.kernel();
  Cycles t1 = 0, t2 = 0;
  auto spinner = [&k](Cycles* out) {
    return [&k, out] {
      Task* self = k.CurrentTask();
      while (!self->killed) {
        self->fiber().Burn(Ms(1));
        *out += Ms(1);
      }
    };
  };
  k.CreateKernelTask("spin1", spinner(&t1));
  k.CreateKernelTask("spin2", spinner(&t2));
  sys.Run(Ms(400));
  double ratio = double(t1) / double(t2);
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.25);
  EXPECT_GT(ToMs(t1 + t2), 350.0);  // the single core was ~fully used
}

TEST(Sched, SleepersDoNotBurnCpu) {
  System sys(Proto2Opts());
  Kernel& k = sys.kernel();
  k.CreateKernelTask("idleish", [&] {
    for (int i = 0; i < 5; ++i) {
      k.KSleepMs(10);
    }
  });
  Cycles busy_before = sys.kernel().machine().busy_time(0);
  sys.Run(Ms(100));
  Cycles busy = sys.kernel().machine().busy_time(0) - busy_before;
  // Mostly idle: only wakeup/sleep transitions burn.
  EXPECT_LT(ToMs(busy), 15.0);
  EXPECT_GT(ToMs(sys.kernel().machine().idle_time(0)), 50.0);
}

TEST(Sched, WakeupChannelsAreSelective) {
  System sys(Proto2Opts());
  Kernel& k = sys.kernel();
  char chan_a = 0, chan_b = 0;
  bool woke_a = false, woke_b = false;
  k.CreateKernelTask("wa", [&] {
    k.sched().Block(k.CurrentTask(), &chan_a, nullptr, false);
    woke_a = true;
  });
  k.CreateKernelTask("wb", [&] {
    k.sched().Block(k.CurrentTask(), &chan_b, nullptr, false);
    woke_b = true;
  });
  k.CreateKernelTask("waker", [&] {
    k.KSleepMs(5);
    k.sched().Wakeup(&chan_a);
  });
  sys.Run(Ms(50));
  EXPECT_TRUE(woke_a);
  EXPECT_FALSE(woke_b);
}

TEST(Sched, MulticoreDistributesTasks) {
  SystemOptions opt = OptionsForStage(Stage::kProto5);
  opt.with_media_assets = false;
  System sys(opt);
  Kernel& k = sys.kernel();
  // Four CPU-bound kernel tasks on four cores: all should make ~full progress.
  Cycles done[4] = {};
  for (int i = 0; i < 4; ++i) {
    k.CreateKernelTask("spin" + std::to_string(i), [&k, &done, i] {
      Task* self = k.CurrentTask();
      while (!self->killed) {
        self->fiber().Burn(Ms(1));
        done[i] += Ms(1);
      }
    });
  }
  sys.Run(Ms(200));
  for (int i = 0; i < 4; ++i) {
    EXPECT_GT(ToMs(done[i]), 150.0) << "task " << i << " starved";
  }
  // Utilization on all cores is high (the Fig 10 >95% check at steady state).
  for (unsigned c = 0; c < 4; ++c) {
    EXPECT_GT(sys.kernel().machine().Utilization(c), 0.5);
  }
}

TEST(Sched, WakeupCrossesCores) {
  SystemOptions opt = OptionsForStage(Stage::kProto5);
  opt.with_media_assets = false;
  // Stealing off: a woken task must land back on its *home* core, and with
  // the balancer disabled nothing may move it afterwards.
  opt.config_hook = [](KernelConfig& cfg) { cfg.sched_steal = false; };
  System sys(opt);
  Kernel& k = sys.kernel();
  char chan = 0;
  bool woke = false;
  // Sleeper lives on core 1; the waker runs on core 0. The wakeup must take
  // the sched → sched-core1 path and land the sleeper back on its home core.
  Task* sleeper = k.CreateKernelTask(
      "xcore-sleeper",
      [&] {
        k.sched().Block(k.CurrentTask(), &chan, nullptr, false);
        woke = true;
      },
      /*core_hint=*/1);
  k.CreateKernelTask(
      "xcore-waker",
      [&] {
        k.KSleepMs(5);
        k.sched().Wakeup(&chan);
      },
      /*core_hint=*/0);
  sys.Run(Ms(50));
  EXPECT_TRUE(woke);
  EXPECT_EQ(sleeper->core, 1u);
}

TEST(Sched, BroadcastWakeupHandlesManySleepers) {
  // Regression: the seed collected sleepers into a fixed Task*[64] and
  // panicked past 64; the chunked drain must wake any number.
  System sys(Proto2Opts());
  Kernel& k = sys.kernel();
  char chan = 0;
  constexpr int kSleepers = 100;
  int woken = 0;
  for (int i = 0; i < kSleepers; ++i) {
    k.CreateKernelTask("s" + std::to_string(i), [&] {
      k.sched().Block(k.CurrentTask(), &chan, nullptr, false);
      ++woken;
    });
  }
  std::size_t wake_count = 0;
  k.CreateKernelTask("broadcaster", [&] {
    k.KSleepMs(5);
    wake_count = k.sched().Wakeup(&chan);
  });
  sys.Run(Ms(100));
  EXPECT_EQ(wake_count, static_cast<std::size_t>(kSleepers));
  EXPECT_EQ(woken, kSleepers);
}

// Runs 8 CPU hogs all pinned to core 0 of a 4-core system and reports the
// per-core steal counters plus each task's progress.
struct SkewResult {
  std::vector<std::uint64_t> counters;  // steals, stolen, migrations per core
  double min_progress_ms = 0;
};

SkewResult RunSkewedLoad() {
  SystemOptions opt = OptionsForStage(Stage::kProto5);
  opt.with_media_assets = false;
  System sys(opt);
  Kernel& k = sys.kernel();
  constexpr int kTasks = 8;
  Cycles done[kTasks] = {};
  for (int i = 0; i < kTasks; ++i) {
    k.CreateKernelTask(
        "skew" + std::to_string(i),
        [&k, &done, i] {
          Task* self = k.CurrentTask();
          while (!self->killed) {
            self->fiber().Burn(Us(500));
            done[i] += Us(500);
          }
        },
        /*core_hint=*/0);
  }
  sys.Run(Ms(200));
  SkewResult r;
  for (unsigned c = 0; c < 4; ++c) {
    r.counters.push_back(k.sched().steals(c));
    r.counters.push_back(k.sched().stolen_tasks(c));
    r.counters.push_back(k.sched().migrations(c));
  }
  r.min_progress_ms = ToMs(done[0]);
  for (int i = 1; i < kTasks; ++i) {
    r.min_progress_ms = std::min(r.min_progress_ms, ToMs(done[i]));
  }
  return r;
}

TEST(Sched, WorkStealingSpreadsSkewedLoad) {
  SkewResult r = RunSkewedLoad();
  // Cores 1-3 started empty, so they must have stolen from core 0.
  std::uint64_t total_steals = r.counters[3] + r.counters[6] + r.counters[9];
  std::uint64_t migrated_from_0 = r.counters[2];
  EXPECT_GT(total_steals, 0u);
  EXPECT_GT(migrated_from_0, 0u);
  // With the load spread over 4 cores, 8 tasks × 200ms ≥ ~75ms each; a
  // global-lock-free but steal-less scheduler would cap each at ~25ms.
  EXPECT_GT(r.min_progress_ms, 60.0);
}

TEST(Sched, WorkStealingIsDeterministic) {
  // Victim selection has no randomness: two identical runs must produce
  // identical steal/migration counters on every core.
  SkewResult a = RunSkewedLoad();
  SkewResult b = RunSkewedLoad();
  EXPECT_EQ(a.counters, b.counters);
}

// Round robin keeps a sleeper responsive beside a CPU hog on one core: the
// woken sleeper queues behind the hog for at most the rest of the hog's
// slice, so every sleep returns within one slice plus one tick of its
// deadline.
TEST(Sched, SleeperWaitsAtMostOneSliceBehindAHog) {
  System sys(Proto2Opts());
  Kernel& k = sys.kernel();
  k.CreateKernelTask("hog", [&] {
    Task* self = k.CurrentTask();
    while (!self->killed) {
      self->fiber().Burn(Ms(1));
    }
  });
  std::vector<Cycles> late;
  k.CreateKernelTask("sleeper", [&] {
    for (int i = 0; i < 30; ++i) {
      Cycles deadline = k.Now() + Ms(2);
      k.KSleepMs(2);
      late.push_back(k.Now() - deadline);
    }
  });
  sys.Run(Ms(600));
  ASSERT_EQ(late.size(), 30u);
  for (Cycles c : late) {
    EXPECT_LE(c, kTimeSlice + kTickInterval);
  }
}

TEST(Sched, YieldRotatesImmediately) {
  System sys(Proto2Opts());
  Kernel& k = sys.kernel();
  std::vector<int> order;
  k.CreateKernelTask("y1", [&] {
    for (int i = 0; i < 3; ++i) {
      order.push_back(1);
      k.sched().Yield(k.CurrentTask());
    }
  });
  k.CreateKernelTask("y2", [&] {
    for (int i = 0; i < 3; ++i) {
      order.push_back(2);
      k.sched().Yield(k.CurrentTask());
    }
  });
  sys.Run(Ms(100));
  ASSERT_EQ(order.size(), 6u);
  // Strict alternation after the first rotation.
  for (std::size_t i = 2; i < order.size(); ++i) {
    EXPECT_NE(order[i], order[i - 1]);
  }
}

TEST(Machine, IrqHandlerTimeDelaysTasks) {
  System sys(Proto2Opts());
  Kernel& k = sys.kernel();
  // Charge heavy IRQ debt; a task's wall-clock progress slows accordingly.
  k.vtimers().AddPeriodic(k.Now() + Ms(1), Ms(1), [&k] {
    k.machine().ChargeIrq(0, Us(800));  // 80% of each tick in the handler
  });
  Cycles progressed = 0;
  k.CreateKernelTask("victim", [&] {
    Task* self = k.CurrentTask();
    while (!self->killed) {
      self->fiber().Burn(Us(100));
      progressed += Us(100);
    }
  });
  sys.Run(Ms(100));
  // Of ~100ms, the handler stole ~80%.
  EXPECT_LT(ToMs(progressed), 40.0);
  EXPECT_GT(ToMs(progressed), 10.0);
}

TEST(Machine, UtilizationIdleWhenNothingRuns) {
  System sys(Proto2Opts());
  sys.Run(Ms(50));
  EXPECT_LT(sys.kernel().machine().Utilization(0), 0.1);
}

TEST(Prototype1, DonutRendersInIrqHandler) {
  SystemOptions opt = OptionsForStage(Stage::kProto1);
  System sys(opt);
  int frames = RunProto1DonutAppliance(sys, 10, 30);
  EXPECT_GE(frames, 10);
  // The screen shows the donut: scanout has non-background pixels.
  Image shot = sys.Screenshot();
  std::size_t lit = 0;
  for (std::uint32_t px : shot.pixels) {
    lit += (px & 0x00ffffff) != 0;
  }
  EXPECT_GT(lit, 500u);
}

TEST(Prototype2, ConcurrentDonutsSpinAtTheirOwnPace) {
  SystemOptions opt = OptionsForStage(Stage::kProto2);
  System sys(opt);
  RunProto2Donuts(sys, 3, Ms(300));
  // Three tasks exist beyond boot, all having consumed CPU.
  int donuts = 0;
  for (Task* t : sys.kernel().AllTasks()) {
    if (t->name().rfind("donut", 0) == 0) {
      ++donuts;
      EXPECT_GT(t->cpu_time(TimeDomain::kKernel) + t->cpu_time(TimeDomain::kUser) +
                    t->cpu_time(TimeDomain::kUserLib),
                0u);
    }
  }
  EXPECT_EQ(donuts, 3);
  Image shot = sys.Screenshot();
  std::size_t lit = 0;
  for (std::uint32_t px : shot.pixels) {
    lit += (px & 0x00ffffff) != 0;
  }
  EXPECT_GT(lit, 1000u);
}

}  // namespace
}  // namespace vos
