// Lockdep validator tests: seeded lock-order inversions (direct and
// transitive), same-class nesting, sleep-with-spinlock-held, both directions
// of the IRQ-safety check, the disabled knob, the lock-chain cache (a cached
// chain never hides a violation, and its edge counts stay exact), and a full
// Proto5 boot whose organic lock traffic must populate /proc/lockdep with the
// kernel's classes and dependency edges. Violation messages must carry both
// offending chains with their shadow-stack backtraces.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/app_registry.h"
#include "src/base/assert.h"
#include "src/base/status.h"
#include "src/kernel/lockdep.h"
#include "src/kernel/spinlock.h"
#include "src/ulib/usys.h"
#include "src/vos/prototypes.h"
#include "src/vos/system.h"
#include "tests/run_in_os.h"

namespace vos {
namespace {

// Unit fixture: a fresh lockdep session with controllable fake frames, so
// tests can assert that specific frames appear in reports.
class LockdepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Lockdep::Instance().Reset();
    Lockdep::Instance().SetDefaultFrames(&frames_);
    ASSERT_EQ(IrqOffDepth(), 0);
  }
  void TearDown() override {
    Lockdep::Instance().SetIrqContext(false);
    Lockdep::Instance().SetDefaultFrames(nullptr);
    Lockdep::Instance().Reset();
  }

  std::vector<const char*> frames_;
};

TEST_F(LockdepTest, InversionReportsBothChainsWithBacktraces) {
  SpinLock a("classA");
  SpinLock b("classB");
  frames_ = {"worker_one", "take_a_then_b"};
  {
    SpinGuard ga(a);
    SpinGuard gb(b);  // establishes classA -> classB
  }
  EXPECT_TRUE(Lockdep::Instance().HasPath("classA", "classB"));

  frames_ = {"worker_two", "take_b_then_a"};
  SpinGuard gb(b);
  try {
    a.Acquire();  // lockdep: naked-ok (seeding a violation)
    FAIL() << "B-after-A inversion not detected";
  } catch (const FatalError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("lock-order inversion"), std::string::npos) << msg;
    // The opposing chain's stored backtrace (first A->B observation)...
    EXPECT_NE(msg.find("take_a_then_b"), std::string::npos) << msg;
    // ...and the current chain's backtrace.
    EXPECT_NE(msg.find("take_b_then_a"), std::string::npos) << msg;
    EXPECT_NE(msg.find("classA -> classB"), std::string::npos) << msg;
  }
  // The failed acquire backed out: only b is held, and IRQ depth is balanced.
  EXPECT_EQ(Lockdep::Instance().HeldNames(), std::vector<std::string>{"classB"});
  EXPECT_EQ(IrqOffDepth(), 1);
}

TEST_F(LockdepTest, TransitiveInversionDetected) {
  SpinLock a("t_a");
  SpinLock b("t_b");
  SpinLock c("t_c");
  {
    SpinGuard ga(a);
    SpinGuard gb(b);
  }
  {
    SpinGuard gb(b);
    SpinGuard gc(c);
  }
  // The graph now proves t_a ->* t_c; taking t_a under t_c closes the cycle
  // even though no single pair was ever inverted directly.
  SpinGuard gc(c);
  try {
    a.Acquire();  // lockdep: naked-ok (seeding a violation)
    FAIL() << "transitive inversion not detected";
  } catch (const FatalError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("t_a -> t_b -> t_c"), std::string::npos) << msg;
  }
}

TEST_F(LockdepTest, ConsistentNestingHasNoFalsePositive) {
  SpinLock outer("outerclass");
  SpinLock inner("innerclass");
  for (int i = 0; i < 4; ++i) {
    SpinGuard go(outer);
    SpinGuard gi(inner);
  }
  EXPECT_TRUE(Lockdep::Instance().HasPath("outerclass", "innerclass"));
  EXPECT_FALSE(Lockdep::Instance().HasPath("innerclass", "outerclass"));
  EXPECT_EQ(Lockdep::Instance().EdgeCount(), 1u);
}

TEST_F(LockdepTest, SameClassNestingRejected) {
  // Two pipes share one class; nesting them is an order bug waiting for the
  // second context to nest them the other way around.
  SpinLock p1("pipeclass");
  SpinLock p2("pipeclass");
  SpinGuard g1(p1);
  EXPECT_THROW(p2.Acquire(), FatalError);
}

TEST_F(LockdepTest, SleepWithSpinlockHeldDetected) {
  SpinLock l("condlock");
  frames_ = {"pipe_read", "sleep_on_channel"};
  int chan = 0;
  {
    SpinGuard g(l);
    try {
      Lockdep::Instance().OnSleep(&chan);
      FAIL() << "sleep with spinlock held not detected";
    } catch (const FatalError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("sleep with spinlock held"), std::string::npos) << msg;
      EXPECT_NE(msg.find("condlock"), std::string::npos) << msg;
      EXPECT_NE(msg.find("sleep_on_channel"), std::string::npos) << msg;
    }
  }
  // With every lock dropped the same park is legal.
  Lockdep::Instance().OnSleep(&chan);
}

TEST_F(LockdepTest, IrqUsedLockHeldWithIrqsEnabledDetected) {
  SpinLock l("irqclass");
  frames_ = {"timer_irq_handler"};
  Lockdep::Instance().SetIrqContext(true);
  {
    SpinGuard g(l);  // marks the class irq-used
  }
  Lockdep::Instance().SetIrqContext(false);

  frames_ = {"task_path"};
  l.Acquire();  // lockdep: naked-ok (seeding a violation)
  ASSERT_EQ(IrqOffDepth(), 1);
  try {
    PopOff();  // IRQs become deliverable with an irq-used lock still held
    FAIL() << "irq-unsafe hold not detected";
  } catch (const FatalError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("irq-unsafe lock"), std::string::npos) << msg;
    EXPECT_NE(msg.find("timer_irq_handler"), std::string::npos) << msg;
    EXPECT_NE(msg.find("task_path"), std::string::npos) << msg;
  }
  PushOff();  // rebalance the depth the seeded PopOff consumed
  l.Release();  // lockdep: naked-ok (cleanup)
}

TEST_F(LockdepTest, IrqAcquireOfLockHeldWithIrqsOnDetected) {
  // The same window, discovered in the opposite order: the lock is first seen
  // held with IRQs enabled, and only later taken from IRQ context.
  SpinLock l("irqclass2");
  l.Acquire();  // lockdep: naked-ok (seeding a violation)
  PopOff();     // no violation yet: nothing irq-used — but it is recorded
  PushOff();
  l.Release();  // lockdep: naked-ok (cleanup)

  Lockdep::Instance().SetIrqContext(true);
  EXPECT_THROW(l.Acquire(), FatalError);
  Lockdep::Instance().SetIrqContext(false);
  EXPECT_TRUE(Lockdep::Instance().HeldNames().empty());
  EXPECT_EQ(IrqOffDepth(), 0);
}

TEST_F(LockdepTest, ReportFormatsClassesAndEdges) {
  SpinLock a("rep_a");
  SpinLock b("rep_b");
  {
    SpinGuard ga(a);
    SpinGuard gb(b);
  }
  const std::string rep = Lockdep::Instance().Report();
  EXPECT_NE(rep.find("lockdep: on"), std::string::npos) << rep;
  EXPECT_NE(rep.find("rep_a"), std::string::npos) << rep;
  EXPECT_NE(rep.find("rep_a -> rep_b (seen 1x)"), std::string::npos) << rep;
}

// --- The lock-chain cache never hides a violation --------------------------

TEST_F(LockdepTest, CachedChainStillReportsTheInversionWithBothBacktraces) {
  SpinLock a("cache_a");
  SpinLock b("cache_b");
  frames_ = {"worker_one", "first_a_then_b"};
  {
    SpinGuard ga(a);
    SpinGuard gb(b);  // records cache_a -> cache_b with these frames
  }
  frames_ = {"worker_one", "warm_a_then_b"};
  for (int i = 1; i < 1000; ++i) {
    SpinGuard ga(a);
    SpinGuard gb(b);  // the cached chain: counted, not re-validated
  }
  frames_ = {"worker_two", "now_b_then_a"};
  SpinGuard gb(b);
  try {
    a.Acquire();  // lockdep: naked-ok (seeding a violation)
    FAIL() << "inversion of a cached chain not detected";
  } catch (const FatalError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("lock-order inversion"), std::string::npos) << msg;
    EXPECT_NE(msg.find("first_a_then_b"), std::string::npos) << msg;
    EXPECT_NE(msg.find("now_b_then_a"), std::string::npos) << msg;
    // The edge keeps the backtraces of its first observation.
    EXPECT_EQ(msg.find("warm_a_then_b"), std::string::npos) << msg;
  }
}

TEST_F(LockdepTest, CachedChainsStillCloseATransitiveCycle) {
  SpinLock a("cache_ta");
  SpinLock b("cache_tb");
  SpinLock c("cache_tc");
  for (int i = 0; i < 1000; ++i) {
    {
      SpinGuard ga(a);
      SpinGuard gb(b);
    }
    SpinGuard gb(b);
    SpinGuard gc(c);
  }
  SpinGuard gc(c);
  try {
    a.Acquire();  // lockdep: naked-ok (seeding a violation)
    FAIL() << "transitive inversion over cached chains not detected";
  } catch (const FatalError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("cache_ta -> cache_tb -> cache_tc"), std::string::npos) << msg;
  }
}

TEST_F(LockdepTest, OutOfOrderReleaseRecordsOnlyTheLocksStillHeld) {
  SpinLock a("ooo_a");
  SpinLock b("ooo_b");
  SpinLock c("ooo_c");
  a.Acquire();  // lockdep: naked-ok (the SleepOn pattern: release below the top)
  b.Acquire();  // lockdep: naked-ok
  a.Release();  // lockdep: naked-ok
  {
    SpinGuard gc(c);
  }
  b.Release();  // lockdep: naked-ok
  // Only the direct edges: a -> c is implied through b, never observed.
  EXPECT_EQ(Lockdep::Instance().EdgeCount(), 2u);
  // The re-keyed entry and a plain b-then-c nesting are one chain.
  {
    SpinGuard gb(b);
    SpinGuard gc(c);
  }
  const std::string rep = Lockdep::Instance().Report();
  EXPECT_NE(rep.find("ooo_a -> ooo_b (seen 1x)"), std::string::npos) << rep;
  EXPECT_NE(rep.find("ooo_b -> ooo_c (seen 2x)"), std::string::npos) << rep;
  EXPECT_EQ(rep.find("ooo_a -> ooo_c"), std::string::npos) << rep;
  EXPECT_EQ(IrqOffDepth(), 0);
}

TEST_F(LockdepTest, WarmChainCountsEveryNesting) {
  SpinLock a("rep_a");
  SpinLock b("rep_b");
  for (int i = 0; i < 1000; ++i) {
    SpinGuard ga(a);
    SpinGuard gb(b);
  }
  const std::string rep = Lockdep::Instance().Report();
  EXPECT_NE(rep.find("rep_a -> rep_b (seen 1000x)"), std::string::npos) << rep;
}

TEST_F(LockdepTest, DeepNestingAroundAnOutOfOrderReleaseCountsEveryEdge) {
  std::vector<std::unique_ptr<SpinLock>> locks;
  for (int i = 0; i < 9; ++i) {
    locks.push_back(std::make_unique<SpinLock>("deep" + std::to_string(i)));
  }
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 8; ++i) {
      locks[static_cast<std::size_t>(i)]->Acquire();  // lockdep: naked-ok
    }
    locks[2]->Release();  // lockdep: naked-ok (below the top)
    locks[8]->Acquire();  // lockdep: naked-ok (on the shortened chain)
    for (int i = 8; i >= 0; --i) {
      if (i != 2) {
        locks[static_cast<std::size_t>(i)]->Release();  // lockdep: naked-ok
      }
    }
  }
  EXPECT_TRUE(Lockdep::Instance().HeldNames().empty());
  EXPECT_EQ(IrqOffDepth(), 0);
  // Every pair below the ninth lock is an edge except deep2 -> deep8: deep2
  // was released before deep8 was taken.
  EXPECT_EQ(Lockdep::Instance().EdgeCount(), 35u);
  const std::string rep = Lockdep::Instance().Report();
  const std::string order = rep.substr(rep.find("order:\n"));
  EXPECT_EQ(order,
            "order:\n"
            "  deep0 -> deep1 (seen 3x)\n"
            "  deep0 -> deep2 (seen 3x)\n"
            "  deep0 -> deep3 (seen 3x)\n"
            "  deep0 -> deep4 (seen 3x)\n"
            "  deep0 -> deep5 (seen 3x)\n"
            "  deep0 -> deep6 (seen 3x)\n"
            "  deep0 -> deep7 (seen 3x)\n"
            "  deep0 -> deep8 (seen 3x)\n"
            "  deep1 -> deep2 (seen 3x)\n"
            "  deep1 -> deep3 (seen 3x)\n"
            "  deep1 -> deep4 (seen 3x)\n"
            "  deep1 -> deep5 (seen 3x)\n"
            "  deep1 -> deep6 (seen 3x)\n"
            "  deep1 -> deep7 (seen 3x)\n"
            "  deep1 -> deep8 (seen 3x)\n"
            "  deep2 -> deep3 (seen 3x)\n"
            "  deep2 -> deep4 (seen 3x)\n"
            "  deep2 -> deep5 (seen 3x)\n"
            "  deep2 -> deep6 (seen 3x)\n"
            "  deep2 -> deep7 (seen 3x)\n"
            "  deep3 -> deep4 (seen 3x)\n"
            "  deep3 -> deep5 (seen 3x)\n"
            "  deep3 -> deep6 (seen 3x)\n"
            "  deep3 -> deep7 (seen 3x)\n"
            "  deep3 -> deep8 (seen 3x)\n"
            "  deep4 -> deep5 (seen 3x)\n"
            "  deep4 -> deep6 (seen 3x)\n"
            "  deep4 -> deep7 (seen 3x)\n"
            "  deep4 -> deep8 (seen 3x)\n"
            "  deep5 -> deep6 (seen 3x)\n"
            "  deep5 -> deep7 (seen 3x)\n"
            "  deep5 -> deep8 (seen 3x)\n"
            "  deep6 -> deep7 (seen 3x)\n"
            "  deep6 -> deep8 (seen 3x)\n"
            "  deep7 -> deep8 (seen 3x)\n");
  EXPECT_NE(rep.find("deep8            3            8  "), std::string::npos) << rep;

  // The warm chains hide nothing: taking deep1 under deep5 still inverts.
  SpinGuard g5(*locks[5]);
  try {
    locks[1]->Acquire();  // lockdep: naked-ok (seeding a violation)
    FAIL() << "inversion against a warm deep chain not detected";
  } catch (const FatalError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("lock-order inversion"), std::string::npos) << msg;
    EXPECT_NE(msg.find("the graph already proves deep1 -> deep5"), std::string::npos) << msg;
  }
  EXPECT_EQ(Lockdep::Instance().HeldNames(), std::vector<std::string>{"deep5"});
}

TEST_F(LockdepTest, AcquirePastTheHeldCapacityFailsWithoutWritingPastIt) {
  std::vector<std::unique_ptr<SpinLock>> locks;
  for (std::size_t i = 0; i <= ExecContext::kMaxHeld; ++i) {
    locks.push_back(std::make_unique<SpinLock>("cap" + std::to_string(i)));
  }
  for (std::size_t i = 0; i < ExecContext::kMaxHeld; ++i) {
    locks[i]->Acquire();  // lockdep: naked-ok
  }
  try {
    locks.back()->Acquire();  // lockdep: naked-ok (one past the capacity)
    FAIL() << "acquire past the held capacity not rejected";
  } catch (const FatalError& e) {
    EXPECT_NE(std::string(e.what()).find("lockdep: held-lock stack overflow"), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(locks.back()->held());
  EXPECT_EQ(Lockdep::Instance().HeldNames().size(), ExecContext::kMaxHeld);
  EXPECT_EQ(IrqOffDepth(), static_cast<int>(ExecContext::kMaxHeld));
  for (std::size_t i = ExecContext::kMaxHeld; i-- > 0;) {
    locks[i]->Release();  // lockdep: naked-ok
  }
  EXPECT_TRUE(Lockdep::Instance().HeldNames().empty());
  EXPECT_EQ(IrqOffDepth(), 0);
}

TEST_F(LockdepTest, LockBuiltBeforeResetIsClassedByNameAfterIt) {
  SpinLock early("early_outer");  // its cached class id belongs to this session
  {
    SpinGuard g(early);
  }
  Lockdep::Instance().Reset();
  SpinLock late("late_inner");  // takes the id `early` had
  {
    SpinGuard ge(early);
    SpinGuard gl(late);
  }
  EXPECT_TRUE(Lockdep::Instance().HasPath("early_outer", "late_inner"));
  std::vector<std::string> names;
  for (const LockClassInfo& c : Lockdep::Instance().Classes()) {
    names.push_back(c.name);
    EXPECT_EQ(c.acquisitions, 1u) << c.name;
  }
  EXPECT_EQ(names, (std::vector<std::string>{"late_inner", "early_outer"}));
}

// --- Full-boot integration: the kernel's own locks populate the graph ------

TEST(LockdepBootTest, ProcLockdepListsKernelClassesAfterBoot) {
  System sys(OptionsForStage(Stage::kProto5));
  // Exercise pipes, semaphores, and file I/O so every instrumented subsystem
  // contributes acquisitions and edges.
  int rc = RunInOs(sys, "ld-probe", [](AppEnv& env) -> int {
    int fds[2];
    if (upipe(env, fds) != 0) {
      return 1;
    }
    const char msg[] = "ping";
    if (uwrite(env, fds[1], msg, sizeof(msg)) != sizeof(msg)) {
      return 2;
    }
    char buf[8];
    if (uread(env, fds[0], buf, sizeof(msg)) != sizeof(msg)) {
      return 3;
    }
    uclose(env, fds[0]);
    uclose(env, fds[1]);
    std::int64_t sem = usem_create(env, 1);
    if (sem < 0 || usem_wait(env, static_cast<int>(sem)) != 0 ||
        usem_post(env, static_cast<int>(sem)) != 0) {
      return 4;
    }
    std::int64_t fd = uopen(env, "/lockdep.txt", kOCreate | kORdwr);
    if (fd < 0) {
      return 5;
    }
    uwrite(env, static_cast<int>(fd), msg, sizeof(msg));
    ufsync(env, static_cast<int>(fd));
    uclose(env, static_cast<int>(fd));
    return 0;
  });
  EXPECT_EQ(rc, 0);

  // /proc/lockdep is readable from inside the OS...
  EXPECT_EQ(sys.RunProgram("cat", {"/proc/lockdep"}), 0);
  const std::string out = sys.SerialOutput();
  EXPECT_NE(out.find("lockdep: on"), std::string::npos);
  EXPECT_NE(out.find("order:"), std::string::npos);

  // ...and the graph holds the kernel's classes with real traffic.
  Lockdep& dep = Lockdep::Instance();
  std::vector<std::string> names;
  for (const LockClassInfo& c : dep.Classes()) {
    names.push_back(c.name);
  }
  for (const char* expect : {"sched", "semtable", "metrics", "bcache", "pmm", "slab-depot", "pipe"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expect), names.end())
        << "missing lock class " << expect;
  }
  EXPECT_GE(dep.ClassCount(), 5u);
  // SleepOn/Wakeup nest the sched lock inside the pipe and semaphore locks.
  EXPECT_TRUE(dep.HasPath("pipe", "sched"));
  EXPECT_TRUE(dep.HasPath("semtable", "sched"));
  // The trace ring is lock-free (PR 4): no lock class exists for it, so the
  // old bcache->trace edge is gone and emitting under bcache adds no edge.
  EXPECT_EQ(std::find(names.begin(), names.end(), "trace"), names.end())
      << "trace ring grew a lock again";
  // The metrics registry is a leaf: gauge callbacks that take subsystem locks
  // run outside the metrics lock, so metrics never points at another class.
  for (const char* below : {"sched", "bcache", "pmm", "slab-depot", "pipe", "semtable"}) {
    EXPECT_FALSE(dep.HasPath("metrics", below)) << "metrics -> " << below;
  }
  // Timer wakeups happen in IRQ context.
  for (const LockClassInfo& c : dep.Classes()) {
    if (c.name == "sched") {
      EXPECT_TRUE(c.irq_used) << c.name << " never acquired in IRQ context";
      EXPECT_GT(c.acquisitions, 0u);
    }
  }
}

}  // namespace
}  // namespace vos
