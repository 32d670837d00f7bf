// Stress and failure-injection tests: many tasks hammering one kernel object
// (pipes, semaphores, the scheduler) and kills landed while tasks are blocked
// in every kind of syscall. The properties checked are conservation laws —
// bytes in == bytes out, items produced == items consumed, children forked ==
// children reaped — and that the kernel stays serviceable afterwards.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <set>
#include <vector>

#include "src/base/status.h"
#include "src/ulib/usys.h"
#include "src/vos/prototypes.h"
#include "src/vos/system.h"
#include "tests/run_in_os.h"

namespace vos {
namespace {

// --- Pipe stress: byte conservation under concurrent writers ----------------

class PipeStressTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PipeStressTest, ConcurrentWritersConserveBytes) {
  const int writers = std::get<0>(GetParam());
  const int chunks = std::get<1>(GetParam());
  constexpr int kChunk = 64;  // a fraction of kPipeSize so writers interleave
  System sys(OptionsForStage(Stage::kProto5));
  Kernel* k = &sys.kernel();
  std::vector<long> bytes_by_writer(static_cast<std::size_t>(writers), 0);
  long garbage = 0;
  int rc = RunInOs(sys, "pipestress", [&, k](AppEnv& env) -> int {
    int fds[2];
    if (upipe(env, fds) < 0) {
      return 1;
    }
    for (int w = 0; w < writers; ++w) {
      ufork(env, [k, wfd = fds[1], w, chunks]() -> int {
        AppEnv me = ChildEnv(k);
        std::uint8_t buf[kChunk];
        std::memset(buf, w + 1, sizeof(buf));  // every byte tagged with the writer
        for (int c = 0; c < chunks; ++c) {
          int off = 0;
          while (off < kChunk) {
            std::int64_t n = uwrite(me, wfd, buf + off, kChunk - off);
            if (n <= 0) {
              return 2;
            }
            off += static_cast<int>(n);
          }
          if (c % 3 == w % 3) {
            uyield(me);  // stir the interleaving
          }
        }
        return 0;
      });
    }
    uclose(env, fds[1]);  // reader sees EOF once all writers exit
    std::uint8_t buf[256];
    std::int64_t n;
    while ((n = uread(env, fds[0], buf, sizeof(buf))) > 0) {
      for (std::int64_t i = 0; i < n; ++i) {
        int w = buf[i] - 1;
        if (w >= 0 && w < writers) {
          ++bytes_by_writer[static_cast<std::size_t>(w)];
        } else {
          ++garbage;
        }
      }
    }
    int status;
    while (uwait(env, &status) > 0) {
    }
    return 0;
  });
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(garbage, 0);
  for (int w = 0; w < writers; ++w) {
    EXPECT_EQ(bytes_by_writer[static_cast<std::size_t>(w)], long(chunks) * kChunk)
        << "writer " << w;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PipeStressTest,
                         ::testing::Values(std::make_tuple(2, 16), std::make_tuple(4, 24),
                                           std::make_tuple(8, 12)));

// --- Kill injection: a kill lands while the victim is blocked ---------------

enum class BlockSite {
  kPipeRead,
  kPipeWriteFull,
  kSleep,
  kSemWait,
  kWaitChild,
  kConsoleRead,
  kEventsRead,
};

class KillInjectionTest : public ::testing::TestWithParam<BlockSite> {};

TEST_P(KillInjectionTest, BlockedVictimDiesAndIsReaped) {
  const BlockSite site = GetParam();
  System sys(OptionsForStage(Stage::kProto5));
  Kernel* k = &sys.kernel();
  // What the interrupted call returned to the victim: every wait ends with
  // kErrIntr, except sleep(), whose victim exits inside the call.
  constexpr std::int64_t kNotReturned = 1;
  std::int64_t interrupted = kNotReturned;
  std::size_t timers_before = 0;
  std::size_t timers_after = 0;
  int rc = RunInOs(sys, "killinj", [site, k, &interrupted, &timers_before,
                                    &timers_after](AppEnv& env) -> int {
    int fds[2];
    if (upipe(env, fds) < 0) {
      return 1;
    }
    std::int64_t sem = usem_create(env, 0);
    timers_before = k->vtimers().active();
    std::int64_t victim = ufork(env, [site, k, rfd = fds[0], wfd = fds[1], sem,
                                      &interrupted]() -> int {
      AppEnv me = ChildEnv(k);
      switch (site) {
        case BlockSite::kPipeRead: {
          char c;
          interrupted = uread(me, rfd, &c, 1);  // nobody ever writes
          break;
        }
        case BlockSite::kPipeWriteFull: {
          std::uint8_t junk[256] = {};
          std::int64_t n;
          do {
            n = uwrite(me, wfd, junk, sizeof(junk));  // fills kPipeSize, then blocks
          } while (n > 0);
          interrupted = n;
          break;
        }
        case BlockSite::kSleep:
          interrupted = usleep_ms(me, 60'000);
          break;
        case BlockSite::kSemWait:
          interrupted = usem_wait(me, static_cast<int>(sem));  // never posted
          break;
        case BlockSite::kWaitChild: {
          ufork(me, [k]() -> int {
            AppEnv grandchild = ChildEnv(k);
            usleep_ms(grandchild, 60'000);
            return 0;
          });
          int status;
          interrupted = uwait(me, &status);  // grandchild sleeps a minute: blocks here
          break;
        }
        case BlockSite::kConsoleRead:
        case BlockSite::kEventsRead: {
          // Nobody types: both rings stay empty.
          const char* dev = site == BlockSite::kConsoleRead ? "/dev/console" : "/dev/events";
          std::int64_t fd = uopen(me, dev, kORdonly);
          KeyEvent ev;
          interrupted = fd < 0 ? fd : uread(me, static_cast<int>(fd), &ev, sizeof(ev));
          break;
        }
      }
      return 0;
    });
    if (victim <= 0) {
      return 2;
    }
    usleep_ms(env, 50);  // let the victim reach its blocking point
    if (ukill(env, static_cast<int>(victim)) < 0) {
      return 3;
    }
    int status;
    std::int64_t reaped = uwait(env, &status);
    if (reaped != victim) {
      return 4;
    }
    timers_after = k->vtimers().active();
    // For kWaitChild the orphaned grandchild is reparented/cleaned by the
    // kernel; either way the parent must not be able to reap it here.
    return 0;
  });
  EXPECT_EQ(rc, 0);
  if (site == BlockSite::kSleep) {
    EXPECT_EQ(interrupted, kNotReturned);
    // The killed sleep cancelled its timer; nothing is left armed for it.
    EXPECT_EQ(timers_after, timers_before);
  } else {
    EXPECT_EQ(interrupted, kErrIntr) << ErrName(interrupted);
  }
  // The system is still fully serviceable.
  EXPECT_EQ(sys.RunProgram("hello"), 0);
}

INSTANTIATE_TEST_SUITE_P(AllSites, KillInjectionTest,
                         ::testing::Values(BlockSite::kPipeRead, BlockSite::kPipeWriteFull,
                                           BlockSite::kSleep, BlockSite::kSemWait,
                                           BlockSite::kWaitChild, BlockSite::kConsoleRead,
                                           BlockSite::kEventsRead));

// --- Fork storm: every child forked is reaped exactly once ------------------

TEST(ForkStormTest, AllChildrenReapedWithDistinctPidsAndStatuses) {
  System sys(OptionsForStage(Stage::kProto5));
  Kernel* k = &sys.kernel();
  constexpr int kKids = 24;
  int rc = RunInOs(sys, "forkstorm", [k](AppEnv& env) -> int {
    std::set<std::int64_t> pids;
    for (int i = 0; i < kKids; ++i) {
      std::int64_t pid = ufork(env, [k, i]() -> int {
        AppEnv me = ChildEnv(k);
        usleep_ms(me, 1 + (i * 7) % 20);  // scatter exit order
        return i;
      });
      if (pid <= 0 || !pids.insert(pid).second) {
        return 1;  // fork failed or duplicate pid
      }
    }
    long status_sum = 0;
    for (int i = 0; i < kKids; ++i) {
      int status = -1;
      std::int64_t reaped = uwait(env, &status);
      if (pids.erase(reaped) != 1) {
        return 2;  // reaped something we did not fork, or twice
      }
      status_sum += status;
    }
    if (!pids.empty()) {
      return 3;
    }
    if (status_sum != kKids * (kKids - 1) / 2) {
      return 4;  // some child's exit code was lost or corrupted
    }
    int status;
    return uwait(env, &status) == kErrChild ? 0 : 5;  // table fully drained
  });
  EXPECT_EQ(rc, 0);
}

// --- Producer/consumer threads over semaphores: item conservation -----------

class ProdConsTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ProdConsTest, BoundedBufferConservesItems) {
  const int producers = std::get<0>(GetParam());
  const int consumers = std::get<1>(GetParam());
  constexpr int kPerProducer = 30;
  constexpr int kSlots = 4;
  System sys(OptionsForStage(Stage::kProto5));
  Kernel* k = &sys.kernel();
  long consumed_sum = 0;
  int consumed_count = 0;
  int rc = RunInOs(sys, "prodcons", [&, k](AppEnv& env) -> int {
    // Shared state lives on this main thread's stack; clone'd threads share
    // the address space, so host captures model CLONE_VM exactly.
    std::vector<int> ring(kSlots, 0);
    int head = 0, tail = 0;
    std::int64_t empty = usem_create(env, kSlots);
    std::int64_t full = usem_create(env, 0);
    std::int64_t mutex = usem_create(env, 1);
    const int total = producers * kPerProducer;
    for (int p = 0; p < producers; ++p) {
      uclone(env, [&, k, p]() -> int {
        AppEnv me = ChildEnv(k);
        for (int i = 0; i < kPerProducer; ++i) {
          usem_wait(me, static_cast<int>(empty));
          usem_wait(me, static_cast<int>(mutex));
          ring[static_cast<std::size_t>(head % kSlots)] = p * kPerProducer + i + 1;
          ++head;
          usem_post(me, static_cast<int>(mutex));
          usem_post(me, static_cast<int>(full));
        }
        return 0;
      });
    }
    for (int c = 0; c < consumers; ++c) {
      uclone(env, [&, k]() -> int {
        AppEnv me = ChildEnv(k);
        for (;;) {
          usem_wait(me, static_cast<int>(full));
          usem_wait(me, static_cast<int>(mutex));
          if (consumed_count == total) {  // poison: producers are done
            usem_post(me, static_cast<int>(mutex));
            usem_post(me, static_cast<int>(full));
            return 0;
          }
          consumed_sum += ring[static_cast<std::size_t>(tail % kSlots)];
          ++tail;
          ++consumed_count;
          bool done = consumed_count == total;
          usem_post(me, static_cast<int>(mutex));
          usem_post(me, done ? static_cast<int>(full) : static_cast<int>(empty));
          if (done) {
            return 0;  // wake the next consumer so it can see the poison
          }
        }
      });
    }
    // Threads are joined via wait (clone children are waitable tasks here).
    int status;
    int live = producers + consumers;
    while (live > 0 && uwait(env, &status) > 0) {
      --live;
    }
    return live == 0 ? 0 : 1;
  });
  EXPECT_EQ(rc, 0);
  const long total = long(producers) * kPerProducer;
  EXPECT_EQ(consumed_count, total);
  EXPECT_EQ(consumed_sum, total * (total + 1) / 2);  // each item seen exactly once
}

INSTANTIATE_TEST_SUITE_P(Sweep, ProdConsTest,
                         ::testing::Values(std::make_tuple(1, 1), std::make_tuple(3, 2),
                                           std::make_tuple(2, 5)));

}  // namespace
}  // namespace vos
