// Syscall-interface tests, run through real user programs on a booted
// Prototype-5 system (and earlier stages for the ENOSYS gating).
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <thread>

#include "src/base/status.h"
#include "src/ulib/umalloc.h"
#include "src/ulib/ustdio.h"
#include "src/ulib/usys.h"
#include "src/kernel/velf.h"
#include "src/vos/prototypes.h"
#include "src/vos/system.h"
#include "tests/run_in_os.h"

namespace vos {
namespace {

class Proto5Test : public ::testing::Test {
 protected:
  Proto5Test() : sys_(OptionsForStage(Stage::kProto5)) {}
  System sys_;
};

TEST_F(Proto5Test, HelloExitCodeAndOutput) {
  EXPECT_EQ(sys_.RunProgram("hello", {"world"}), 0);
  EXPECT_NE(sys_.SerialOutput().find("hello from vos!"), std::string::npos);
  EXPECT_NE(sys_.SerialOutput().find("argv[1]=world"), std::string::npos);
}

TEST_F(Proto5Test, ExecOfMissingBinaryFails) {
  Task* t = sys_.kernel().StartUserProgram("/bin/no-such-app", {"no-such-app"});
  EXPECT_EQ(sys_.WaitProgram(t), -1);  // init-style wrapper exits -1
}

TEST_F(Proto5Test, ShellPipelineAndRedirection) {
  FsSpec extra;
  std::string script =
      "echo one two three > /tmp.txt\n"
      "cat /tmp.txt | wc\n"
      "grep two /tmp.txt\n"
      "rm /tmp.txt\n";
  // Write the script via a program, then run it with sh.
  SystemOptions opt = OptionsForStage(Stage::kProto5);
  opt.extra_root.files.push_back(
      FsEntry{"/etc/test.sh", std::vector<std::uint8_t>(script.begin(), script.end())});
  System sys(opt);
  EXPECT_EQ(sys.RunProgram("sh", {"/etc/test.sh"}), 0);
  const std::string out = sys.SerialOutput();
  EXPECT_NE(out.find("1 3 14"), std::string::npos) << out;   // wc of "one two three\n"
  EXPECT_NE(out.find("one two three"), std::string::npos);   // grep matched
}

TEST_F(Proto5Test, ForkWaitExitCodePropagates) {
  Kernel* k = &sys_.kernel();
  int observed = -1;
  RunInOs(sys_, "forker", [k, &observed](AppEnv& env) -> int {
    std::int64_t pid = ufork(env, [k]() -> int { return 42; });
    EXPECT_GT(pid, 0);
    int status = 0;
    std::int64_t reaped = uwait(env, &status);
    EXPECT_EQ(reaped, pid);
    observed = status;
    return 0;
  });
  EXPECT_EQ(observed, 42);
}

std::size_t Zombies(Kernel& k) {
  std::size_t n = 0;
  for (Task* t : k.AllTasks()) {
    n += t->state == TaskState::kZombie ? 1 : 0;
  }
  return n;
}

// init (pid 1) is a kernel thread and never calls wait(), so the kernel
// reaps the orphans it adopts. Ten children each fork a grandchild that
// sleeps on after its parent exits; once they are done, no zombie is left.
TEST_F(Proto5Test, OrphansAreReapedWhenTheyExit) {
  Kernel* k = &sys_.kernel();
  int rc = RunInOs(sys_, "orphans", [k](AppEnv& env) -> int {
    for (int i = 0; i < 10; ++i) {
      std::int64_t child = ufork(env, [k]() -> int {
        AppEnv me = ChildEnv(k);
        std::int64_t gc = ufork(me, [k]() -> int {
          AppEnv gc_env = ChildEnv(k);
          usleep_ms(gc_env, 10);
          return 0;
        });
        return gc > 0 ? 0 : 1;
      });
      int status = -1;
      if (child <= 0 || uwait(env, &status) != child || status != 0) {
        return 1;
      }
    }
    return 0;
  });
  ASSERT_EQ(rc, 0);
  sys_.Run(Ms(50));
  EXPECT_EQ(Zombies(*k), 0u);
}

// The other order: the grandchild is already a zombie when its parent
// exits, and goes with it.
TEST_F(Proto5Test, ZombieOrphansAreReapedWhenTheirParentExits) {
  Kernel* k = &sys_.kernel();
  int rc = RunInOs(sys_, "zorphans", [k](AppEnv& env) -> int {
    for (int i = 0; i < 10; ++i) {
      std::int64_t child = ufork(env, [k]() -> int {
        AppEnv me = ChildEnv(k);
        std::int64_t gc = ufork(me, [] { return 0; });
        usleep_ms(me, 10);
        return gc > 0 ? 0 : 1;
      });
      int status = -1;
      if (child <= 0 || uwait(env, &status) != child || status != 0) {
        return 1;
      }
    }
    return 0;
  });
  ASSERT_EQ(rc, 0);
  EXPECT_EQ(Zombies(*k), 0u);
}

TEST_F(Proto5Test, WaitWithNoChildrenFails) {
  RunInOs(sys_, "waiter", [](AppEnv& env) -> int {
    int status;
    return uwait(env, &status) == kErrChild ? 0 : 1;
  });
}

TEST_F(Proto5Test, PipesBlockAndCarryData) {
  Kernel* k = &sys_.kernel();
  int rc = RunInOs(sys_, "piper", [k](AppEnv& env) -> int {
    int fds[2];
    if (upipe(env, fds) < 0) {
      return 1;
    }
    std::int64_t pid = ufork(env, [k, wfd = fds[1]]() -> int {
      AppEnv me = ChildEnv(k);
      usleep_ms(me, 5);  // reader must block meanwhile
      const char* msg = "through the pipe";
      uwrite(me, wfd, msg, 16);
      return 0;
    });
    (void)pid;
    uclose(env, fds[1]);  // close our write end so EOF is possible
    char buf[64] = {};
    std::int64_t n = uread(env, fds[0], buf, sizeof(buf));
    if (n != 16 || std::string(buf, 16) != "through the pipe") {
      return 2;
    }
    int status;
    uwait(env, &status);
    // After the writer exits and its end closes, read returns EOF.
    n = uread(env, fds[0], buf, sizeof(buf));
    return n == 0 ? 0 : 3;
  });
  EXPECT_EQ(rc, 0);
}

TEST_F(Proto5Test, SbrkAndUserMalloc) {
  int rc = RunInOs(sys_, "heapuser", [](AppEnv& env) -> int {
    UserHeap heap(env);
    char* a = static_cast<char*>(heap.Malloc(1000));
    char* b = static_cast<char*>(heap.Malloc(50000));
    if (a == nullptr || b == nullptr) {
      return 1;
    }
    std::memset(a, 'a', 1000);
    std::memset(b, 'b', 50000);
    if (a[999] != 'a' || b[49999] != 'b') {
      return 2;
    }
    heap.Free(a);
    heap.Free(b);
    void* c = heap.Calloc(10, 10);
    for (int i = 0; i < 100; ++i) {
      if (static_cast<char*>(c)[i] != 0) {
        return 3;
      }
    }
    return heap.allocated_blocks() == 1 ? 0 : 4;
  });
  EXPECT_EQ(rc, 0);
}

TEST_F(Proto5Test, SleepAdvancesUptime) {
  int rc = RunInOs(sys_, "sleeper", [](AppEnv& env) -> int {
    std::int64_t t0 = uuptime_ms(env);
    usleep_ms(env, 30);
    std::int64_t t1 = uuptime_ms(env);
    return (t1 - t0 >= 30 && t1 - t0 < 40) ? 0 : 1;
  });
  EXPECT_EQ(rc, 0);
}

TEST_F(Proto5Test, KillTerminatesSleepingTask) {
  Kernel* k = &sys_.kernel();
  int rc = RunInOs(sys_, "killer", [k](AppEnv& env) -> int {
    std::int64_t pid = ufork(env, [k]() -> int {
      AppEnv me = ChildEnv(k);
      usleep_ms(me, 100000);  // would sleep forever
      return 0;
    });
    usleep_ms(env, 5);
    if (ukill(env, static_cast<int>(pid)) < 0) {
      return 1;
    }
    int status;
    std::int64_t reaped = uwait(env, &status);
    return (reaped == pid && status == -1) ? 0 : 2;
  });
  EXPECT_EQ(rc, 0);
}

TEST_F(Proto5Test, ReapedSleepersTimerWakesNoOtherTask) {
  Kernel* k = &sys_.kernel();
  int rc = RunInOs(sys_, "sleepreuse", [k](AppEnv& env) -> int {
    std::int64_t a = ufork(env, [k]() -> int {
      AppEnv me = ChildEnv(k);
      usleep_ms(me, 50);
      return 0;
    });
    usleep_ms(env, 5);
    int status = 0;
    if (ukill(env, static_cast<int>(a)) < 0 || uwait(env, &status) != a) {
      return 1;
    }
    // B's Task tends to take A's freed block, and A's 50 ms deadline falls
    // inside B's sleep: A's timer must not cut it short.
    std::int64_t b = ufork(env, [k]() -> int {
      AppEnv me = ChildEnv(k);
      std::int64_t t0 = uuptime_ms(me);
      usleep_ms(me, 200);
      return uuptime_ms(me) - t0 >= 200 ? 0 : 1;
    });
    return uwait(env, &status) == b && status == 0 ? 0 : 2;
  });
  EXPECT_EQ(rc, 0);
}

// Host threads in this process: /proc/self/task has one entry per thread.
std::size_t HostThreadCount() {
  std::size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task")) {
    n += entry.is_directory() ? 1 : 0;
  }
  return n;
}

TEST_F(Proto5Test, TasksAreFibersOnTheCallersHostThread) {
  // kvserver with two clients plus a fork/exec/wait: every task runs on this
  // test's host thread, and none of them starts another.
  const std::size_t threads_before = HostThreadCount();
  const std::thread::id host = std::this_thread::get_id();
  int off_host = 0;
  auto note_thread = [&] { off_host += std::this_thread::get_id() != host ? 1 : 0; };
  Kernel* k = &sys_.kernel();
  Task* server = sys_.Start("kvserver", {"8081", "2", "4"});
  ASSERT_NE(server, nullptr);
  std::size_t threads_during = 0;
  int rc = RunInOs(sys_, "onehost", [&, k](AppEnv& env) -> int {
    note_thread();
    std::uint32_t ip = k->config().net_ip;
    for (int c = 0; c < 2; ++c) {
      ufork(env, [&, k, ip, c]() -> int {
        note_thread();
        AppEnv me = ChildEnv(k);
        for (int r = 0; r < 2; ++r) {
          std::int64_t fd = usocket(me, 0);
          if (fd < 0 || uconnect(me, static_cast<int>(fd), ip, 8081) < 0) {
            return 1;
          }
          std::string req = "PUT /k" + std::to_string(c) + " v\r\n";
          if (usend_all(me, static_cast<int>(fd), req.data(),
                        static_cast<std::uint32_t>(req.size())) !=
              static_cast<std::int64_t>(req.size())) {
            return 2;
          }
          char buf[128];
          std::int64_t n = 0;
          while ((n = urecv(me, static_cast<int>(fd), buf, sizeof(buf))) > 0 || n == kErrIntr) {
          }
          uclose(me, static_cast<int>(fd));
        }
        return 0;
      });
    }
    ufork(env, [&, k]() -> int {
      note_thread();
      AppEnv me = ChildEnv(k);
      return static_cast<int>(uexec(me, "/bin/hello", {"hello"}));
    });
    threads_during = HostThreadCount();  // 3 children and 2 workers are alive
    int failed = 0;
    for (int i = 0; i < 3; ++i) {
      int status = -1;
      failed += uwait(env, &status) < 0 || status != 0 ? 1 : 0;
    }
    return failed;
  });
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(sys_.WaitProgram(server), 0);
  EXPECT_EQ(off_host, 0);
  EXPECT_EQ(threads_during, threads_before);
  EXPECT_EQ(HostThreadCount(), threads_before);
}

TEST_F(Proto5Test, CloneSharesAddressSpace) {
  Kernel* k = &sys_.kernel();
  int rc = RunInOs(sys_, "threads", [k](AppEnv& env) -> int {
    UserHeap heap(env);
    int* shared = static_cast<int*>(heap.Malloc(sizeof(int)));
    *shared = 0;
    std::int64_t tid = uclone(env, [k, shared]() -> int {
      *shared = 1234;  // CLONE_VM: same heap arena
      return 0;
    });
    if (tid < 0) {
      return 1;
    }
    int status;
    uwait(env, &status);
    return *shared == 1234 ? 0 : 2;
  });
  EXPECT_EQ(rc, 0);
}

TEST_F(Proto5Test, SemaphoresSynchronizeThreads) {
  Kernel* k = &sys_.kernel();
  int rc = RunInOs(sys_, "sems", [k](AppEnv& env) -> int {
    int sem = static_cast<int>(usem_create(env, 0));
    UserHeap heap(env);
    int* flag = static_cast<int*>(heap.Malloc(sizeof(int)));
    *flag = 0;
    uclone(env, [k, sem, flag]() -> int {
      AppEnv me = ChildEnv(k);
      usleep_ms(me, 10);
      *flag = 1;
      usem_post(me, sem);
      return 0;
    });
    usem_wait(env, sem);  // must block until the thread posts
    int result = *flag == 1 ? 0 : 1;
    int status;
    uwait(env, &status);
    return result;
  });
  EXPECT_EQ(rc, 0);
}

TEST_F(Proto5Test, UserMutexAndCondvar) {
  Kernel* k = &sys_.kernel();
  int rc = RunInOs(sys_, "condvar", [k](AppEnv& env) -> int {
    UserHeap heap(env);
    auto* counter = static_cast<int*>(heap.Malloc(sizeof(int)));
    *counter = 0;
    UMutex mu(env);
    UCondVar cv(env);
    uclone(env, [k, &mu, &cv, counter]() -> int {
      AppEnv me = ChildEnv(k);
      usleep_ms(me, 5);
      mu.Lock();
      *counter = 7;
      cv.Signal();
      mu.Unlock();
      return 0;
    });
    mu.Lock();
    while (*counter == 0) {
      cv.Wait(mu);
    }
    mu.Unlock();
    int result = *counter == 7 ? 0 : 1;
    int status;
    uwait(env, &status);
    return result;
  });
  EXPECT_EQ(rc, 0);
}

TEST_F(Proto5Test, DupAndLseekAndFstat) {
  int rc = RunInOs(sys_, "fdops", [](AppEnv& env) -> int {
    std::int64_t fd = uopen(env, "/roms/world1.lvl", kORdonly);
    if (fd < 0) {
      return 1;
    }
    Stat st;
    if (ufstat(env, static_cast<int>(fd), &st) < 0 || st.size == 0 ||
        st.type != kXv6TFile) {
      return 2;
    }
    std::int64_t dup_fd = udup(env, static_cast<int>(fd));
    char a, b;
    uread(env, static_cast<int>(fd), &a, 1);
    uread(env, static_cast<int>(dup_fd), &b, 1);
    // dup shares the open-file description, so the offset advanced to 2.
    if (ulseek(env, static_cast<int>(dup_fd), 0, /*SEEK_CUR=*/1) != 2) {
      return 3;
    }
    if (ulseek(env, static_cast<int>(fd), 0, 0) != 0) {
      return 4;
    }
    char again;
    uread(env, static_cast<int>(fd), &again, 1);
    return again == a ? 0 : 5;
  });
  EXPECT_EQ(rc, 0);
}

TEST_F(Proto5Test, LseekEdgeCases) {
  Kernel* k = &sys_.kernel();
  int rc = RunInOs(sys_, "seeker", [k](AppEnv& env) -> int {
    // SEEK_END on a regular file lands at its size.
    std::int64_t fd = uopen(env, "/roms/world1.lvl", kORdonly);
    if (fd < 0) {
      return 1;
    }
    Stat st;
    ufstat(env, static_cast<int>(fd), &st);
    if (ulseek(env, static_cast<int>(fd), 0, /*SEEK_END=*/2) != st.size) {
      return 2;
    }
    // Seeking before the start of the file is rejected and leaves the
    // offset where it was.
    if (ulseek(env, static_cast<int>(fd), -std::int64_t(st.size) - 1, 2) !=
        kErrInval) {
      return 3;
    }
    if (ulseek(env, static_cast<int>(fd), -5, /*SEEK_SET=*/0) != kErrInval) {
      return 4;
    }
    if (ulseek(env, static_cast<int>(fd), 0, /*SEEK_CUR=*/1) != st.size) {
      return 5;
    }
    // Bad whence.
    if (ulseek(env, static_cast<int>(fd), 0, 9) != kErrInval) {
      return 6;
    }
    uclose(env, static_cast<int>(fd));
    // SEEK_END on the framebuffer reports its mapped extent (the seed
    // hardcoded 0 for every device, making SEEK_END useless there).
    std::int64_t fb = uopen(env, "/dev/fb", kORdwr);
    if (fb < 0) {
      return 7;
    }
    std::int64_t end = ulseek(env, static_cast<int>(fb), 0, 2);
    if (end <= 0) {
      return 8;
    }
    uclose(env, static_cast<int>(fb));
    // Stream devices stay at 0: SEEK_END is a no-op position there.
    std::int64_t nul = uopen(env, "/dev/null", kORdwr);
    if (nul < 0) {
      return 9;
    }
    if (ulseek(env, static_cast<int>(nul), 0, 2) != 0) {
      return 10;
    }
    uclose(env, static_cast<int>(nul));
    return 0;
  });
  EXPECT_EQ(rc, 0);
  // The fb extent seen from userspace matches pitch * height.
  const FbDriver& fb = sys_.kernel().fb_driver();
  EXPECT_EQ(fb.SeekEndSize(), std::uint64_t(fb.pitch()) * fb.height());
}

TEST_F(Proto5Test, MmapFbAndCacheFlushPath) {
  int rc = RunInOs(sys_, "fbuser", [](AppEnv& env) -> int {
    std::uint32_t* fb = nullptr;
    std::uint32_t w = 0, h = 0;
    if (ummap_fb(env, &fb, &w, &h) < 0 || fb == nullptr || w == 0) {
      return 1;
    }
    fb[0] = 0xffd00d00;
    ucacheflush(env, 0, 64);
    return 0;
  });
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(sys_.Screenshot().pixels[0], 0xffd00d00u);
}

TEST(StageGating, Proto3HasNoFileSyscalls) {
  System sys(OptionsForStage(Stage::kProto3));
  int rc = RunInOs(sys, "probe", [](AppEnv& env) -> int {
    if (uopen(env, "/anything", kORdonly) != kErrNoSys) {
      return 1;
    }
    if (uclone(env, []() -> int { return 0; }) != kErrNoSys) {
      return 2;
    }
    // write() is hardwired to UART (§4.3).
    const char* msg = "proto3 uart write\n";
    if (uwrite(env, 1, msg, 18) != 18) {
      return 3;
    }
    return 0;
  }, 1 << 20);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(sys.SerialOutput().find("proto3 uart write"), std::string::npos);
}

TEST(StageGating, Proto4HasFilesButNoThreads) {
  System sys(OptionsForStage(Stage::kProto4));
  int rc = RunInOs(sys, "probe", [](AppEnv& env) -> int {
    std::int64_t fd = uopen(env, "/etc/rc", kORdonly);
    if (fd < 0) {
      return 1;  // files must work
    }
    uclose(env, static_cast<int>(fd));
    if (uclone(env, []() -> int { return 0; }) != kErrNoSys) {
      return 2;  // threads arrive in Prototype 5
    }
    if (usem_create(env, 1) != kErrNoSys) {
      return 3;
    }
    return 0;
  }, 1 << 20);
  EXPECT_EQ(rc, 0);
}

// One row per syscall entry point, called with arguments that do no harm: a
// bad fd, a missing path, an unknown id. `since` is the prototype that brings
// the call (Table 1); the socket calls also need a network stack.
struct GateProbe {
  const char* name;
  Stage since;
  bool net;
  std::function<std::int64_t(Kernel&)> call;
};

std::vector<GateProbe> GateProbes() {
  constexpr int kBadFd = -1;
  constexpr int kNoId = 9999;
  static char buf[8];
  return {
      {"fork", Stage::kProto3, false, [](Kernel& k) { return k.SysFork([] { return 0; }); }},
      {"wait", Stage::kProto3, false, [](Kernel& k) { int st = 0; return k.SysWait(&st); }},
      {"kill", Stage::kProto3, false, [](Kernel& k) { return k.SysKill(kNoId); }},
      {"exec", Stage::kProto3, false, [](Kernel& k) { return k.SysExec("/no/such", {"such"}); }},
      {"sbrk", Stage::kProto3, false, [](Kernel& k) { return k.SysSbrk(0); }},
      {"mmap", Stage::kProto3, false,
       [](Kernel& k) {
         std::uint32_t* px = nullptr;
         std::uint32_t w = 0, h = 0;
         return k.SysMmapFb(&px, &w, &h);
       }},
      {"getpid", Stage::kProto2, false, [](Kernel& k) { return k.SysGetPid(); }},
      {"sleep", Stage::kProto2, false, [](Kernel& k) { return k.SysSleep(0); }},
      {"uptime", Stage::kProto2, false, [](Kernel& k) { return k.SysUptime(); }},
      {"cacheflush", Stage::kProto2, false, [](Kernel& k) { return k.SysCacheFlush(0, 0); }},
      {"yield", Stage::kProto2, false, [](Kernel& k) { return k.SysYield(); }},
      // Below Prototype 4 write() goes to the UART whatever the fd.
      {"write", Stage::kProto2, false, [](Kernel& k) { return k.SysWrite(kBadFd, buf, 0); }},
      {"open", Stage::kProto4, false, [](Kernel& k) { return k.SysOpen("/no/such", kORdonly); }},
      {"close", Stage::kProto4, false, [](Kernel& k) { return k.SysClose(kBadFd); }},
      {"read", Stage::kProto4, false, [](Kernel& k) { return k.SysRead(kBadFd, buf, 1); }},
      {"lseek", Stage::kProto4, false, [](Kernel& k) { return k.SysLseek(kBadFd, 0, 0); }},
      {"dup", Stage::kProto4, false, [](Kernel& k) { return k.SysDup(kBadFd); }},
      {"pipe", Stage::kProto4, false, [](Kernel& k) { int fds[2]; return k.SysPipe(fds); }},
      {"fstat", Stage::kProto4, false, [](Kernel& k) { Stat st; return k.SysFstat(kBadFd, &st); }},
      {"chdir", Stage::kProto4, false, [](Kernel& k) { return k.SysChdir("/no/such"); }},
      {"mkdir", Stage::kProto4, false, [](Kernel& k) { return k.SysMkdir("/no/such/dir"); }},
      {"unlink", Stage::kProto4, false, [](Kernel& k) { return k.SysUnlink("/no/such"); }},
      {"link", Stage::kProto4, false, [](Kernel& k) { return k.SysLink("/no/such", "/no/so"); }},
      {"mknod", Stage::kProto4, false, [](Kernel& k) { return k.SysMknod("/no/such/n", 1, 1); }},
      {"sync", Stage::kProto4, false, [](Kernel& k) { return k.SysSync(); }},
      {"fsync", Stage::kProto4, false, [](Kernel& k) { return k.SysFsync(kBadFd); }},
      {"readdir", Stage::kProto4, false,
       [](Kernel& k) {
         std::vector<DirEntryInfo> out;
         return k.SysReadDir("/no/such", &out);
       }},
      {"clone", Stage::kProto5, false, [](Kernel& k) { return k.SysClone([] { return 0; }); }},
      {"semcreate", Stage::kProto5, false, [](Kernel& k) { return k.SysSemCreate(0); }},
      {"semwait", Stage::kProto5, false, [](Kernel& k) { return k.SysSemWait(kNoId); }},
      {"sempost", Stage::kProto5, false, [](Kernel& k) { return k.SysSemPost(kNoId); }},
      {"ipccreate", Stage::kProto5, false, [](Kernel& k) { return k.SysIpcCreate(0); }},
      {"ipcmap", Stage::kProto5, false,
       [](Kernel& k) {
         IpcRing* ring = nullptr;
         return k.SysIpcMap(kNoId, &ring);
       }},
      {"ipcwait", Stage::kProto5, false, [](Kernel& k) { return k.SysIpcWait(kNoId, 0, 0); }},
      {"ipcwake", Stage::kProto5, false, [](Kernel& k) { return k.SysIpcWake(kNoId, 0); }},
      {"socket", Stage::kProto5, true, [](Kernel& k) { return k.SysSocket(/*type=*/7, 0); }},
      {"bind", Stage::kProto5, true, [](Kernel& k) { return k.SysBind(kBadFd, 80); }},
      {"listen", Stage::kProto5, true, [](Kernel& k) { return k.SysListen(kBadFd, 1); }},
      {"accept", Stage::kProto5, true,
       [](Kernel& k) {
         std::uint32_t ip = 0;
         std::uint16_t port = 0;
         return k.SysAccept(kBadFd, &ip, &port, 0);
       }},
      {"connect", Stage::kProto5, true, [](Kernel& k) { return k.SysConnect(kBadFd, 0, 80); }},
      {"send", Stage::kProto5, true, [](Kernel& k) { return k.SysSend(kBadFd, buf, 0); }},
      {"recv", Stage::kProto5, true, [](Kernel& k) { return k.SysRecv(kBadFd, buf, 1); }},
      {"shutdown", Stage::kProto5, true, [](Kernel& k) { return k.SysShutdown(kBadFd, 0); }},
  };
}

// Calls every probe on one stage, then reaps what fork and clone started and
// exits (exit needs nothing). Prototype 2 has no user programs, so there the
// probe is a kernel task.
void ExpectGates(const SystemOptions& opt, bool net) {
  System sys(opt);
  Kernel& k = sys.kernel();
  std::vector<GateProbe> probes = GateProbes();
  std::vector<std::int64_t> got;
  auto probe_all = [&] {
    for (const GateProbe& p : probes) {
      got.push_back(p.call(k));
    }
    int status = 0;
    while (k.SysWait(&status) > 0) {
    }
    k.SysExit(0);
  };
  // Registered names land in every later image's /bin: keep them short.
  std::string name = "gates" + std::to_string(static_cast<int>(opt.stage)) + (net ? "" : "n");
  if (opt.stage == Stage::kProto2) {
    Task* t = k.CreateKernelTask(name, probe_all);
    sys.Run(Ms(200));
    EXPECT_EQ(t->state, TaskState::kZombie);
  } else {
    AppRegistry::Instance().Register(name, [&](AppEnv&) -> int {
      probe_all();
      return 1;
    }, 1024, 1 << 20);
    k.AddBootBlob(name, BuildVelf(name, 1024, {}, 1 << 20));
    EXPECT_EQ(sys.WaitProgram(k.StartUserProgram(name, {name})), 0);
  }
  ASSERT_EQ(got.size(), probes.size()) << name;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    bool lacks = opt.stage < probes[i].since || (probes[i].net && !net);
    EXPECT_EQ(got[i] == kErrNoSys, lacks)
        << name << ": " << probes[i].name << " returned " << ErrName(got[i]);
  }
}

TEST(StageGating, EveryCallReturnsNoSysExactlyWhereItsStageLacksWhatItNeeds) {
  for (Stage s : {Stage::kProto2, Stage::kProto3, Stage::kProto4, Stage::kProto5}) {
    ExpectGates(OptionsForStage(s), /*net=*/s == Stage::kProto5);
  }
  SystemOptions no_net = OptionsForStage(Stage::kProto5);
  no_net.config_hook = [](KernelConfig& kc) { kc.net_enabled = false; };
  ExpectGates(no_net, /*net=*/false);
}

TEST_F(Proto5Test, CoreutilsEndToEnd) {
  SystemOptions opt = OptionsForStage(Stage::kProto5);
  std::string script =
      "mkdir /work\n"
      "echo data > /work/f1\n"
      "ln /work/f1 /work/f2\n"
      "ls /work\n"
      "ps\n"
      "free\n"
      "uptime\n"
      "md5sum /work/f1\n"
      "rm /work/f2 ; rm /work/f1\n";
  opt.extra_root.files.push_back(
      FsEntry{"/etc/utils.sh", std::vector<std::uint8_t>(script.begin(), script.end())});
  System sys(opt);
  EXPECT_EQ(sys.RunProgram("sh", {"/etc/utils.sh"}), 0);
  const std::string out = sys.SerialOutput();
  EXPECT_NE(out.find("f1"), std::string::npos);
  EXPECT_NE(out.find("f2"), std::string::npos);
  EXPECT_NE(out.find("MemTotal"), std::string::npos);
  EXPECT_NE(out.find("PID"), std::string::npos);
  // md5 of "data\n"
  EXPECT_NE(out.find("6137cde4893c59f76f005a8123d8e8e6"), std::string::npos) << out;
}

}  // namespace
}  // namespace vos
