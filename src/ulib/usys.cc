#include "src/ulib/usys.h"

#include "src/base/status.h"

namespace vos {

// Burns always target the *current* task: clone'd threads share the parent's
// AppEnv object, but their CPU time is their own.
void UBurn(AppEnv& env, double cycles) {
  env.kernel->CurrentTask()->fiber().Burn(
      Cycles(cycles * env.kernel->config().cost.libc_compute_scale), TimeDomain::kUser);
}

void LBurn(AppEnv& env, double cycles) {
  env.kernel->CurrentTask()->fiber().Burn(
      Cycles(cycles * env.kernel->config().cost.libc_compute_scale), TimeDomain::kUserLib);
}

void umark_frame(AppEnv& env) {
  Task* cur = env.kernel->CurrentTask();
  env.kernel->trace().Emit(env.kernel->Now(), cur->core, TraceEvent::kUserMark, cur->pid(),
                           /*a=*/1 /* frame-done */);
}

AppEnv ChildEnv(Kernel* kernel) {
  AppEnv env;
  env.kernel = kernel;
  env.task = kernel->CurrentTask();
  return env;
}

std::int64_t ufork(AppEnv& env, std::function<int()> child) {
  return env.kernel->SysFork(std::move(child));
}
void uexit(AppEnv& env, int code) { env.kernel->SysExit(code); }
std::int64_t uwait(AppEnv& env, int* status) { return env.kernel->SysWait(status); }
std::int64_t ukill(AppEnv& env, int pid) { return env.kernel->SysKill(pid); }
std::int64_t ugetpid(AppEnv& env) { return env.kernel->SysGetPid(); }
std::int64_t usbrk(AppEnv& env, std::int64_t delta) { return env.kernel->SysSbrk(delta); }
std::int64_t usleep_ms(AppEnv& env, std::uint64_t ms) { return env.kernel->SysSleep(ms); }
std::int64_t uuptime_ms(AppEnv& env) { return env.kernel->SysUptime(); }
std::int64_t uexec(AppEnv& env, const std::string& path, const std::vector<std::string>& argv) {
  return env.kernel->SysExec(path, argv);
}
std::int64_t uopen(AppEnv& env, const std::string& path, std::uint32_t flags) {
  return env.kernel->SysOpen(path, flags);
}
std::int64_t uclose(AppEnv& env, int fd) { return env.kernel->SysClose(fd); }
std::int64_t uread(AppEnv& env, int fd, void* buf, std::uint32_t n) {
  return env.kernel->SysRead(fd, buf, n);
}
std::int64_t uwrite(AppEnv& env, int fd, const void* buf, std::uint32_t n) {
  return env.kernel->SysWrite(fd, buf, n);
}
std::int64_t ulseek(AppEnv& env, int fd, std::int64_t off, int whence) {
  return env.kernel->SysLseek(fd, off, whence);
}
std::int64_t udup(AppEnv& env, int fd) { return env.kernel->SysDup(fd); }
std::int64_t upipe(AppEnv& env, int fds[2]) { return env.kernel->SysPipe(fds); }
std::int64_t ufstat(AppEnv& env, int fd, Stat* st) { return env.kernel->SysFstat(fd, st); }
std::int64_t uchdir(AppEnv& env, const std::string& path) { return env.kernel->SysChdir(path); }
std::int64_t umkdir(AppEnv& env, const std::string& path) { return env.kernel->SysMkdir(path); }
std::int64_t uunlink(AppEnv& env, const std::string& path) {
  return env.kernel->SysUnlink(path);
}
std::int64_t ulink(AppEnv& env, const std::string& oldp, const std::string& newp) {
  return env.kernel->SysLink(oldp, newp);
}
std::int64_t ummap_fb(AppEnv& env, std::uint32_t** pixels, std::uint32_t* w, std::uint32_t* h) {
  return env.kernel->SysMmapFb(pixels, w, h);
}
std::int64_t ucacheflush(AppEnv& env, std::uint64_t off, std::uint64_t len) {
  return env.kernel->SysCacheFlush(off, len);
}
std::int64_t uclone(AppEnv& env, std::function<int()> thread) {
  return env.kernel->SysClone(std::move(thread));
}
std::int64_t usem_create(AppEnv& env, int initial) { return env.kernel->SysSemCreate(initial); }
std::int64_t usem_wait(AppEnv& env, int id) { return env.kernel->SysSemWait(id); }
std::int64_t usem_post(AppEnv& env, int id) { return env.kernel->SysSemPost(id); }
std::int64_t usync(AppEnv& env) { return env.kernel->SysSync(); }
std::int64_t ufsync(AppEnv& env, int fd) { return env.kernel->SysFsync(fd); }
std::int64_t usocket(AppEnv& env, int type, std::uint32_t flags) {
  return env.kernel->SysSocket(type, flags);
}
std::int64_t ubind(AppEnv& env, int fd, std::uint16_t port) {
  return env.kernel->SysBind(fd, port);
}
std::int64_t ulisten(AppEnv& env, int fd, std::uint32_t backlog) {
  return env.kernel->SysListen(fd, backlog);
}
std::int64_t uaccept(AppEnv& env, int fd, std::uint32_t* peer_ip, std::uint16_t* peer_port,
                     std::uint32_t accept_flags) {
  std::uint32_t ip = 0;
  std::uint16_t port = 0;
  std::int64_t r = env.kernel->SysAccept(fd, &ip, &port, accept_flags);
  if (peer_ip != nullptr) {
    *peer_ip = ip;
  }
  if (peer_port != nullptr) {
    *peer_port = port;
  }
  return r;
}
std::int64_t uconnect(AppEnv& env, int fd, std::uint32_t ip, std::uint16_t port) {
  return env.kernel->SysConnect(fd, ip, port);
}
std::int64_t usend(AppEnv& env, int fd, const void* buf, std::uint32_t n) {
  return env.kernel->SysSend(fd, buf, n);
}
std::int64_t urecv(AppEnv& env, int fd, void* buf, std::uint32_t n) {
  return env.kernel->SysRecv(fd, buf, n);
}
std::int64_t ushutdown(AppEnv& env, int fd, int how) {
  return env.kernel->SysShutdown(fd, how);
}
std::int64_t usend_all(AppEnv& env, int fd, const void* buf, std::uint32_t n) {
  const auto* p = static_cast<const std::uint8_t*>(buf);
  std::uint32_t sent = 0;
  while (sent < n) {
    std::int64_t r = env.kernel->SysSend(fd, p + sent, n - sent);
    if (r == kErrIntr) {
      continue;  // interrupted before any bytes moved; the stream is intact
    }
    if (r < 0) {
      return r;
    }
    sent += static_cast<std::uint32_t>(r);
  }
  return n;
}
std::int64_t uyield(AppEnv& env) { return env.kernel->SysYield(); }
std::int64_t ureaddir(AppEnv& env, const std::string& path, std::vector<DirEntryInfo>* out) {
  return env.kernel->SysReadDir(path, out);
}

std::int64_t uipc_create(AppEnv& env, std::uint64_t bytes) {
  return env.kernel->SysIpcCreate(bytes);
}
std::int64_t uipc_map(AppEnv& env, int id, IpcRing** out) {
  return env.kernel->SysIpcMap(id, out);
}
std::int64_t uipc_wait(AppEnv& env, int id, int side, std::uint64_t expected) {
  return env.kernel->SysIpcWait(id, side, expected);
}
std::int64_t uipc_wake(AppEnv& env, int id, int side) {
  return env.kernel->SysIpcWake(id, side);
}

std::int64_t uipc_send(AppEnv& env, int id, IpcRing* ring, const void* buf, std::size_t n) {
  const std::uint8_t* p = static_cast<const std::uint8_t*>(buf);
  const CostModel& cost = env.kernel->config().cost;
  std::size_t done = 0;
  while (done < n) {
    // Futex discipline: sample the space word BEFORE probing the ring. If a
    // consumer frees space between the failed probe and ipc_wait, the word
    // no longer matches and the wait returns immediately — no lost wakeup
    // even though the burn below may deschedule us.
    std::uint64_t space_word = ring->popped();
    std::size_t pushed = ring->TryPush(p + done, n - done);
    if (pushed > 0) {
      // The only copy on the whole path: caller buffer -> shared ring.
      LBurn(env, double(cost.ipc_ring_op) + double(pushed) * cost.memcpy_per_byte);
      done += pushed;
      if (ring->waiters(IpcSide::kData) > 0) {
        std::int64_t r = uipc_wake(env, id, static_cast<int>(IpcSide::kData));
        if (r < 0) {
          return r;
        }
      }
      continue;
    }
    LBurn(env, double(cost.ipc_ring_op));
    std::int64_t r = uipc_wait(env, id, static_cast<int>(IpcSide::kSpace), space_word);
    if (r == kErrIntr) {
      // Interrupted while parked (kill in flight): report the short count if
      // anything went in, POSIX-style, else surface EINTR — never EPERM.
      return done > 0 ? static_cast<std::int64_t>(done) : r;
    }
    if (r < 0) {
      return r;
    }
  }
  return static_cast<std::int64_t>(done);
}

std::int64_t uipc_recv(AppEnv& env, int id, IpcRing* ring, void* buf, std::size_t n) {
  std::uint8_t* p = static_cast<std::uint8_t*>(buf);
  const CostModel& cost = env.kernel->config().cost;
  while (n > 0) {
    std::uint64_t data_word = ring->pushed();  // sampled before the probe, as above
    std::size_t popped = ring->TryPop(p, n);
    if (popped > 0) {
      LBurn(env, double(cost.ipc_ring_op) + double(popped) * cost.memcpy_per_byte);
      if (ring->waiters(IpcSide::kSpace) > 0) {
        std::int64_t r = uipc_wake(env, id, static_cast<int>(IpcSide::kSpace));
        if (r < 0) {
          return r;
        }
      }
      return static_cast<std::int64_t>(popped);
    }
    LBurn(env, double(cost.ipc_ring_op));
    std::int64_t r = uipc_wait(env, id, static_cast<int>(IpcSide::kData), data_word);
    if (r < 0) {
      // kErrIntr (kill while parked) and real failures both end the read;
      // the caller can tell them apart now that EINTR is its own errno.
      return r;
    }
  }
  return 0;
}

std::int64_t uread_file(AppEnv& env, const std::string& path, std::vector<std::uint8_t>* out) {
  std::int64_t fd = uopen(env, path, kORdonly);
  if (fd < 0) {
    return fd;
  }
  Stat st;
  std::int64_t r = ufstat(env, static_cast<int>(fd), &st);
  if (r < 0) {
    uclose(env, static_cast<int>(fd));
    return r;
  }
  out->resize(st.size);
  std::int64_t total = 0;
  while (total < st.size) {
    std::int64_t n = uread(env, static_cast<int>(fd), out->data() + total,
                           static_cast<std::uint32_t>(st.size - total));
    if (n <= 0) {
      break;
    }
    total += n;
  }
  uclose(env, static_cast<int>(fd));
  out->resize(static_cast<std::size_t>(total));
  return total;
}

void uensure_stdio(AppEnv& env) {
  if (!env.task->fds.empty() || !env.kernel->config().HasFiles()) {
    return;
  }
  for (int i = 0; i < 3; ++i) {
    uopen(env, "/dev/console", i == 0 ? kORdonly : kOWronly);
  }
}

UMutex::UMutex(AppEnv& env) : env_(env), sem_(static_cast<int>(usem_create(env, 1))) {}
UMutex::~UMutex() = default;
void UMutex::Lock() { usem_wait(env_, sem_); }
void UMutex::Unlock() { usem_post(env_, sem_); }

UCondVar::UCondVar(AppEnv& env) : env_(env), sem_(static_cast<int>(usem_create(env, 0))) {}
UCondVar::~UCondVar() = default;

void UCondVar::Wait(UMutex& m) {
  ++waiters_;
  m.Unlock();
  usem_wait(env_, sem_);
  m.Lock();
}

void UCondVar::Signal() {
  if (waiters_ > 0) {
    --waiters_;
    usem_post(env_, sem_);
  }
}

void UCondVar::Broadcast() {
  while (waiters_ > 0) {
    --waiters_;
    usem_post(env_, sem_);
  }
}

void USpinLock::Lock() {
  while (held_) {
    uyield(env_);  // WFE-style backoff
  }
  held_ = true;
}

void USpinLock::Unlock() { held_ = false; }

}  // namespace vos
