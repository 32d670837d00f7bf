// User-side syscall stubs: the thin wrappers a libc's sys/ layer provides.
// Every call runs on the current task's fiber and traps into the kernel's
// typed syscall interface. Also provides the compute-charging helpers that
// attribute virtual time to app logic (U) vs user library (L) — the split
// Fig 11's latency breakdowns report.
#ifndef VOS_SRC_ULIB_USYS_H_
#define VOS_SRC_ULIB_USYS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/apps/app_registry.h"
#include "src/fs/vfs.h"
#include "src/kernel/kernel.h"

namespace vos {

// --- CPU charging -----------------------------------------------------------

// Charges app-logic compute (the game engine, decoder math, ...) to U. The
// cost scales with the platform's CPU speed and the C library the app links
// against (newlib vs musl vs glibc, §6.2).
void UBurn(AppEnv& env, double cycles);

// Charges user-library compute (minisdl, pixel conversion, string code) to L.
void LBurn(AppEnv& env, double cycles);

// Marks "one frame presented" in the trace ring; FPS benches count these.
void umark_frame(AppEnv& env);

// Builds the AppEnv for the task currently executing — what a forked or
// clone'd child calls first, since it must not reuse the parent's env.
AppEnv ChildEnv(Kernel* kernel);

// --- Syscall stubs ------------------------------------------------------------

std::int64_t ufork(AppEnv& env, std::function<int()> child);
[[noreturn]] void uexit(AppEnv& env, int code);
std::int64_t uwait(AppEnv& env, int* status);
std::int64_t ukill(AppEnv& env, int pid);
std::int64_t ugetpid(AppEnv& env);
std::int64_t usbrk(AppEnv& env, std::int64_t delta);
std::int64_t usleep_ms(AppEnv& env, std::uint64_t ms);
std::int64_t uuptime_ms(AppEnv& env);
std::int64_t uexec(AppEnv& env, const std::string& path, const std::vector<std::string>& argv);
std::int64_t uopen(AppEnv& env, const std::string& path, std::uint32_t flags);
std::int64_t uclose(AppEnv& env, int fd);
std::int64_t uread(AppEnv& env, int fd, void* buf, std::uint32_t n);
std::int64_t uwrite(AppEnv& env, int fd, const void* buf, std::uint32_t n);
std::int64_t ulseek(AppEnv& env, int fd, std::int64_t off, int whence);
std::int64_t udup(AppEnv& env, int fd);
std::int64_t upipe(AppEnv& env, int fds[2]);
std::int64_t ufstat(AppEnv& env, int fd, Stat* st);
std::int64_t uchdir(AppEnv& env, const std::string& path);
std::int64_t umkdir(AppEnv& env, const std::string& path);
std::int64_t uunlink(AppEnv& env, const std::string& path);
std::int64_t ulink(AppEnv& env, const std::string& oldp, const std::string& newp);
std::int64_t ummap_fb(AppEnv& env, std::uint32_t** pixels, std::uint32_t* w, std::uint32_t* h);
std::int64_t ucacheflush(AppEnv& env, std::uint64_t off, std::uint64_t len);
std::int64_t uclone(AppEnv& env, std::function<int()> thread);
std::int64_t usem_create(AppEnv& env, int initial);
std::int64_t usem_wait(AppEnv& env, int id);
std::int64_t usem_post(AppEnv& env, int id);
std::int64_t usync(AppEnv& env);
std::int64_t ufsync(AppEnv& env, int fd);
std::int64_t uyield(AppEnv& env);
std::int64_t ureaddir(AppEnv& env, const std::string& path, std::vector<DirEntryInfo>* out);

// --- Futex IPC (zero-copy shared ring, ipc.h) --------------------------------

std::int64_t uipc_create(AppEnv& env, std::uint64_t bytes);  // 0 = config default
std::int64_t uipc_map(AppEnv& env, int id, IpcRing** out);
std::int64_t uipc_wait(AppEnv& env, int id, int side, std::uint64_t expected);
std::int64_t uipc_wake(AppEnv& env, int id, int side);

// Blocking send/recv over a mapped ring: push/pop the shared memory directly
// (one user-side copy, charged here; the kernel never touches the payload),
// park with uipc_wait only when the ring is full/empty, and wake the peer
// only when someone is actually parked — the futex uncontended fast path.
// Send moves all n bytes (or returns kErrPerm mid-stream on kill/destroy);
// recv returns as soon as >= 1 byte arrived, streaming up to n.
std::int64_t uipc_send(AppEnv& env, int id, IpcRing* ring, const void* buf, std::size_t n);
std::int64_t uipc_recv(AppEnv& env, int id, IpcRing* ring, void* buf, std::size_t n);

// --- Sockets (Prototype 5 networking) ---------------------------------------
// type: 0 = TCP stream, 1 = UDP datagram. flags bit0 = nonblocking fd.
std::int64_t usocket(AppEnv& env, int type, std::uint32_t flags = 0);
std::int64_t ubind(AppEnv& env, int fd, std::uint16_t port);
std::int64_t ulisten(AppEnv& env, int fd, std::uint32_t backlog);
// accept_flags bit0 = make the accepted fd nonblocking.
std::int64_t uaccept(AppEnv& env, int fd, std::uint32_t* peer_ip = nullptr,
                     std::uint16_t* peer_port = nullptr, std::uint32_t accept_flags = 0);
std::int64_t uconnect(AppEnv& env, int fd, std::uint32_t ip, std::uint16_t port);
std::int64_t usend(AppEnv& env, int fd, const void* buf, std::uint32_t n);
std::int64_t urecv(AppEnv& env, int fd, void* buf, std::uint32_t n);
std::int64_t ushutdown(AppEnv& env, int fd, int how);
// Loops until all n bytes are queued, retrying short sends and EINTR;
// returns n, or the first hard error (kErrPipe once the peer is gone).
std::int64_t usend_all(AppEnv& env, int fd, const void* buf, std::uint32_t n);

// Reads a whole file into memory; negative Err on failure.
std::int64_t uread_file(AppEnv& env, const std::string& path, std::vector<std::uint8_t>* out);

// Opens /dev/console as fds 0/1/2 if the task has no stdio yet (what init
// does in xv6; crt calls this).
void uensure_stdio(AppEnv& env);

// --- User-level synchronization built on semaphores (§4.5) -------------------

class UMutex {
 public:
  explicit UMutex(AppEnv& env);
  ~UMutex();
  void Lock();
  void Unlock();

 private:
  AppEnv& env_;
  int sem_;
};

class UCondVar {
 public:
  explicit UCondVar(AppEnv& env);
  ~UCondVar();
  // Classic wait: releases `m`, sleeps, reacquires.
  void Wait(UMutex& m);
  void Signal();
  void Broadcast();

 private:
  AppEnv& env_;
  int sem_;
  int waiters_ = 0;
};

// User-level spinlock (§4.5): yields while contended. With token-serialized
// fibers contention resolves by yielding the CPU.
class USpinLock {
 public:
  explicit USpinLock(AppEnv& env) : env_(env) {}
  void Lock();
  void Unlock();

 private:
  AppEnv& env_;
  bool held_ = false;
};

}  // namespace vos

#endif  // VOS_SRC_ULIB_USYS_H_
