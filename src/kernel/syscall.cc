// The syscall interface (§3): the VOS_SYSCALLS list in kernel.h — task
// management, filesystem, threading/synchronization, the mmap/cacheflush pair
// Prototype 3 needs for direct rendering, the sync/fsync pair the write-back
// buffer cache needs for durability, futex IPC and sockets. Every entry point
// runs through Syscall(): it charges the trap cost, applies the list's gate
// (earlier prototypes return ENOSYS, as their kernels simply lack the code),
// and emits the trace records Fig 11's breakdowns are built from.
#include <exception>

#include "src/apps/app_registry.h"
#include "src/base/status.h"
#include "src/kernel/kernel.h"

namespace vos {

namespace {
// The `need` column of VOS_SYSCALLS.
SysNeed SysNeedOf(Sys num) {
  switch (num) {
#define VOS_SYS_NEED(e, n, name, need) case Sys::e: return SysNeed::need;
    VOS_SYSCALLS(VOS_SYS_NEED)
#undef VOS_SYS_NEED
  }
  return SysNeed::kNothing;
}
}  // namespace

Task* Kernel::SyscallEnter(Sys num) {
  Task* cur = CurrentTask();
  VOS_CHECK_MSG(cur != nullptr, "syscall outside task context");
  if (cur->killed && std::uncaught_exceptions() == 0) {
    DoExit(cur, -1);  // the xv6 pattern: kills take effect at the next trap
  }
  cur->saved_domain = cur->domain;
  cur->domain = TimeDomain::kKernel;
  ++cur->syscall_count;
  // Shadow-stack frame for the syscall body, popped by SyscallExit. Manual
  // push/pop instead of RAII because entry and exit are separate calls; a
  // kill/exit unwind leaves the frame behind, but the task is a zombie then
  // and its stack is never sampled again.
  cur->call_stack.push_back(SysName(num));
  cur->fiber().Burn(cfg_.cost.syscall_entry + cfg_.cost.syscall_body);
  cur->syscall_enter_ts = Now();
  trace_.Emit(cur->syscall_enter_ts, cur->core, TraceEvent::kSyscallEnter, cur->pid(),
              static_cast<std::uint64_t>(num));
  return cur;
}

std::int64_t Kernel::SyscallExit(Sys num, std::int64_t ret) {
  Task* cur = CurrentTask();
  cur->fiber().Burn(cfg_.cost.syscall_exit);
  Cycles now = Now();
  // Entry→exit latency, per syscall number and aggregate (Fig 11's
  // distributions, now as histograms instead of raw event pairs).
  Cycles lat = now > cur->syscall_enter_ts ? now - cur->syscall_enter_ts : 0;
  syscall_lat_all_->Record(lat);
  syscall_lat_[static_cast<int>(num)]->Record(lat);
  trace_.Emit(now, cur->core, TraceEvent::kSyscallExit, cur->pid(),
              static_cast<std::uint64_t>(num), static_cast<std::uint64_t>(ret));
  if (!cur->call_stack.empty()) {
    cur->call_stack.pop_back();
  }
  cur->domain = cur->saved_domain;
  return ret;
}

template <typename Body>
std::int64_t Kernel::Syscall(Sys num, Body&& body) {
  Task* cur = SyscallEnter(num);
  if (!Has(SysNeedOf(num))) {
    return SyscallExit(num, kErrNoSys);
  }
  Cycles burn = 0;
  std::int64_t ret = body(cur, burn);
  cur->fiber().Burn(burn);
  return SyscallExit(num, ret);
}

template <typename Body>
std::int64_t Kernel::SyscallFd(Sys num, int fd, Body&& body) {
  return Syscall(num, [&](Task* cur, Cycles& burn) -> std::int64_t {
    FilePtr f;
    if (fd >= 0 && static_cast<std::size_t>(fd) < cur->fds.size()) {
      f = cur->fds[static_cast<std::size_t>(fd)];
    }
    if (f == nullptr) {
      return kErrBadFd;
    }
    if (SysNeedOf(num) == SysNeed::kNet && f->kind != FileKind::kSocket) {
      return kErrInval;
    }
    return body(cur, f, burn);
  });
}

std::int64_t Kernel::InstallFd(Task* cur, FilePtr f) {
  for (std::size_t i = 0; i < cur->fds.size(); ++i) {
    if (cur->fds[i] == nullptr) {
      cur->fds[i] = std::move(f);
      return static_cast<std::int64_t>(i);
    }
  }
  if (cur->fds.size() >= 64) {
    return kErrMFile;
  }
  cur->fds.push_back(std::move(f));
  return static_cast<std::int64_t>(cur->fds.size()) - 1;
}

// --- Task management ----------------------------------------------------------

std::int64_t Kernel::SysFork(std::function<int()> child_body) {
  return Syscall(Sys::kFork, [&](Task* cur, Cycles&) {
    Task* child = NewTask(cur->name(), cur->kernel_task());
    child->parent = cur;
    child->cwd = cur->cwd;
    child->fds = cur->fds;  // shared open-file descriptions
    if (cur->mm != nullptr) {
      child->mm = cur->mm->Clone(cfg_.cow_fork);
      cur->fiber().Burn(cur->mm->TakeCost());
    } else {
      cur->fiber().Burn(cfg_.cost.fork_base);
    }
    AttachUserEntry(child, std::move(child_body));
    sched_.AddNew(child, static_cast<int>(cur->core));
    return child->pid();
  });
}

void Kernel::SysExit(int code) { DoExit(SyscallEnter(Sys::kExit), code); }

std::int64_t Kernel::SysWait(int* status) {
  return Syscall(Sys::kWait, [&](Task* cur, Cycles&) -> std::int64_t {
    for (;;) {
      bool have_children = false;
      Pid zombie = 0;
      for (auto& [pid, t] : tasks_) {
        if (t->parent != cur) {
          continue;
        }
        have_children = true;
        if (t->state == TaskState::kZombie) {
          zombie = pid;
          break;
        }
      }
      if (zombie != 0) {
        if (status != nullptr) {
          *status = FindTask(zombie)->exit_code;
        }
        ReapTask(zombie);
        return zombie;
      }
      if (!have_children) {
        return kErrChild;
      }
      if (cur->killed) {
        return kErrPerm;
      }
      sched_.Sleep(cur, cur);
    }
  });
}

std::int64_t Kernel::SysKill(Pid pid) {
  return Syscall(Sys::kKill, [&](Task*, Cycles&) -> std::int64_t {
    Task* t = FindTask(pid);
    if (t == nullptr || t->state == TaskState::kZombie) {
      return kErrNoEnt;
    }
    t->killed = true;
    if (t->state == TaskState::kSleeping) {
      sched_.WakeTask(t);  // let it notice the kill at its next trap
    }
    return 0;
  });
}

std::int64_t Kernel::SysGetPid() {
  return Syscall(Sys::kGetPid, [](Task* cur, Cycles&) { return cur->pid(); });
}

std::int64_t Kernel::SysSbrk(std::int64_t delta) {
  return Syscall(Sys::kSbrk, [&](Task* cur, Cycles& burn) -> std::int64_t {
    if (cur->mm == nullptr) {
      return kErrNoSys;  // kernel tasks have no heap to grow
    }
    std::int64_t old = cur->mm->Sbrk(delta);
    burn = cur->mm->TakeCost();
    return old < 0 ? kErrNoMem : old;
  });
}

std::int64_t Kernel::SysSleep(std::uint64_t ms) {
  return Syscall(Sys::kSleep, [&](Task* cur, Cycles&) {
    trace_.Emit(Now(), cur->core, TraceEvent::kSleep, cur->pid(), ms);
    KSleepMs(ms);
    if (cur->killed && std::uncaught_exceptions() == 0) {
      DoExit(cur, -1);
    }
    return 0;
  });
}

std::int64_t Kernel::SysUptime() {
  return Syscall(Sys::kUptime,
                 [&](Task*, Cycles&) { return static_cast<std::int64_t>(ToMs(Now())); });
}

std::unique_ptr<AddressSpace> Kernel::BuildAddressSpace(const VelfImage& img,
                                                        const std::vector<std::string>& argv,
                                                        Cycles* cost) {
  auto mm = std::make_unique<AddressSpace>(*pmm_, frame_refs_, cfg_);
  if (img.heap_reserve > 0) {
    mm->heap_reserve_pages = PageRoundUp(img.heap_reserve) / kPageSize;
  }
  for (const VelfSegment& seg : img.segments) {
    std::uint64_t npages = PageRoundUp(seg.memsz) / kPageSize;
    if (!mm->MapAnon(seg.vaddr, npages, (seg.flags & 1) != 0 || seg.type == kVelfSegData)) {
      return nullptr;
    }
    // Zero BSS then copy the payload: loaders must not leak junk DRAM.
    for (std::uint64_t p = 0; p < npages; ++p) {
      auto pa = mm->Translate(seg.vaddr + p * kPageSize);
      VOS_CHECK(pa.has_value());
      pmm_->mem().Fill(*pa, 0, kPageSize);
    }
    if (!seg.payload.empty()) {
      // Segment pages were just mapped read-write capable; use the physical
      // path since code segments are read-only at the PTE level.
      std::uint64_t off = 0;
      while (off < seg.payload.size()) {
        auto pa = mm->Translate(seg.vaddr + off);
        VOS_CHECK(pa.has_value());
        std::uint64_t take = std::min<std::uint64_t>(kPageSize - (off % kPageSize),
                                                     seg.payload.size() - off);
        pmm_->mem().Write(*pa, seg.payload.data() + off, take);
        off += take;
      }
      *cost += Cycles(seg.payload.size() * cfg_.cost.memcpy_per_byte);
    }
  }
  if (!mm->SetupStack()) {
    return nullptr;
  }
  // Copy argv onto the stack (the one demand-mapped top page).
  std::uint64_t sp = kUserStackTop;
  for (const std::string& a : argv) {
    sp -= a.size() + 1;
    if (!mm->CopyOut(sp, a.c_str(), a.size() + 1)) {
      return nullptr;
    }
  }
  *cost += mm->TakeCost() + cfg_.cost.exec_base;
  return mm;
}

std::int64_t Kernel::SysExec(const std::string& path, const std::vector<std::string>& argv) {
  const AppMain* entry = nullptr;
  std::int64_t r = Syscall(Sys::kExec, [&](Task* cur, Cycles&) -> std::int64_t {
    if (cur->is_thread) {
      return kErrInval;
    }
    std::vector<std::uint8_t> bytes;
    Cycles load = 0;
    std::int64_t lr = LoadVelf(path, &bytes, &load);
    cur->fiber().Burn(load);
    if (lr < 0) {
      return lr;
    }
    auto img = ParseVelf(bytes.data(), bytes.size());
    if (!img) {
      return kErrInval;
    }
    entry = AppRegistry::Instance().Find(img->entry);
    if (entry == nullptr) {
      return kErrNoEnt;
    }
    Cycles cost = 0;
    auto mm = BuildAddressSpace(*img, argv, &cost);
    cur->fiber().Burn(cost);
    if (mm == nullptr) {
      return kErrNoMem;
    }
    cur->mm = std::move(mm);
    cur->set_name(img->entry);
    Racedet::Instance().OnContextRenamed();
    // A process exec'd with no inherited descriptors gets the console as
    // stdin/stdout/stderr — what init sets up in xv6 before running the shell.
    if (Has(SysNeed::kFiles) && cur->fds.empty()) {
      for (int i = 0; i < 3; ++i) {
        FilePtr f;
        Cycles b = 0;
        if (vfs_->Open(cur, "/dev/console", i == 0 ? kORdonly : kOWronly, &f, &b) == 0) {
          InstallFd(cur, std::move(f));
        }
      }
    }
    return 0;
  });
  if (r < 0) {
    return r;
  }

  // Jump to the new image: run the app's main on this task, then exit with
  // its return code. Never returns.
  AppEnv env;
  env.kernel = this;
  env.task = CurrentTask();
  env.argv = argv;
  env.task->domain = TimeDomain::kUser;
  int rc = (*entry)(env);
  SysExit(rc);
}

// --- Files ---------------------------------------------------------------------

std::int64_t Kernel::SysOpen(const std::string& path, std::uint32_t flags) {
  return Syscall(Sys::kOpen, [&](Task* cur, Cycles&) {
    FilePtr f;
    Cycles burn = 0;
    std::int64_t r = vfs_->Open(cur, path, flags, &f, &burn);
    cur->fiber().Burn(burn);
    return r < 0 ? r : InstallFd(cur, std::move(f));
  });
}

std::int64_t Kernel::SysClose(int fd) {
  return SyscallFd(Sys::kClose, fd, [&](Task* cur, const FilePtr& f, Cycles&) {
    cur->fds[static_cast<std::size_t>(fd)] = nullptr;
    vfs_->Close(cur, f);
    return 0;
  });
}

std::int64_t Kernel::SysRead(int fd, void* buf, std::uint32_t n) {
  auto* dst = static_cast<std::uint8_t*>(buf);
  return SyscallFd(Sys::kRead, fd, [&](Task* cur, const FilePtr& f, Cycles& burn) {
    if (f->kind == FileKind::kSocket) {
      return net_->Recv(cur, *f->sock, dst, n, f->nonblock, &burn);
    }
    if (f->kind == FileKind::kPipe) {
      std::int64_t r = f->pipe->Read(cur, dst, n, f->nonblock);
      burn += cfg_.cost.pipe_op + Cycles((r > 0 ? r : 0) * cfg_.cost.pipe_per_byte);
      return r;
    }
    std::int64_t r = vfs_->Read(cur, *f, dst, n, &burn);
    if (r > 0) {
      burn += Cycles(r * cfg_.cost.memcpy_per_byte);  // copyout to user
    }
    return r;
  });
}

std::int64_t Kernel::SysWrite(int fd, const void* buf, std::uint32_t n) {
  if (!Has(SysNeed::kFiles)) {
    // Prototype 3: write() is hardwired to the UART for debugging (§4.3).
    return Syscall(Sys::kWrite, [&](Task*, Cycles& burn) {
      burn = klog_.Puts(Now(), std::string(static_cast<const char*>(buf), n));
      return static_cast<std::int64_t>(n);
    });
  }
  auto* src = static_cast<const std::uint8_t*>(buf);
  return SyscallFd(Sys::kWrite, fd, [&](Task* cur, const FilePtr& f, Cycles& burn) {
    if (f->kind == FileKind::kSocket) {
      return net_->Send(cur, *f->sock, src, n, f->nonblock, &burn);
    }
    if (f->kind == FileKind::kPipe) {
      std::int64_t r = f->pipe->Write(cur, src, n, f->nonblock);
      burn += cfg_.cost.pipe_op + Cycles((r > 0 ? r : 0) * cfg_.cost.pipe_per_byte);
      return r;
    }
    return vfs_->Write(cur, *f, src, n, &burn);
  });
}

std::int64_t Kernel::SysLseek(int fd, std::int64_t off, int whence) {
  return SyscallFd(Sys::kLseek, fd, [&](Task*, const FilePtr& f, Cycles& burn) {
    return vfs_->Lseek(*f, off, whence, &burn);
  });
}

std::int64_t Kernel::SysDup(int fd) {
  return SyscallFd(Sys::kDup, fd,
                   [&](Task* cur, const FilePtr& f, Cycles&) { return InstallFd(cur, f); });
}

std::int64_t Kernel::SysPipe(int fds[2]) {
  return Syscall(Sys::kPipe, [&](Task* cur, Cycles& burn) -> std::int64_t {
    auto pipe = std::make_shared<Pipe>(sched_);
    pipe->SetBytesPerWakeupHist(metrics_.Hist("pipe.bytes_per_wakeup"));
    auto rf = std::make_shared<File>();
    rf->kind = FileKind::kPipe;
    rf->readable = true;
    rf->pipe = pipe;
    rf->pipe_write_end = false;
    auto wf = std::make_shared<File>();
    wf->kind = FileKind::kPipe;
    wf->writable = true;
    wf->pipe = pipe;
    wf->pipe_write_end = true;
    std::int64_t r0 = InstallFd(cur, rf);
    std::int64_t r1 = InstallFd(cur, wf);
    if (r0 < 0 || r1 < 0) {
      return kErrMFile;
    }
    fds[0] = static_cast<int>(r0);
    fds[1] = static_cast<int>(r1);
    burn = cfg_.cost.pipe_op;
    return 0;
  });
}

std::int64_t Kernel::SysFstat(int fd, Stat* st) {
  return SyscallFd(Sys::kFstat, fd, [&](Task*, const FilePtr& f, Cycles& burn) {
    return vfs_->FStat(*f, st, &burn);
  });
}

std::int64_t Kernel::SysChdir(const std::string& path) {
  return Syscall(Sys::kChdir,
                 [&](Task* cur, Cycles& burn) { return vfs_->Chdir(cur, path, &burn); });
}

std::int64_t Kernel::SysMkdir(const std::string& path) {
  return Syscall(Sys::kMkdir,
                 [&](Task* cur, Cycles& burn) { return vfs_->Mkdir(cur, path, &burn); });
}

std::int64_t Kernel::SysUnlink(const std::string& path) {
  return Syscall(Sys::kUnlink,
                 [&](Task* cur, Cycles& burn) { return vfs_->Unlink(cur, path, &burn); });
}

std::int64_t Kernel::SysLink(const std::string& oldp, const std::string& newp) {
  return Syscall(Sys::kLink,
                 [&](Task* cur, Cycles& burn) { return vfs_->Link(cur, oldp, newp, &burn); });
}

std::int64_t Kernel::SysMknod(const std::string& path, std::int16_t major, std::int16_t minor) {
  return Syscall(Sys::kMknod, [&](Task* cur, Cycles& burn) {
    return vfs_->Mknod(cur, path, major, minor, &burn);
  });
}

std::int64_t Kernel::SysSync() {
  // Vfs::Sync drains the journal (commit + checkpoint everything) before the
  // cache-wide flush; any flush that exhausted its retries latched kErrIo on
  // the device, and sync is the durability point where the caller learns
  // about it (errseq-style, consumed exactly once).
  return Syscall(Sys::kSync, [&](Task*, Cycles& burn) { return vfs_->Sync(&burn); });
}

std::int64_t Kernel::SysFsync(int fd) {
  return SyscallFd(Sys::kFsync, fd,
                   [&](Task*, const FilePtr& f, Cycles& burn) { return vfs_->Fsync(*f, &burn); });
}

std::int64_t Kernel::SysReadDir(const std::string& path, std::vector<DirEntryInfo>* out) {
  // Accounted as an open-class call.
  return Syscall(Sys::kOpen,
                 [&](Task* cur, Cycles& burn) { return vfs_->ReadDir(cur, path, out, &burn); });
}

// --- Memory / devices ------------------------------------------------------------

std::int64_t Kernel::SysMmapFb(std::uint32_t** pixels, std::uint32_t* w, std::uint32_t* h) {
  return Syscall(Sys::kMmap, [&](Task* cur, Cycles&) -> std::int64_t {
    if (!fb_driver_->ready()) {
      return kErrIo;
    }
    if (cur->mm != nullptr) {
      if (!cur->mm->MapFramebuffer(board_.fb().size_bytes())) {
        return kErrNoMem;
      }
      cur->fiber().Burn(cur->mm->TakeCost());
    }
    *pixels = fb_driver_->pixels();
    *w = fb_driver_->width();
    *h = fb_driver_->height();
    return 0;
  });
}

std::int64_t Kernel::SysCacheFlush(std::uint64_t off, std::uint64_t len) {
  return Syscall(Sys::kCacheFlush, [&](Task*, Cycles& burn) {
    // EL0 cannot flush the cache itself (§4.3); this is the kernel service.
    burn = fb_driver_->Flush(off, len);
    return 0;
  });
}

// --- Threads / synchronization ----------------------------------------------------

std::int64_t Kernel::SysClone(std::function<int()> thread_body) {
  return Syscall(Sys::kClone, [&](Task* cur, Cycles& burn) {
    Task* child = NewTask(cur->name() + "-thr", cur->kernel_task());
    child->parent = cur;
    child->cwd = cur->cwd;
    child->fds = cur->fds;
    child->mm = cur->mm;  // CLONE_VM: share the mm struct (§4.5)
    child->is_thread = true;
    AttachUserEntry(child, std::move(thread_body));
    sched_.AddNew(child);
    burn = cfg_.cost.fork_base / 3;  // no address-space copy
    return child->pid();
  });
}

std::int64_t Kernel::SysSemCreate(int initial) {
  return Syscall(Sys::kSemCreate, [&](Task*, Cycles&) { return sems_->Create(initial); });
}

std::int64_t Kernel::SysSemWait(int id) {
  return Syscall(Sys::kSemWait, [&](Task* cur, Cycles&) { return sems_->Wait(cur, id); });
}

std::int64_t Kernel::SysSemPost(int id) {
  return Syscall(Sys::kSemPost, [&](Task*, Cycles&) { return sems_->Post(id); });
}

// --- Futex IPC --------------------------------------------------------------------

std::int64_t Kernel::SysIpcCreate(std::uint64_t bytes) {
  return Syscall(Sys::kIpcCreate, [&](Task* cur, Cycles&) {
    cur->fiber().Burn(cfg_.cost.ipc_create);
    return ipcs_->Create(static_cast<std::size_t>(bytes));
  });
}

std::int64_t Kernel::SysIpcMap(int id, IpcRing** out) {
  return Syscall(Sys::kIpcMap, [&](Task* cur, Cycles&) -> std::int64_t {
    IpcRing* r = ipcs_->Ring(id);
    if (r == nullptr) {
      return kErrInval;
    }
    // Maps the ring into the caller (page-table work); afterwards the task
    // pushes/pops the shared memory directly, without kernel entries.
    cur->fiber().Burn(cfg_.cost.ipc_map);
    *out = r;
    return 0;
  });
}

std::int64_t Kernel::SysIpcWait(int id, int side, std::uint64_t expected) {
  return Syscall(Sys::kIpcWait, [&](Task* cur, Cycles&) -> std::int64_t {
    if (side != 0 && side != 1) {
      return kErrInval;
    }
    return ipcs_->Wait(cur, id, static_cast<IpcSide>(side), expected);
  });
}

std::int64_t Kernel::SysIpcWake(int id, int side) {
  return Syscall(Sys::kIpcWake, [&](Task* cur, Cycles&) -> std::int64_t {
    if (side != 0 && side != 1) {
      return kErrInval;
    }
    cur->fiber().Burn(cfg_.cost.wakeup);
    return ipcs_->Wake(id, static_cast<IpcSide>(side));
  });
}

std::int64_t Kernel::SysYield() {
  // Accounted as a sleep.
  return Syscall(Sys::kSleep, [&](Task* cur, Cycles&) {
    sched_.Yield(cur);
    return 0;
  });
}

// --- Socket syscalls (Prototype 5 networking): their VOS_SYSCALLS rows need
// the network stack, so pre-proto5 stages and nic-less boards report kErrNoSys,
// and their fd lookup (SyscallFd) also insists on a socket.

std::int64_t Kernel::SysSocket(int type, std::uint32_t flags) {
  return Syscall(Sys::kSocket, [&](Task* cur, Cycles&) -> std::int64_t {
    if (type != 0 && type != 1) {
      return kErrInval;
    }
    auto f = std::make_shared<File>();
    f->kind = FileKind::kSocket;
    f->readable = true;
    f->writable = true;
    f->nonblock = (flags & 1u) != 0;
    f->sock = net_->CreateSocket(type == 0 ? Socket::Type::kTcp : Socket::Type::kUdp);
    cur->fiber().Burn(cfg_.cost.sock_op);
    return InstallFd(cur, std::move(f));
  });
}

std::int64_t Kernel::SysBind(int fd, std::uint16_t port) {
  return SyscallFd(Sys::kBind, fd, [&](Task* cur, const FilePtr& f, Cycles&) {
    cur->fiber().Burn(cfg_.cost.sock_op);
    return net_->Bind(*f->sock, port);
  });
}

std::int64_t Kernel::SysListen(int fd, std::uint32_t backlog) {
  return SyscallFd(Sys::kListen, fd, [&](Task* cur, const FilePtr& f, Cycles&) {
    cur->fiber().Burn(cfg_.cost.sock_op);
    return net_->Listen(*f->sock, backlog);
  });
}

std::int64_t Kernel::SysAccept(int fd, std::uint32_t* peer_ip, std::uint16_t* peer_port,
                               std::uint32_t flags) {
  return SyscallFd(Sys::kAccept, fd, [&](Task* cur, const FilePtr& f, Cycles&) -> std::int64_t {
    std::shared_ptr<Socket> conn;
    Cycles burn = 0;
    std::int64_t r = net_->Accept(cur, *f->sock, f->nonblock, &conn, peer_ip, peer_port, &burn);
    cur->fiber().Burn(burn);
    if (r < 0) {
      return r;
    }
    auto nf = std::make_shared<File>();
    nf->kind = FileKind::kSocket;
    nf->readable = true;
    nf->writable = true;
    nf->nonblock = (flags & 1u) != 0;
    nf->sock = std::move(conn);
    std::int64_t nfd = InstallFd(cur, nf);
    if (nfd < 0) {
      vfs_->Close(cur, nf);  // tear the accepted connection down
    }
    return nfd;
  });
}

std::int64_t Kernel::SysConnect(int fd, std::uint32_t ip, std::uint16_t port) {
  return SyscallFd(Sys::kConnect, fd, [&](Task* cur, const FilePtr& f, Cycles& burn) {
    return net_->Connect(cur, *f->sock, ip, port, f->nonblock, &burn);
  });
}

std::int64_t Kernel::SysSend(int fd, const void* buf, std::uint32_t n) {
  auto* src = static_cast<const std::uint8_t*>(buf);
  return SyscallFd(Sys::kSend, fd, [&](Task* cur, const FilePtr& f, Cycles& burn) {
    return net_->Send(cur, *f->sock, src, n, f->nonblock, &burn);
  });
}

std::int64_t Kernel::SysRecv(int fd, void* buf, std::uint32_t n) {
  auto* dst = static_cast<std::uint8_t*>(buf);
  return SyscallFd(Sys::kRecv, fd, [&](Task* cur, const FilePtr& f, Cycles& burn) {
    return net_->Recv(cur, *f->sock, dst, n, f->nonblock, &burn);
  });
}

std::int64_t Kernel::SysShutdown(int fd, int how) {
  return SyscallFd(Sys::kShutdown, fd, [&](Task* cur, const FilePtr& f, Cycles& burn) {
    return net_->Shutdown(cur, *f->sock, how, &burn);
  });
}

}  // namespace vos
