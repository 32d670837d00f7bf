// The VOS kernel: a monolithic kernel in the xv6 mold (§3), assembled per
// prototype stage. Owns the scheduler, memory management, filesystems,
// drivers, tracing/debugging, and the syscall interface; implements
// MachineClient so the machine loop can ask it for scheduling decisions and
// hand it interrupts.
#ifndef VOS_SRC_KERNEL_KERNEL_H_
#define VOS_SRC_KERNEL_KERNEL_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/fs/bcache.h"
#include "src/fs/devfs.h"
#include "src/fs/fault_inject.h"
#include "src/fs/journal.h"
#include "src/fs/vfs.h"
#include "src/fs/xv6fs.h"
#include "src/hw/board.h"
#include "src/kernel/debug_monitor.h"
#include "src/kernel/drivers.h"
#include "src/kernel/ipc.h"
#include "src/kernel/kconfig.h"
#include "src/kernel/klog.h"
#include "src/kernel/lockdep.h"
#include "src/kernel/kmalloc.h"
#include "src/kernel/machine.h"
#include "src/kernel/metrics.h"
#include "src/kernel/net/net.h"
#include "src/kernel/pipe.h"
#include "src/kernel/pmm.h"
#include "src/kernel/profiler.h"
#include "src/kernel/racedet.h"
#include "src/kernel/sched.h"
#include "src/kernel/semaphore.h"
#include "src/kernel/spinlock.h"
#include "src/kernel/task.h"
#include "src/kernel/timer.h"
#include "src/kernel/trace.h"
#include "src/kernel/velf.h"
#include "src/kernel/vm.h"
#include "src/kernel/semaphore.h"

namespace vos {

class WindowManager;

// Syscalls, once: X(enumerator, number, lowercase name, need). The paper's 30
// syscalls across task management, filesystem, threading/synchronization, and
// durability (§3), the four futex-IPC calls the "Scheduling & IPC" refactor
// adds, and the socket calls. Sys, SysName and kNumSyscalls are generated from
// this list. The numbers are ABI: trace records carry them, and the names
// become metric paths ("syscall.<name>.latency"). `need` is the call's
// prototype gate, the only one: what the booted kernel must have (SysNeed
// below) for the syscall path to run the call instead of returning kErrNoSys.
#define VOS_SYSCALLS(X)                                                                            \
  X(kFork, 1, "fork", kVm) X(kExit, 2, "exit", kNothing) X(kWait, 3, "wait", kVm)                  \
  X(kPipe, 4, "pipe", kFiles) X(kRead, 5, "read", kFiles) X(kKill, 6, "kill", kVm)                 \
  X(kExec, 7, "exec", kVm) X(kFstat, 8, "fstat", kFiles) X(kChdir, 9, "chdir", kFiles)             \
  X(kDup, 10, "dup", kFiles) X(kGetPid, 11, "getpid", kNothing) X(kSbrk, 12, "sbrk", kVm)          \
  X(kSleep, 13, "sleep", kNothing) X(kUptime, 14, "uptime", kNothing)                              \
  X(kOpen, 15, "open", kFiles) X(kWrite, 16, "write", kNothing) X(kMknod, 17, "mknod", kFiles)     \
  X(kUnlink, 18, "unlink", kFiles) X(kLink, 19, "link", kFiles) X(kMkdir, 20, "mkdir", kFiles)     \
  X(kClose, 21, "close", kFiles) X(kLseek, 22, "lseek", kFiles) X(kMmap, 23, "mmap", kVm)          \
  X(kCacheFlush, 24, "cacheflush", kNothing) X(kClone, 25, "clone", kThreads)                      \
  X(kSemCreate, 26, "semcreate", kThreads) X(kSemWait, 27, "semwait", kThreads)                    \
  X(kSemPost, 28, "sempost", kThreads) X(kSync, 29, "sync", kFiles)                                \
  X(kFsync, 30, "fsync", kFiles) X(kIpcCreate, 31, "ipccreate", kThreads)                          \
  X(kIpcWait, 32, "ipcwait", kThreads) X(kIpcWake, 33, "ipcwake", kThreads)                        \
  X(kIpcMap, 34, "ipcmap", kThreads) X(kSocket, 35, "socket", kNet) X(kBind, 36, "bind", kNet)     \
  X(kListen, 37, "listen", kNet) X(kAccept, 38, "accept", kNet) X(kConnect, 39, "connect", kNet)   \
  X(kSend, 40, "send", kNet) X(kRecv, 41, "recv", kNet) X(kShutdown, 42, "shutdown", kNet)

// What a syscall needs from the booted kernel (Table 1): VM arrives with
// Prototype 3, files with 4, threads with 5. The network stack boots with 5
// when net_enabled is set.
enum class SysNeed : std::uint8_t { kNothing, kVm, kFiles, kThreads, kNet };

enum class Sys : int {
#define VOS_SYS_ENUM(e, num, name, need) e = num,
  VOS_SYSCALLS(VOS_SYS_ENUM)
#undef VOS_SYS_ENUM
};

// Numbers run 1..kNumSyscalls without gaps.
constexpr int kNumSyscalls = 0
#define VOS_SYS_COUNT(e, num, name, need) +1
    VOS_SYSCALLS(VOS_SYS_COUNT)
#undef VOS_SYS_COUNT
    ;

const char* SysName(Sys num);

class Kernel final : public MachineClient {
 public:
  Kernel(Board& board, KernelConfig cfg);
  ~Kernel() override;
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // --- Images provisioned before Boot() ---
  void SetRamdiskImage(std::vector<std::uint8_t> image);
  // Prototype 3 "file-less exec": VELF blobs bundled with the kernel image.
  void AddBootBlob(const std::string& name, std::vector<std::uint8_t> velf);

  // Boot timing per stage (Fig 8's boot breakdown).
  struct BootReport {
    Cycles firmware = 0;   // firmware loading the kernel from SD
    Cycles core = 0;       // vectors, timers, pmm, vm
    Cycles fb = 0;         // mailbox framebuffer allocation
    Cycles fs = 0;         // ramdisk root mount (+ FAT32 on SD)
    Cycles usb = 0;        // USB stack + keyboard enumeration
    Cycles total = 0;
  };
  BootReport Boot();
  bool booted() const { return booted_; }

  // --- Running the machine ---
  void Run(Cycles until) { machine_.Run(until); }
  void RunFor(Cycles dur) { machine_.Run(board_.clock().now() + dur); }
  Cycles Now() const { return machine_.Now(); }

  // --- Accessors ---
  const KernelConfig& config() const { return cfg_; }
  Board& board() { return board_; }
  Machine& machine() { return machine_; }
  Sched& sched() { return sched_; }
  Pmm& pmm() { return *pmm_; }
  Kmalloc& kmalloc() { return *kmalloc_; }
  Vfs& vfs() { return *vfs_; }
  Xv6Fs& rootfs() { return *rootfs_; }
  Bcache& bcache() { return *bcache_; }
  Journal* journal() { return journal_.get(); }
  TraceRing& trace() { return trace_; }
  Metrics& metrics() { return metrics_; }
  Profiler& profiler() { return profiler_; }
  DebugMonitor& debug() { return dbg_; }
  Klog& klog() { return klog_; }
  VirtualTimers& vtimers() { return *vtimers_; }
  SemTable& sems() { return *sems_; }
  IpcTable& ipcs() { return *ipcs_; }
  FbDriver& fb_driver() { return *fb_driver_; }
  AudioDriver& audio_driver() { return *audio_driver_; }
  KeyEventDev& events_dev() { return *events_; }
  WindowManager* wm() { return wm_.get(); }
  NetStack* net() { return net_.get(); }
  const std::string& last_panic_dump() const { return last_panic_dump_; }

  // Test-only seeded-race hook: increments a racedet-annotated counter with
  // or without its lock. The racedet self-test uses the unlocked flavor to
  // prove the detector fires; nothing in the kernel proper calls this.
  void DebugSharedInc(bool locked);
  std::uint64_t debug_shared_counter();

  // Test-only wedge hook (watchdog torture): models a task spinning with
  // IRQs masked on `core` — the core's timer tick is acked but not serviced
  // (no last-tick stamp, no tick work charged) and the scheduler stops preempting
  // there. Un-wedging restores both and freshens the tick stamp so recovery
  // does not double-bark.
  void DebugWedgeCore(unsigned core, bool wedged);

  // --- Tasks ---
  // `core_hint` >= 0 pins the new task's home runqueue (tests and benches
  // use it to build skewed loads that exercise the work-stealing balancer).
  Task* CreateKernelTask(const std::string& name, std::function<void()> body,
                         int core_hint = -1);
  // Creates a user task that execs `path` with `argv` when first scheduled.
  Task* StartUserProgram(const std::string& path, const std::vector<std::string>& argv);
  // The task whose fiber is running on this host thread (nullptr outside).
  Task* CurrentTask() const { return Ctx().task; }
  // Host-side reaping of an orphan zombie (tests/benches waiting on programs
  // they started directly). Returns the exit code, or kErrNoEnt.
  std::int64_t ReapZombie(Pid pid);
  // Host-side kill (benches stopping a measured app mid-run).
  void KillFromHost(Pid pid);
  std::size_t live_tasks() const { return tasks_.size(); }
  std::vector<Task*> AllTasks();
  Task* FindTask(Pid pid);

  // printk, charged to the caller's context.
  void Printk(const char* fmt, ...) __attribute__((format(printf, 2, 3)));

  // --- The syscall interface (implemented in syscall.cc). Typed entry
  // points, all on one path (Syscall() below) that charges entry/exit cost,
  // applies the VOS_SYSCALLS gate, and traces. Called from ulib on the
  // current task's fiber. ---
  std::int64_t SysFork(std::function<int()> child_body);
  [[noreturn]] void SysExit(int code);
  std::int64_t SysWait(int* status);
  std::int64_t SysKill(Pid pid);
  std::int64_t SysGetPid();
  std::int64_t SysSbrk(std::int64_t delta);
  std::int64_t SysSleep(std::uint64_t ms);
  std::int64_t SysUptime();
  std::int64_t SysExec(const std::string& path, const std::vector<std::string>& argv);
  std::int64_t SysOpen(const std::string& path, std::uint32_t flags);
  std::int64_t SysClose(int fd);
  std::int64_t SysRead(int fd, void* buf, std::uint32_t n);
  std::int64_t SysWrite(int fd, const void* buf, std::uint32_t n);
  std::int64_t SysLseek(int fd, std::int64_t off, int whence);
  std::int64_t SysDup(int fd);
  std::int64_t SysPipe(int fds[2]);
  std::int64_t SysFstat(int fd, Stat* st);
  std::int64_t SysChdir(const std::string& path);
  std::int64_t SysMkdir(const std::string& path);
  std::int64_t SysUnlink(const std::string& path);
  std::int64_t SysLink(const std::string& oldp, const std::string& newp);
  std::int64_t SysMknod(const std::string& path, std::int16_t major, std::int16_t minor);
  // mmap of /dev/fb (§4.3): identity-maps the framebuffer into the task and
  // returns the CPU-side pixel pointer and geometry.
  std::int64_t SysMmapFb(std::uint32_t** pixels, std::uint32_t* w, std::uint32_t* h);
  std::int64_t SysCacheFlush(std::uint64_t off, std::uint64_t len);
  std::int64_t SysClone(std::function<int()> thread_body);
  std::int64_t SysSemCreate(int initial);
  std::int64_t SysSemWait(int id);
  std::int64_t SysSemPost(int id);
  // Futex IPC (ipc.h): create a shared ring, map it into the caller, and
  // park/unpark on its version words. The data path never enters the kernel.
  std::int64_t SysIpcCreate(std::uint64_t bytes);
  std::int64_t SysIpcMap(int id, IpcRing** out);
  std::int64_t SysIpcWait(int id, int side, std::uint64_t expected);
  std::int64_t SysIpcWake(int id, int side);
  // Sockets (src/kernel/net/). type: 0 = TCP, 1 = UDP; flags bit 0 makes the
  // new fd nonblocking. SysAccept's flags bit 0 sets nonblock on the
  // *accepted* fd. Addresses are (ipv4 host-order u32, port u16).
  std::int64_t SysSocket(int type, std::uint32_t flags);
  std::int64_t SysBind(int fd, std::uint16_t port);
  std::int64_t SysListen(int fd, std::uint32_t backlog);
  std::int64_t SysAccept(int fd, std::uint32_t* peer_ip, std::uint16_t* peer_port,
                         std::uint32_t flags);
  std::int64_t SysConnect(int fd, std::uint32_t ip, std::uint16_t port);
  std::int64_t SysSend(int fd, const void* buf, std::uint32_t n);
  std::int64_t SysRecv(int fd, void* buf, std::uint32_t n);
  std::int64_t SysShutdown(int fd, int how);
  // Durability (§5.2 write-back cache): sync flushes every dirty buffer on
  // every device; fsync flushes the device backing one open file.
  std::int64_t SysSync();
  std::int64_t SysFsync(int fd);
  std::int64_t SysYield();
  // Directory listing helper for the shell (no number of its own: accounted
  // as open; reads of directory files also work for xv6fs, as in xv6's ls).
  std::int64_t SysReadDir(const std::string& path, std::vector<DirEntryInfo>* out);

  // --- In-kernel helpers (no syscall costs; used by kernel tasks & boot) ---
  // The current task sleeps `ms` of virtual time (also sleep()'s body).
  void KSleepMs(std::uint64_t ms);
  void ChargeCurrent(Cycles c);          // burn on the current context
  std::int64_t LoadVelf(const std::string& path, std::vector<std::uint8_t>* out, Cycles* burn);

  // --- MachineClient ---
  Task* PickNext(unsigned core) override;
  void OnTaskStopped(unsigned core, Task* t, TaskFiber::StopReason r) override;
  void OnIrq(unsigned core, unsigned irq) override;
  void OnFiq(unsigned core) override;
  void OnSpan(unsigned core, Task* t, Cycles t0, Cycles t1) override;

 private:
  friend class WindowManager;

  Task* NewTask(const std::string& name, bool kernel_task);
  void AttachUserEntry(Task* t, std::function<int()> body);
  void DoExitNoThrow(Task* cur, int code);
  [[noreturn]] void DoExit(Task* cur, int code);
  void ReapTask(Pid pid);
  std::int64_t InstallFd(Task* cur, FilePtr f);
  // The one syscall path (syscall.cc). Syscall() enters, returns kErrNoSys
  // when the kernel lacks what `num`'s VOS_SYSCALLS row needs, runs
  // body(cur, burn), charges the cycles the body added to `burn`, and exits
  // with the body's result. A body whose cost must land before later work (a
  // new fd, a runnable child, a wakeup) burns on the fiber itself.
  template <typename Body>
  std::int64_t Syscall(Sys num, Body&& body);
  // Syscall() plus the lookup the fd-taking calls share: body(cur, file,
  // burn) runs only on an open fd (kErrBadFd otherwise), and for a kNet call
  // only on a socket (kErrInval otherwise).
  template <typename Body>
  std::int64_t SyscallFd(Sys num, int fd, Body&& body);
  // Whether the booted kernel has what a syscall needs.
  bool Has(SysNeed need) const;
  // Syscall prologue: returns the current task, charging entry costs; kills
  // the task if a kill is pending.
  Task* SyscallEnter(Sys num);
  std::int64_t SyscallExit(Sys num, std::int64_t ret);
  // The trace hook pmm, kmalloc, bcache, journal and racedet emit through:
  // events are stamped with the current task's core and pid (0 and 0 off a
  // task).
  using TraceHook = std::function<void(TraceEvent, std::uint64_t, std::uint64_t)>;
  TraceHook TaskTraceHook();
  // Registers the block.<name>.* gauges for a newly added bcache device.
  void RegisterBlockDevMetrics(int dev);
  void FlusherBody();  // bflush kernel thread: periodic aged-dirty write-back
  void WatchdogBody();  // hung-task/softlockup watchdog kernel thread
  // One watchdog bark: klog backtrace + kWatchdogBark + counter. `offender`
  // may be null (stalled core with no known last task).
  void WatchdogBark(Task* offender, unsigned core, Cycles stalled, const char* what);
  void TickHandler(unsigned core, Cycles now);
  std::unique_ptr<AddressSpace> BuildAddressSpace(const VelfImage& img,
                                                  const std::vector<std::string>& argv,
                                                  Cycles* cost);

  Board& board_;
  KernelConfig cfg_;
  // Must precede every member that constructs a SpinLock (trace_, sched_, …):
  // it resets the lockdep session so their class registrations land in this
  // kernel's fresh graph.
  LockdepSession lockdep_session_;
  // Right after lockdep (its held stacks are racedet's lockset source) and
  // before every member whose construction touches annotated state.
  RacedetSession racedet_session_;
  Machine machine_;
  Klog klog_;
  TraceRing trace_;
  Metrics metrics_;
  DebugMonitor dbg_;
  Sched sched_;
  FrameRefs frame_refs_;
  Profiler profiler_;

  std::unique_ptr<Pmm> pmm_;
  std::unique_ptr<Kmalloc> kmalloc_;
  std::unique_ptr<VirtualTimers> vtimers_;
  std::unique_ptr<SemTable> sems_;
  std::unique_ptr<IpcTable> ipcs_;

  // Filesystems. Every BlockDevice is wrapped in a FaultInjectingBlockDevice
  // before it reaches the bcache, so /proc/faultinject can inject errors on
  // any of them; with injection off the wrappers are pass-through.
  std::unique_ptr<FaultInjector> fault_;
  std::vector<std::unique_ptr<FaultInjectingBlockDevice>> fault_devs_;
  std::unique_ptr<RamDisk> ramdisk_;
  std::unique_ptr<Bcache> bcache_;
  std::unique_ptr<Xv6Fs> rootfs_;
  std::unique_ptr<Journal> journal_;
  std::unique_ptr<SdBlockDevice> sd_part_;
  std::unique_ptr<FatVolume> fat_;
  std::unique_ptr<Vfs> vfs_;
  int ramdisk_dev_ = -1;
  int sd_dev_ = -1;

  // Drivers.
  std::unique_ptr<FbDriver> fb_driver_;
  std::unique_ptr<ConsoleDriver> console_;
  std::unique_ptr<KeyEventDev> events_;
  std::unique_ptr<KeyEventDev> event1_;
  std::unique_ptr<UsbKbdDriver> usb_kbd_;
  std::unique_ptr<GpioButtonDriver> gpio_buttons_;
  std::unique_ptr<AudioDriver> audio_driver_;
  std::unique_ptr<SdDriver> sd_driver_;
  std::unique_ptr<UsbStorageDriver> usb_storage_driver_;
  std::unique_ptr<FatVolume> usb_fat_;
  int usb_dev_ = -1;
  std::unique_ptr<NullDev> null_dev_;
  std::unique_ptr<TraceDev> trace_dev_;
  std::unique_ptr<WindowManager> wm_;
  std::unique_ptr<NetStack> net_;

  // Latency histograms, registered with metrics_ at construction; the hot
  // paths record through these cached pointers without touching the registry.
  Histogram* syscall_lat_all_ = nullptr;
  Histogram* syscall_lat_[kNumSyscalls + 1] = {};
  Histogram* irq_lat_hist_ = nullptr;
  MetricCounter* irq_counter_ = nullptr;
  MetricCounter* watchdog_bark_counter_ = nullptr;

  // Watchdog state. All token-serialized: the tick stamps are written in IRQ
  // context on the machine thread, everything else on the watchdog fiber or
  // from host-side test hooks while no fiber runs.
  Cycles wd_last_tick_[kMaxCores] = {};     // last serviced timer tick per core
  bool wd_core_barked_[kMaxCores] = {};     // bark-once latch per stalled core
  Pid wd_last_dispatched_[kMaxCores] = {};  // last task to run on each core

  std::vector<std::uint8_t> ramdisk_image_;
  std::map<std::string, std::vector<std::uint8_t>> boot_blobs_;

  // Seeded-race self-test state (DebugSharedInc).
  SpinLock dbg_race_lock_{"racedet-self"};
  std::uint64_t dbg_shared_counter_ = 0;  // racedet: shared (guarded by dbg_race_lock_)

  std::map<Pid, std::unique_ptr<Task>> tasks_;
  Pid next_pid_ = 1;
  bool booted_ = false;
  bool shutting_down_ = false;
  std::string last_panic_dump_;
};

}  // namespace vos

#endif  // VOS_SRC_KERNEL_KERNEL_H_
