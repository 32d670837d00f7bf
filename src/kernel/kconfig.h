// Kernel configuration: prototype stage (the paper's incremental feature
// matrix, Table 1), platform profile (Pi3 vs QEMU, Table 2), OS profile
// (ours vs xv6 vs production baselines, Fig 9), and the cycle cost model all
// virtual-time measurements derive from.
#ifndef VOS_SRC_KERNEL_KCONFIG_H_
#define VOS_SRC_KERNEL_KCONFIG_H_

#include <cstdint>
#include <string>

#include "src/base/units.h"

namespace vos {

// The five incremental prototypes (§4).
enum class Stage : int {
  kProto1 = 1,  // baremetal IO: fb + uart + timers, app in irq handler
  kProto2 = 2,  // multitasking: kernel tasks, scheduler, sleep, WFI
  kProto3 = 3,  // user/kernel: VM, EL0 tasks, task syscalls, mmap, exec
  kProto4 = 4,  // files: VFS, xv6fs, devfs/procfs, USB kbd, audio, pipes
  kProto5 = 5,  // desktop: FAT32+SD, threads+semaphores, multicore, WM
};

// Hardware/emulator platform (Table 2).
enum class Platform : int {
  kPi3 = 0,      // real Pi3 model B+
  kQemuWsl = 1,  // QEMU on Ubuntu in WSL2 (fast x86 host)
  kQemuVm = 2,   // QEMU on Ubuntu in VMware Player
};

// OS baselines compared in Fig 9 / Table 4. All four run the same kernel with
// different mechanisms/costs enabled, reproducing the paper's comparisons as
// controlled ablations rather than hard-coded numbers.
enum class OsProfile : int {
  kOurs = 0,     // VOS: newlib-like libc, eager fork, polled SD, range bypass
  kXv6 = 1,      // xv6-armv8: musl-like libc, eager fork, slower polled SD,
                 // single-block buffer cache only
  kLinux = 2,    // production: glibc, COW fork, DMA SD, aggressive caching
  kFreebsd = 3,  // production: BSD libc, COW fork, DMA SD
};

const char* StageName(Stage s);
const char* PlatformName(Platform p);
const char* OsProfileName(OsProfile p);

// All compute costs are cycles of the 1 GHz virtual clock (== ns).
struct CostModel {
  // Syscall path.
  Cycles syscall_entry = 1300;   // EL0->EL1 trap, register save, dispatch
  Cycles syscall_exit = 900;     // return path, register restore
  Cycles syscall_body = 700;     // argument fetch/validate for a trivial call
  // Scheduling.
  Cycles context_switch = 1900;  // register file + callee-saved + ttbr swap
  Cycles sched_pick = 350;
  Cycles wakeup = 500;
  // Memory management.
  Cycles page_alloc = 420;
  Cycles page_free = 260;
  Cycles page_copy = 2900;       // 4 KB copy
  Cycles pte_install = 240;
  Cycles fork_base = 18000;      // task struct, fd table dup, bookkeeping
  Cycles cow_mark_per_page = 90; // COW profile: remap instead of copy
  Cycles exec_base = 120000;     // ELF parse, old-space teardown
  Cycles sbrk_base = 1500;
  Cycles mmap_base = 8000;
  // IPC.
  Cycles pipe_op = 7200;         // lock, ring manipulation, wakeup partner
  double pipe_per_byte = 1.2;
  Cycles ipc_create = 5200;      // futex channel: table slot + ring allocation
  Cycles ipc_map = 2600;         // map the shared ring into the caller
  Cycles ipc_ring_op = 120;      // user-side ring index math + fences per op
  // Networking (per-operation CPU costs; wire time comes from the NIC model).
  Cycles sock_op = 1800;         // socket table lookup, state checks, wakeups
  Cycles net_proto_per_seg = 950;  // header build/parse + checksum per segment
  double net_copy_per_byte = 0.5;  // socket buffer <-> user copy
  // Bulk data movement (per byte).
  double memcpy_per_byte = 0.45;      // ARMv8 assembly memmove (§5.2)
  double memcpy_naive_per_byte = 4.0; // C byte-at-a-time loop (ablation)
  double blit_per_byte = 0.5;
  double yuv_simd_per_byte = 0.42;    // NEON fixed-point conversion (§5.2)
  double yuv_scalar_per_byte = 45.0;  // per-pixel float conversion (§5.2: the
                                      // unoptimized path dominated the frame)
  // Filesystem CPU costs (I/O time comes from the device models).
  Cycles namei_per_component = 900;
  Cycles inode_op = 1200;
  Cycles bcache_lookup = 700;
  Cycles bcache_flush_work = 400;  // per-buffer bookkeeping when writing back
  Cycles fat_chain_step = 260;
  // App compute scale. Models the C-library difference the paper measures
  // (newlib vs musl vs glibc, §6.2): multiplies app/userlib compute burns.
  double libc_compute_scale = 1.0;
  // Trap/IRQ.
  Cycles irq_entry = 900;
  Cycles timer_tick_work = 1400;
  // Profiler: cost of capturing one stack sample (walk the shadow stack,
  // hash frames, fold the stack and emit its trace record). Charged as IRQ
  // debt per sample so profiling overhead is real in virtual time (bench_prof
  // measures it).
  Cycles prof_sample_capture = 2200;
  // Per-frame baseline poll work in SDL-style event loops.
  Cycles event_poll = 2500;
};

struct KernelConfig {
  Stage stage = Stage::kProto5;
  Platform platform = Platform::kPi3;
  OsProfile os = OsProfile::kOurs;

  unsigned cores = 4;             // used cores (proto5 only; earlier stages use 1)

  // The scheduler is round robin over per-core runqueues; a core whose
  // queue runs dry steals half of the longest other queue.
  bool sched_steal = true;

  std::uint32_t fb_width = 640;
  std::uint32_t fb_height = 480;

  // Optimization toggles (§5.2), independently switchable for ablations.
  bool opt_asm_memcpy = true;        // ARMv8 assembly memory move
  bool opt_simd_pixel = true;        // SIMD YUV->RGB conversion
  bool opt_bcache_bypass = true;     // range I/O bypasses the buffer cache
  bool opt_writeback_cache = true;   // write-back bcache (off = xv6 write-through)
  bool opt_wm_dirty_rects = true;    // WM redraws only dirty regions
  // Dirty fraction that throttles writers (only meaningful with
  // opt_writeback_cache).
  double bcache_dirty_ratio = 0.5;
  // Write-ahead journal for the xv6 root filesystem (src/fs/journal.h),
  // active when the image carries a log region (sb.nlog > 0).
  bool jrnl_group_commit = true;   // off = one commit record per transaction
  // Production-OS mechanisms (enabled by linux/freebsd profiles).
  bool cow_fork = false;
  bool dma_sd = false;

  std::uint32_t trace_ring_capacity = 16384;  // records per core (tests shrink
                                              // it to exercise wrap/drop)

  // Sampling profiler (src/kernel/profiler.h). Off by default; /proc/profile
  // (or the `prof` coreutil) starts/stops it at runtime. prof_hz is virtual-
  // time sampling frequency; with the 1 GHz clock, 100 Hz = one sample per
  // 10 ms of virtual time per core.
  bool prof_enabled = false;          // start sampling at boot
  std::uint32_t prof_hz = 100;        // samples per virtual second per core
  std::uint32_t prof_max_frames = 24; // frames kept per sample (deepest first)

  // Hung-task / softlockup watchdog (kernel thread, proto2+). Barks via klog
  // + kWatchdogBark when a runnable task sits unscheduled — or a core stops
  // servicing its timer tick — for watchdog_thresh_ms of virtual time.
  // Non-fatal: one bark per offender, reset when it runs again.
  std::uint32_t watchdog_thresh_ms = 10000;  // generous: stress tests queue deep
  std::uint32_t watchdog_poll_ms = 1000;     // watchdog thread wake period

  // Network stack (src/kernel/net/, proto5-gated via HasNet()). The NIC link
  // is the FaultInjector-style wire model in src/hw/nic.h; loss, latency and
  // IRQ coalescing are runtime-tunable through /proc/netstat writes as well.
  bool net_enabled = true;
  std::uint32_t net_ip = 0x0A000002;        // 10.0.0.2 (loopback wire peer too)
  std::uint32_t net_link_loss_ppm = 0;      // deterministic seeded frame loss
  std::uint64_t net_link_seed = 1;

  CostModel cost;

  // Effective number of cores for this stage (multicore arrives in proto5).
  unsigned EffectiveCores() const {
    return stage >= Stage::kProto5 ? cores : 1;
  }

  // --- Feature tests mirroring Table 1 ---
  bool HasMultitasking() const { return stage >= Stage::kProto2; }
  bool HasVm() const { return stage >= Stage::kProto3; }
  bool HasFiles() const { return stage >= Stage::kProto4; }
  bool HasUsb() const { return stage >= Stage::kProto4; }
  bool HasAudio() const { return stage >= Stage::kProto4; }
  bool HasThreads() const { return stage >= Stage::kProto5; }
  bool HasSd() const { return stage >= Stage::kProto5; }
  bool HasFat32() const { return stage >= Stage::kProto5; }
  bool HasWm() const { return stage >= Stage::kProto5; }
  bool HasKmalloc() const { return stage >= Stage::kProto4; }
  bool HasNet() const { return net_enabled && stage >= Stage::kProto5; }
};

// Returns a config with platform/profile-dependent costs applied:
// - platform scales compute (QEMU on a fast x86 host runs guest code faster)
// - OS profile selects libc cost scale and production mechanisms.
KernelConfig MakeConfig(Stage stage, Platform platform = Platform::kPi3,
                        OsProfile os = OsProfile::kOurs);

}  // namespace vos

#endif  // VOS_SRC_KERNEL_KCONFIG_H_
