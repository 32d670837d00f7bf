#include "src/kernel/kconfig.h"

namespace vos {

const char* StageName(Stage s) {
  switch (s) {
    case Stage::kProto1:
      return "proto1-baremetal-io";
    case Stage::kProto2:
      return "proto2-multitasking";
    case Stage::kProto3:
      return "proto3-user-vs-kernel";
    case Stage::kProto4:
      return "proto4-files";
    case Stage::kProto5:
      return "proto5-desktop";
  }
  return "?";
}

const char* PlatformName(Platform p) {
  switch (p) {
    case Platform::kPi3:
      return "pi3";
    case Platform::kQemuWsl:
      return "qemu-wsl";
    case Platform::kQemuVm:
      return "qemu-vm";
  }
  return "?";
}

const char* OsProfileName(OsProfile p) {
  switch (p) {
    case OsProfile::kOurs:
      return "ours";
    case OsProfile::kXv6:
      return "xv6-armv8";
    case OsProfile::kLinux:
      return "linux";
    case OsProfile::kFreebsd:
      return "freebsd";
  }
  return "?";
}

namespace {

void ScaleCompute(CostModel& c, double s) {
  c.syscall_entry = Cycles(c.syscall_entry * s);
  c.syscall_exit = Cycles(c.syscall_exit * s);
  c.syscall_body = Cycles(c.syscall_body * s);
  c.context_switch = Cycles(c.context_switch * s);
  c.sched_pick = Cycles(c.sched_pick * s);
  c.wakeup = Cycles(c.wakeup * s);
  c.page_alloc = Cycles(c.page_alloc * s);
  c.page_free = Cycles(c.page_free * s);
  c.page_copy = Cycles(c.page_copy * s);
  c.pte_install = Cycles(c.pte_install * s);
  c.fork_base = Cycles(c.fork_base * s);
  c.cow_mark_per_page = Cycles(c.cow_mark_per_page * s);
  c.exec_base = Cycles(c.exec_base * s);
  c.sbrk_base = Cycles(c.sbrk_base * s);
  c.mmap_base = Cycles(c.mmap_base * s);
  c.pipe_op = Cycles(c.pipe_op * s);
  c.pipe_per_byte *= s;
  c.ipc_create = Cycles(c.ipc_create * s);
  c.ipc_map = Cycles(c.ipc_map * s);
  c.ipc_ring_op = Cycles(c.ipc_ring_op * s);
  c.sock_op = Cycles(c.sock_op * s);
  c.net_proto_per_seg = Cycles(c.net_proto_per_seg * s);
  c.net_copy_per_byte *= s;
  c.memcpy_per_byte *= s;
  c.memcpy_naive_per_byte *= s;
  c.blit_per_byte *= s;
  c.yuv_simd_per_byte *= s;
  c.yuv_scalar_per_byte *= s;
  c.namei_per_component = Cycles(c.namei_per_component * s);
  c.inode_op = Cycles(c.inode_op * s);
  c.bcache_lookup = Cycles(c.bcache_lookup * s);
  c.bcache_flush_work = Cycles(c.bcache_flush_work * s);
  c.fat_chain_step = Cycles(c.fat_chain_step * s);
  c.irq_entry = Cycles(c.irq_entry * s);
  c.timer_tick_work = Cycles(c.timer_tick_work * s);
  c.prof_sample_capture = Cycles(c.prof_sample_capture * s);
  c.event_poll = Cycles(c.event_poll * s);
  c.libc_compute_scale *= s;
}

}  // namespace

KernelConfig MakeConfig(Stage stage, Platform platform, OsProfile os) {
  KernelConfig k;
  k.stage = stage;
  k.platform = platform;
  k.os = os;

  // OS profile: mechanisms and libc cost.
  switch (os) {
    case OsProfile::kOurs:
      k.cost.libc_compute_scale = 1.0;  // newlib
      break;
    case OsProfile::kXv6:
      // musl-like libc measurably slower on compute (paper §6.2: md5sum,
      // qsort); simpler SD driver with higher per-block cost; no range path.
      k.cost.libc_compute_scale = 1.45;
      k.opt_bcache_bypass = false;
      k.opt_writeback_cache = false;  // xv6 bwrite is synchronous write-through
      k.opt_asm_memcpy = false;
      k.opt_simd_pixel = false;
      break;
    case OsProfile::kLinux:
      k.cost.libc_compute_scale = 0.95;  // glibc
      k.cow_fork = true;
      k.dma_sd = true;
      // Generic-kernel overhead on hot paths (deeper syscall/sched layers).
      k.cost.syscall_entry += 500;
      k.cost.syscall_exit += 400;
      k.cost.context_switch += 1400;
      k.cost.pipe_op += 2500;
      break;
    case OsProfile::kFreebsd:
      k.cost.libc_compute_scale = 1.05;
      k.cow_fork = true;
      k.dma_sd = true;
      k.cost.syscall_entry += 400;
      k.cost.syscall_exit += 300;
      k.cost.context_switch += 1100;
      k.cost.pipe_op += 1800;
      break;
  }

  // Platform: QEMU on a modern x86 machine executes guest compute faster
  // than the A53 (Table 4: +13% to +150% app FPS).
  switch (platform) {
    case Platform::kPi3:
      break;
    case Platform::kQemuWsl:
      ScaleCompute(k.cost, 0.70);
      break;
    case Platform::kQemuVm:
      ScaleCompute(k.cost, 0.76);
      break;
  }
  return k;
}

}  // namespace vos
