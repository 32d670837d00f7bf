#include "src/kernel/kernel.h"

#include <cstdarg>
#include <cstring>

#include "src/base/status.h"
#include "src/apps/app_registry.h"
#include "src/fs/procfs.h"
#include "src/kernel/unwind.h"
#include "src/wm/wm.h"

namespace vos {

namespace {
// Kernel image region: the first 8 MB of DRAM are reserved for the kernel
// text/data, the (embedded) ramdisk dump, and boot allocations; the page
// allocator manages the rest.
constexpr PhysAddr kKernelReservedEnd = MiB(8);

// One row per task, shared by /proc/tasks and /proc/schedstat; each file
// prints its own columns of it.
std::vector<ProcTaskLine> ProcTaskRows(const std::map<Pid, std::unique_ptr<Task>>& tasks) {
  auto ms = [](Cycles c) { return static_cast<std::uint64_t>(ToMs(c)); };
  std::vector<ProcTaskLine> rows;
  for (const auto& [pid, t] : tasks) {
    // stime = kernel domain; utime = user + user-lib (each burn's own
    // domain); CPU time is their sum.
    const Cycles stime = t->cpu_time(TimeDomain::kKernel);
    const Cycles utime = t->cpu_time(TimeDomain::kUser) + t->cpu_time(TimeDomain::kUserLib);
    rows.push_back(ProcTaskLine{
        .pid = pid,
        .name = t->name(),
        .state = TaskStateName(t->state),
        .cpu_ms = ms(stime + utime),
        .utime_ms = ms(utime),
        .stime_ms = ms(stime),
        .syscalls = t->syscall_count,
        .blocked_ms = ms(t->blocked_time)});
  }
  return rows;
}

// A task's fiber, first thing: its context runs `t`, and reports t's shadow
// call stack as its backtrace.
void EnterTask(Task* t) {
  ExecContext& ctx = Ctx();
  ctx.task = t;
  ctx.frames = &t->call_stack;
}
}  // namespace

const char* SysName(Sys num) {
  switch (num) {
#define VOS_SYS_NAME(e, n, name, need) case Sys::e: return name;
    VOS_SYSCALLS(VOS_SYS_NAME)
#undef VOS_SYS_NAME
  }
  return "?";
}

bool Kernel::Has(SysNeed need) const {
  switch (need) {
    case SysNeed::kNothing:
      return true;
    case SysNeed::kVm:
      return cfg_.HasVm();
    case SysNeed::kFiles:
      return cfg_.HasFiles();
    case SysNeed::kThreads:
      return cfg_.HasThreads();
    case SysNeed::kNet:
      return net_ != nullptr;  // booted only with HasNet()
  }
  return false;
}

Kernel::Kernel(Board& board, KernelConfig cfg)
    : board_(board),
      cfg_(cfg),
      machine_(board, this, cfg.EffectiveCores()),
      klog_(board.uart()),
      trace_(cfg.trace_ring_capacity),
      sched_(cfg_),
      profiler_(cfg_, &trace_) {
  VOS_CHECK_MSG(cfg_.EffectiveCores() <= board.config().cores,
                "kernel configured for more cores than the board has");
  // Violations report through the tasks' shadow call stacks (a task's fiber
  // points its context at its call_stack); off a fiber (boot, IRQ dispatch
  // on the machine thread) a synthetic frame marks it.
  static const auto* kMachineLoop = new std::vector<const char*>{"<machine-loop>"};
  Lockdep::Instance().SetDefaultFrames(kMachineLoop);
  // Racedet reporting rides the same infrastructure: contexts are named by
  // the running task, and a lockset-empty detection emits a trace event next
  // to the report text /proc/racedet serves.
  Racedet::Instance().SetContextNameFn([]() -> std::string {
    if (Task* t = Ctx().task) {
      return t->name();
    }
    return "<machine-loop>";
  });
  Racedet::Instance().SetTraceHook(
      [emit = TaskTraceHook()](std::uintptr_t addr, std::size_t index) {
        emit(TraceEvent::kRaceReport, addr, index);
      });

  // Observability: latency histograms and gauges live in the metrics
  // registry from the start; subsystems cache the pointers and record
  // wait-free on their hot paths.
  syscall_lat_all_ = metrics_.Hist("syscall.latency");
  for (int i = 1; i <= kNumSyscalls; ++i) {
    syscall_lat_[i] = metrics_.Hist(std::string("syscall.") + SysName(static_cast<Sys>(i)) +
                                    ".latency");
  }
  irq_lat_hist_ = metrics_.Hist("irq.duration");
  irq_counter_ = metrics_.Counter("irq.count");
  sched_.SetNowFn([this] { return Now(); });
  sched_.SetLatencyHists(metrics_.Hist("sched.runq_wait"), metrics_.Hist("sched.slice_len"));
  // Profiler wiring: the machine reports every execution span (OnSpan); the
  // scheduler reports every wakeup with its blocked time.
  sched_.SetProfWakeHook([this](Task* t, Cycles blocked) { profiler_.OnWake(t, blocked); });
  metrics_.Gauge("prof.samples", [this] { return profiler_.samples(); });
  metrics_.Gauge("prof.offcpu_samples", [this] { return profiler_.offcpu_samples(); });
  metrics_.Gauge("prof.symbolized", [this] { return profiler_.symbolized(); });
  watchdog_bark_counter_ = metrics_.Counter("watchdog.barks");
  metrics_.Gauge("trace.emitted", [this] { return trace_.total_emitted(); });
  metrics_.Gauge("trace.dropped", [this] { return trace_.total_dropped(); });
  metrics_.Gauge("trace.dump_retries", [this] { return trace_.dump_retries(); });
  metrics_.Gauge("racedet.checks", [] { return Racedet::Instance().checks(); });
  metrics_.Gauge("racedet.reports", [] { return Racedet::Instance().total_reports(); });
  metrics_.Gauge("racedet.excluded", [] { return Racedet::Instance().excluded_accesses(); });
  metrics_.Gauge("racedet.shrinks", [] { return Racedet::Instance().lockset_shrinks(); });
  metrics_.Gauge("racedet.cells_used",
                 [] { return static_cast<std::uint64_t>(Racedet::Instance().CellsUsed()); });
  metrics_.Gauge("racedet.dropped", [] { return Racedet::Instance().dropped_locations(); });
  for (unsigned c = 0; c < cfg_.EffectiveCores(); ++c) {
    std::string pfx = "sched.core" + std::to_string(c) + ".";
    metrics_.Gauge(pfx + "ctx_switches", [this, c] { return sched_.context_switches(c); });
    metrics_.Gauge(pfx + "runq_depth",
                   [this, c] { return static_cast<std::uint64_t>(sched_.runqueue_len(c)); });
    metrics_.Gauge(pfx + "idle_pct", [this, c] {
      return static_cast<std::uint64_t>((1.0 - machine_.Utilization(c)) * 100.0);
    });
    metrics_.Gauge(pfx + "steals", [this, c] { return sched_.steals(c); });
    metrics_.Gauge(pfx + "stolen_tasks", [this, c] { return sched_.stolen_tasks(c); });
    metrics_.Gauge(pfx + "migrations", [this, c] { return sched_.migrations(c); });
  }
}

Kernel::~Kernel() {
  shutting_down_ = true;
  // Mark everything killed so blocking loops bail out during unwind, then
  // destroy tasks: their fibers unwind (TaskKilledUnwind) while the rest of
  // the kernel still exists.
  for (auto& [pid, t] : tasks_) {
    t->killed = true;
  }
  tasks_.clear();
}

void Kernel::SetRamdiskImage(std::vector<std::uint8_t> image) {
  ramdisk_image_ = std::move(image);
}

void Kernel::AddBootBlob(const std::string& name, std::vector<std::uint8_t> velf) {
  boot_blobs_[name] = std::move(velf);
}

void Kernel::DebugSharedInc(bool locked) {
  if (locked) {
    SpinGuard g(dbg_race_lock_);
    ++RD_WRITE(dbg_shared_counter_);
  } else {
    // Deliberately unlocked: the racedet self-test's seeded race. The
    // detector must flag exactly this access once a second context has made
    // the counter shared.
    ++RD_WRITE(dbg_shared_counter_);
  }
}

std::uint64_t Kernel::debug_shared_counter() {
  SpinGuard g(dbg_race_lock_);
  return RD_READ(dbg_shared_counter_);
}

void Kernel::ChargeCurrent(Cycles c) {
  if (TaskFiber* f = TaskFiber::Current()) {
    f->Burn(c);
  }
  // On the machine thread (boot/irq) callers account time themselves.
}

void Kernel::Printk(const char* fmt, ...) {
  std::va_list ap;
  va_start(ap, fmt);
  Cycles c = klog_.VPrintf(Now(), fmt, ap);
  va_end(ap);
  ChargeCurrent(c);
}

// --- Boot --------------------------------------------------------------------

Kernel::BootReport Kernel::Boot() {
  VOS_CHECK_MSG(!booted_, "double boot");
  BootReport r;
  Cycles now = board_.clock().now();

  // Firmware: the GPU firmware loads bootcode/start.elf and then our kernel
  // image (kernel + embedded ramdisk) from the SD card — the bulk of the
  // 6-second power-to-shell time (Fig 8).
  std::uint64_t image_bytes = MiB(1) + ramdisk_image_.size();
  r.firmware = Ms(2600) + Cycles(image_bytes) * 250;  // ~4 MB/s SD load

  // Kernel core: vectors, PMM over [8 MB, dram_end), timers, UART.
  Cycles core = 0;
  pmm_ = std::make_unique<Pmm>(board_.mem(), kKernelReservedEnd, board_.config().dram_size);
  pmm_->SetTraceHook(TaskTraceHook());
  metrics_.Gauge("pmm.total_pages", [this] { return pmm_->total_pages(); });
  metrics_.Gauge("pmm.free_pages", [this] { return pmm_->free_pages(); });
  metrics_.Gauge("pmm.largest_block_pages", [this] { return pmm_->LargestFreeBlockPages(); });
#define VOS_PMM_GAUGE(field, label) \
  metrics_.Gauge("pmm." #field, [this] { return pmm_->stats().field; });
  VOS_PMM_STATS(VOS_PMM_GAUGE)
#undef VOS_PMM_GAUGE
  if (cfg_.HasKmalloc()) {
    kmalloc_ = std::make_unique<Kmalloc>(*pmm_);
    kmalloc_->SetCoreFn([this] {
      Task* cur = CurrentTask();
      return cur != nullptr ? cur->core : 0u;
    });
    kmalloc_->SetTraceHook(TaskTraceHook());
    metrics_.Gauge("slab.large_live", [this] { return kmalloc_->large_live(); });
    metrics_.Gauge("slab.large_allocs", [this] { return kmalloc_->large_allocs(); });
    for (unsigned c = 0; c < cfg_.EffectiveCores(); ++c) {
      std::string pfx = "slab.core" + std::to_string(c) + ".";
      metrics_.Gauge(pfx + "hits", [this, c] { return kmalloc_->core_stats(c).hits; });
      metrics_.Gauge(pfx + "misses", [this, c] { return kmalloc_->core_stats(c).misses; });
      metrics_.Gauge(pfx + "drains", [this, c] { return kmalloc_->core_stats(c).drains; });
      metrics_.Gauge(pfx + "cached", [this, c] { return kmalloc_->CachedObjects(c); });
    }
  }
  vtimers_ = std::make_unique<VirtualTimers>(board_.sys_timer());
  sems_ = std::make_unique<SemTable>(sched_);
  ipcs_ = std::make_unique<IpcTable>(sched_);
  metrics_.Gauge("ipc.waits_slept", [this] { return ipcs_->waits_slept(); });
  metrics_.Gauge("ipc.waits_immediate", [this] { return ipcs_->waits_immediate(); });
  metrics_.Gauge("ipc.wakes", [this] { return ipcs_->wakes(); });
  metrics_.Gauge("ipc.woken_tasks", [this] { return ipcs_->woken_tasks(); });
  core += Ms(3);  // vector tables, EL1 setup, MMU enable (1 MB kernel blocks)
  if (cfg_.HasVm()) {
    core += Ms(2);  // kernel page tables
  }
  // Release secondary cores from their firmware parking loop (§4.5) and arm
  // every core's generic timer for the scheduler tick.
  for (unsigned c = 0; c < cfg_.EffectiveCores(); ++c) {
    board_.core_timer(c).Arm(now + r.firmware + core, kTickInterval);
    board_.intc().Enable(CoreTimerIrq(c));
    if (c > 0) {
      core += Us(300);  // SEV + stack setup per secondary core
    }
  }
  board_.intc().Enable(kIrqSysTimerC1);

  // Framebuffer: first-class IO, present from Prototype 1 (§4.1).
  fb_driver_ = std::make_unique<FbDriver>(board_, cfg_);
  r.fb = fb_driver_->Init();

  console_ = std::make_unique<ConsoleDriver>(board_, sched_, klog_);
  if (cfg_.stage >= Stage::kProto2) {
    console_->EnableRxIrq();
    board_.intc().Enable(kIrqAux);
  }

  // Files (Prototype 4): ramdisk root filesystem + devfs/procfs + input/audio.
  Cycles fs_time = 0;
  Cycles usb_time = 0;
  fault_ = std::make_unique<FaultInjector>();
  // Every block device goes through a fault-injection decorator, tagged with
  // the bcache device id it is about to be registered under.
  auto wrap_fault = [this](BlockDevice* raw) -> BlockDevice* {
    fault_devs_.push_back(std::make_unique<FaultInjectingBlockDevice>(
        raw, fault_.get(), bcache_->device_count()));
    return fault_devs_.back().get();
  };
  if (cfg_.HasFiles()) {
    VOS_CHECK_MSG(!ramdisk_image_.empty(), "proto4+ boot requires a ramdisk image");
    ramdisk_ = std::make_unique<RamDisk>(std::move(ramdisk_image_));
    bcache_ = std::make_unique<Bcache>(cfg_);
    bcache_->SetNowFn([this] { return Now(); });
    bcache_->SetTraceHook(TaskTraceHook());
    Histogram* blk_lat = metrics_.Hist("block.req_latency");
    bcache_->SetLatencyHook([blk_lat](Cycles lat) { blk_lat->Record(lat); });
    ramdisk_dev_ = bcache_->AddDevice(wrap_fault(ramdisk_.get()), "ramdisk");
    RegisterBlockDevMetrics(ramdisk_dev_);
    rootfs_ = std::make_unique<Xv6Fs>(*bcache_, ramdisk_dev_, cfg_);
    std::int64_t mr = rootfs_->Mount(&fs_time);
    VOS_CHECK_MSG(mr == 0, "root filesystem mount failed");
    // Write-ahead journal: Mount() already ran recovery-by-replay; the live
    // journal attaches only when the image carries a log.
    // FAT32 volumes stay unjournaled (see README): removable media interop
    // means the on-disk format is not ours to extend.
    journal_ = std::make_unique<Journal>(*bcache_, ramdisk_dev_, cfg_);
    if (journal_->Init(rootfs_->sb(), &fs_time) == 0 && journal_->active()) {
      journal_->SetNowFn([this] { return Now(); });
      journal_->SetTraceHook(TaskTraceHook());
      Histogram* jrnl_lat = metrics_.Hist("jrnl.commit_latency");
      journal_->SetCommitLatencyHook([jrnl_lat](Cycles lat) { jrnl_lat->Record(lat); });
      rootfs_->AttachJournal(journal_.get());
      metrics_.Gauge("jrnl.commits", [this] { return journal_->stats().commits; });
      metrics_.Gauge("jrnl.commit_errors", [this] { return journal_->stats().commit_errors; });
      metrics_.Gauge("jrnl.txs", [this] { return journal_->stats().txs; });
      metrics_.Gauge("jrnl.blocks_logged", [this] { return journal_->stats().blocks_logged; });
      metrics_.Gauge("jrnl.coalesced", [this] { return journal_->stats().coalesced; });
      metrics_.Gauge("jrnl.checkpoints", [this] { return journal_->stats().checkpoints; });
      metrics_.Gauge("jrnl.checkpoint_blocks",
                     [this] { return journal_->stats().checkpoint_blocks; });
      metrics_.Gauge("jrnl.backpressure_syncs",
                     [this] { return journal_->stats().backpressure_syncs; });
      metrics_.Gauge("jrnl.live_slots", [this] { return journal_->stats().live_slots; });
      metrics_.Gauge("jrnl.backlog_blocks", [this] { return journal_->stats().backlog_blocks; });
      metrics_.Gauge("jrnl.recovered_records", [this] { return rootfs_->recovered_records(); });
      metrics_.Gauge("jrnl.recovered_blocks", [this] { return rootfs_->recovered_blocks(); });
    } else {
      journal_.reset();  // unjournaled image or unreadable jsb: plain write-back
    }
    vfs_ = std::make_unique<Vfs>(*rootfs_, cfg_);

    events_ = std::make_unique<KeyEventDev>(sched_);
    event1_ = std::make_unique<KeyEventDev>(sched_);
    null_dev_ = std::make_unique<NullDev>();
    audio_driver_ = std::make_unique<AudioDriver>(board_, sched_, *pmm_, cfg_);
    vfs_->RegisterDevice("console", console_.get());
    vfs_->RegisterDevice("fb", fb_driver_.get());
    vfs_->RegisterDevice("events", events_.get());
    vfs_->RegisterDevice("event1", event1_.get());
    vfs_->RegisterDevice("null", null_dev_.get());
    vfs_->RegisterDevice("sb", audio_driver_.get());

    // procfs generators.
    vfs_->RegisterProc("cpuinfo", [this] {
      std::vector<ProcCpuLine> lines;
      for (unsigned c = 0; c < cfg_.EffectiveCores(); ++c) {
        lines.push_back(ProcCpuLine{c, machine_.Utilization(c), sched_.context_switches(c)});
      }
      return FormatCpuInfo(lines, static_cast<std::uint64_t>(ToMs(Now())));
    });
    vfs_->RegisterProc("meminfo", [this] {
      return FormatMemInfo(pmm_->total_pages(), pmm_->free_pages(), kKernelReservedEnd);
    });
    vfs_->RegisterProc("uptime",
                       [this] { return FormatUptime(static_cast<std::uint64_t>(ToMs(Now()))); });
    vfs_->RegisterProc("tasks", [this] { return FormatTasks(ProcTaskRows(tasks_)); });
    vfs_->RegisterProc("fbinfo", [this] {
      return std::to_string(fb_driver_->width()) + " " + std::to_string(fb_driver_->height()) +
             " " + std::to_string(fb_driver_->pitch()) + "\n";
    });
    // /proc/blkstat is a formatted view over the metrics registry: every
    // counter flows through the block.<dev>.* gauges /proc/metrics exports.
    vfs_->RegisterProc("blkstat", [this] {
      std::vector<BlockDevStats> devs;
      for (int d = 0; d < bcache_->device_count(); ++d) {
        BlockDevStats row;
        row.name = bcache_->stats(d).name;
        const std::string pfx = "block." + row.name + ".";
#define VOS_BLKSTAT_FROM_METRICS(field, column) metrics_.Value(pfx + #field, &row.field);
        VOS_BLOCK_DEV_STATS(VOS_BLKSTAT_FROM_METRICS)
#undef VOS_BLKSTAT_FROM_METRICS
        devs.push_back(std::move(row));
      }
      return FormatBlkStat(devs);
    });
    // /proc/faultinject: read shows injector state and fault counters; write
    // accepts the command language (see FaultInjector::Command).
    vfs_->RegisterProc("faultinject", [this] { return fault_->StatusText(); });
    vfs_->RegisterProcWriter("faultinject",
                             [this](const std::string& text) { return fault_->Command(text); });
    // /proc/profile: read dumps the folded-stack aggregation (header + one
    // line per unique stack); write accepts start/stop/reset.
    vfs_->RegisterProc("profile", [this] { return profiler_.ExportText(); });
    vfs_->RegisterProcWriter(
        "profile", [this](const std::string& text) { return profiler_.Command(text, Now()); });
    vfs_->RegisterProc("lockdep", [] { return Lockdep::Instance().Report(); });
    vfs_->RegisterProc("racedet", [] { return Racedet::Instance().Report(); });
    // /proc/jrnl: journal state and counters; "active 0" when the image is
    // unjournaled or the journal is disabled.
    vfs_->RegisterProc("jrnl", [this] {
      if (journal_ == nullptr) {
        return std::string("active 0\n");
      }
      std::string out = journal_->StatusText();
      out += "recovered_records " + std::to_string(rootfs_->recovered_records()) + "\n";
      out += "recovered_blocks " + std::to_string(rootfs_->recovered_blocks()) + "\n";
      return out;
    });
    // /proc/memstat scalars are a view over the registry's pmm.*/slab.*
    // gauges; only distribution detail (per-order, per-class) is read direct.
    vfs_->RegisterProc("memstat", [this] {
      auto val = [this](const std::string& name) {
        std::uint64_t v = 0;
        metrics_.Value(name, &v);
        return v;
      };
      ProcMemStat ms;
      ms.total_pages = val("pmm.total_pages");
      ms.free_pages = val("pmm.free_pages");
      ms.largest_block_pages = val("pmm.largest_block_pages");
      ms.frag_pct = pmm_->FragmentationPct();
#define VOS_PMM_OP_FROM_METRICS(field, label) ms.ops.field = val("pmm." #field);
      VOS_PMM_STATS(VOS_PMM_OP_FROM_METRICS)
#undef VOS_PMM_OP_FROM_METRICS
      for (int o = 0; o < pmm_->num_orders(); ++o) {
        ms.free_blocks_by_order.push_back(pmm_->FreeBlocksOfOrder(o));
      }
      if (kmalloc_ != nullptr) {
        ms.has_kmalloc = true;
        for (int cls = 0; cls < Kmalloc::kNumClasses; ++cls) {
          ms.classes.push_back(kmalloc_->class_stats(cls));
        }
        for (unsigned c = 0; c < cfg_.EffectiveCores(); ++c) {
          std::string pfx = "slab.core" + std::to_string(c) + ".";
          ms.cores.push_back(ProcMemCoreLine{c, val(pfx + "hits"), val(pfx + "misses"),
                                             val(pfx + "drains"), val(pfx + "cached")});
        }
        ms.large_live = val("slab.large_live");
        ms.large_allocs = val("slab.large_allocs");
      }
      return FormatMemStat(ms);
    });
    vfs_->RegisterProc("metrics", [this] { return metrics_.ExportText(); });
    // Write "buckets on|off" to toggle raw histogram bucket export (the
    // percentile summary stays the default view).
    vfs_->RegisterProcWriter("metrics",
                             [this](const std::string& text) { return metrics_.Command(text); });
    vfs_->RegisterProc("schedstat", [this] {
      std::vector<ProcSchedLine> cores;
      for (unsigned c = 0; c < cfg_.EffectiveCores(); ++c) {
        cores.push_back(ProcSchedLine{c, sched_.context_switches(c), sched_.runqueue_len(c),
                                      sched_.steals(c), sched_.migrations(c),
                                      (1.0 - machine_.Utilization(c)) * 100.0});
      }
      return FormatSchedStat(cores, ProcTaskRows(tasks_));
    });
    trace_dev_ = std::make_unique<TraceDev>(trace_);
    vfs_->RegisterDevice("trace", trace_dev_.get());

    // USB keyboard (the boot-time hog) and Game HAT buttons.
    usb_kbd_ = std::make_unique<UsbKbdDriver>(board_, machine_, *events_);
    if (cfg_.HasUsb() && board_.config().usb_keyboard_present) {
      usb_time = usb_kbd_->Init(now + r.firmware + core + r.fb + fs_time);
      board_.intc().Enable(kIrqUsb);
    }
    gpio_buttons_ = std::make_unique<GpioButtonDriver>(board_, *events_);
    if (board_.config().game_hat_present) {
      gpio_buttons_->Init();
      board_.intc().Enable(kIrqGpio);
    }
    if (cfg_.HasAudio()) {
      fs_time += audio_driver_->Init(44100);
      board_.intc().Enable(kIrqDma0);
    }
  }

  // Prototype 5: SD card + FAT32 under /d, window manager.
  if (cfg_.HasSd()) {
    sd_driver_ = std::make_unique<SdDriver>(board_, cfg_);
    fs_time += sd_driver_->Init();
    std::uint64_t first = 0, count = 0;
    Cycles part_burn = 0;
    if (sd_driver_->ReadPartition(1, &first, &count, &part_burn)) {
      fs_time += part_burn;
      sd_part_ = sd_driver_->OpenPartition(first, count);
      sd_dev_ = bcache_->AddDevice(wrap_fault(sd_part_.get()), "sd");
      RegisterBlockDevMetrics(sd_dev_);
      fat_ = std::make_unique<FatVolume>(*bcache_, sd_dev_, cfg_);
      Cycles mount_burn = 0;
      if (fat_->Mount(&mount_burn) == 0) {
        vfs_->MountFat("/d", fat_.get());
      }
      fs_time += mount_burn;
    }
  }
  // USB mass storage (the §4.4 future-work class): enumerate the thumb
  // drive, mount its FAT volume at /u.
  if (cfg_.HasFat32() && board_.usb_storage() != nullptr) {
    usb_storage_driver_ = std::make_unique<UsbStorageDriver>(*board_.usb_storage());
    Cycles msc_time = usb_storage_driver_->Init();
    usb_time += msc_time;
    if (usb_storage_driver_->ready()) {
      usb_dev_ = bcache_->AddDevice(wrap_fault(usb_storage_driver_.get()), "usb");
      RegisterBlockDevMetrics(usb_dev_);
      usb_fat_ = std::make_unique<FatVolume>(*bcache_, usb_dev_, cfg_);
      Cycles mb = 0;
      if (usb_fat_->Mount(&mb) == 0) {
        vfs_->MountFat("/u", usb_fat_.get());
      }
      usb_time += mb;
    }
  }

  if (cfg_.HasWm()) {
    wm_ = std::make_unique<WindowManager>(*this);
    vfs_->RegisterDevice("surface", wm_.get());
    // With a WM, /dev/event1 dispatches to the focused window (§4.5).
    vfs_->RegisterDevice("event1", wm_->event_node());
  }

  // Network stack (proto5): the NIC driver + TCP/IP over the simulated MAC.
  if (cfg_.HasNet()) {
    net_ = std::make_unique<NetStack>(cfg_, sched_, board_.clock(), board_.events(), trace_,
                                      metrics_, board_.nic());
    net_->Init();
    board_.intc().Enable(kIrqEth);
    vfs_->SetSocketCloser([this](const std::shared_ptr<Socket>& s) { net_->CloseSocket(s); });
    vfs_->RegisterProc("netstat", [this] { return net_->NetstatText(); });
    vfs_->RegisterProcWriter("netstat",
                             [this](const std::string& text) { return net_->Control(text); });
  }

  r.core = core;
  r.fs = fs_time;
  r.usb = usb_time;
  r.total = r.firmware + r.core + r.fb + r.fs + r.usb;
  board_.clock().AdvanceTo(now + r.total);

  // The window manager runs as a kernel thread (§4.5).
  if (wm_ != nullptr) {
    wm_->StartThread();
  }

  // The write-back flusher runs as a kernel thread too: wake periodically,
  // write back buffers that have been dirty longer than the age threshold.
  if (cfg_.HasFiles() && cfg_.HasMultitasking() && cfg_.opt_writeback_cache) {
    CreateKernelTask("bflush", [this] { FlusherBody(); });
  }

  // Hung-task watchdog: seed every core's tick stamp with boot-end time (a
  // zero stamp means "never ticked" and is skipped), then start the scanner
  // thread on core 0 so a wedge elsewhere cannot starve the scanner itself.
  for (unsigned c = 0; c < cfg_.EffectiveCores(); ++c) {
    wd_last_tick_[c] = board_.clock().now();
  }
  if (cfg_.HasMultitasking()) {
    CreateKernelTask("watchdog", [this] { WatchdogBody(); }, /*core_hint=*/0);
  }
  if (cfg_.prof_enabled) {
    profiler_.Start(board_.clock().now());
  }

  booted_ = true;
  return r;
}

Kernel::TraceHook Kernel::TaskTraceHook() {
  return [this](TraceEvent ev, std::uint64_t a, std::uint64_t b) {
    Task* cur = CurrentTask();
    trace_.Emit(Now(), cur != nullptr ? cur->core : 0, ev, cur != nullptr ? cur->pid() : 0, a, b);
  };
}

void Kernel::RegisterBlockDevMetrics(int dev) {
  std::string pfx = "block." + bcache_->stats(dev).name + ".";
  // Gauges are sampled outside the metrics lock, so stats(dev) taking the
  // bcache lock in the callback keeps "metrics" a lockdep leaf.
#define VOS_BLOCK_DEV_GAUGE(field, column) \
  metrics_.Gauge(pfx + #field, [this, dev] { return bcache_->stats(dev).field; });
  VOS_BLOCK_DEV_STATS(VOS_BLOCK_DEV_GAUGE)
#undef VOS_BLOCK_DEV_GAUGE
}

// bflush cadence: wake every 50 ms, write back buffers dirty for 30 ms.
constexpr std::uint32_t kBflushIntervalMs = 50;
constexpr Cycles kBflushDirtyAge = Ms(30);

void Kernel::FlusherBody() {
  for (;;) {
    Task* cur = CurrentTask();
    if (cur->killed) {
      return;
    }
    // Journal first: the time-triggered group commit and one checkpoint
    // slice (the pipelined drain) ride the same flusher cadence.
    if (journal_ != nullptr) {
      ChargeCurrent(journal_->Tick(Now()));
    }
    ChargeCurrent(bcache_->FlushAged(Now(), kBflushDirtyAge));
    KSleepMs(kBflushIntervalMs);
  }
}

// --- Tasks ---------------------------------------------------------------------

Task* Kernel::NewTask(const std::string& name, bool kernel_task) {
  Pid pid = next_pid_++;
  auto t = std::make_unique<Task>(pid, name, kernel_task);
  Task* raw = t.get();
  tasks_[pid] = std::move(t);
  return raw;
}

Task* Kernel::CreateKernelTask(const std::string& name, std::function<void()> body,
                               int core_hint) {
  Task* t = NewTask(name, /*kernel_task=*/true);
  t->AttachFiber(std::make_unique<TaskFiber>([this, t, body = std::move(body)] {
    EnterTask(t);
    // Root frame for the profiler: every kernel-thread sample symbolizes at
    // least to here.
    StackFrame root(t, "kthread_main");
    try {
      body();
      DoExit(t, 0);
    } catch (const TaskExitUnwind&) {
    } catch (const TaskKilledUnwind&) {
      if (!shutting_down_) {
        DoExitNoThrow(t, -1);
      }
    }
  }));
  sched_.AddNew(t, core_hint);
  return t;
}

void Kernel::AttachUserEntry(Task* t, std::function<int()> body) {
  t->AttachFiber(std::make_unique<TaskFiber>([this, t, body = std::move(body)] {
    EnterTask(t);
    // Root frame for the profiler (see CreateKernelTask).
    StackFrame root(t, "user_main");
    try {
      int rc = body();
      DoExit(t, rc);
    } catch (const TaskExitUnwind&) {
    } catch (const TaskKilledUnwind&) {
      if (!shutting_down_) {
        DoExitNoThrow(t, -1);
      }
    }
  }));
}

Task* Kernel::StartUserProgram(const std::string& path, const std::vector<std::string>& argv) {
  VOS_CHECK_MSG(cfg_.HasVm(), "user programs need Prototype 3+");
  Task* t = NewTask(path, /*kernel_task=*/false);
  AttachUserEntry(t, [this, path, argv]() -> int {
    std::int64_t r = SysExec(path, argv);
    // Exec only returns on failure.
    Printk("init: exec %s failed (%s)\n", path.c_str(), ErrName(r));
    return -1;
  });
  sched_.AddNew(t);
  return t;
}

void Kernel::DoExitNoThrow(Task* cur, int code) {
  cur->exit_code = code;
  // Close files.
  if (vfs_ != nullptr) {
    for (FilePtr& f : cur->fds) {
      if (f != nullptr) {
        vfs_->Close(cur, f);
      }
    }
  }
  cur->fds.clear();
  cur->mm.reset();
  // Flush the exiting task's core's kmalloc magazines back to the depot so
  // cached objects are not stranded on a core that may now go idle.
  if (kmalloc_ != nullptr) {
    kmalloc_->DrainCore(cur->core);
  }
  // Reparent children to init (pid 1), a kernel thread that never calls
  // wait(): the kernel reaps its orphans instead, as xv6's init loop does.
  // A zombie child goes now; its fiber has stopped, as in SysWait. A live
  // one goes when its fiber stops (OnTaskStopped).
  Task* init = FindTask(1);
  for (auto it = tasks_.begin(); it != tasks_.end();) {
    Task* t = it->second.get();
    if (t->parent == cur && t->state == TaskState::kZombie) {
      it = tasks_.erase(it);
      continue;
    }
    if (t->parent == cur) {
      t->parent = init;
    }
    ++it;
  }
  cur->state = TaskState::kZombie;
  if (cur->parent != nullptr) {
    sched_.Wakeup(cur->parent);
  }
  trace_.Emit(Now(), cur->core, TraceEvent::kCtxSwitch, cur->pid(), 0xdead);
}

void Kernel::DoExit(Task* cur, int code) {
  DoExitNoThrow(cur, code);
  throw TaskExitUnwind{};
}

void Kernel::ReapTask(Pid pid) {
  auto it = tasks_.find(pid);
  VOS_CHECK(it != tasks_.end());
  VOS_CHECK(it->second->state == TaskState::kZombie);
  tasks_.erase(it);  // destroys the Task and its finished fiber
}

void Kernel::KillFromHost(Pid pid) {
  Task* t = FindTask(pid);
  if (t == nullptr || t->state == TaskState::kZombie) {
    return;
  }
  t->killed = true;
  // Kill the whole family: threads and forked workers die with it.
  for (auto& [cpid, child] : tasks_) {
    if (child->parent == t) {
      child->killed = true;
      if (child->state == TaskState::kSleeping) {
        sched_.WakeTask(child.get());
      }
    }
  }
  if (t->state == TaskState::kSleeping) {
    sched_.WakeTask(t);
  }
}

std::int64_t Kernel::ReapZombie(Pid pid) {
  Task* t = FindTask(pid);
  if (t == nullptr || t->state != TaskState::kZombie) {
    return kErrNoEnt;
  }
  int code = t->exit_code;
  ReapTask(pid);
  return code;
}

Task* Kernel::FindTask(Pid pid) {
  auto it = tasks_.find(pid);
  return it == tasks_.end() ? nullptr : it->second.get();
}

std::vector<Task*> Kernel::AllTasks() {
  std::vector<Task*> out;
  out.reserve(tasks_.size());
  for (auto& [pid, t] : tasks_) {
    out.push_back(t.get());
  }
  return out;
}

void Kernel::KSleepMs(std::uint64_t ms) {
  Task* cur = CurrentTask();
  VOS_CHECK_MSG(cur != nullptr, "KSleepMs outside task context");
  Cycles wake_at = Now() + Ms(ms);
  // Only this timer wakes the sleep's channel, `&wake_at`: no exit, wait or
  // other sleeper can end the sleep early. It names the sleeper by pid,
  // which is never reused: a task reaped before its deadline has no Task
  // left to wake, and its freed memory may already hold another task's.
  VirtualTimers::TimerId timer = vtimers_->AddAt(wake_at, [this, pid = cur->pid()] {
    if (Task* t = FindTask(pid)) {
      sched_.WakeTask(t);
    }
  });
  do {
    if (sched_.Block(cur, &wake_at, nullptr, false) < 0) {
      vtimers_->Cancel(timer);  // a kill ended the sleep before its deadline
      return;
    }
  } while (Now() < wake_at);
}

std::int64_t Kernel::LoadVelf(const std::string& path, std::vector<std::uint8_t>* out,
                              Cycles* burn) {
  // Kernel-bundled blob fallback: Prototype 3's file-less exec, and also the
  // escape hatch for programs injected after the ramdisk image was built.
  auto from_blob = [&]() -> std::int64_t {
    std::vector<std::string> parts = SplitPath(path);
    std::string base = parts.empty() ? path : parts.back();
    auto it = boot_blobs_.find(base);
    if (it == boot_blobs_.end()) {
      return kErrNoEnt;
    }
    *out = it->second;
    *burn += Cycles(out->size()) / 2;  // copy from the kernel image region
    return 0;
  };
  if (!cfg_.HasFiles()) {
    return from_blob();
  }
  FilePtr f;
  Task* cur = CurrentTask();
  std::int64_t r = vfs_->Open(cur, path, kORdonly, &f, burn);
  if (r < 0) {
    return from_blob() == 0 ? 0 : r;
  }
  Stat st;
  vfs_->FStat(*f, &st, burn);
  out->resize(st.size);
  std::int64_t n = vfs_->Read(cur, *f, out->data(), st.size, burn);
  vfs_->Close(cur, f);
  if (n < 0) {
    return n;
  }
  out->resize(static_cast<std::size_t>(n));
  return 0;
}

// --- MachineClient ---------------------------------------------------------------

Task* Kernel::PickNext(unsigned core) { return sched_.PickNext(core); }

void Kernel::OnTaskStopped(unsigned core, Task* t, TaskFiber::StopReason r) {
  // Watchdog bookkeeping: the task just ran, so it is not hung; remember it
  // as the core's last occupant (the prime suspect if the core stalls).
  t->watchdog_barked = false;
  if (core < kMaxCores) {
    wd_last_dispatched_[core] = t->pid();
  }
  sched_.OnTaskStopped(core, t, r);
  // init never waits (DoExitNoThrow): an orphan is reaped here, once its
  // fiber has stopped and the machine loop is done with it.
  if (r == TaskFiber::StopReason::kExited && t->parent != nullptr && t->parent->pid() == 1) {
    ReapTask(t->pid());
  }
}

void Kernel::OnSpan(unsigned core, Task* t, Cycles t0, Cycles t1) {
  // Each captured sample charges its capture cost to the sampled core as IRQ
  // debt, so profiling overhead is real virtual time (bench_prof's ≤5%
  // contract).
  unsigned n = profiler_.OnSpan(core, t, t0, t1);
  if (n > 0) {
    machine_.ChargeIrq(core, Cycles(n) * cfg_.cost.prof_sample_capture);
  }
}

void Kernel::DebugWedgeCore(unsigned core, bool wedged) {
  if (core >= cfg_.EffectiveCores()) {
    return;
  }
  sched_.SetCoreWedged(core, wedged);
  if (!wedged) {
    // Recovery: freshen the stamp so the just-ended stall is not barked at
    // again before the next real tick lands.
    wd_last_tick_[core] = board_.clock().now();
  }
}

void Kernel::WatchdogBark(Task* offender, unsigned core, Cycles stalled, const char* what) {
  watchdog_bark_counter_->Inc();
  trace_.Emit(Now(), core, TraceEvent::kWatchdogBark,
              offender != nullptr ? offender->pid() : -1, stalled, core);
  std::string bt = offender != nullptr ? UnwindTask(*offender) : "<no task to blame>\n";
  Printk("watchdog: BUG: %s on core %u (stalled %llu ms)\n%s", what, core,
         static_cast<unsigned long long>(ToMs(stalled)), bt.c_str());
}

void Kernel::WatchdogBody() {
  const Cycles thresh = Ms(cfg_.watchdog_thresh_ms);
  for (;;) {
    Task* cur = CurrentTask();
    if (cur->killed) {
      return;
    }
    Cycles now = Now();
    // Core-level softlockup check: a core whose timer tick went stale is
    // wedged (IRQs masked or the machine loop starving it). One bark per
    // stall; the latch clears when ticks flow again.
    bool stale[kMaxCores] = {};
    for (unsigned c = 0; c < cfg_.EffectiveCores(); ++c) {
      if (wd_last_tick_[c] != 0 && now > wd_last_tick_[c] + thresh) {
        stale[c] = true;
        if (!wd_core_barked_[c]) {
          wd_core_barked_[c] = true;
          WatchdogBark(FindTask(wd_last_dispatched_[c]), c, now - wd_last_tick_[c],
                       "soft lockup - core tick stalled");
        }
      } else {
        wd_core_barked_[c] = false;
      }
    }
    // Hung-task check: runnable but not dispatched within the threshold.
    // Tasks homed on a stale core are the same incident as the core bark —
    // exactly one bark per root cause.
    for (Task* t : AllTasks()) {
      if (t == cur || t->state != TaskState::kRunnable || t->watchdog_barked) {
        continue;
      }
      if (t->core < kMaxCores && stale[t->core]) {
        continue;
      }
      if (t->runnable_since != 0 && now > t->runnable_since + thresh) {
        t->watchdog_barked = true;
        WatchdogBark(t, t->core, now - t->runnable_since, "hung task - runnable but starved");
      }
    }
    KSleepMs(cfg_.watchdog_poll_ms);
  }
}

void Kernel::TickHandler(unsigned core, Cycles now) {
  board_.core_timer(core).ClearIrq();
  board_.core_timer(core).Arm(now, kTickInterval);
  if (sched_.CoreWedged(core)) {
    // Debug wedge: the core runs with IRQs "masked" — the tick is acked and
    // re-armed (the hardware keeps firing) but not serviced, so the watchdog
    // sees the stamp go stale. No work, no charge.
    return;
  }
  wd_last_tick_[core] = now;
  machine_.ChargeIrq(core, cfg_.cost.irq_entry + cfg_.cost.timer_tick_work);
}

void Kernel::OnIrq(unsigned core, unsigned irq) {
  trace_.Emit(board_.clock().now(), core, TraceEvent::kIrqEnter, 0, irq);
  irq_counter_->Inc();
  Cycles debt_before = machine_.irq_debt(core);
  Cycles now = board_.clock().now();
  if (irq >= kIrqCoreTimerBase && irq < kIrqCoreTimerBase + kMaxCores) {
    TickHandler(irq - kIrqCoreTimerBase, now);
  } else {
    switch (irq) {
      case kIrqSysTimerC1:
        machine_.ChargeIrq(core, cfg_.cost.irq_entry);
        vtimers_->OnIrq(now);
        break;
      case kIrqUsb:
        machine_.ChargeIrq(core, cfg_.cost.irq_entry);
        usb_kbd_->OnIrq(now);
        break;
      case kIrqDma0:
        machine_.ChargeIrq(core, cfg_.cost.irq_entry);
        audio_driver_->OnDmaIrq(now);
        break;
      case kIrqAux:
        machine_.ChargeIrq(core, cfg_.cost.irq_entry);
        console_->OnRxIrq();
        break;
      case kIrqGpio:
        machine_.ChargeIrq(core, cfg_.cost.irq_entry);
        gpio_buttons_->OnIrq(now);
        break;
      case kIrqEth:
        machine_.ChargeIrq(core, cfg_.cost.irq_entry + net_->OnNicIrq(now));
        break;
      default:
        VOS_CHECK_MSG(false, "unexpected IRQ");
    }
  }
  // Handler duration == the cycles the handler charged to this core.
  irq_lat_hist_->Record(machine_.irq_debt(core) - debt_before);
  trace_.Emit(board_.clock().now(), core, TraceEvent::kIrqExit, 0, irq);
}

void Kernel::OnFiq(unsigned core) {
  // Panic button (§5.1): dump call stacks and registers from all cores over
  // the UART, even if the kernel is deadlocked.
  std::vector<const Task*> running;
  for (unsigned c = 0; c < cfg_.EffectiveCores(); ++c) {
    running.push_back(machine_.running(c));
  }
  last_panic_dump_ = "FIQ panic dump (core " + std::to_string(core) + ")\n" + UnwindAll(running);
  Cycles burn = klog_.Puts(board_.clock().now(), last_panic_dump_);
  machine_.ChargeIrq(core, burn);
}

}  // namespace vos
