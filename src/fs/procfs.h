// /proc text formatting helpers. The kernel registers generators with the
// VFS (RegisterProc); these functions produce the file bodies sysmon and the
// shell utilities parse.
#ifndef VOS_SRC_FS_PROCFS_H_
#define VOS_SRC_FS_PROCFS_H_

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/units.h"
#include "src/fs/block_dev.h"
#include "src/kernel/kmalloc.h"

namespace vos {

struct ProcCpuLine {
  unsigned core = 0;
  double utilization = 0;  // [0,1]
  std::uint64_t switches = 0;
};

struct ProcTaskLine {
  int pid = 0;
  std::string name;
  std::string state;
  std::uint64_t cpu_ms = 0;
  // Per-task accounting (profiler PR): kernel/user split of cpu_ms, syscall
  // count, and cumulative blocked (sleep->wakeup) time.
  std::uint64_t utime_ms = 0;
  std::uint64_t stime_ms = 0;
  std::uint64_t syscalls = 0;
  std::uint64_t blocked_ms = 0;
};

// /proc/memstat: the memory path end to end — buddy PMM state (free blocks
// by order, fragmentation, op counters) plus slab kmalloc state (per-class
// slab utilization, per-core cache hit rates).
struct ProcMemCoreLine {
  unsigned core = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t drains = 0;
  std::uint64_t cached = 0;
};

struct ProcMemStat {
  std::uint64_t total_pages = 0;
  std::uint64_t free_pages = 0;
  std::uint64_t largest_block_pages = 0;
  double frag_pct = 0;
  Pmm::Stats ops;  // the PmmOps line
  std::vector<std::uint64_t> free_blocks_by_order;
  bool has_kmalloc = false;
  std::vector<Kmalloc::ClassStats> classes;
  std::vector<ProcMemCoreLine> cores;
  std::uint64_t large_live = 0;
  std::uint64_t large_allocs = 0;
};

// One /proc/schedstat core row: context switches, current runqueue depth,
// work-stealing traffic (steal operations performed / tasks migrated away),
// and idle percentage since boot. Per-task accounting rides along as
// ProcTaskLine.
struct ProcSchedLine {
  unsigned core = 0;
  std::uint64_t switches = 0;
  std::uint64_t runq = 0;
  std::uint64_t steals = 0;
  std::uint64_t migrations = 0;
  double idle_pct = 0;
};

std::string FormatCpuInfo(const std::vector<ProcCpuLine>& cores, std::uint64_t uptime_ms);
std::string FormatMemInfo(std::uint64_t total_pages, std::uint64_t free_pages,
                          std::uint64_t kernel_reserved_bytes);
std::string FormatUptime(std::uint64_t uptime_ms);
std::string FormatTasks(const std::vector<ProcTaskLine>& tasks);
std::string FormatBlkStat(const std::vector<BlockDevStats>& devs);
std::string FormatMemStat(const ProcMemStat& ms);
std::string FormatSchedStat(const std::vector<ProcSchedLine>& cores,
                            const std::vector<ProcTaskLine>& tasks);

// One command line written to a control file (/proc/faultinject, profile,
// metrics, netstat), split into whitespace-separated words; words[0] is the
// verb.
struct ProcCommand {
  std::vector<std::string> words;

  const std::string& verb() const { return words[0]; }
  // Reads word i (1 = the first argument) with operator>>; false if the word
  // is missing or does not start with a T.
  template <typename T>
  bool Arg(std::size_t i, T* out) const {
    std::istringstream in(i < words.size() ? words[i] : std::string());
    return static_cast<bool>(in >> *out);
  }
};

// The control files' shared syntax: one command per line; blank lines and
// lines whose first word starts with '#' are skipped. Runs `verb` on each
// command in order and stops at the first negative result, which it returns.
// A write with no command at all is kErrInval.
std::int64_t RunProcCommands(const std::string& text,
                             const std::function<std::int64_t(const ProcCommand&)>& verb);

// Parsers used by sysmon (the other direction of the same format).
bool ParseCpuUtilization(const std::string& cpuinfo, std::vector<double>* out);
bool ParseMemFree(const std::string& meminfo, std::uint64_t* total_kb, std::uint64_t* free_kb);
bool ParseBlkStat(const std::string& blkstat, std::vector<BlockDevStats>* out);
bool ParseSchedStat(const std::string& schedstat, std::vector<ProcSchedLine>* out);
// The per-task rows of the same file (sysmon's TOP-style table).
bool ParseSchedTasks(const std::string& schedstat, std::vector<ProcTaskLine>* out);
// Finds "name value" in a /proc/metrics body (exact name match).
bool ParseMetricValue(const std::string& metrics, const std::string& name, std::uint64_t* out);

}  // namespace vos

#endif  // VOS_SRC_FS_PROCFS_H_
