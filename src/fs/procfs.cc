#include "src/fs/procfs.h"

#include <cstdio>
#include <sstream>

#include "src/base/status.h"

namespace vos {

std::string FormatCpuInfo(const std::vector<ProcCpuLine>& cores, std::uint64_t uptime_ms) {
  std::ostringstream os;
  os << "uptime_ms: " << uptime_ms << "\n";
  for (const ProcCpuLine& c : cores) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "cpu%u: util %.1f%% switches %llu\n", c.core,
                  c.utilization * 100.0, static_cast<unsigned long long>(c.switches));
    os << buf;
  }
  return os.str();
}

std::string FormatMemInfo(std::uint64_t total_pages, std::uint64_t free_pages,
                          std::uint64_t kernel_reserved_bytes) {
  std::ostringstream os;
  os << "MemTotal: " << total_pages * 4 << " kB\n";
  os << "MemFree: " << free_pages * 4 << " kB\n";
  os << "KernelReserved: " << kernel_reserved_bytes / 1024 << " kB\n";
  return os.str();
}

std::string FormatUptime(std::uint64_t uptime_ms) {
  std::ostringstream os;
  os << uptime_ms / 1000 << "." << (uptime_ms % 1000) / 100 << "\n";
  return os.str();
}

std::string FormatTasks(const std::vector<ProcTaskLine>& tasks) {
  std::ostringstream os;
  os << "PID\tSTATE\tCPU_MS\tNAME\n";
  for (const ProcTaskLine& t : tasks) {
    os << t.pid << "\t" << t.state << "\t" << t.cpu_ms << "\t" << t.name << "\n";
  }
  return os.str();
}

std::string FormatBlkStat(const std::vector<BlockDevStats>& devs) {
  std::ostringstream os;
  os << "DEV";
#define VOS_BLKSTAT_HEADER(field, column) os << "\t" column;
  VOS_BLOCK_DEV_STATS(VOS_BLKSTAT_HEADER)
#undef VOS_BLKSTAT_HEADER
  os << "\n";
  for (const BlockDevStats& d : devs) {
    os << d.name;
#define VOS_BLKSTAT_CELL(field, column) os << "\t" << d.field;
    VOS_BLOCK_DEV_STATS(VOS_BLKSTAT_CELL)
#undef VOS_BLKSTAT_CELL
    os << "\n";
  }
  return os.str();
}

std::string FormatMemStat(const ProcMemStat& ms) {
  std::ostringstream os;
  char buf[160];
  os << "PmmTotalPages: " << ms.total_pages << "\n";
  os << "PmmFreePages: " << ms.free_pages << "\n";
  os << "PmmLargestBlock: " << ms.largest_block_pages << " pages\n";
  std::snprintf(buf, sizeof(buf), "PmmFragmentation: %.1f %%\n", ms.frag_pct);
  os << buf;
  os << "PmmOps:";
#define VOS_PMM_OPS_CELL(field, label) os << " " label " " << ms.ops.field;
  VOS_PMM_STATS(VOS_PMM_OPS_CELL)
#undef VOS_PMM_OPS_CELL
  os << "\n";
  os << "FreeByOrder:";
  for (std::size_t o = 0; o < ms.free_blocks_by_order.size(); ++o) {
    os << " " << o << ":" << ms.free_blocks_by_order[o];
  }
  os << "\n";
  if (!ms.has_kmalloc) {
    return os.str();
  }
  os << "SLAB\tPAGES\tSLABS\tOBJS\tLIVE\tUTIL%\tREFILLS\n";
  for (const Kmalloc::ClassStats& c : ms.classes) {
    double util = c.total_objs == 0
                      ? 0.0
                      : 100.0 * static_cast<double>(c.live_objs) / static_cast<double>(c.total_objs);
    std::snprintf(buf, sizeof(buf), "slab-%u\t%u\t%llu\t%llu\t%llu\t%.1f\t%llu\n", c.obj_size,
                  c.slab_pages, static_cast<unsigned long long>(c.slabs),
                  static_cast<unsigned long long>(c.total_objs),
                  static_cast<unsigned long long>(c.live_objs), util,
                  static_cast<unsigned long long>(c.refills));
    os << buf;
  }
  os << "CORE\tHITS\tMISSES\tHIT%\tDRAINS\tCACHED\n";
  for (const ProcMemCoreLine& c : ms.cores) {
    double rate = c.hits + c.misses == 0
                      ? 100.0
                      : 100.0 * static_cast<double>(c.hits) / static_cast<double>(c.hits + c.misses);
    std::snprintf(buf, sizeof(buf), "core%u\t%llu\t%llu\t%.1f\t%llu\t%llu\n", c.core,
                  static_cast<unsigned long long>(c.hits),
                  static_cast<unsigned long long>(c.misses), rate,
                  static_cast<unsigned long long>(c.drains),
                  static_cast<unsigned long long>(c.cached));
    os << buf;
  }
  os << "Large: live " << ms.large_live << " total " << ms.large_allocs << "\n";
  return os.str();
}

bool ParseCpuUtilization(const std::string& cpuinfo, std::vector<double>* out) {
  out->clear();
  std::istringstream is(cpuinfo);
  std::string line;
  while (std::getline(is, line)) {
    unsigned core;
    double util;
    if (std::sscanf(line.c_str(), "cpu%u: util %lf%%", &core, &util) == 2) {
      out->push_back(util / 100.0);
    }
  }
  return !out->empty();
}

bool ParseMemFree(const std::string& meminfo, std::uint64_t* total_kb, std::uint64_t* free_kb) {
  std::istringstream is(meminfo);
  std::string line;
  bool got_total = false, got_free = false;
  while (std::getline(is, line)) {
    unsigned long long v;
    if (std::sscanf(line.c_str(), "MemTotal: %llu kB", &v) == 1) {
      *total_kb = v;
      got_total = true;
    } else if (std::sscanf(line.c_str(), "MemFree: %llu kB", &v) == 1) {
      *free_kb = v;
      got_free = true;
    }
  }
  return got_total && got_free;
}

bool ParseBlkStat(const std::string& blkstat, std::vector<BlockDevStats>* out) {
  out->clear();
  std::istringstream is(blkstat);
  std::string line;
  while (std::getline(is, line)) {
    // A row is a name and one number per column; the header's second word
    // is not a number, so it fails and is skipped.
    std::istringstream cells(line);
    BlockDevStats d;
    cells >> d.name;
#define VOS_BLKSTAT_PARSE(field, column) cells >> d.field;
    VOS_BLOCK_DEV_STATS(VOS_BLKSTAT_PARSE)
#undef VOS_BLKSTAT_PARSE
    if (cells) {
      out->push_back(std::move(d));
    }
  }
  return !out->empty();
}

std::string FormatSchedStat(const std::vector<ProcSchedLine>& cores,
                            const std::vector<ProcTaskLine>& tasks) {
  std::ostringstream os;
  for (const ProcSchedLine& c : cores) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "core %u switches %llu runq %llu steals %llu migr %llu idle %.1f%%\n", c.core,
                  static_cast<unsigned long long>(c.switches),
                  static_cast<unsigned long long>(c.runq),
                  static_cast<unsigned long long>(c.steals),
                  static_cast<unsigned long long>(c.migrations), c.idle_pct);
    os << buf;
  }
  for (const ProcTaskLine& t : tasks) {
    os << "pid " << t.pid << " cpu_ms " << t.cpu_ms << " utime_ms " << t.utime_ms
       << " stime_ms " << t.stime_ms << " sys " << t.syscalls << " blocked_ms " << t.blocked_ms
       << " name " << t.name << "\n";
  }
  return os.str();
}

bool ParseSchedTasks(const std::string& schedstat, std::vector<ProcTaskLine>* out) {
  out->clear();
  std::istringstream is(schedstat);
  std::string line;
  while (std::getline(is, line)) {
    ProcTaskLine t;
    unsigned long long cpu, ut, st, sys, bl;
    char name[64];
    if (std::sscanf(line.c_str(),
                    "pid %d cpu_ms %llu utime_ms %llu stime_ms %llu sys %llu blocked_ms %llu "
                    "name %63s",
                    &t.pid, &cpu, &ut, &st, &sys, &bl, name) == 7) {
      t.cpu_ms = cpu;
      t.utime_ms = ut;
      t.stime_ms = st;
      t.syscalls = sys;
      t.blocked_ms = bl;
      t.name = name;
      out->push_back(t);
    }
  }
  return !out->empty();
}

bool ParseSchedStat(const std::string& schedstat, std::vector<ProcSchedLine>* out) {
  out->clear();
  std::istringstream is(schedstat);
  std::string line;
  while (std::getline(is, line)) {
    ProcSchedLine c;
    unsigned long long sw, rq, st, mg;
    if (std::sscanf(line.c_str(), "core %u switches %llu runq %llu steals %llu migr %llu idle %lf%%",
                    &c.core, &sw, &rq, &st, &mg, &c.idle_pct) == 6) {
      c.switches = sw;
      c.runq = rq;
      c.steals = st;
      c.migrations = mg;
      out->push_back(c);
    }
  }
  return !out->empty();
}

std::int64_t RunProcCommands(const std::string& text,
                             const std::function<std::int64_t(const ProcCommand&)>& verb) {
  std::istringstream lines(text);
  std::string line;
  bool any = false;
  while (std::getline(lines, line)) {
    ProcCommand cmd;
    std::istringstream in(line);
    for (std::string w; in >> w;) {
      cmd.words.push_back(std::move(w));
    }
    if (cmd.words.empty() || cmd.verb()[0] == '#') {
      continue;
    }
    any = true;
    if (std::int64_t r = verb(cmd); r < 0) {
      return r;
    }
  }
  return any ? 0 : std::int64_t{kErrInval};
}

bool ParseMetricValue(const std::string& metrics, const std::string& name, std::uint64_t* out) {
  std::istringstream is(metrics);
  std::string line;
  while (std::getline(is, line)) {
    if (line.size() > name.size() && line.compare(0, name.size(), name) == 0 &&
        line[name.size()] == ' ') {
      unsigned long long v;
      if (std::sscanf(line.c_str() + name.size() + 1, "%llu", &v) == 1) {
        *out = v;
        return true;
      }
    }
  }
  return false;
}

}  // namespace vos
