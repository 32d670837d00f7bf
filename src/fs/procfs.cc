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

std::string FormatBlkStat(const std::vector<ProcBlkLine>& devs) {
  std::ostringstream os;
  os << "DEV\tREADS\tWRITES\tBLK_RD\tBLK_WR\tHITS\tMISSES\tWBACKS\tMERGED\tQHW\tDIRTY"
        "\tRETRIES\tERRS\tTMOUTS\n";
  for (const ProcBlkLine& d : devs) {
    os << d.name << "\t" << d.reads << "\t" << d.writes << "\t" << d.blocks_read << "\t"
       << d.blocks_written << "\t" << d.hits << "\t" << d.misses << "\t" << d.writebacks << "\t"
       << d.merged << "\t" << d.queue_depth_hw << "\t" << d.dirty << "\t" << d.io_retries << "\t"
       << d.io_errors << "\t" << d.io_timeouts << "\n";
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
  std::snprintf(buf, sizeof(buf),
                "PmmOps: alloc %llu free %llu range_alloc %llu range_free %llu "
                "split %llu merge %llu oom %llu\n",
                static_cast<unsigned long long>(ms.page_allocs),
                static_cast<unsigned long long>(ms.page_frees),
                static_cast<unsigned long long>(ms.range_allocs),
                static_cast<unsigned long long>(ms.range_frees),
                static_cast<unsigned long long>(ms.splits),
                static_cast<unsigned long long>(ms.merges),
                static_cast<unsigned long long>(ms.oom_events));
  os << buf;
  os << "FreeByOrder:";
  for (std::size_t o = 0; o < ms.free_blocks_by_order.size(); ++o) {
    os << " " << o << ":" << ms.free_blocks_by_order[o];
  }
  os << "\n";
  if (!ms.has_kmalloc) {
    return os.str();
  }
  os << "SLAB\tPAGES\tSLABS\tOBJS\tLIVE\tUTIL%\tREFILLS\n";
  for (const ProcMemClassLine& c : ms.classes) {
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

bool ParseBlkStat(const std::string& blkstat, std::vector<ProcBlkLine>* out) {
  out->clear();
  std::istringstream is(blkstat);
  std::string line;
  while (std::getline(is, line)) {
    char name[64];
    unsigned long long v[13];
    if (std::sscanf(line.c_str(),
                    "%63s %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu", name,
                    &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7], &v[8], &v[9], &v[10],
                    &v[11], &v[12]) == 14) {
      ProcBlkLine d;
      d.name = name;
      d.reads = v[0];
      d.writes = v[1];
      d.blocks_read = v[2];
      d.blocks_written = v[3];
      d.hits = v[4];
      d.misses = v[5];
      d.writebacks = v[6];
      d.merged = v[7];
      d.queue_depth_hw = v[8];
      d.dirty = v[9];
      d.io_retries = v[10];
      d.io_errors = v[11];
      d.io_timeouts = v[12];
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
       << " level " << t.level << " name " << t.name << "\n";
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
                    "level %d name %63s",
                    &t.pid, &cpu, &ut, &st, &sys, &bl, &t.level, name) == 8) {
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
