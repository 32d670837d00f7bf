#include "src/fs/fsck.h"

#include <cstring>
#include <map>
#include <sstream>

#include "src/fs/journal.h"

namespace vos {

namespace {

bool ValidDataBlock(const Xv6Superblock& sb, std::uint32_t b) {
  return b >= sb.size - sb.nblocks && b < sb.size;
}

// Does the superblock advertise a journal whose region fits the image?
bool HasLogRegion(const Xv6Superblock& sb) {
  return sb.nlog >= kJrnlMinLogBlocks && sb.logstart >= 2 &&
         std::uint64_t(sb.logstart) + sb.nlog <= sb.size;
}

// Journal-superblock validation. The log's *contents* are not fsck's
// business (recovery replays or discards them before fsck ever runs); what
// fsck checks is that the jsb itself is well-formed, so a future mount's
// recovery scan starts from sane cursors.
bool JsbValid(Xv6Fs& fs, Cycles* burn) {
  std::uint8_t blk[kFsBlockSize];
  if (fs.ReadFsBlock(fs.sb().logstart, blk, burn) != 0) {
    return false;
  }
  JrnlSuperblock jsb;
  std::memcpy(&jsb, blk, sizeof(jsb));
  return jsb.magic == kJrnlMagic && jsb.capacity == fs.sb().nlog - 1 &&
         jsb.head_off < jsb.capacity;
}

struct Walker {
  Xv6Fs& fs;
  Cycles* burn;
  FsckReport& report;
  std::vector<int> block_refs;       // per fs block: times referenced by inodes
  std::map<std::uint32_t, int> dir_refs;  // inum -> directory entries naming it
  std::vector<bool> inode_seen;

  void Error(const std::string& msg) {
    report.clean = false;
    report.errors.push_back(msg);
  }

  void RefBlock(std::uint32_t inum, std::uint32_t b) {
    if (!ValidDataBlock(fs.sb(), b)) {
      Error("inode " + std::to_string(inum) + " points outside the data region (block " +
            std::to_string(b) + ")");
      return;
    }
    ++report.blocks_referenced;
    if (++block_refs[b] > 1) {
      Error("block " + std::to_string(b) + " referenced more than once (inode " +
            std::to_string(inum) + ")");
    }
  }

  // Collects every data block an inode owns (direct + indirect + the
  // indirect block itself).
  void WalkInodeBlocks(const Xv6Inode& ip) {
    for (std::uint32_t i = 0; i < kNDirect; ++i) {
      if (ip.addrs[i] != 0) {
        RefBlock(ip.inum, ip.addrs[i]);
      }
    }
    if (ip.addrs[kNDirect] != 0) {
      RefBlock(ip.inum, ip.addrs[kNDirect]);
      if (ValidDataBlock(fs.sb(), ip.addrs[kNDirect])) {
        std::uint8_t blk[kFsBlockSize];
        if (fs.ReadFsBlock(ip.addrs[kNDirect], blk, burn) == 0) {
          const auto* entries = reinterpret_cast<const std::uint32_t*>(blk);
          for (std::uint32_t i = 0; i < kNIndirect; ++i) {
            if (entries[i] != 0) {
              RefBlock(ip.inum, entries[i]);
            }
          }
        } else {
          Error("inode " + std::to_string(ip.inum) + " indirect block unreadable");
        }
      }
    }
    // Size vs block count: files need ceil(size/BSIZE) mapped blocks at most.
    std::uint32_t max_blocks = (ip.size + kFsBlockSize - 1) / kFsBlockSize;
    if (max_blocks > kMaxFileBlocks) {
      Error("inode " + std::to_string(ip.inum) + " has impossible size " +
            std::to_string(ip.size));
    }
  }

  void WalkDirectory(Xv6Inode& dir) {
    auto entries = fs.ReadDir(dir, burn);
    bool has_dot = false, has_dotdot = false;
    for (const auto& e : entries) {
      if (e.inum == 0 || e.inum >= fs.sb().ninodes) {
        Error("directory " + std::to_string(dir.inum) + " entry '" + e.name +
              "' points to bad inode " + std::to_string(e.inum));
        continue;
      }
      if (e.name == ".") {
        has_dot = true;
        if (e.inum != dir.inum) {
          Error("directory " + std::to_string(dir.inum) + " has '.' pointing elsewhere");
        }
        continue;  // self-reference counts toward the dir's own nlink
      }
      if (e.name == "..") {
        has_dotdot = true;
        continue;
      }
      ++dir_refs[e.inum];
    }
    if (dir.inum != kRootInum && (!has_dot || !has_dotdot)) {
      Error("directory " + std::to_string(dir.inum) + " missing '.' or '..'");
    }
  }
};

}  // namespace

FsckReport FsckXv6(Xv6Fs& fs, Cycles* burn) {
  FsckReport report;
  const Xv6Superblock& sb = fs.sb();
  if (sb.magic != kXv6Magic) {
    report.clean = false;
    report.errors.push_back("bad superblock magic");
    report.errors_found = report.unrecoverable = 1;
    return report;
  }
  if (sb.nlog != 0 && !HasLogRegion(sb)) {
    report.clean = false;
    report.errors.push_back("journal region out of bounds (logstart " +
                            std::to_string(sb.logstart) + ", nlog " +
                            std::to_string(sb.nlog) + ")");
  } else if (HasLogRegion(sb) && !JsbValid(fs, burn)) {
    report.clean = false;
    report.errors.push_back("journal superblock corrupt");
  }
  Walker w{fs, burn, report, std::vector<int>(sb.size, 0), {}, std::vector<bool>(sb.ninodes)};

  // Pass 1: every allocated inode.
  std::vector<std::uint32_t> dirs;
  for (std::uint32_t inum = 1; inum < sb.ninodes; ++inum) {
    auto ip = fs.GetInode(inum, burn);
    if (ip == nullptr) {
      w.Error("inode " + std::to_string(inum) + " unreadable");
      continue;
    }
    if (ip->type == 0) {
      continue;
    }
    ++report.inodes_checked;
    if (ip->type != kXv6TDir && ip->type != kXv6TFile && ip->type != kXv6TDev) {
      w.Error("inode " + std::to_string(inum) + " has invalid type " +
              std::to_string(ip->type));
      continue;
    }
    if (ip->nlink <= 0) {
      w.Error("allocated inode " + std::to_string(inum) + " has nlink " +
              std::to_string(ip->nlink));
    }
    w.WalkInodeBlocks(*ip);
    if (ip->type == kXv6TDir) {
      dirs.push_back(inum);
    }
  }
  // Pass 2: directory structure + name references.
  for (std::uint32_t inum : dirs) {
    auto ip = fs.GetInode(inum, burn);
    if (ip != nullptr) {
      w.WalkDirectory(*ip);
    }
  }
  // Pass 3: nlink cross-check. Files: nlink == name references. Directories:
  // nlink == 2 + number of subdirectories (".", parent entry, each child's
  // "..").
  for (std::uint32_t inum = 1; inum < sb.ninodes; ++inum) {
    auto ip = fs.GetInode(inum, burn);
    if (ip == nullptr) {
      continue;  // already reported in pass 1
    }
    if (ip->type == kXv6TFile || ip->type == kXv6TDev) {
      int refs = w.dir_refs.count(inum) ? w.dir_refs[inum] : 0;
      if (refs != ip->nlink) {
        w.Error("inode " + std::to_string(inum) + " nlink " + std::to_string(ip->nlink) +
                " != " + std::to_string(refs) + " directory references");
      }
    } else if (ip->type == kXv6TDir) {
      int subdirs = 0;
      for (const auto& e : fs.ReadDir(*ip, burn)) {
        if (e.name != "." && e.name != ".." && e.type == kXv6TDir) {
          ++subdirs;
        }
      }
      int expect = 2 + subdirs;
      if (ip->nlink != expect) {
        w.Error("directory " + std::to_string(inum) + " nlink " + std::to_string(ip->nlink) +
                " != expected " + std::to_string(expect));
      }
      int refs = w.dir_refs.count(inum) ? w.dir_refs[inum] : 0;
      if (inum != kRootInum && refs != 1) {
        w.Error("directory " + std::to_string(inum) + " referenced by " +
                std::to_string(refs) + " names (want exactly 1)");
      }
    }
  }
  // Pass 4: bitmap vs references.
  std::uint32_t nmeta = sb.size - sb.nblocks;
  for (std::uint32_t b = 0; b < sb.size; ++b) {
    bool used = fs.BlockInUse(b, burn);
    bool referenced = w.block_refs[b] > 0;
    if (b < nmeta) {
      if (!used) {
        w.Error("metadata block " + std::to_string(b) + " marked free");
      }
      continue;
    }
    if (referenced && !used) {
      w.Error("block " + std::to_string(b) + " in use but marked free");
    } else if (!referenced && used) {
      ++report.leaked_blocks;  // leaks are reported, not fatal corruption
    }
  }
  if (report.leaked_blocks > 0) {
    report.errors.push_back(std::to_string(report.leaked_blocks) +
                            " leaked block(s) (allocated but unreachable)");
    report.clean = report.clean && false;
  }
  report.errors_found = static_cast<std::uint32_t>(report.errors.size());
  report.unrecoverable = report.errors_found;
  return report;
}

// --- Repair ------------------------------------------------------------------

namespace {

// One repair pass over the whole filesystem. Returns the number of fixes
// applied; a pass with zero fixes means the repair has converged.
struct Repairer {
  Xv6Fs& fs;
  Cycles* burn;
  std::uint32_t fixes = 0;

  const Xv6Superblock& sb() const { return fs.sb(); }

  // Phase A: per-inode surgery. Invalid types are freed outright; block
  // pointers outside the data region or claiming an already-owned block are
  // cleared (keep-first policy for duplicates); impossible sizes are clamped.
  void FixInodes() {
    std::vector<std::uint32_t> owner(sb().size, 0);
    for (std::uint32_t inum = 1; inum < sb().ninodes; ++inum) {
      auto ip = fs.GetInode(inum, burn);
      if (ip == nullptr || ip->type == 0) {
        continue;
      }
      if (ip->type != kXv6TDir && ip->type != kXv6TFile && ip->type != kXv6TDev) {
        FreeInode(*ip, /*truncate=*/false);  // pointers untrustworthy
        continue;
      }
      bool changed = false;
      auto claim = [&](std::uint32_t* slot) {
        if (*slot == 0) {
          return;
        }
        if (!ValidDataBlock(sb(), *slot) || owner[*slot] != 0) {
          *slot = 0;
          changed = true;
          ++fixes;
          return;
        }
        owner[*slot] = inum;
      };
      for (std::uint32_t i = 0; i < kNDirect; ++i) {
        claim(&ip->addrs[i]);
      }
      claim(&ip->addrs[kNDirect]);
      if (ip->addrs[kNDirect] != 0) {
        std::uint8_t blk[kFsBlockSize];
        if (fs.ReadFsBlock(ip->addrs[kNDirect], blk, burn) != 0) {
          // Unreadable indirect block: drop the pointer, lose the tail.
          owner[ip->addrs[kNDirect]] = 0;
          ip->addrs[kNDirect] = 0;
          changed = true;
          ++fixes;
        } else {
          auto* entries = reinterpret_cast<std::uint32_t*>(blk);
          bool blk_changed = false;
          for (std::uint32_t i = 0; i < kNIndirect; ++i) {
            std::uint32_t before = entries[i];
            claim(&entries[i]);
            blk_changed = blk_changed || entries[i] != before;
          }
          if (blk_changed) {
            fs.WriteFsBlock(ip->addrs[kNDirect], blk, burn);
          }
        }
      }
      std::uint32_t max_size = kMaxFileBlocks * kFsBlockSize;
      if (ip->size > max_size) {
        ip->size = max_size;
        changed = true;
        ++fixes;
      }
      if (changed) {
        fs.UpdateInode(*ip, burn);
      }
    }
  }

  // Raw dirent accessors (fs.ReadDir skips damage; repair must see it).
  bool ReadEnt(Xv6Inode& dir, std::uint32_t off, Xv6Dirent* de) {
    return fs.Readi(dir, reinterpret_cast<std::uint8_t*>(de), off, sizeof(*de), burn) ==
           sizeof(*de);
  }
  void WriteEnt(Xv6Inode& dir, std::uint32_t off, const Xv6Dirent& de) {
    if (fs.Writei(dir, reinterpret_cast<const std::uint8_t*>(&de), off, sizeof(de), burn) ==
        sizeof(de)) {
      ++fixes;
    }
  }
  static Xv6Dirent MakeEnt(std::uint32_t inum, const char* name) {
    Xv6Dirent de{};
    de.inum = static_cast<std::uint16_t>(inum);
    std::strncpy(de.name, name, kDirNameLen);
    return de;
  }

  // True if `inum` names a live inode of any valid type.
  bool LiveInode(std::uint32_t inum) {
    if (inum == 0 || inum >= sb().ninodes) {
      return false;
    }
    auto ip = fs.GetInode(inum, burn);
    return ip != nullptr &&
           (ip->type == kXv6TDir || ip->type == kXv6TFile || ip->type == kXv6TDev);
  }

  // Phase B: directory surgery. Clears dirents naming dead inodes, rewrites
  // a wrong '.', drops duplicate names for the same directory (keep-first),
  // then recreates missing '.'/'..' from the child->parent map. Produces the
  // reference counts phase C reconciles nlink against.
  std::map<std::uint32_t, int> dir_refs{};
  std::map<std::uint32_t, std::uint32_t> parent_of{};  // dir inum -> parent dir

  void FixDirents() {
    dir_refs.clear();
    parent_of.clear();
    std::map<std::uint32_t, bool> needs_dot, needs_dotdot;
    std::map<std::uint32_t, std::uint32_t> dir_named_by;  // child dir -> naming dir
    for (std::uint32_t inum = 1; inum < sb().ninodes; ++inum) {
      auto dir = fs.GetInode(inum, burn);
      if (dir == nullptr || dir->type != kXv6TDir) {
        continue;
      }
      bool has_dot = false, has_dotdot = false;
      for (std::uint32_t off = 0; off + sizeof(Xv6Dirent) <= dir->size;
           off += sizeof(Xv6Dirent)) {
        Xv6Dirent de{};
        if (!ReadEnt(*dir, off, &de)) {
          break;  // unreadable tail; verify will flag anything left behind
        }
        if (de.inum == 0) {
          continue;
        }
        std::string name(de.name, strnlen(de.name, kDirNameLen));
        if (name == ".") {
          has_dot = true;
          if (de.inum != inum) {
            WriteEnt(*dir, off, MakeEnt(inum, "."));
          }
          continue;
        }
        if (name == "..") {
          has_dotdot = true;
          continue;  // target fixed below, once parents are known
        }
        if (!LiveInode(de.inum)) {
          WriteEnt(*dir, off, Xv6Dirent{});  // stale dirent from a torn write
          continue;
        }
        auto child = fs.GetInode(de.inum, burn);
        if (child != nullptr && child->type == kXv6TDir) {
          // Directories are named exactly once; duplicates (stale dirents
          // resurfacing after a crash) keep the first name seen.
          auto [it, fresh] = dir_named_by.emplace(de.inum, inum);
          if (!fresh) {
            WriteEnt(*dir, off, Xv6Dirent{});
            continue;
          }
          parent_of[de.inum] = inum;
        }
        ++dir_refs[de.inum];
      }
      if (!has_dot) {
        needs_dot[inum] = true;
      }
      if (!has_dotdot) {
        needs_dotdot[inum] = true;
      }
    }
    // Recreate or rewire '.'/'..' now that every directory's parent is known.
    for (std::uint32_t inum = 1; inum < sb().ninodes; ++inum) {
      auto dir = fs.GetInode(inum, burn);
      if (dir == nullptr || dir->type != kXv6TDir) {
        continue;
      }
      std::uint32_t parent =
          inum == kRootInum ? kRootInum
                            : (parent_of.count(inum) ? parent_of[inum] : kRootInum);
      if (needs_dot.count(inum)) {
        PlaceEnt(*dir, MakeEnt(inum, "."));
      }
      if (needs_dotdot.count(inum)) {
        PlaceEnt(*dir, MakeEnt(parent, ".."));
      } else {
        // '..' exists; make sure it points at the real parent.
        for (std::uint32_t off = 0; off + sizeof(Xv6Dirent) <= dir->size;
             off += sizeof(Xv6Dirent)) {
          Xv6Dirent de{};
          if (!ReadEnt(*dir, off, &de)) {
            break;
          }
          if (de.inum != 0 && std::string(de.name, strnlen(de.name, kDirNameLen)) == "..") {
            if (de.inum != parent) {
              WriteEnt(*dir, off, MakeEnt(parent, ".."));
            }
            break;
          }
        }
      }
    }
  }

  // Writes `de` into the first free slot (or appends).
  void PlaceEnt(Xv6Inode& dir, const Xv6Dirent& de) {
    for (std::uint32_t off = 0; off + sizeof(Xv6Dirent) <= dir.size;
         off += sizeof(Xv6Dirent)) {
      Xv6Dirent cur{};
      if (!ReadEnt(dir, off, &cur)) {
        break;
      }
      if (cur.inum == 0) {
        WriteEnt(dir, off, de);
        return;
      }
    }
    WriteEnt(dir, (dir.size + sizeof(Xv6Dirent) - 1) / sizeof(Xv6Dirent) * sizeof(Xv6Dirent),
             de);
  }

  void FreeInode(Xv6Inode& ip, bool truncate) {
    if (truncate) {
      fs.Truncate(ip, burn);
    }
    ip.type = 0;
    ip.nlink = 0;
    ip.size = 0;
    std::memset(ip.addrs, 0, sizeof(ip.addrs));
    fs.UpdateInode(ip, burn);
    fs.EvictInode(ip.inum);
    ++fixes;
  }

  // Phase C: orphans and nlink. Unreferenced inodes are freed (their blocks
  // return to the bitmap); referenced ones get nlink set to what the
  // directory graph actually says.
  void FixLinks() {
    for (std::uint32_t inum = 1; inum < sb().ninodes; ++inum) {
      auto ip = fs.GetInode(inum, burn);
      if (ip == nullptr || ip->type == 0) {
        continue;
      }
      int refs = dir_refs.count(inum) ? dir_refs[inum] : 0;
      if (ip->type == kXv6TFile || ip->type == kXv6TDev) {
        if (refs == 0) {
          FreeInode(*ip, /*truncate=*/true);
        } else if (ip->nlink != refs) {
          ip->nlink = static_cast<std::int16_t>(refs);
          fs.UpdateInode(*ip, burn);
          ++fixes;
        }
      } else if (ip->type == kXv6TDir) {
        if (inum != kRootInum && refs == 0) {
          // Orphan directory: free it; its children lose their last name and
          // are collected on the next pass.
          FreeInode(*ip, /*truncate=*/true);
          continue;
        }
        int subdirs = 0;
        for (const auto& e : fs.ReadDir(*ip, burn)) {
          if (e.name != "." && e.name != ".." && e.type == kXv6TDir) {
            ++subdirs;
          }
        }
        int expect = 2 + subdirs;
        if (ip->nlink != expect) {
          ip->nlink = static_cast<std::int16_t>(expect);
          fs.UpdateInode(*ip, burn);
          ++fixes;
        }
      }
    }
  }

  // Phase D: bitmap vs reality. Re-walks the (now repaired) inodes and flips
  // bitmap bits to match: referenced or metadata -> used, otherwise free
  // (this is where blocks leaked by a crashed BAlloc come back).
  void FixBitmap() {
    std::vector<bool> referenced(sb().size, false);
    std::uint32_t nmeta = sb().size - sb().nblocks;
    for (std::uint32_t b = 0; b < nmeta && b < sb().size; ++b) {
      referenced[b] = true;
    }
    for (std::uint32_t inum = 1; inum < sb().ninodes; ++inum) {
      auto ip = fs.GetInode(inum, burn);
      if (ip == nullptr || ip->type == 0) {
        continue;
      }
      auto mark = [&](std::uint32_t b) {
        if (b != 0 && b < sb().size) {
          referenced[b] = true;
        }
      };
      for (std::uint32_t i = 0; i < kNDirect; ++i) {
        mark(ip->addrs[i]);
      }
      if (ip->addrs[kNDirect] != 0) {
        mark(ip->addrs[kNDirect]);
        std::uint8_t blk[kFsBlockSize];
        if (fs.ReadFsBlock(ip->addrs[kNDirect], blk, burn) == 0) {
          const auto* entries = reinterpret_cast<const std::uint32_t*>(blk);
          for (std::uint32_t i = 0; i < kNIndirect; ++i) {
            mark(entries[i]);
          }
        }
      }
    }
    for (std::uint32_t b = 0; b < sb().size; ++b) {
      if (fs.BlockInUse(b, burn) != referenced[b]) {
        if (fs.SetBlockInUse(b, referenced[b], burn) == 0) {
          ++fixes;
        }
      }
    }
  }

  std::uint32_t RunPass() {
    fixes = 0;
    FixInodes();
    FixDirents();
    FixLinks();
    FixBitmap();
    return fixes;
  }
};

}  // namespace

FsckReport FsckRepairXv6(Xv6Fs& fs, Cycles* burn, int max_passes) {
  std::uint32_t total = 0;
  if (fs.sb().magic == kXv6Magic) {
    // Journal superblock first: a corrupt jsb is repaired by resetting to an
    // empty ring (any committed-but-unreplayed records are already lost —
    // that is exactly the metadata damage the passes below then fix).
    if (HasLogRegion(fs.sb()) && !JsbValid(fs, burn)) {
      JrnlSuperblock jsb{kJrnlMagic, fs.sb().nlog - 1, 0, 1};
      std::uint8_t blk[kFsBlockSize] = {};
      std::memcpy(blk, &jsb, sizeof(jsb));
      if (fs.WriteFsBlock(fs.sb().logstart, blk, burn) == 0) {
        ++total;
      }
    }
    Repairer r{fs, burn};
    for (int p = 0; p < max_passes; ++p) {
      std::uint32_t f = r.RunPass();
      total += f;
      if (f == 0) {
        break;
      }
    }
  }
  FsckReport report = FsckXv6(fs, burn);
  report.repaired = total;
  report.errors_found = total + static_cast<std::uint32_t>(report.errors.size());
  report.unrecoverable = static_cast<std::uint32_t>(report.errors.size());
  return report;
}

std::string FsckReport::Summary() const {
  std::ostringstream os;
  os << (clean ? "CLEAN" : "DIRTY") << ": " << inodes_checked << " inodes, "
     << blocks_referenced << " blocks referenced, " << leaked_blocks << " leaked";
  if (repaired > 0 || unrecoverable > 0) {
    os << "; " << repaired << " repaired, " << unrecoverable << " unrecoverable";
  }
  for (const std::string& e : errors) {
    os << "\n  " << e;
  }
  return os.str();
}

}  // namespace vos
