#include "src/fs/xv6fs.h"

#include <algorithm>
#include <cstring>

#include "src/base/assert.h"
#include "src/base/status.h"
#include "src/fs/journal.h"

namespace vos {

namespace {

// Transaction scope for one filesystem operation. Nestable (Truncate inside
// Unlink, DirLink's Writei inside Create); only the outermost scope delimits
// the all-or-nothing unit. No-op when the filesystem runs unjournaled. The
// destructor's CommitTx may group-commit; a commit error there is deferred
// by design — it stays in the open batch and surfaces at the next
// fsync/sync, which retries the commit and reports honestly.
class TxScope {
 public:
  TxScope(Journal* j, Cycles* burn) : j_(j), burn_(burn) {
    if (j_ != nullptr && j_->active()) {
      j_->BeginTx(burn_);
    } else {
      j_ = nullptr;
    }
  }
  ~TxScope() {
    if (j_ != nullptr) {
      j_->CommitTx(burn_);
    }
  }
  TxScope(const TxScope&) = delete;
  TxScope& operator=(const TxScope&) = delete;

 private:
  Journal* j_;
  Cycles* burn_;
};

}  // namespace

std::vector<std::string> SplitPath(const std::string& path) {
  std::vector<std::string> parts;
  std::size_t i = 0;
  while (i < path.size()) {
    while (i < path.size() && path[i] == '/') {
      ++i;
    }
    std::size_t start = i;
    while (i < path.size() && path[i] != '/') {
      ++i;
    }
    if (i > start) {
      parts.push_back(path.substr(start, i - start));
    }
  }
  return parts;
}

std::int64_t Xv6Fs::ReadFsBlock(std::uint32_t fsb, std::uint8_t* out, Cycles* burn) {
  for (std::uint32_t i = 0; i < kDevPerFs; ++i) {
    Cycles c = 0;
    Buf* b = bc_.Read(dev_, std::uint64_t(fsb) * kDevPerFs + i, &c);
    *burn += c;
    if (b == nullptr) {
      return kErrIo;
    }
    std::memcpy(out + i * kBlockSize, b->data.data(), kBlockSize);
    bc_.Release(b);
  }
  return 0;
}

std::int64_t Xv6Fs::WriteFsBlock(std::uint32_t fsb, const std::uint8_t* in, Cycles* burn) {
  if (jrnl_ != nullptr && jrnl_->active()) {
    // Every write funnels through the log — including fsck's repair surgery
    // (ReadFsBlock/WriteFsBlock/SetBlockInUse), which makes repair itself
    // crash-safe. A write outside any op-level scope becomes its own
    // single-block transaction.
    TxScope tx(jrnl_, burn);
    return jrnl_->LogWrite(fsb, in, burn);
  }
  for (std::uint32_t i = 0; i < kDevPerFs; ++i) {
    Cycles c = 0;
    Buf* b = bc_.Read(dev_, std::uint64_t(fsb) * kDevPerFs + i, &c);
    *burn += c;
    if (b == nullptr) {
      return kErrIo;
    }
    std::memcpy(b->data.data(), in + i * kBlockSize, kBlockSize);
    Cycles w = 0;
    std::int64_t err = bc_.Write(b, &w);
    bc_.Release(b);
    *burn += w;
    if (err < 0) {
      return err;
    }
  }
  return 0;
}

std::int64_t Xv6Fs::Mount(Cycles* burn) {
  std::uint8_t blk[kFsBlockSize];
  if (ReadFsBlock(1, blk, burn) < 0) {
    return kErrIo;
  }
  std::memcpy(&sb_, blk, sizeof(sb_));
  if (sb_.magic != kXv6Magic) {
    return kErrIo;
  }
  recovered_records_ = 0;
  recovered_blocks_ = 0;
  // Recovery-by-replay, before any other write touches the image. Runs with
  // or without a Journal attached (the crash-torture harness remounts bare
  // Xv6Fs instances and must recover exactly like a kernel boot). The sanity
  // bounds keep a damaged superblock (fsck's department) from sending the
  // scan off the device.
  if (sb_.nlog >= kJrnlMinLogBlocks && sb_.logstart >= 2 &&
      std::uint64_t(sb_.logstart) + sb_.nlog <= sb_.size) {
    Journal::RecoveryResult rr;
    if (Journal::Recover(bc_, dev_, sb_, &rr, burn) < 0) {
      return kErrIo;
    }
    recovered_records_ = rr.records_replayed;
    recovered_blocks_ = rr.blocks_replayed;
  }
  return 0;
}

std::int64_t Xv6Fs::SyncJournal(Cycles* burn) {
  if (jrnl_ == nullptr || !jrnl_->active()) {
    return 0;
  }
  return jrnl_->CommitNow(burn);
}

std::int64_t Xv6Fs::DrainJournal(Cycles* burn) {
  if (jrnl_ == nullptr || !jrnl_->active()) {
    return 0;
  }
  std::int64_t cerr = jrnl_->CommitNow(burn);
  std::int64_t kerr = jrnl_->CheckpointAll(burn);
  return cerr != 0 ? cerr : kerr;
}

Xv6InodePtr Xv6Fs::GetInode(std::uint32_t inum, Cycles* burn) {
  *burn += cfg_.cost.inode_op;
  auto it = icache_.find(inum);
  if (it != icache_.end()) {
    return it->second;
  }
  if (inum < 1 || inum >= sb_.ninodes) {
    return nullptr;  // garbage dirent on a damaged filesystem
  }
  std::uint8_t blk[kFsBlockSize];
  std::uint32_t fsb = sb_.inodestart + inum / kInodesPerBlock;
  if (ReadFsBlock(fsb, blk, burn) < 0) {
    return nullptr;
  }
  Xv6Dinode d;
  std::memcpy(&d, blk + (inum % kInodesPerBlock) * sizeof(Xv6Dinode), sizeof(d));
  auto ip = std::make_shared<Xv6Inode>();
  ip->inum = inum;
  ip->type = d.type;
  ip->major = d.major;
  ip->minor = d.minor;
  ip->nlink = d.nlink;
  ip->size = d.size;
  std::memcpy(ip->addrs, d.addrs, sizeof(d.addrs));
  icache_[inum] = ip;
  return ip;
}

std::int64_t Xv6Fs::UpdateInode(const Xv6Inode& ip, Cycles* burn) {
  *burn += cfg_.cost.inode_op;
  std::uint8_t blk[kFsBlockSize];
  std::uint32_t fsb = sb_.inodestart + ip.inum / kInodesPerBlock;
  if (ReadFsBlock(fsb, blk, burn) < 0) {
    return kErrIo;
  }
  Xv6Dinode d;
  d.type = ip.type;
  d.major = ip.major;
  d.minor = ip.minor;
  d.nlink = ip.nlink;
  d.size = ip.size;
  std::memcpy(d.addrs, ip.addrs, sizeof(d.addrs));
  std::memcpy(blk + (ip.inum % kInodesPerBlock) * sizeof(Xv6Dinode), &d, sizeof(d));
  return WriteFsBlock(fsb, blk, burn);
}

std::int64_t Xv6Fs::BAlloc(std::uint32_t* out, Cycles* burn) {
  *out = 0;
  std::uint8_t blk[kFsBlockSize];
  for (std::uint32_t b = 0; b < sb_.size; b += kFsBlockSize * 8) {
    std::uint32_t bmb = sb_.bmapstart + b / (kFsBlockSize * 8);
    if (ReadFsBlock(bmb, blk, burn) < 0) {
      return kErrIo;
    }
    for (std::uint32_t bi = 0; bi < kFsBlockSize * 8 && b + bi < sb_.size; ++bi) {
      std::uint8_t mask = static_cast<std::uint8_t>(1 << (bi % 8));
      if ((blk[bi / 8] & mask) == 0) {
        blk[bi / 8] |= mask;
        if (WriteFsBlock(bmb, blk, burn) < 0) {
          return kErrIo;
        }
        // Zero the fresh block (bzero in xv6). If this fails the bit stays
        // set — a leaked block, which fsck reclaims.
        std::uint8_t zero[kFsBlockSize] = {};
        if (WriteFsBlock(b + bi, zero, burn) < 0) {
          return kErrIo;
        }
        *out = b + bi;
        return 0;
      }
    }
  }
  return kErrNoSpace;
}

void Xv6Fs::BFree(std::uint32_t b, Cycles* burn) {
  std::uint8_t blk[kFsBlockSize];
  if (b >= sb_.size) {
    return;  // bad pointer on a damaged filesystem; fsck clears these
  }
  std::uint32_t bmb = sb_.bmapstart + b / (kFsBlockSize * 8);
  if (ReadFsBlock(bmb, blk, burn) < 0) {
    return;  // best-effort: a leaked block, reclaimed by fsck
  }
  std::uint32_t bi = b % (kFsBlockSize * 8);
  std::uint8_t mask = static_cast<std::uint8_t>(1 << (bi % 8));
  if ((blk[bi / 8] & mask) == 0) {
    // Already free. The seed panicked here; with torn writes and dropped
    // cache buffers a stale bitmap can legitimately resurface, so tolerate
    // the double-free and let fsck settle the bitmap.
    return;
  }
  blk[bi / 8] &= static_cast<std::uint8_t>(~mask);
  WriteFsBlock(bmb, blk, burn);
}

std::int64_t Xv6Fs::BMap(Xv6Inode& ip, std::uint32_t bn, bool alloc, std::uint32_t* out,
                         Cycles* burn) {
  *out = 0;
  if (bn < kNDirect) {
    if (ip.addrs[bn] == 0) {
      if (!alloc) {
        return 0;
      }
      std::int64_t r = BAlloc(&ip.addrs[bn], burn);
      if (r == kErrIo) {
        return r;
      }
      if (ip.addrs[bn] != 0 && UpdateInode(ip, burn) < 0) {
        return kErrIo;
      }
    }
    *out = ip.addrs[bn];
    return 0;
  }
  bn -= kNDirect;
  if (bn >= kNIndirect) {
    // Beyond the maximum file size: impossible through Writei's cap, but a
    // damaged inode's size can imply it. Reads see a hole; writes refuse.
    return alloc ? std::int64_t{kErrFBig} : 0;
  }
  if (ip.addrs[kNDirect] == 0) {
    if (!alloc) {
      return 0;
    }
    std::int64_t r = BAlloc(&ip.addrs[kNDirect], burn);
    if (r == kErrIo) {
      return r;
    }
    if (ip.addrs[kNDirect] == 0) {
      return 0;  // disk full
    }
    if (UpdateInode(ip, burn) < 0) {
      return kErrIo;
    }
  }
  std::uint8_t blk[kFsBlockSize];
  if (ReadFsBlock(ip.addrs[kNDirect], blk, burn) < 0) {
    return kErrIo;
  }
  auto* entries = reinterpret_cast<std::uint32_t*>(blk);
  if (entries[bn] == 0) {
    if (!alloc) {
      return 0;
    }
    std::int64_t r = BAlloc(&entries[bn], burn);
    if (r == kErrIo) {
      return r;
    }
    if (entries[bn] == 0) {
      return 0;  // disk full
    }
    if (WriteFsBlock(ip.addrs[kNDirect], blk, burn) < 0) {
      return kErrIo;
    }
  }
  *out = entries[bn];
  return 0;
}

std::int64_t Xv6Fs::Readi(Xv6Inode& ip, std::uint8_t* dst, std::uint32_t off, std::uint32_t n,
                          Cycles* burn) {
  if (off > ip.size) {
    return kErrInval;
  }
  if (off + n > ip.size) {
    n = ip.size - off;
  }
  std::uint32_t done = 0;
  std::uint8_t blk[kFsBlockSize];
  while (done < n) {
    std::uint32_t b = 0;
    if (BMap(ip, (off + done) / kFsBlockSize, false, &b, burn) < 0) {
      return done > 0 ? done : std::int64_t{kErrIo};
    }
    std::uint32_t boff = (off + done) % kFsBlockSize;
    std::uint32_t take = std::min(n - done, kFsBlockSize - boff);
    if (b == 0) {
      std::memset(dst + done, 0, take);  // sparse hole
    } else {
      if (ReadFsBlock(b, blk, burn) < 0) {
        return done > 0 ? done : std::int64_t{kErrIo};
      }
      std::memcpy(dst + done, blk + boff, take);
    }
    done += take;
  }
  return done;
}

std::int64_t Xv6Fs::Writei(Xv6Inode& ip, const std::uint8_t* src, std::uint32_t off,
                           std::uint32_t n, Cycles* burn) {
  if (off > ip.size) {
    return kErrInval;
  }
  if (std::uint64_t(off) + n > std::uint64_t(kMaxFileBlocks) * kFsBlockSize) {
    return kErrFBig;  // the 270 KB cap in action
  }
  TxScope tx(jrnl_, burn);
  std::uint32_t done = 0;
  std::uint32_t tx_blocks = 0;
  bool io_err = false;
  std::uint8_t blk[kFsBlockSize];
  while (done < n) {
    std::uint32_t b = 0;
    if (BMap(ip, (off + done) / kFsBlockSize, true, &b, burn) < 0) {
      io_err = true;
      break;
    }
    if (b == 0) {
      break;  // disk full
    }
    std::uint32_t boff = (off + done) % kFsBlockSize;
    std::uint32_t take = std::min(n - done, kFsBlockSize - boff);
    if (take != kFsBlockSize) {
      if (ReadFsBlock(b, blk, burn) < 0) {  // read-modify-write
        io_err = true;
        break;
      }
    }
    std::memcpy(blk + boff, src + done, take);
    if (WriteFsBlock(b, blk, burn) < 0) {
      io_err = true;
      break;
    }
    done += take;
    // One huge write must not demand more log slots than the ring has:
    // offer a commit-eligibility point between chunks. Atomicity degrades
    // to per-chunk for multi-chunk writes — the POSIX contract for write()
    // makes no stronger promise.
    if (jrnl_ != nullptr && ++tx_blocks >= kJrnlMaxTxBlocks / 2) {
      tx_blocks = 0;
      jrnl_->TxBarrier(burn);
    }
  }
  if (off + done > ip.size) {
    ip.size = off + done;
    // Best-effort: the data landed; a failed inode write latches in the
    // device error and the next sync/fsync reports it.
    UpdateInode(ip, burn);
  }
  if (done == 0 && n > 0) {
    return io_err ? kErrIo : kErrNoSpace;
  }
  return done;
}

std::uint32_t Xv6Fs::IAlloc(std::int16_t type, std::int64_t* err, Cycles* burn) {
  *err = 0;
  std::uint8_t blk[kFsBlockSize];
  for (std::uint32_t inum = 1; inum < sb_.ninodes; ++inum) {
    std::uint32_t fsb = sb_.inodestart + inum / kInodesPerBlock;
    if (ReadFsBlock(fsb, blk, burn) < 0) {
      *err = kErrIo;
      return 0;
    }
    auto* d = reinterpret_cast<Xv6Dinode*>(blk + (inum % kInodesPerBlock) * sizeof(Xv6Dinode));
    if (d->type == 0) {
      std::memset(d, 0, sizeof(*d));
      d->type = type;
      d->nlink = 0;
      if (WriteFsBlock(fsb, blk, burn) < 0) {
        *err = kErrIo;
        return 0;
      }
      // Drop any cached copy of the previously-free inode (a full-disk scan
      // like fsck may have pulled it in); callers must see the fresh one.
      icache_.erase(inum);
      return inum;
    }
  }
  *err = kErrNoSpace;
  return 0;
}

std::int64_t Xv6Fs::DirLookup(Xv6Inode& dir, const std::string& name, Cycles* burn) {
  if (dir.type != kXv6TDir) {
    return kErrNotDir;
  }
  if (name.size() > kDirNameLen) {
    return kErrNameTooLong;
  }
  Xv6Dirent de;
  for (std::uint32_t off = 0; off < dir.size; off += sizeof(de)) {
    std::int64_t r = Readi(dir, reinterpret_cast<std::uint8_t*>(&de), off, sizeof(de), burn);
    if (r != sizeof(de)) {
      return r < 0 ? r : kErrIo;
    }
    if (de.inum == 0) {
      continue;
    }
    if (std::strncmp(de.name, name.c_str(), kDirNameLen) == 0) {
      return de.inum;
    }
  }
  return kErrNoEnt;
}

std::int64_t Xv6Fs::DirLink(Xv6Inode& dir, const std::string& name, std::uint32_t inum,
                            Cycles* burn) {
  if (name.size() > kDirNameLen) {
    return kErrNameTooLong;
  }
  std::int64_t lr = DirLookup(dir, name, burn);
  if (lr >= 0) {
    return kErrExist;
  }
  if (lr == kErrIo) {
    return kErrIo;
  }
  Xv6Dirent de;
  std::uint32_t off;
  for (off = 0; off < dir.size; off += sizeof(de)) {
    std::int64_t r = Readi(dir, reinterpret_cast<std::uint8_t*>(&de), off, sizeof(de), burn);
    if (r != sizeof(de)) {
      return r < 0 ? r : kErrIo;
    }
    if (de.inum == 0) {
      break;
    }
  }
  std::memset(&de, 0, sizeof(de));
  de.inum = static_cast<std::uint16_t>(inum);
  // xv6 dirent names fill all kDirNameLen bytes without a NUL when the name
  // is max-length; the memset above zero-pads shorter names.
  std::memcpy(de.name, name.data(), std::min<std::size_t>(name.size(), kDirNameLen));
  std::int64_t w = Writei(dir, reinterpret_cast<std::uint8_t*>(&de), off, sizeof(de), burn);
  if (w != sizeof(de)) {
    return kErrNoSpace;
  }
  return 0;
}

Xv6InodePtr Xv6Fs::NameI(const std::string& path, Cycles* burn) {
  Xv6InodePtr ip = GetInode(kRootInum, burn);
  for (const std::string& part : SplitPath(path)) {
    *burn += cfg_.cost.namei_per_component;
    if (ip == nullptr || ip->type != kXv6TDir) {
      return nullptr;
    }
    std::int64_t inum = DirLookup(*ip, part, burn);
    if (inum < 0) {
      return nullptr;
    }
    ip = GetInode(static_cast<std::uint32_t>(inum), burn);
  }
  return ip;
}

Xv6InodePtr Xv6Fs::NameIParent(const std::string& path, std::string* last, Cycles* burn) {
  std::vector<std::string> parts = SplitPath(path);
  if (parts.empty()) {
    return nullptr;
  }
  *last = parts.back();
  Xv6InodePtr ip = GetInode(kRootInum, burn);
  for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
    *burn += cfg_.cost.namei_per_component;
    if (ip == nullptr || ip->type != kXv6TDir) {
      return nullptr;
    }
    std::int64_t inum = DirLookup(*ip, parts[i], burn);
    if (inum < 0) {
      return nullptr;
    }
    ip = GetInode(static_cast<std::uint32_t>(inum), burn);
  }
  return ip != nullptr && ip->type == kXv6TDir ? ip : nullptr;
}

Xv6InodePtr Xv6Fs::Create(const std::string& path, std::int16_t type, std::int16_t major,
                          std::int16_t minor, std::int64_t* err, Cycles* burn) {
  // One transaction: inode allocation, bitmap updates, the new directory
  // data, and both inode rewrites commit together or not at all.
  TxScope tx(jrnl_, burn);
  std::string name;
  Xv6InodePtr dir = NameIParent(path, &name, burn);
  if (dir == nullptr) {
    *err = kErrNoEnt;
    return nullptr;
  }
  std::int64_t existing = DirLookup(*dir, name, burn);
  if (existing >= 0) {
    Xv6InodePtr ip = GetInode(static_cast<std::uint32_t>(existing), burn);
    if (ip == nullptr) {
      *err = kErrIo;
      return nullptr;
    }
    if (type == kXv6TFile && ip->type == kXv6TFile) {
      return ip;  // open(O_CREATE) on existing file
    }
    *err = kErrExist;
    return nullptr;
  }
  if (existing == kErrIo) {
    *err = kErrIo;
    return nullptr;
  }
  std::int64_t ierr = 0;
  std::uint32_t inum = IAlloc(type, &ierr, burn);
  if (inum == 0) {
    *err = ierr != 0 ? ierr : kErrNoSpace;
    return nullptr;
  }
  auto ip = GetInode(inum, burn);
  if (ip == nullptr) {
    *err = kErrIo;
    return nullptr;
  }
  ip->major = major;
  ip->minor = minor;
  // Classic Unix counts: a file starts with its one name; a directory starts
  // with 2 ("." self-link + the parent's entry naming it).
  ip->nlink = type == kXv6TDir ? 2 : 1;
  ip->size = 0;
  UpdateInode(*ip, burn);
  if (type == kXv6TDir) {
    // "." and ".." entries.
    ++dir->nlink;  // ".." in the child
    UpdateInode(*dir, burn);
    if (DirLink(*ip, ".", inum, burn) < 0 || DirLink(*ip, "..", dir->inum, burn) < 0) {
      *err = kErrNoSpace;
      return nullptr;
    }
  }
  if (DirLink(*dir, name, inum, burn) < 0) {
    *err = kErrNoSpace;
    return nullptr;
  }
  return ip;
}

void Xv6Fs::Truncate(Xv6Inode& ip, Cycles* burn) {
  TxScope tx(jrnl_, burn);
  for (std::uint32_t i = 0; i < kNDirect; ++i) {
    if (ip.addrs[i] != 0) {
      BFree(ip.addrs[i], burn);
      ip.addrs[i] = 0;
    }
  }
  if (ip.addrs[kNDirect] != 0) {
    std::uint8_t blk[kFsBlockSize];
    if (ReadFsBlock(ip.addrs[kNDirect], blk, burn) == 0) {
      auto* entries = reinterpret_cast<std::uint32_t*>(blk);
      for (std::uint32_t i = 0; i < kNIndirect; ++i) {
        if (entries[i] != 0) {
          BFree(entries[i], burn);
        }
      }
    }
    // Unreadable indirect block: its children leak; fsck reclaims them.
    BFree(ip.addrs[kNDirect], burn);
    ip.addrs[kNDirect] = 0;
  }
  ip.size = 0;
  UpdateInode(ip, burn);
}

bool Xv6Fs::DirIsEmpty(Xv6Inode& dir, Cycles* burn) {
  Xv6Dirent de;
  for (std::uint32_t off = 2 * sizeof(de); off < dir.size; off += sizeof(de)) {
    std::int64_t r = Readi(dir, reinterpret_cast<std::uint8_t*>(&de), off, sizeof(de), burn);
    if (r != sizeof(de)) {
      return false;  // unreadable: conservatively treat as non-empty
    }
    if (de.inum != 0) {
      return false;
    }
  }
  return true;
}

std::int64_t Xv6Fs::Unlink(const std::string& path, Cycles* burn) {
  // Dirent clear, link counts, freed bitmap bits, and the inode zap are one
  // atomic unit — the classic "unlink leaves an orphan inode" crash shape
  // cannot happen under the log.
  TxScope tx(jrnl_, burn);
  std::string name;
  Xv6InodePtr dir = NameIParent(path, &name, burn);
  if (dir == nullptr) {
    return kErrNoEnt;
  }
  if (name == "." || name == "..") {
    return kErrInval;
  }
  std::int64_t inum = DirLookup(*dir, name, burn);
  if (inum < 0) {
    return kErrNoEnt;
  }
  Xv6InodePtr ip = GetInode(static_cast<std::uint32_t>(inum), burn);
  if (ip == nullptr) {
    return kErrIo;
  }
  if (ip->type == kXv6TDir && !DirIsEmpty(*ip, burn)) {
    return kErrNotEmpty;
  }
  // Clear the directory entry.
  Xv6Dirent de;
  for (std::uint32_t off = 0; off < dir->size; off += sizeof(de)) {
    std::int64_t r = Readi(*dir, reinterpret_cast<std::uint8_t*>(&de), off, sizeof(de), burn);
    if (r != sizeof(de)) {
      return r < 0 ? r : kErrIo;
    }
    if (de.inum == static_cast<std::uint16_t>(inum) &&
        std::strncmp(de.name, name.c_str(), kDirNameLen) == 0) {
      std::memset(&de, 0, sizeof(de));
      Writei(*dir, reinterpret_cast<std::uint8_t*>(&de), off, sizeof(de), burn);
      break;
    }
  }
  if (ip->type == kXv6TDir) {
    --dir->nlink;  // the child's ".." no longer references the parent
    UpdateInode(*dir, burn);
    ip->nlink = static_cast<std::int16_t>(ip->nlink - 2);  // name + "."
  } else {
    --ip->nlink;
  }
  if (ip->nlink <= 0) {
    Truncate(*ip, burn);
    ip->type = 0;
    UpdateInode(*ip, burn);
    icache_.erase(ip->inum);
  } else {
    UpdateInode(*ip, burn);
  }
  return 0;
}

std::int64_t Xv6Fs::Link(const std::string& oldp, const std::string& newp, Cycles* burn) {
  TxScope tx(jrnl_, burn);
  Xv6InodePtr ip = NameI(oldp, burn);
  if (ip == nullptr) {
    return kErrNoEnt;
  }
  if (ip->type == kXv6TDir) {
    return kErrIsDir;
  }
  std::string name;
  Xv6InodePtr dir = NameIParent(newp, &name, burn);
  if (dir == nullptr) {
    return kErrNoEnt;
  }
  std::int64_t r = DirLink(*dir, name, ip->inum, burn);
  if (r < 0) {
    return r;
  }
  ++ip->nlink;
  UpdateInode(*ip, burn);
  return 0;
}

std::vector<Xv6DirEntryInfo> Xv6Fs::ReadDir(Xv6Inode& dir, Cycles* burn) {
  std::vector<Xv6DirEntryInfo> out;
  if (dir.type != kXv6TDir) {
    return out;
  }
  Xv6Dirent de;
  for (std::uint32_t off = 0; off < dir.size; off += sizeof(de)) {
    std::int64_t r = Readi(dir, reinterpret_cast<std::uint8_t*>(&de), off, sizeof(de), burn);
    if (r != sizeof(de)) {
      break;  // unreadable tail: return what we have
    }
    if (de.inum == 0) {
      continue;
    }
    char namebuf[kDirNameLen + 1] = {};
    std::memcpy(namebuf, de.name, kDirNameLen);
    auto ip = GetInode(de.inum, burn);
    if (ip == nullptr) {
      continue;  // dangling entry on a damaged filesystem
    }
    out.push_back(Xv6DirEntryInfo{namebuf, de.inum, ip->type, ip->size});
  }
  return out;
}

bool Xv6Fs::BlockInUse(std::uint32_t b, Cycles* burn) {
  std::uint8_t blk[kFsBlockSize];
  if (ReadFsBlock(sb_.bmapstart + b / (kFsBlockSize * 8), blk, burn) < 0) {
    return true;  // unreadable bitmap: conservatively claim in-use
  }
  std::uint32_t bi = b % (kFsBlockSize * 8);
  return (blk[bi / 8] >> (bi % 8)) & 1;
}

std::int64_t Xv6Fs::SetBlockInUse(std::uint32_t b, bool used, Cycles* burn) {
  std::uint8_t blk[kFsBlockSize];
  std::uint32_t bmb = sb_.bmapstart + b / (kFsBlockSize * 8);
  if (ReadFsBlock(bmb, blk, burn) < 0) {
    return kErrIo;
  }
  std::uint32_t bi = b % (kFsBlockSize * 8);
  std::uint8_t mask = static_cast<std::uint8_t>(1 << (bi % 8));
  if (used) {
    blk[bi / 8] |= mask;
  } else {
    blk[bi / 8] &= static_cast<std::uint8_t>(~mask);
  }
  return WriteFsBlock(bmb, blk, burn);
}

std::uint32_t Xv6Fs::FreeDataBlocks(Cycles* burn) {
  std::uint8_t blk[kFsBlockSize];
  std::uint32_t free = 0;
  for (std::uint32_t b = 0; b < sb_.size; b += kFsBlockSize * 8) {
    if (ReadFsBlock(sb_.bmapstart + b / (kFsBlockSize * 8), blk, burn) < 0) {
      continue;
    }
    for (std::uint32_t bi = 0; bi < kFsBlockSize * 8 && b + bi < sb_.size; ++bi) {
      if ((blk[bi / 8] & (1 << (bi % 8))) == 0) {
        ++free;
      }
    }
  }
  return free;
}

std::vector<std::uint8_t> Xv6Fs::Mkfs(std::uint32_t fsblocks, std::uint32_t ninodes,
                                      std::uint32_t nlog) {
  VOS_CHECK_MSG(nlog == 0 || nlog >= kJrnlMinLogBlocks,
                "journal needs jsb + descriptor + data (or 0 for none)");
  std::uint32_t ninodeblocks = ninodes / kInodesPerBlock + 1;
  std::uint32_t nbitmap = fsblocks / (kFsBlockSize * 8) + 1;
  std::uint32_t nmeta = 2 + ninodeblocks + nbitmap + nlog;
  VOS_CHECK_MSG(nmeta < fsblocks, "filesystem too small for metadata");

  std::vector<std::uint8_t> img(std::size_t(fsblocks) * kFsBlockSize, 0);
  Xv6Superblock sb{};
  sb.magic = kXv6Magic;
  sb.size = fsblocks;
  sb.nblocks = fsblocks - nmeta;
  sb.ninodes = ninodes;
  sb.inodestart = 2;
  sb.bmapstart = 2 + ninodeblocks;
  sb.logstart = 2 + ninodeblocks + nbitmap;
  sb.nlog = nlog;
  std::memcpy(img.data() + kFsBlockSize, &sb, sizeof(sb));

  if (nlog >= kJrnlMinLogBlocks) {
    JrnlSuperblock jsb{kJrnlMagic, nlog - 1, 0, 1};
    std::memcpy(img.data() + std::size_t(sb.logstart) * kFsBlockSize, &jsb, sizeof(jsb));
  }

  // Mark the metadata blocks used in the bitmap.
  auto set_used = [&](std::uint32_t b) {
    std::uint8_t* bm = img.data() + std::size_t(sb.bmapstart + b / (kFsBlockSize * 8)) *
                       kFsBlockSize;
    bm[(b % (kFsBlockSize * 8)) / 8] |= static_cast<std::uint8_t>(1 << (b % 8));
  };
  for (std::uint32_t b = 0; b < nmeta; ++b) {
    set_used(b);
  }

  // Root directory: inode 1, with "." and "..", occupying one data block.
  std::uint32_t root_block = nmeta;
  set_used(root_block);
  Xv6Dinode root{};
  root.type = kXv6TDir;
  root.nlink = 2;  // "." and parent reference
  root.size = 2 * sizeof(Xv6Dirent);
  root.addrs[0] = root_block;
  std::memcpy(img.data() + std::size_t(sb.inodestart) * kFsBlockSize + sizeof(Xv6Dinode), &root,
              sizeof(root));
  auto* des = reinterpret_cast<Xv6Dirent*>(img.data() + std::size_t(root_block) * kFsBlockSize);
  des[0].inum = kRootInum;
  std::strncpy(des[0].name, ".", kDirNameLen);
  des[1].inum = kRootInum;
  std::strncpy(des[1].name, "..", kDirNameLen);
  return img;
}

}  // namespace vos
