#include "src/fs/vfs.h"

#include <algorithm>
#include <cstring>

#include "src/base/assert.h"
#include "src/base/status.h"
#include "src/kernel/task.h"

namespace vos {

DevNode* Vfs::Device(const std::string& name) const {
  auto it = devices_.find(name);
  return it == devices_.end() ? nullptr : it->second;
}

std::string Vfs::Resolve(Task* t, const std::string& path) const {
  std::string abs;
  if (!path.empty() && path[0] == '/') {
    abs = path;
  } else {
    std::string cwd = t != nullptr ? t->cwd : "/";
    abs = cwd == "/" ? "/" + path : cwd + "/" + path;
  }
  // Normalize "." and "..".
  std::vector<std::string> stack;
  for (const std::string& part : SplitPath(abs)) {
    if (part == ".") {
      continue;
    }
    if (part == "..") {
      if (!stack.empty()) {
        stack.pop_back();
      }
      continue;
    }
    stack.push_back(part);
  }
  std::string out;
  for (const std::string& part : stack) {
    out += "/" + part;
  }
  return out.empty() ? "/" : out;
}

Vfs::Realm Vfs::RealmOf(const std::string& path, std::string* rest, FatVolume** fat) const {
  auto has_prefix = [&](const std::string& p) {
    std::size_t n = p.size();
    return path.size() >= n && path.compare(0, n, p) == 0 &&
           (path.size() == n || path[n] == '/');
  };
  for (const FatMount& m : fat_mounts_) {
    if (has_prefix(m.at)) {
      *rest = path.size() > m.at.size() ? path.substr(m.at.size()) : "/";
      if (fat != nullptr) {
        *fat = m.vol;
      }
      return Realm::kFat;
    }
  }
  if (has_prefix("/dev")) {
    *rest = path.size() > 4 ? path.substr(5) : "";
    return Realm::kDev;
  }
  if (has_prefix("/proc")) {
    *rest = path.size() > 5 ? path.substr(6) : "";
    return Realm::kProc;
  }
  *rest = path;
  return Realm::kRoot;
}

std::int64_t Vfs::Open(Task* t, const std::string& upath, std::uint32_t flags, FilePtr* out,
                       Cycles* burn) {
  std::string path = Resolve(t, upath);
  std::string rest;
  FatVolume* vol = nullptr;
  Realm realm = RealmOf(path, &rest, &vol);
  auto f = std::make_shared<File>();
  f->path = path;
  f->readable = (flags & kOWronly) == 0;
  f->writable = (flags & (kOWronly | kORdwr)) != 0;
  f->nonblock = (flags & kONonblock) != 0;
  f->append = (flags & kOAppend) != 0;

  switch (realm) {
    case Realm::kDev: {
      DevNode* dev = Device(rest);
      if (dev == nullptr) {
        return kErrNoEnt;
      }
      f->kind = FileKind::kDevice;
      f->dev = dev;
      std::int64_t r = dev->OnOpen(t, *f);
      if (r < 0) {
        return r;
      }
      break;
    }
    case Realm::kProc: {
      auto it = proc_.find(rest);
      if (it == proc_.end()) {
        return kErrNoEnt;
      }
      f->kind = FileKind::kProc;
      f->proc_snapshot = it->second();  // snapshot semantics
      break;
    }
    case Realm::kFat: {
      auto node = vol->Lookup(rest, burn);
      if (!node) {
        if (!(flags & kOCreate)) {
          return kErrNoEnt;
        }
        FatNode created;
        std::int64_t r = vol->Create(rest, /*is_dir=*/false, &created, burn);
        if (r < 0) {
          return r;
        }
        node = created;
      }
      if (node->is_dir && f->writable) {
        return kErrIsDir;
      }
      if ((flags & kOTrunc) && !node->is_dir) {
        vol->Truncate(*node, burn);
      }
      f->kind = FileKind::kFat;
      f->fat = *node;
      f->fat_vol = vol;
      if (f->append) {
        f->off = node->size;
      }
      break;
    }
    case Realm::kRoot: {
      Xv6InodePtr ip = root_.NameI(rest, burn);
      if (ip == nullptr) {
        if (!(flags & kOCreate)) {
          return kErrNoEnt;
        }
        std::int64_t err = 0;
        ip = root_.Create(rest, kXv6TFile, 0, 0, &err, burn);
        if (ip == nullptr) {
          return err;
        }
      }
      if (ip->type == kXv6TDir && f->writable) {
        return kErrIsDir;
      }
      if ((flags & kOTrunc) && ip->type == kXv6TFile) {
        root_.Truncate(*ip, burn);
      }
      if (ip->type == kXv6TDev) {
        // mknod'd device inode: route through the devfs registry by name
        // stored at mknod time (minor indexes are not used).
        f->kind = FileKind::kDevice;
        f->dev = nullptr;
        for (const auto& [name, dev] : devices_) {
          if (static_cast<std::int16_t>(std::hash<std::string>{}(name) & 0x7fff) == ip->major) {
            f->dev = dev;
            break;
          }
        }
        if (f->dev == nullptr) {
          return kErrIo;
        }
        std::int64_t r = f->dev->OnOpen(t, *f);
        if (r < 0) {
          return r;
        }
      } else {
        f->kind = FileKind::kXv6;
        f->xv6 = ip;
        if (f->append) {
          f->off = ip->size;
        }
      }
      break;
    }
  }
  *out = f;
  return 0;
}

void Vfs::Close(Task* t, const FilePtr& f) {
  (void)t;
  if (f.use_count() > 1) {
    return;  // other descriptors still reference this description
  }
  switch (f->kind) {
    case FileKind::kPipe:
      if (f->pipe_write_end) {
        f->pipe->CloseWrite();
      } else {
        f->pipe->CloseRead();
      }
      break;
    case FileKind::kDevice:
      if (f->dev != nullptr) {
        f->dev->OnClose(*f);
      }
      break;
    case FileKind::kSocket:
      if (socket_closer_ && f->sock != nullptr) {
        socket_closer_(f->sock);
      }
      break;
    default:
      break;
  }
}

std::int64_t Vfs::Read(Task* t, File& f, std::uint8_t* dst, std::uint32_t n, Cycles* burn) {
  if (!f.readable) {
    return kErrBadFd;
  }
  switch (f.kind) {
    case FileKind::kXv6: {
      std::int64_t r = root_.Readi(*f.xv6, dst, static_cast<std::uint32_t>(f.off), n, burn);
      if (r > 0) {
        f.off += static_cast<std::uint64_t>(r);
      }
      return r;
    }
    case FileKind::kFat: {
      std::int64_t r = f.fat_vol->Read(f.fat, dst, static_cast<std::uint32_t>(f.off), n, burn);
      if (r > 0) {
        f.off += static_cast<std::uint64_t>(r);
      }
      return r;
    }
    case FileKind::kDevice: {
      std::int64_t r = f.dev->Read(t, dst, n, f.off, f.nonblock, burn);
      // Advance the offset like a regular file: stream devices (console,
      // events) ignore it, snapshot devices (/dev/trace) serve by it.
      if (r > 0) {
        f.off += static_cast<std::uint64_t>(r);
      }
      return r;
    }
    case FileKind::kPipe:
      return f.pipe->Read(t, dst, n, f.nonblock);
    case FileKind::kProc: {
      if (f.off >= f.proc_snapshot.size()) {
        return 0;
      }
      std::uint32_t take =
          std::min<std::uint64_t>(n, f.proc_snapshot.size() - f.off);
      std::memcpy(dst, f.proc_snapshot.data() + f.off, take);
      f.off += take;
      return take;
    }
    case FileKind::kNone:
    case FileKind::kSocket:  // syscall.cc serves sockets before this point
      break;
  }
  return kErrBadFd;
}

std::int64_t Vfs::Write(Task* t, File& f, const std::uint8_t* src, std::uint32_t n,
                        Cycles* burn) {
  if (!f.writable) {
    return kErrBadFd;
  }
  switch (f.kind) {
    case FileKind::kXv6: {
      if (f.append) {
        f.off = f.xv6->size;
      }
      std::int64_t r = root_.Writei(*f.xv6, src, static_cast<std::uint32_t>(f.off), n, burn);
      if (r > 0) {
        f.off += static_cast<std::uint64_t>(r);
      }
      return r;
    }
    case FileKind::kFat: {
      if (f.append) {
        f.off = f.fat.size;
      }
      std::int64_t r = f.fat_vol->Write(f.fat, src, static_cast<std::uint32_t>(f.off), n, burn);
      if (r > 0) {
        f.off += static_cast<std::uint64_t>(r);
      }
      return r;
    }
    case FileKind::kDevice: {
      std::int64_t r = f.dev->Write(t, src, n, f.off, burn);
      // Advance the offset on success, mirroring the device read path above:
      // stream devices ignore it, offset-addressed ones depend on it.
      if (r > 0) {
        f.off += static_cast<std::uint64_t>(r);
      }
      return r;
    }
    case FileKind::kPipe:
      return f.pipe->Write(t, src, n, f.nonblock);
    case FileKind::kProc: {
      // Control files (/proc/faultinject) accept writes through a registered
      // writer; everything else stays read-only.
      std::string rest;
      RealmOf(f.path, &rest);
      auto it = proc_writers_.find(rest);
      if (it == proc_writers_.end()) {
        return kErrPerm;
      }
      *burn += cfg_.cost.syscall_body;
      std::int64_t r = it->second(std::string(reinterpret_cast<const char*>(src), n));
      return r < 0 ? r : n;
    }
    case FileKind::kNone:
    case FileKind::kSocket:  // syscall.cc serves sockets before this point
      break;
  }
  return kErrBadFd;
}

std::int64_t Vfs::Lseek(File& f, std::int64_t offset, int whence, Cycles* burn) {
  *burn += cfg_.cost.syscall_body;
  std::uint64_t size = 0;
  switch (f.kind) {
    case FileKind::kXv6:
      size = f.xv6->size;
      break;
    case FileKind::kFat:
      size = f.fat.size;
      break;
    case FileKind::kProc:
      size = f.proc_snapshot.size();
      break;
    case FileKind::kDevice:
      // Stream devices report 0; framebuffer-like devices expose their
      // extent so SEEK_END is meaningful (the seed hardcoded 0 for all).
      size = f.dev != nullptr ? f.dev->SeekEndSize() : 0;
      break;
    default:
      return kErrPipe;  // pipes are not seekable
  }
  std::int64_t base = 0;
  if (whence == 1) {
    base = static_cast<std::int64_t>(f.off);
  } else if (whence == 2) {
    base = static_cast<std::int64_t>(size);
  } else if (whence != 0) {
    return kErrInval;
  }
  std::int64_t target = base + offset;
  if (target < 0) {
    return kErrInval;
  }
  f.off = static_cast<std::uint64_t>(target);
  return target;
}

std::int64_t Vfs::FStat(File& f, Stat* st, Cycles* burn) {
  *burn += cfg_.cost.inode_op;
  switch (f.kind) {
    case FileKind::kXv6:
      st->type = f.xv6->type;
      st->size = f.xv6->size;
      st->inum = f.xv6->inum;
      st->nlink = f.xv6->nlink;
      return 0;
    case FileKind::kFat:
      st->type = f.fat.is_dir ? kXv6TDir : kXv6TFile;
      st->size = f.fat.size;
      st->inum = f.fat.first_cluster;  // pseudo-inode number
      st->nlink = 1;
      return 0;
    case FileKind::kDevice:
      st->type = kXv6TDev;
      st->size = 0;
      st->inum = 0;
      st->nlink = 1;
      return 0;
    case FileKind::kProc:
      st->type = kXv6TFile;
      st->size = static_cast<std::uint32_t>(f.proc_snapshot.size());
      st->inum = 0;
      st->nlink = 1;
      return 0;
    default:
      return kErrBadFd;
  }
}

std::int64_t Vfs::Mkdir(Task* t, const std::string& upath, Cycles* burn) {
  std::string path = Resolve(t, upath);
  std::string rest;
  FatVolume* vol = nullptr;
  switch (RealmOf(path, &rest, &vol)) {
    case Realm::kRoot: {
      std::int64_t err = 0;
      return root_.Create(rest, kXv6TDir, 0, 0, &err, burn) != nullptr ? 0 : err;
    }
    case Realm::kFat:
      return vol->Create(rest, /*is_dir=*/true, nullptr, burn);
    default:
      return kErrPerm;
  }
}

std::int64_t Vfs::Unlink(Task* t, const std::string& upath, Cycles* burn) {
  std::string path = Resolve(t, upath);
  std::string rest;
  FatVolume* vol = nullptr;
  switch (RealmOf(path, &rest, &vol)) {
    case Realm::kRoot:
      return root_.Unlink(rest, burn);
    case Realm::kFat:
      return vol->Unlink(rest, burn);
    default:
      return kErrPerm;
  }
}

std::int64_t Vfs::Link(Task* t, const std::string& oldp, const std::string& newp, Cycles* burn) {
  std::string po = Resolve(t, oldp);
  std::string pn = Resolve(t, newp);
  std::string ro, rn;
  Realm a = RealmOf(po, &ro);
  Realm b = RealmOf(pn, &rn);
  if (a != Realm::kRoot || b != Realm::kRoot) {
    return a == b ? kErrPerm : kErrXDev;  // FAT has no hard links
  }
  return root_.Link(ro, rn, burn);
}

std::int64_t Vfs::Mknod(Task* t, const std::string& upath, std::int16_t major, std::int16_t minor,
                        Cycles* burn) {
  std::string path = Resolve(t, upath);
  std::string rest;
  if (RealmOf(path, &rest) != Realm::kRoot) {
    return kErrPerm;
  }
  std::int64_t err = 0;
  return root_.Create(rest, kXv6TDev, major, minor, &err, burn) != nullptr ? 0 : err;
}

std::int64_t Vfs::Chdir(Task* t, const std::string& upath, Cycles* burn) {
  std::string path = Resolve(t, upath);
  std::string rest;
  FatVolume* vol = nullptr;
  switch (RealmOf(path, &rest, &vol)) {
    case Realm::kRoot: {
      Xv6InodePtr ip = root_.NameI(rest, burn);
      if (ip == nullptr) {
        return kErrNoEnt;
      }
      if (ip->type != kXv6TDir) {
        return kErrNotDir;
      }
      break;
    }
    case Realm::kFat: {
      auto node = vol->Lookup(rest, burn);
      if (!node) {
        return kErrNoEnt;
      }
      if (!node->is_dir) {
        return kErrNotDir;
      }
      break;
    }
    case Realm::kDev:
    case Realm::kProc:
      if (!rest.empty()) {
        return kErrNotDir;
      }
      break;
  }
  t->cwd = path;
  return 0;
}

std::int64_t Vfs::Sync(Cycles* burn) {
  // Journal first: commit the open batch AND drain every committed batch to
  // home (sync is the full-durability point, unlike fsync's commit-only
  // contract). This unpins the journaled buffers, so the FlushAll below sees
  // only ordinary dirty data.
  std::int64_t jerr = root_.DrainJournal(burn);
  // All mounted filesystems share the one buffer cache, so a single
  // FlushAll covers the ramdisk root, the SD FAT volume, and the USB drive.
  // Any flush that exhausted its retries latched an error on its device;
  // consume every latch so the caller learns the data didn't all make it.
  *burn += root_.bcache().FlushAll();
  std::int64_t ferr = root_.bcache().TakeAnyError();
  return jerr < 0 ? jerr : ferr;
}

std::int64_t Vfs::Fsync(File& f, Cycles* burn) {
  switch (f.kind) {
    case FileKind::kXv6: {
      // Commit the open journal batch — durability comes from the log, so
      // fsync does NOT wait for the checkpoint pipeline. The FlushDev below
      // covers non-journaled dirty buffers (and is the whole story on
      // unjournaled images); journal-pinned buffers are excluded from it.
      std::int64_t jerr = root_.SyncJournal(burn);
      *burn += root_.bcache().FlushDev(root_.dev());
      std::int64_t ferr = root_.bcache().TakeError(root_.dev());
      return jerr < 0 ? jerr : ferr;
    }
    case FileKind::kFat:
      *burn += f.fat_vol->bcache().FlushDev(f.fat_vol->dev());
      return f.fat_vol->bcache().TakeError(f.fat_vol->dev());
    case FileKind::kDevice:
    case FileKind::kPipe:
    case FileKind::kProc:
      return 0;  // nothing cached at the block layer
    case FileKind::kNone:
    case FileKind::kSocket:
      break;
  }
  return kErrBadFd;
}

std::int64_t Vfs::ReadDir(Task* t, const std::string& upath, std::vector<DirEntryInfo>* out,
                          Cycles* burn) {
  std::string path = Resolve(t, upath);
  std::string rest;
  FatVolume* vol = nullptr;
  out->clear();
  switch (RealmOf(path, &rest, &vol)) {
    case Realm::kRoot: {
      Xv6InodePtr ip = root_.NameI(rest, burn);
      if (ip == nullptr) {
        return kErrNoEnt;
      }
      if (ip->type != kXv6TDir) {
        return kErrNotDir;
      }
      for (const auto& e : root_.ReadDir(*ip, burn)) {
        out->push_back(DirEntryInfo{e.name, e.type == kXv6TDir, e.size});
      }
      return 0;
    }
    case Realm::kFat: {
      auto node = vol->Lookup(rest, burn);
      if (!node) {
        return kErrNoEnt;
      }
      if (!node->is_dir) {
        return kErrNotDir;
      }
      for (const auto& e : vol->ReadDir(*node, burn)) {
        out->push_back(DirEntryInfo{e.name, e.is_dir, e.size});
      }
      return 0;
    }
    case Realm::kDev:
      for (const auto& [name, dev] : devices_) {
        out->push_back(DirEntryInfo{name, false, 0});
      }
      return 0;
    case Realm::kProc:
      for (const auto& [name, gen] : proc_) {
        out->push_back(DirEntryInfo{name, false, 0});
      }
      return 0;
  }
  return kErrNoEnt;
}

}  // namespace vos
