// The file abstraction (Prototype 4) and mount dispatch (Prototype 5).
//
// Paths route by prefix exactly as the paper describes (§4.5): the root
// filesystem (xv6fs on the ramdisk) owns '/', the FAT32 SD partition mounts
// at '/d' and a USB thumb drive's FAT32 volume at '/u', device files live
// under '/dev', proc files under '/proc'. FAT files are bridged through
// pseudo-inodes (FatNode) since FAT has no inode concept.
#ifndef VOS_SRC_FS_VFS_H_
#define VOS_SRC_FS_VFS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/units.h"
#include "src/fs/fat32.h"
#include "src/fs/xv6fs.h"
#include "src/kernel/pipe.h"

namespace vos {

class Task;
class Socket;

// open() flags.
enum OpenFlags : std::uint32_t {
  kORdonly = 0x000,
  kOWronly = 0x001,
  kORdwr = 0x002,
  kOCreate = 0x200,
  kOTrunc = 0x400,
  kONonblock = 0x800,
  kOAppend = 0x1000,
};

enum class FileKind { kNone, kXv6, kFat, kDevice, kPipe, kProc, kSocket };

// Stat as returned by fstat().
struct Stat {
  std::int16_t type = 0;  // kXv6TDir/kXv6TFile/kXv6TDev
  std::uint32_t size = 0;
  std::uint32_t inum = 0;
  std::int16_t nlink = 0;
};

// A device node: the driver-side implementation behind a /dev entry.
class DevNode {
 public:
  virtual ~DevNode() = default;
  // Blocking semantics are the node's business (console read sleeps; fb
  // write doesn't). `burn` accumulates virtual time for the caller to charge.
  virtual std::int64_t Read(Task* t, std::uint8_t* buf, std::uint32_t n, std::uint64_t off,
                            bool nonblock, Cycles* burn) = 0;
  virtual std::int64_t Write(Task* t, const std::uint8_t* buf, std::uint32_t n, std::uint64_t off,
                             Cycles* burn) = 0;
  // Per-open hook; may attach per-open state to the File (e.g. a WM surface).
  virtual std::int64_t OnOpen(Task* t, class File& f) { return 0; }
  virtual void OnClose(class File& f) {}
  // Size reported to lseek(SEEK_END). Stream devices (console, events) have
  // no meaningful end and keep the default 0; seekable devices with a fixed
  // extent (/dev/fb) override it so SEEK_END lands past the last byte.
  virtual std::uint64_t SeekEndSize() const { return 0; }
};

// An open file description. Shared across dup()/fork() (offset shared too).
class File {
 public:
  FileKind kind = FileKind::kNone;
  bool readable = false;
  bool writable = false;
  bool nonblock = false;
  bool append = false;
  std::uint64_t off = 0;
  std::string path;  // for diagnostics and procfs

  Xv6InodePtr xv6;                   // kXv6
  FatNode fat;                       // kFat
  FatVolume* fat_vol = nullptr;      // the FAT volume `fat` lives on
  DevNode* dev = nullptr;            // kDevice
  std::shared_ptr<Pipe> pipe;        // kPipe
  bool pipe_write_end = false;
  std::string proc_snapshot;         // kProc: captured at open
  std::shared_ptr<void> dev_state;   // opaque per-open driver state
  std::shared_ptr<Socket> sock;      // kSocket (src/kernel/net/net.h)
};

using FilePtr = std::shared_ptr<File>;

struct DirEntryInfo {
  std::string name;
  bool is_dir = false;
  std::uint32_t size = 0;
};

class Vfs {
 public:
  // Construction wires the root filesystem; Prototype 5 attaches the FAT
  // volumes it finds.
  Vfs(Xv6Fs& rootfs, const KernelConfig& cfg) : root_(rootfs), cfg_(cfg) {}

  // Mounts a FAT volume at a top-level directory: "/d" for the SD card, "/u"
  // for the USB thumb drive (§4.4 future-work class).
  void MountFat(std::string at, FatVolume* fat) { fat_mounts_.push_back({std::move(at), fat}); }

  void RegisterDevice(const std::string& name, DevNode* node) { devices_[name] = node; }
  DevNode* Device(const std::string& name) const;
  void RegisterProc(const std::string& name, std::function<std::string()> gen) {
    proc_[name] = std::move(gen);
  }
  // Writable /proc entries (e.g. /proc/faultinject): the writer receives the
  // full write payload and returns 0 or a negative Err. Entries without a
  // registered writer reject writes with kErrPerm.
  void RegisterProcWriter(const std::string& name,
                          std::function<std::int64_t(const std::string&)> fn) {
    proc_writers_[name] = std::move(fn);
  }

  // The net stack's socket teardown, installed at boot when networking is
  // up; Close() calls it for kSocket files on their last reference.
  void SetSocketCloser(std::function<void(const std::shared_ptr<Socket>&)> fn) {
    socket_closer_ = std::move(fn);
  }

  // Resolves `path` against the task's cwd and normalizes '.'/'..'.
  std::string Resolve(Task* t, const std::string& path) const;

  // All operations return >= 0 or a negative Err; `burn` accrues model time.
  std::int64_t Open(Task* t, const std::string& path, std::uint32_t flags, FilePtr* out,
                    Cycles* burn);
  void Close(Task* t, const FilePtr& f);
  std::int64_t Read(Task* t, File& f, std::uint8_t* dst, std::uint32_t n, Cycles* burn);
  std::int64_t Write(Task* t, File& f, const std::uint8_t* src, std::uint32_t n, Cycles* burn);
  std::int64_t Lseek(File& f, std::int64_t offset, int whence, Cycles* burn);
  std::int64_t FStat(File& f, Stat* st, Cycles* burn);
  std::int64_t Mkdir(Task* t, const std::string& path, Cycles* burn);
  std::int64_t Unlink(Task* t, const std::string& path, Cycles* burn);
  std::int64_t Link(Task* t, const std::string& oldp, const std::string& newp, Cycles* burn);
  std::int64_t Mknod(Task* t, const std::string& path, std::int16_t major, std::int16_t minor,
                     Cycles* burn);
  std::int64_t Chdir(Task* t, const std::string& path, Cycles* burn);

  // Durability: Sync flushes every dirty buffer on every device; Fsync
  // flushes the device backing one open file (no-op for pipes/devices/proc).
  // Both consume latched write-back errors (errseq semantics): a flush that
  // exhausted its retries surfaces here as kErrIo, exactly once.
  std::int64_t Sync(Cycles* burn);
  std::int64_t Fsync(File& f, Cycles* burn);

  // Directory listing for shell utilities (ls).
  std::int64_t ReadDir(Task* t, const std::string& path, std::vector<DirEntryInfo>* out,
                       Cycles* burn);

  Xv6Fs& rootfs() { return root_; }

 private:
  enum class Realm { kRoot, kFat, kDev, kProc };
  // Splits a resolved path into (realm, remainder); for kFat, *fat (when
  // non-null) receives the volume mounted there.
  Realm RealmOf(const std::string& path, std::string* rest, FatVolume** fat = nullptr) const;

  struct FatMount {
    std::string at;  // "/d" or "/u"
    FatVolume* vol;
  };

  Xv6Fs& root_;
  const KernelConfig& cfg_;
  std::vector<FatMount> fat_mounts_;
  std::map<std::string, DevNode*> devices_;
  std::map<std::string, std::function<std::string()>> proc_;
  std::map<std::string, std::function<std::int64_t(const std::string&)>> proc_writers_;
  std::function<void(const std::shared_ptr<Socket>&)> socket_closer_;
};

}  // namespace vos

#endif  // VOS_SRC_FS_VFS_H_
