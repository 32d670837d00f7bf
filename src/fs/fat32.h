// FAT32, the commodity filesystem Prototype 5 mounts from the SD card's
// second partition (§4.5) so users can exchange media files with their other
// devices. Modeled on Chan's FatFS in scope: BPB/FSInfo parsing, 32-bit FAT
// chains (two mirrored copies), 8.3 directory entries with VFAT long file
// names, create/read/write/extend/truncate/unlink/mkdir, and formatting.
//
// FAT has no inodes: files are (first cluster, size) pairs hanging off
// directory entries. The VFS bridges that gap with pseudo-inodes (FatNode),
// exactly as the paper describes.
//
// Reads and writes detect contiguous cluster runs and issue block-*range*
// transfers through the buffer-cache bypass — the §5.2 optimization that cuts
// large-file latency 2-3x on the polled SD driver.
#ifndef VOS_SRC_FS_FAT32_H_
#define VOS_SRC_FS_FAT32_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/base/units.h"
#include "src/fs/bcache.h"

namespace vos {

constexpr std::uint32_t kFatEoc = 0x0ffffff8;   // >= this marks end-of-chain
constexpr std::uint32_t kFatFree = 0;
constexpr std::uint8_t kFatAttrDir = 0x10;
constexpr std::uint8_t kFatAttrArchive = 0x20;
constexpr std::uint8_t kFatAttrLfn = 0x0f;

// Pseudo-inode for an open FAT file or directory (§4.5).
struct FatNode {
  std::uint32_t first_cluster = 0;
  std::uint32_t size = 0;
  bool is_dir = false;
  // Location of the 8.3 directory entry, for size/cluster updates.
  // dirent_sector == 0 identifies the root directory (no entry).
  std::uint64_t dirent_sector = 0;
  std::uint32_t dirent_offset = 0;
};

struct FatDirEntryInfo {
  std::string name;  // long name if present, else 8.3
  std::uint32_t size;
  bool is_dir;
  std::uint32_t first_cluster;
};

class FatVolume {
 public:
  FatVolume(Bcache& bc, int dev, const KernelConfig& cfg) : bc_(bc), dev_(dev), cfg_(cfg) {}

  // Parses the BPB; returns 0 or kErrIo.
  std::int64_t Mount(Cycles* burn);
  bool mounted() const { return mounted_; }

  FatNode Root() const;
  // Absolute path (relative to this volume's root).
  std::optional<FatNode> Lookup(const std::string& path, Cycles* burn);

  std::int64_t Read(const FatNode& f, std::uint8_t* out, std::uint32_t off, std::uint32_t n,
                    Cycles* burn);
  // Writes, extending the file (and its cluster chain) as needed.
  std::int64_t Write(FatNode& f, const std::uint8_t* in, std::uint32_t off, std::uint32_t n,
                     Cycles* burn);

  std::int64_t Create(const std::string& path, bool is_dir, FatNode* out, Cycles* burn);
  std::int64_t Unlink(const std::string& path, Cycles* burn);
  std::int64_t Truncate(FatNode& f, Cycles* burn);

  std::vector<FatDirEntryInfo> ReadDir(const FatNode& dir, Cycles* burn);

  std::uint32_t FreeClusters(Cycles* burn);
  std::uint32_t cluster_bytes() const { return spc_ * kBlockSize; }
  std::uint32_t total_clusters() const { return cluster_count_; }
  Bcache& bcache() { return bc_; }
  int dev() const { return dev_; }

  // Formats `image` as a FAT32 volume in place (must fit >= 65525 clusters
  // per spec; we relax this for small test volumes but keep the layout).
  // Writes every byte of the layout, zeros included, so `image` may hold
  // anything beforehand; data clusters are zeroed when allocated.
  static void Mkfs(std::span<std::uint8_t> image, std::uint32_t sectors_per_cluster = 8);
  // Same, into a fresh image of `total_bytes`.
  static std::vector<std::uint8_t> Mkfs(std::uint64_t total_bytes,
                                        std::uint32_t sectors_per_cluster = 8);

 private:
  std::uint64_t ClusterFirstSector(std::uint32_t cluster) const;
  std::uint32_t ReadFatEntry(std::uint32_t cluster, Cycles* burn);
  void WriteFatEntry(std::uint32_t cluster, std::uint32_t value, Cycles* burn);
  std::uint32_t AllocCluster(Cycles* burn);  // zeroed; 0 if full
  void FreeChain(std::uint32_t first, Cycles* burn);
  // Walks `hops` links from `cluster`.
  std::uint32_t WalkChain(std::uint32_t cluster, std::uint32_t hops, Cycles* burn);
  // Appends a cluster to the chain ending at `last`; returns the new cluster.
  std::uint32_t ExtendChain(std::uint32_t last, Cycles* burn);

  struct RawEntry {
    std::uint8_t bytes[32];
  };
  // Iterates raw 32-byte entries of a directory, calling fn(sector, offset,
  // entry). fn returns true to stop. Returns whether it was stopped.
  bool ForEachRawEntry(const FatNode& dir,
                       const std::function<bool(std::uint64_t, std::uint32_t, RawEntry&)>& fn,
                       Cycles* burn);
  std::optional<FatDirEntryInfo> LookupInDir(const FatNode& dir, const std::string& name,
                                             FatNode* node_out, Cycles* burn);
  std::int64_t AddDirEntry(FatNode& dir, const std::string& name, std::uint8_t attr,
                           std::uint32_t first_cluster, std::uint32_t size, FatNode* out,
                           Cycles* burn);
  void UpdateDirent(const FatNode& f, Cycles* burn);
  std::optional<FatNode> LookupParent(const std::string& path, std::string* last, Cycles* burn);

  Bcache& bc_;
  int dev_;
  const KernelConfig& cfg_;
  bool mounted_ = false;
  std::uint32_t spc_ = 0;             // sectors per cluster
  std::uint32_t reserved_ = 0;        // reserved sectors
  std::uint32_t nfats_ = 0;
  std::uint32_t fat_sectors_ = 0;
  std::uint32_t root_cluster_ = 0;
  std::uint64_t total_sectors_ = 0;
  std::uint64_t data_start_ = 0;      // first data sector
  std::uint32_t cluster_count_ = 0;
  std::uint32_t alloc_hint_ = 3;
};

// 8.3 alias + LFN helpers (exposed for tests).
std::string FatMake83(const std::string& long_name, int dedup_index);
std::uint8_t FatLfnChecksum(const std::uint8_t* short_name11);
bool FatNameFits83(const std::string& name);

}  // namespace vos

#endif  // VOS_SRC_FS_FAT32_H_
