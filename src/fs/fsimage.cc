#include "src/fs/fsimage.h"

#include <cstring>

#include "src/apps/app_registry.h"
#include "src/base/assert.h"
#include "src/fs/bcache.h"
#include "src/fs/block_dev.h"
#include "src/fs/fat32.h"
#include "src/fs/xv6fs.h"
#include "src/kernel/velf.h"

namespace vos {

namespace {

// The image tools' disk: image bytes wherever they live (a vector, the SD
// card, the USB stick), read and written in place. It is not the card, so
// building an image moves none of the card's statistics.
class ImageDisk : public BlockDevice {
 public:
  explicit ImageDisk(std::span<std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint64_t block_count() const override { return bytes_.size() / kBlockSize; }
  BlockResult Read(std::uint64_t lba, std::uint32_t count, std::uint8_t* out) override {
    std::memcpy(out, Block(lba, count), std::size_t(count) * kBlockSize);
    return {};
  }
  BlockResult Write(std::uint64_t lba, std::uint32_t count, const std::uint8_t* in) override {
    std::memcpy(Block(lba, count), in, std::size_t(count) * kBlockSize);
    return {};
  }

 private:
  std::uint8_t* Block(std::uint64_t lba, std::uint32_t count) {
    VOS_CHECK_MSG(lba + count <= block_count(), "mkfs: image access out of range");
    return bytes_.data() + lba * kBlockSize;
  }

  std::span<std::uint8_t> bytes_;
};

// Creates every parent directory of `path` on the xv6 volume.
void Xv6MkdirParents(Xv6Fs& fs, const std::string& path, Cycles* burn) {
  std::vector<std::string> parts = SplitPath(path);
  std::string cur;
  for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
    cur += "/" + parts[i];
    if (fs.NameI(cur, burn) == nullptr) {
      std::int64_t err = 0;
      VOS_CHECK_MSG(fs.Create(cur, kXv6TDir, 0, 0, &err, burn) != nullptr,
                    "mkfs: mkdir failed");
    }
  }
}

void FatMkdirParents(FatVolume& fat, const std::string& path, Cycles* burn) {
  std::vector<std::string> parts = SplitPath(path);
  std::string cur;
  for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
    cur += "/" + parts[i];
    if (!fat.Lookup(cur, burn)) {
      VOS_CHECK_MSG(fat.Create(cur, /*is_dir=*/true, nullptr, burn) == 0,
                    "mkfs: FAT mkdir failed");
    }
  }
}

}  // namespace

std::vector<std::uint8_t> BuildRootImage(const FsSpec& extra, std::uint32_t fsblocks,
                                         std::uint32_t ninodes) {
  std::vector<std::uint8_t> image = Xv6Fs::Mkfs(fsblocks, ninodes);
  ImageDisk disk(image);
  KernelConfig cfg;  // cost model irrelevant at build time
  Bcache bc(cfg);
  int dev = bc.AddDevice(&disk);
  Xv6Fs fs(bc, dev, cfg);
  Cycles burn = 0;
  VOS_CHECK(fs.Mount(&burn) == 0);

  // /bin with one VELF per registered app.
  std::int64_t err = 0;
  VOS_CHECK(fs.Create("/bin", kXv6TDir, 0, 0, &err, &burn) != nullptr);
  AppRegistry& reg = AppRegistry::Instance();
  for (const std::string& name : reg.Names()) {
    std::vector<std::uint8_t> velf =
        BuildVelf(name, reg.CodeSize(name), {}, reg.HeapReserve(name));
    auto ip = fs.Create("/bin/" + name, kXv6TFile, 0, 0, &err, &burn);
    VOS_CHECK_MSG(ip != nullptr, "mkfs: creating /bin entry failed");
    std::int64_t w = fs.Writei(*ip, velf.data(), 0, static_cast<std::uint32_t>(velf.size()),
                               &burn);
    VOS_CHECK_MSG(w == static_cast<std::int64_t>(velf.size()), "mkfs: app write failed");
  }

  for (const std::string& d : extra.dirs) {
    Xv6MkdirParents(fs, d + "/x", &burn);
    if (fs.NameI(d, &burn) == nullptr) {
      VOS_CHECK(fs.Create(d, kXv6TDir, 0, 0, &err, &burn) != nullptr);
    }
  }
  for (const FsEntry& e : extra.files) {
    VOS_CHECK_MSG(e.data.size() <= std::size_t(kMaxFileBlocks) * kFsBlockSize,
                  "mkfs: file exceeds the xv6fs 268 KB limit; put it on the FAT partition");
    Xv6MkdirParents(fs, e.path, &burn);
    auto ip = fs.Create(e.path, kXv6TFile, 0, 0, &err, &burn);
    VOS_CHECK_MSG(ip != nullptr, "mkfs: creating file failed");
    std::int64_t w =
        fs.Writei(*ip, e.data.data(), 0, static_cast<std::uint32_t>(e.data.size()), &burn);
    VOS_CHECK_MSG(w == static_cast<std::int64_t>(e.data.size()), "mkfs: file write failed");
  }
  bc.FlushAll();  // write-back cache: push dirty blocks into the image
  return image;
}

void FormatFatVolume(std::span<std::uint8_t> volume, const FsSpec& spec) {
  FatVolume::Mkfs(volume);
  ImageDisk disk(volume);
  KernelConfig cfg;
  Bcache bc(cfg);
  int dev = bc.AddDevice(&disk);
  FatVolume fat(bc, dev, cfg);
  Cycles burn = 0;
  VOS_CHECK(fat.Mount(&burn) == 0);
  for (const std::string& d : spec.dirs) {
    FatMkdirParents(fat, d + "/x", &burn);
    if (!fat.Lookup(d, &burn)) {
      VOS_CHECK(fat.Create(d, /*is_dir=*/true, nullptr, &burn) == 0);
    }
  }
  for (const FsEntry& e : spec.files) {
    FatMkdirParents(fat, e.path, &burn);
    FatNode node;
    VOS_CHECK_MSG(fat.Create(e.path, /*is_dir=*/false, &node, &burn) == 0,
                  "mkfs: FAT create failed");
    std::int64_t w =
        fat.Write(node, e.data.data(), 0, static_cast<std::uint32_t>(e.data.size()), &burn);
    VOS_CHECK_MSG(w == static_cast<std::int64_t>(e.data.size()), "mkfs: FAT write failed");
  }
  bc.FlushAll();  // write-back cache: push dirty blocks into the volume
}

std::vector<std::uint8_t> BuildFatImage(std::uint64_t bytes, const FsSpec& spec) {
  std::vector<std::uint8_t> image(bytes / kBlockSize * kBlockSize);
  FormatFatVolume(image, spec);
  return image;
}

void ProvisionSdCard(SdCard& sd, const FsSpec& fat_files) {
  std::span<std::uint8_t> disk = sd.disk();
  VOS_CHECK_MSG(disk.size() >= MiB(8), "SD card too small to partition");

  constexpr std::uint64_t kPart1First = 64;      // kernel image region
  constexpr std::uint64_t kPart1Count = 2048;    // 1 MB
  const std::uint64_t part2_first = 4096;        // 2 MB in
  const std::uint64_t part2_count = disk.size() / kSdBlockSize - part2_first;

  // MBR with two primary partitions.
  std::uint8_t* mbr = disk.data();
  std::memset(mbr, 0, 512);
  auto entry = [&](int idx, std::uint8_t type, std::uint64_t first, std::uint64_t count) {
    std::uint8_t* e = mbr + 446 + idx * 16;
    e[4] = type;
    for (int i = 0; i < 4; ++i) {
      e[8 + i] = static_cast<std::uint8_t>(first >> (8 * i));
      e[12 + i] = static_cast<std::uint8_t>(count >> (8 * i));
    }
  };
  entry(0, 0x0c, kPart1First, kPart1Count);  // "kernel" partition
  entry(1, 0x0c, part2_first, part2_count);  // FAT32 user files
  mbr[510] = 0x55;
  mbr[511] = 0xaa;

  FormatFatVolume(disk.subspan(part2_first * kSdBlockSize, part2_count * kSdBlockSize),
                  fat_files);
}

}  // namespace vos
