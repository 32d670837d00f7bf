// Filesystem image builders — the build pipeline's mkfs tools (§3 "OS
// image"): the root xv6fs ramdisk packing every user program as a VELF
// executable under /bin, and the SD card with an MBR partition table and a
// FAT32 partition 2 holding user media files. Population goes through the
// real filesystem write paths, so the builders double as integration tests.
// FAT volumes are built in place where they live (the card, the USB stick),
// so only the blocks a volume writes touch the device's memory.
#ifndef VOS_SRC_FS_FSIMAGE_H_
#define VOS_SRC_FS_FSIMAGE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/hw/sd_card.h"

namespace vos {

struct FsEntry {
  std::string path;  // absolute within the volume, e.g. "/roms/world1.lvl"
  std::vector<std::uint8_t> data;
};

struct FsSpec {
  std::vector<std::string> dirs;
  std::vector<FsEntry> files;
};

// Builds the root ramdisk image: an xv6fs of `fsblocks` 1 KB blocks with
// /bin/<app> VELF executables for every registered app, plus `extra` content.
std::vector<std::uint8_t> BuildRootImage(const FsSpec& extra, std::uint32_t fsblocks = 6144,
                                         std::uint32_t ninodes = 256);

// Formats the SD card: MBR with a small partition 1 (kernel image region) and
// a FAT32 partition 2 spanning the rest, populated with `fat_files` in place
// on the card's bytes. The card's statistics do not move.
void ProvisionSdCard(SdCard& sd, const FsSpec& fat_files);

// Formats `volume` as FAT32 and populates it with `spec`, in place.
void FormatFatVolume(std::span<std::uint8_t> volume, const FsSpec& spec);

// Builds a standalone FAT32 volume image (exposed for tests).
std::vector<std::uint8_t> BuildFatImage(std::uint64_t bytes, const FsSpec& spec);

}  // namespace vos

#endif  // VOS_SRC_FS_FSIMAGE_H_
