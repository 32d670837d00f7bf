#include "src/fs/fat32.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <functional>

#include "src/base/assert.h"
#include "src/base/status.h"
#include "src/fs/xv6fs.h"  // SplitPath

namespace vos {

namespace {

std::uint16_t Rd16(const std::uint8_t* p) { return std::uint16_t(p[0] | (p[1] << 8)); }
std::uint32_t Rd32(const std::uint8_t* p) {
  return std::uint32_t(p[0]) | (std::uint32_t(p[1]) << 8) | (std::uint32_t(p[2]) << 16) |
         (std::uint32_t(p[3]) << 24);
}
void Wr16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}
void Wr32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

// Decodes the 11-byte 8.3 field to "NAME.EXT".
std::string Decode83(const std::uint8_t* f) {
  std::string base, ext;
  for (int i = 0; i < 8 && f[i] != ' '; ++i) {
    base.push_back(static_cast<char>(f[i]));
  }
  for (int i = 8; i < 11 && f[i] != ' '; ++i) {
    ext.push_back(static_cast<char>(f[i]));
  }
  return ext.empty() ? base : base + "." + ext;
}

bool EqualsIgnoreCase(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::toupper(static_cast<unsigned char>(a[i])) !=
        std::toupper(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool FatNameFits83(const std::string& name) {
  std::size_t dot = name.rfind('.');
  std::string base = dot == std::string::npos ? name : name.substr(0, dot);
  std::string ext = dot == std::string::npos ? "" : name.substr(dot + 1);
  if (base.empty() || base.size() > 8 || ext.size() > 3) {
    return false;
  }
  auto ok = [](const std::string& s) {
    for (char c : s) {
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '-') {
        return false;
      }
      if (std::islower(static_cast<unsigned char>(c))) {
        return false;
      }
    }
    return true;
  };
  return ok(base) && ok(ext) && base.find('.') == std::string::npos;
}

std::string FatMake83(const std::string& long_name, int dedup_index) {
  std::string base, ext;
  std::size_t dot = long_name.rfind('.');
  std::string b = dot == std::string::npos ? long_name : long_name.substr(0, dot);
  std::string e = dot == std::string::npos ? "" : long_name.substr(dot + 1);
  for (char c : b) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      base.push_back(static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
    }
    if (base.size() == 8) {
      break;
    }
  }
  if (base.empty()) {
    base = "FILE";
  }
  for (char c : e) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      ext.push_back(static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
    }
    if (ext.size() == 3) {
      break;
    }
  }
  std::string tail = "~" + std::to_string(dedup_index);
  if (base.size() + tail.size() > 8) {
    base = base.substr(0, 8 - tail.size());
  }
  base += tail;
  // Pack into the 11-char field form "BASE    EXT".
  std::string field(11, ' ');
  std::memcpy(field.data(), base.data(), base.size());
  std::memcpy(field.data() + 8, ext.data(), ext.size());
  return field;
}

std::uint8_t FatLfnChecksum(const std::uint8_t* short_name11) {
  std::uint8_t sum = 0;
  for (int i = 0; i < 11; ++i) {
    sum = static_cast<std::uint8_t>(((sum & 1) << 7) + (sum >> 1) + short_name11[i]);
  }
  return sum;
}

std::int64_t FatVolume::Mount(Cycles* burn) {
  std::uint8_t bpb[kBlockSize];
  BlockResult br = bc_.Device(dev_)->Read(0, 1, bpb);
  *burn += br.cycles;
  if (!br.ok()) {
    return kErrIo;
  }
  if (bpb[510] != 0x55 || bpb[511] != 0xaa) {
    return kErrIo;
  }
  if (Rd16(bpb + 11) != kBlockSize) {
    return kErrIo;
  }
  spc_ = bpb[13];
  reserved_ = Rd16(bpb + 14);
  nfats_ = bpb[16];
  fat_sectors_ = Rd32(bpb + 36);
  root_cluster_ = Rd32(bpb + 44);
  total_sectors_ = Rd32(bpb + 32);
  if (spc_ == 0 || nfats_ == 0 || fat_sectors_ == 0 || root_cluster_ < 2) {
    return kErrIo;
  }
  data_start_ = reserved_ + std::uint64_t(nfats_) * fat_sectors_;
  cluster_count_ = static_cast<std::uint32_t>((total_sectors_ - data_start_) / spc_);
  mounted_ = true;
  return 0;
}

FatNode FatVolume::Root() const {
  FatNode n;
  n.first_cluster = root_cluster_;
  n.is_dir = true;
  n.dirent_sector = 0;
  return n;
}

std::uint64_t FatVolume::ClusterFirstSector(std::uint32_t cluster) const {
  VOS_CHECK_MSG(cluster >= 2 && cluster < cluster_count_ + 2, "cluster out of range");
  return data_start_ + std::uint64_t(cluster - 2) * spc_;
}

std::uint32_t FatVolume::ReadFatEntry(std::uint32_t cluster, Cycles* burn) {
  *burn += cfg_.cost.fat_chain_step;
  std::uint64_t sector = reserved_ + (std::uint64_t(cluster) * 4) / kBlockSize;
  std::uint32_t off = (cluster * 4) % kBlockSize;
  Cycles c = 0;
  Buf* b = bc_.Read(dev_, sector, &c);
  *burn += c;
  if (b == nullptr) {
    // Unreadable FAT sector: pretend end-of-chain so walkers stop cleanly
    // instead of following garbage into a panic.
    return kFatEoc;
  }
  std::uint32_t v = Rd32(b->data.data() + off) & 0x0fffffff;
  bc_.Release(b);
  return v;
}

void FatVolume::WriteFatEntry(std::uint32_t cluster, std::uint32_t value, Cycles* burn) {
  for (std::uint32_t fat = 0; fat < nfats_; ++fat) {
    std::uint64_t sector =
        reserved_ + std::uint64_t(fat) * fat_sectors_ + (std::uint64_t(cluster) * 4) / kBlockSize;
    std::uint32_t off = (cluster * 4) % kBlockSize;
    Cycles c = 0;
    Buf* b = bc_.Read(dev_, sector, &c);
    *burn += c;
    if (b == nullptr) {
      continue;  // this FAT mirror is unreadable; keep the others current
    }
    Wr32(b->data.data() + off, value & 0x0fffffff);
    Cycles w = 0;
    bc_.Write(b, &w);
    bc_.Release(b);
    *burn += w;
  }
}

std::uint32_t FatVolume::AllocCluster(Cycles* burn) {
  for (std::uint32_t i = 0; i < cluster_count_; ++i) {
    std::uint32_t c = 2 + (alloc_hint_ - 2 + i) % cluster_count_;
    if (ReadFatEntry(c, burn) == kFatFree) {
      WriteFatEntry(c, kFatEoc, burn);
      alloc_hint_ = c + 1;
      // Zero the cluster (fresh directory/file data).
      std::vector<std::uint8_t> zero(std::size_t(spc_) * kBlockSize, 0);
      if (bc_.WriteRange(dev_, ClusterFirstSector(c), spc_, zero.data(), burn) < 0) {
        WriteFatEntry(c, kFatFree, burn);  // hand it back rather than serve garbage
        return 0;
      }
      return c;
    }
  }
  return 0;
}

void FatVolume::FreeChain(std::uint32_t first, Cycles* burn) {
  std::uint32_t c = first;
  while (c >= 2 && c < kFatEoc) {
    std::uint32_t next = ReadFatEntry(c, burn);
    WriteFatEntry(c, kFatFree, burn);
    c = next;
  }
}

std::uint32_t FatVolume::WalkChain(std::uint32_t cluster, std::uint32_t hops, Cycles* burn) {
  while (hops > 0 && cluster >= 2 && cluster < kFatEoc) {
    cluster = ReadFatEntry(cluster, burn);
    --hops;
  }
  return cluster;
}

std::uint32_t FatVolume::ExtendChain(std::uint32_t last, Cycles* burn) {
  std::uint32_t fresh = AllocCluster(burn);
  if (fresh == 0) {
    return 0;
  }
  if (last >= 2 && last < kFatEoc) {
    WriteFatEntry(last, fresh, burn);
  }
  return fresh;
}

bool FatVolume::ForEachRawEntry(
    const FatNode& dir,
    const std::function<bool(std::uint64_t, std::uint32_t, RawEntry&)>& fn, Cycles* burn) {
  std::uint32_t c = dir.first_cluster;
  while (c >= 2 && c < kFatEoc) {
    for (std::uint32_t s = 0; s < spc_; ++s) {
      std::uint64_t sector = ClusterFirstSector(c) + s;
      Cycles rc = 0;
      Buf* b = bc_.Read(dev_, sector, &rc);
      *burn += rc;
      if (b == nullptr) {
        return false;  // unreadable directory sector: stop the walk
      }
      for (std::uint32_t off = 0; off < kBlockSize; off += 32) {
        RawEntry e;
        std::memcpy(e.bytes, b->data.data() + off, 32);
        if (fn(sector, off, e)) {
          bc_.Release(b);
          return true;
        }
      }
      bc_.Release(b);
    }
    c = ReadFatEntry(c, burn);
  }
  return false;
}

std::optional<FatDirEntryInfo> FatVolume::LookupInDir(const FatNode& dir,
                                                      const std::string& name, FatNode* node_out,
                                                      Cycles* burn) {
  std::optional<FatDirEntryInfo> found;
  std::string lfn_accum;
  std::uint8_t lfn_checksum = 0;
  bool lfn_valid = false;

  ForEachRawEntry(
      dir,
      [&](std::uint64_t sector, std::uint32_t off, RawEntry& e) {
        std::uint8_t first = e.bytes[0];
        if (first == 0x00) {
          return true;  // end of directory
        }
        if (first == 0xe5) {
          lfn_valid = false;
          return false;  // deleted
        }
        std::uint8_t attr = e.bytes[11];
        if (attr == kFatAttrLfn) {
          std::uint8_t seq = first;
          if (seq & 0x40) {  // last (first physically) LFN entry
            lfn_accum.clear();
            lfn_checksum = e.bytes[13];
            lfn_valid = true;
          }
          if (!lfn_valid || e.bytes[13] != lfn_checksum) {
            lfn_valid = false;
            return false;
          }
          // Extract 13 UCS-2 chars; prepend (entries come highest-seq first).
          std::string part;
          static const int kOffsets[13] = {1, 3, 5, 7, 9, 14, 16, 18, 20, 22, 24, 28, 30};
          for (int i = 0; i < 13; ++i) {
            std::uint16_t ch = Rd16(e.bytes + kOffsets[i]);
            if (ch == 0 || ch == 0xffff) {
              break;
            }
            part.push_back(static_cast<char>(ch & 0xff));
          }
          lfn_accum = part + lfn_accum;
          return false;
        }
        if (attr & 0x08) {  // volume label
          lfn_valid = false;
          return false;
        }
        // Regular 8.3 entry; check LFN match first, then alias.
        std::string short_name = Decode83(e.bytes);
        bool match = false;
        if (lfn_valid && FatLfnChecksum(e.bytes) == lfn_checksum &&
            EqualsIgnoreCase(lfn_accum, name)) {
          match = true;
        } else if (EqualsIgnoreCase(short_name, name)) {
          match = true;
        }
        if (match) {
          FatDirEntryInfo info;
          info.name = (lfn_valid && !lfn_accum.empty()) ? lfn_accum : short_name;
          info.size = Rd32(e.bytes + 28);
          info.is_dir = (attr & kFatAttrDir) != 0;
          info.first_cluster =
              (std::uint32_t(Rd16(e.bytes + 20)) << 16) | Rd16(e.bytes + 26);
          found = info;
          if (node_out != nullptr) {
            node_out->first_cluster = info.first_cluster;
            node_out->size = info.size;
            node_out->is_dir = info.is_dir;
            node_out->dirent_sector = sector;
            node_out->dirent_offset = off;
          }
          return true;
        }
        lfn_valid = false;
        return false;
      },
      burn);
  return found;
}

std::optional<FatNode> FatVolume::Lookup(const std::string& path, Cycles* burn) {
  VOS_CHECK(mounted_);
  FatNode cur = Root();
  for (const std::string& part : SplitPath(path)) {
    *burn += cfg_.cost.namei_per_component;
    if (!cur.is_dir) {
      return std::nullopt;
    }
    FatNode next;
    if (!LookupInDir(cur, part, &next, burn)) {
      return std::nullopt;
    }
    cur = next;
  }
  return cur;
}

std::optional<FatNode> FatVolume::LookupParent(const std::string& path, std::string* last,
                                               Cycles* burn) {
  std::vector<std::string> parts = SplitPath(path);
  if (parts.empty()) {
    return std::nullopt;
  }
  *last = parts.back();
  FatNode cur = Root();
  for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
    FatNode next;
    if (!cur.is_dir || !LookupInDir(cur, parts[i], &next, burn)) {
      return std::nullopt;
    }
    cur = next;
  }
  return cur.is_dir ? std::optional<FatNode>(cur) : std::nullopt;
}

std::int64_t FatVolume::Read(const FatNode& f, std::uint8_t* out, std::uint32_t off,
                             std::uint32_t n, Cycles* burn) {
  VOS_CHECK(mounted_);
  if (f.is_dir) {
    return kErrIsDir;
  }
  if (off >= f.size) {
    return 0;
  }
  n = std::min(n, f.size - off);
  std::uint32_t cb = cluster_bytes();
  std::uint32_t done = 0;
  std::uint32_t c = WalkChain(f.first_cluster, off / cb, burn);
  std::uint32_t coff = off % cb;
  std::vector<std::uint8_t> temp;
  while (done < n && c >= 2 && c < kFatEoc) {
    // Grow a contiguous cluster run covering as much of the request as we can.
    std::uint32_t run = 1;
    std::uint32_t last = c;
    while (std::uint64_t(run) * cb - coff < n - done) {
      std::uint32_t next = ReadFatEntry(last, burn);
      if (next != last + 1) {
        break;
      }
      ++run;
      last = next;
    }
    std::uint64_t want = std::min<std::uint64_t>(n - done, std::uint64_t(run) * cb - coff);
    std::uint64_t sec_lo = coff / kBlockSize;
    std::uint64_t sec_hi = (coff + want + kBlockSize - 1) / kBlockSize;
    std::uint32_t nsec = static_cast<std::uint32_t>(sec_hi - sec_lo);
    temp.resize(std::size_t(nsec) * kBlockSize);
    if (bc_.ReadRange(dev_, ClusterFirstSector(c) + sec_lo, nsec, temp.data(), burn) < 0) {
      return done > 0 ? done : std::int64_t{kErrIo};
    }
    std::memcpy(out + done, temp.data() + (coff - sec_lo * kBlockSize), want);
    done += static_cast<std::uint32_t>(want);
    coff = 0;
    c = ReadFatEntry(last, burn);
  }
  return done;
}

std::int64_t FatVolume::Write(FatNode& f, const std::uint8_t* in, std::uint32_t off,
                              std::uint32_t n, Cycles* burn) {
  VOS_CHECK(mounted_);
  if (f.is_dir) {
    return kErrIsDir;
  }
  if (off > f.size) {
    return kErrInval;  // no holes, as in FatFS's f_lseek-extend-free behaviour
  }
  std::uint32_t cb = cluster_bytes();
  // Ensure the chain covers [0, off+n).
  std::uint32_t clusters_needed = (off + n + cb - 1) / cb;
  if (clusters_needed > 0 && f.first_cluster < 2) {
    f.first_cluster = AllocCluster(burn);
    if (f.first_cluster == 0) {
      return kErrNoSpace;
    }
    UpdateDirent(f, burn);
  }
  std::uint32_t have = 0;
  std::uint32_t last = 0;
  std::uint32_t c = f.first_cluster;
  while (c >= 2 && c < kFatEoc) {
    ++have;
    last = c;
    c = ReadFatEntry(c, burn);
  }
  while (have < clusters_needed) {
    std::uint32_t fresh = ExtendChain(last, burn);
    if (fresh == 0) {
      return kErrNoSpace;
    }
    last = fresh;
    ++have;
  }

  // Write the data, sector by sector with whole-sector runs batched.
  std::uint32_t done = 0;
  bool io_err = false;
  c = WalkChain(f.first_cluster, off / cb, burn);
  std::uint32_t coff = off % cb;
  while (done < n) {
    if (!(c >= 2 && c < kFatEoc)) {
      io_err = true;  // chain ended early (unreadable FAT sector)
      break;
    }
    std::uint64_t sector = ClusterFirstSector(c) + coff / kBlockSize;
    std::uint32_t soff = coff % kBlockSize;
    std::uint32_t take = std::min(n - done, kBlockSize - soff);
    if (soff == 0 && take == kBlockSize) {
      // Batch contiguous whole sectors within this cluster.
      std::uint32_t sectors_here = std::min((n - done) / kBlockSize, spc_ - coff / kBlockSize);
      if (bc_.WriteRange(dev_, sector, sectors_here, in + done, burn) < 0) {
        io_err = true;
        break;
      }
      done += sectors_here * kBlockSize;
      coff += sectors_here * kBlockSize;
    } else {
      // Read-modify-write a partial sector through the cache.
      Cycles rc = 0;
      Buf* b = bc_.Read(dev_, sector, &rc);
      *burn += rc;
      if (b == nullptr) {
        io_err = true;
        break;
      }
      std::memcpy(b->data.data() + soff, in + done, take);
      Cycles wc = 0;
      std::int64_t werr = bc_.Write(b, &wc);
      bc_.Release(b);
      *burn += wc;
      if (werr < 0) {
        io_err = true;
        break;
      }
      done += take;
      coff += take;
    }
    if (coff >= cb) {
      coff = 0;
      c = ReadFatEntry(c, burn);
    }
  }
  if (off + done > f.size) {
    f.size = off + done;
    UpdateDirent(f, burn);
  }
  if (io_err && done == 0) {
    return kErrIo;
  }
  return done;
}

void FatVolume::UpdateDirent(const FatNode& f, Cycles* burn) {
  if (f.dirent_sector == 0) {
    return;  // root
  }
  Cycles rc = 0;
  Buf* b = bc_.Read(dev_, f.dirent_sector, &rc);
  *burn += rc;
  if (b == nullptr) {
    return;  // best-effort: the dirent keeps its stale size/cluster
  }
  std::uint8_t* e = b->data.data() + f.dirent_offset;
  Wr16(e + 20, static_cast<std::uint16_t>(f.first_cluster >> 16));
  Wr16(e + 26, static_cast<std::uint16_t>(f.first_cluster & 0xffff));
  Wr32(e + 28, f.is_dir ? 0 : f.size);
  Cycles wc = 0;
  bc_.Write(b, &wc);
  bc_.Release(b);
  *burn += wc;
}

std::int64_t FatVolume::AddDirEntry(FatNode& dir, const std::string& name, std::uint8_t attr,
                                    std::uint32_t first_cluster, std::uint32_t size, FatNode* out,
                                    Cycles* burn) {
  if (name.empty() || name.size() > 255) {
    return kErrNameTooLong;
  }
  bool needs_lfn = !FatNameFits83(name);
  std::string short11;
  if (needs_lfn) {
    // Dedup the alias against existing entries.
    for (int i = 1; i < 100; ++i) {
      short11 = FatMake83(name, i);
      std::string alias = Decode83(reinterpret_cast<const std::uint8_t*>(short11.data()));
      Cycles dummy = 0;
      if (!LookupInDir(dir, alias, nullptr, &dummy)) {
        break;
      }
    }
  } else {
    short11.assign(11, ' ');
    std::size_t dot = name.rfind('.');
    std::string base = dot == std::string::npos ? name : name.substr(0, dot);
    std::string ext = dot == std::string::npos ? "" : name.substr(dot + 1);
    std::memcpy(short11.data(), base.data(), base.size());
    std::memcpy(short11.data() + 8, ext.data(), ext.size());
  }
  std::uint32_t lfn_entries =
      needs_lfn ? static_cast<std::uint32_t>((name.size() + 12) / 13) : 0;
  std::uint32_t slots_needed = lfn_entries + 1;

  // Find a run of free slots; remember (sector, offset) pairs.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> run;
  ForEachRawEntry(
      dir,
      [&](std::uint64_t sector, std::uint32_t off, RawEntry& e) {
        std::uint8_t first = e.bytes[0];
        if (first == 0x00 || first == 0xe5) {
          run.emplace_back(sector, off);
          return run.size() >= slots_needed;
        }
        run.clear();
        return false;
      },
      burn);

  while (run.size() < slots_needed) {
    // Extend the directory with a fresh zeroed cluster and use its slots.
    std::uint32_t last = dir.first_cluster;
    std::uint32_t c = last;
    while (c >= 2 && c < kFatEoc) {
      last = c;
      c = ReadFatEntry(c, burn);
    }
    std::uint32_t fresh = ExtendChain(last, burn);
    if (fresh == 0) {
      return kErrNoSpace;
    }
    for (std::uint32_t s = 0; s < spc_ && run.size() < slots_needed; ++s) {
      for (std::uint32_t off = 0; off < kBlockSize && run.size() < slots_needed; off += 32) {
        run.emplace_back(ClusterFirstSector(fresh) + s, off);
      }
    }
  }

  const auto* s11 = reinterpret_cast<const std::uint8_t*>(short11.data());
  std::uint8_t checksum = FatLfnChecksum(s11);
  bool slot_err = false;
  auto write_slot = [&](std::size_t slot, const std::uint8_t* bytes) {
    Cycles rc = 0;
    Buf* b = bc_.Read(dev_, run[slot].first, &rc);
    *burn += rc;
    if (b == nullptr) {
      slot_err = true;
      return;
    }
    std::memcpy(b->data.data() + run[slot].second, bytes, 32);
    Cycles wc = 0;
    if (bc_.Write(b, &wc) < 0) {
      slot_err = true;
    }
    bc_.Release(b);
    *burn += wc;
  };

  // LFN entries, highest sequence first.
  for (std::uint32_t i = 0; i < lfn_entries; ++i) {
    std::uint32_t seq = lfn_entries - i;  // this slot's sequence number
    std::uint8_t e[32];
    std::memset(e, 0xff, sizeof(e));
    e[0] = static_cast<std::uint8_t>(seq | (i == 0 ? 0x40 : 0));
    e[11] = kFatAttrLfn;
    e[12] = 0;
    e[13] = checksum;
    Wr16(e + 26, 0);
    static const int kOffsets[13] = {1, 3, 5, 7, 9, 14, 16, 18, 20, 22, 24, 28, 30};
    for (int ci = 0; ci < 13; ++ci) {
      std::size_t src = std::size_t(seq - 1) * 13 + std::size_t(ci);
      std::uint16_t ch;
      if (src < name.size()) {
        ch = static_cast<std::uint8_t>(name[src]);
      } else if (src == name.size()) {
        ch = 0x0000;
      } else {
        ch = 0xffff;
      }
      Wr16(e + kOffsets[ci], ch);
    }
    write_slot(i, e);
  }
  // 8.3 entry.
  std::uint8_t e[32] = {};
  std::memcpy(e, s11, 11);
  e[11] = attr;
  Wr16(e + 20, static_cast<std::uint16_t>(first_cluster >> 16));
  Wr16(e + 26, static_cast<std::uint16_t>(first_cluster & 0xffff));
  Wr32(e + 28, (attr & kFatAttrDir) ? 0 : size);
  write_slot(lfn_entries, e);
  if (slot_err) {
    return kErrIo;
  }

  if (out != nullptr) {
    out->first_cluster = first_cluster;
    out->size = (attr & kFatAttrDir) ? 0 : size;
    out->is_dir = (attr & kFatAttrDir) != 0;
    out->dirent_sector = run[lfn_entries].first;
    out->dirent_offset = run[lfn_entries].second;
  }
  return 0;
}

std::int64_t FatVolume::Create(const std::string& path, bool is_dir, FatNode* out, Cycles* burn) {
  VOS_CHECK(mounted_);
  std::string name;
  auto parent = LookupParent(path, &name, burn);
  if (!parent) {
    return kErrNoEnt;
  }
  if (LookupInDir(*parent, name, nullptr, burn)) {
    return kErrExist;
  }
  std::uint32_t first = 0;
  if (is_dir) {
    first = AllocCluster(burn);
    if (first == 0) {
      return kErrNoSpace;
    }
  }
  std::int64_t r = AddDirEntry(*parent, name,
                               is_dir ? kFatAttrDir : kFatAttrArchive, first, 0, out, burn);
  if (r < 0 && first != 0) {
    FreeChain(first, burn);
  }
  return r;
}

std::int64_t FatVolume::Unlink(const std::string& path, Cycles* burn) {
  VOS_CHECK(mounted_);
  std::string name;
  auto parent = LookupParent(path, &name, burn);
  if (!parent) {
    return kErrNoEnt;
  }
  FatNode node;
  if (!LookupInDir(*parent, name, &node, burn)) {
    return kErrNoEnt;
  }
  if (node.is_dir) {
    // Only empty directories.
    auto entries = ReadDir(node, burn);
    if (!entries.empty()) {
      return kErrNotEmpty;
    }
  }
  // Mark the 8.3 entry and its preceding LFN run deleted. We re-walk the
  // directory, tracking the LFN run in front of each 8.3 entry, and match by
  // dirent location.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> lfn_run;
  auto mark_deleted = [&](std::uint64_t sector, std::uint32_t off) {
    Cycles rc = 0;
    Buf* b = bc_.Read(dev_, sector, &rc);
    *burn += rc;
    if (b == nullptr) {
      return;  // the entry survives; nothing worse than a leaked chain
    }
    b->data[off] = 0xe5;
    Cycles wc = 0;
    bc_.Write(b, &wc);
    bc_.Release(b);
    *burn += wc;
  };
  ForEachRawEntry(
      *parent,
      [&](std::uint64_t sector, std::uint32_t off, RawEntry& e) {
        std::uint8_t first = e.bytes[0];
        if (first == 0x00) {
          return true;
        }
        if (first == 0xe5) {
          lfn_run.clear();
          return false;
        }
        if (e.bytes[11] == kFatAttrLfn) {
          lfn_run.emplace_back(sector, off);
          return false;
        }
        if (sector == node.dirent_sector && off == node.dirent_offset) {
          for (const auto& [ls, lo] : lfn_run) {
            mark_deleted(ls, lo);
          }
          mark_deleted(sector, off);
          return true;
        }
        lfn_run.clear();
        return false;
      },
      burn);
  if (node.first_cluster >= 2) {
    FreeChain(node.first_cluster, burn);
  }
  return 0;
}

std::int64_t FatVolume::Truncate(FatNode& f, Cycles* burn) {
  if (f.is_dir) {
    return kErrIsDir;
  }
  if (f.first_cluster >= 2) {
    FreeChain(f.first_cluster, burn);
  }
  f.first_cluster = 0;
  f.size = 0;
  UpdateDirent(f, burn);
  return 0;
}

std::vector<FatDirEntryInfo> FatVolume::ReadDir(const FatNode& dir, Cycles* burn) {
  std::vector<FatDirEntryInfo> out;
  std::string lfn_accum;
  std::uint8_t lfn_checksum = 0;
  bool lfn_valid = false;
  ForEachRawEntry(
      dir,
      [&](std::uint64_t, std::uint32_t, RawEntry& e) {
        std::uint8_t first = e.bytes[0];
        if (first == 0x00) {
          return true;
        }
        if (first == 0xe5) {
          lfn_valid = false;
          return false;
        }
        std::uint8_t attr = e.bytes[11];
        if (attr == kFatAttrLfn) {
          if (first & 0x40) {
            lfn_accum.clear();
            lfn_checksum = e.bytes[13];
            lfn_valid = true;
          }
          if (lfn_valid && e.bytes[13] == lfn_checksum) {
            std::string part;
            static const int kOffsets[13] = {1, 3, 5, 7, 9, 14, 16, 18, 20, 22, 24, 28, 30};
            for (int i = 0; i < 13; ++i) {
              std::uint16_t ch = Rd16(e.bytes + kOffsets[i]);
              if (ch == 0 || ch == 0xffff) {
                break;
              }
              part.push_back(static_cast<char>(ch & 0xff));
            }
            lfn_accum = part + lfn_accum;
          }
          return false;
        }
        if (attr & 0x08) {
          lfn_valid = false;
          return false;
        }
        FatDirEntryInfo info;
        bool lfn_ok = lfn_valid && FatLfnChecksum(e.bytes) == lfn_checksum;
        info.name = lfn_ok && !lfn_accum.empty() ? lfn_accum : Decode83(e.bytes);
        info.size = Rd32(e.bytes + 28);
        info.is_dir = (attr & kFatAttrDir) != 0;
        info.first_cluster = (std::uint32_t(Rd16(e.bytes + 20)) << 16) | Rd16(e.bytes + 26);
        out.push_back(info);
        lfn_valid = false;
        return false;
      },
      burn);
  return out;
}

std::uint32_t FatVolume::FreeClusters(Cycles* burn) {
  std::uint32_t n = 0;
  for (std::uint32_t c = 2; c < cluster_count_ + 2; ++c) {
    if (ReadFatEntry(c, burn) == kFatFree) {
      ++n;
    }
  }
  return n;
}

std::vector<std::uint8_t> FatVolume::Mkfs(std::uint64_t total_bytes,
                                          std::uint32_t sectors_per_cluster) {
  std::vector<std::uint8_t> img(total_bytes / kBlockSize * kBlockSize);
  Mkfs(img, sectors_per_cluster);
  return img;
}

void FatVolume::Mkfs(std::span<std::uint8_t> image, std::uint32_t sectors_per_cluster) {
  std::uint64_t total_sectors = image.size() / kBlockSize;
  std::uint32_t reserved = 32;
  std::uint32_t nfats = 2;
  // Iterate to a consistent FAT size: each FAT sector covers 128 clusters.
  std::uint32_t fat_sectors = 1;
  for (int iter = 0; iter < 16; ++iter) {
    std::uint64_t data = total_sectors - reserved - std::uint64_t(nfats) * fat_sectors;
    std::uint32_t clusters = static_cast<std::uint32_t>(data / sectors_per_cluster);
    std::uint32_t need = (clusters + 2) / 128 + 1;
    if (need == fat_sectors) {
      break;
    }
    fat_sectors = need;
  }
  // Reserved sectors, both FATs and the root directory's cluster.
  std::uint64_t layout_sectors =
      reserved + std::uint64_t(nfats) * fat_sectors + sectors_per_cluster;
  VOS_CHECK_MSG(layout_sectors <= total_sectors, "mkfs: FAT volume too small");
  std::memset(image.data(), 0, layout_sectors * kBlockSize);
  std::uint8_t* bpb = image.data();
  bpb[0] = 0xeb;
  bpb[1] = 0x58;
  bpb[2] = 0x90;
  std::memcpy(bpb + 3, "VOSFAT32", 8);
  Wr16(bpb + 11, kBlockSize);
  bpb[13] = static_cast<std::uint8_t>(sectors_per_cluster);
  Wr16(bpb + 14, static_cast<std::uint16_t>(reserved));
  bpb[16] = static_cast<std::uint8_t>(nfats);
  bpb[21] = 0xf8;  // media descriptor
  Wr32(bpb + 32, static_cast<std::uint32_t>(total_sectors));
  Wr32(bpb + 36, fat_sectors);
  Wr32(bpb + 44, 2);  // root cluster
  Wr16(bpb + 48, 1);  // FSInfo sector
  std::memcpy(bpb + 82, "FAT32   ", 8);
  bpb[510] = 0x55;
  bpb[511] = 0xaa;
  // FSInfo.
  std::uint8_t* fsi = image.data() + kBlockSize;
  Wr32(fsi, 0x41615252);
  Wr32(fsi + 484, 0x61417272);
  Wr32(fsi + 488, 0xffffffff);  // free count unknown
  Wr32(fsi + 492, 0xffffffff);
  fsi[510] = 0x55;
  fsi[511] = 0xaa;
  // FATs: entries 0,1 reserved; root cluster 2 = EOC.
  for (std::uint32_t fat = 0; fat < nfats; ++fat) {
    std::uint8_t* f = image.data() + (std::size_t(reserved) + std::size_t(fat) * fat_sectors) *
                      kBlockSize;
    Wr32(f, 0x0ffffff8);
    Wr32(f + 4, 0x0fffffff);
    Wr32(f + 8, 0x0fffffff);  // root dir chain: single cluster
  }
}

}  // namespace vos
