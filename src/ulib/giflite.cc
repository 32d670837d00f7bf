#include "src/ulib/giflite.h"

#include <cstring>
#include <map>

namespace vos {

namespace {

class LzwBitReader {
 public:
  LzwBitReader(const std::uint8_t* d, std::size_t n) : d_(d), n_(n) {}
  std::optional<int> Bits(int width) {
    int v = 0;
    for (int i = 0; i < width; ++i) {
      if (pos_ >= n_) {
        return std::nullopt;
      }
      v |= ((d_[pos_] >> bit_) & 1) << i;
      if (++bit_ == 8) {
        bit_ = 0;
        ++pos_;
      }
    }
    return v;
  }

 private:
  const std::uint8_t* d_;
  std::size_t n_;
  std::size_t pos_ = 0;
  int bit_ = 0;
};

class LzwBitWriter {
 public:
  void Bits(int v, int width) {
    for (int i = 0; i < width; ++i) {
      cur_ |= ((v >> i) & 1) << bit_;
      if (++bit_ == 8) {
        out_.push_back(cur_);
        cur_ = 0;
        bit_ = 0;
      }
    }
  }
  std::vector<std::uint8_t> Finish() {
    if (bit_ != 0) {
      out_.push_back(cur_);
    }
    return std::move(out_);
  }

 private:
  std::vector<std::uint8_t> out_;
  std::uint8_t cur_ = 0;
  int bit_ = 0;
};

}  // namespace

std::optional<std::vector<std::uint8_t>> GifLzwDecode(const std::uint8_t* data, std::size_t len,
                                                      int min_code_size, std::size_t max_out) {
  if (min_code_size < 2 || min_code_size > 8) {
    return std::nullopt;
  }
  const int clear_code = 1 << min_code_size;
  const int eoi_code = clear_code + 1;
  LzwBitReader br(data, len);
  std::vector<std::vector<std::uint8_t>> table;
  auto reset_table = [&] {
    table.clear();
    for (int i = 0; i < clear_code; ++i) {
      table.push_back({static_cast<std::uint8_t>(i)});
    }
    table.push_back({});  // clear
    table.push_back({});  // eoi
  };
  reset_table();
  int code_width = min_code_size + 1;
  std::vector<std::uint8_t> out;
  int prev = -1;
  for (;;) {
    auto code = br.Bits(code_width);
    if (!code) {
      return std::nullopt;
    }
    if (*code == clear_code) {
      reset_table();
      code_width = min_code_size + 1;
      prev = -1;
      continue;
    }
    if (*code == eoi_code) {
      break;
    }
    std::vector<std::uint8_t> entry;
    if (*code < static_cast<int>(table.size())) {
      entry = table[static_cast<std::size_t>(*code)];
    } else if (*code == static_cast<int>(table.size()) && prev >= 0) {
      entry = table[static_cast<std::size_t>(prev)];
      entry.push_back(table[static_cast<std::size_t>(prev)][0]);
    } else {
      return std::nullopt;
    }
    if (out.size() + entry.size() > max_out) {
      return std::nullopt;
    }
    out.insert(out.end(), entry.begin(), entry.end());
    if (prev >= 0 && table.size() < 4096) {
      std::vector<std::uint8_t> fresh = table[static_cast<std::size_t>(prev)];
      fresh.push_back(entry[0]);
      table.push_back(std::move(fresh));
      // The decoder's table lags the encoder's by one add, so it widens one
      // entry earlier than the encoder's next_code == (1<<width) rule.
      if (static_cast<int>(table.size()) == (1 << code_width) - 1 && code_width < 12) {
        ++code_width;
      }
    }
    prev = *code;
  }
  return out;
}

std::vector<std::uint8_t> GifLzwEncode(const std::uint8_t* indices, std::size_t len,
                                       int min_code_size) {
  const int clear_code = 1 << min_code_size;
  const int eoi_code = clear_code + 1;
  LzwBitWriter bw;
  std::map<std::vector<std::uint8_t>, int> table;
  int next_code = eoi_code + 1;
  int code_width = min_code_size + 1;
  auto reset = [&] {
    table.clear();
    for (int i = 0; i < clear_code; ++i) {
      // Keys arrive in ascending order, so end() is the exact hint. (GCC 12's
      // -Wstringop-overread misfires on operator[] here.)
      table.emplace_hint(table.end(), std::vector<std::uint8_t>(1, static_cast<std::uint8_t>(i)),
                         i);
    }
    next_code = eoi_code + 1;
    code_width = min_code_size + 1;
  };
  reset();
  bw.Bits(clear_code, code_width);
  std::vector<std::uint8_t> w;
  for (std::size_t i = 0; i < len; ++i) {
    std::vector<std::uint8_t> wk = w;
    wk.push_back(indices[i]);
    if (table.count(wk)) {
      w = std::move(wk);
      continue;
    }
    bw.Bits(table.at(w), code_width);
    if (next_code < 4096) {
      table[wk] = next_code++;
      if (next_code == (1 << code_width) && code_width < 12) {
        ++code_width;
      }
    } else {
      bw.Bits(clear_code, code_width);
      reset();
    }
    w = {indices[i]};
  }
  if (!w.empty()) {
    bw.Bits(table.at(w), code_width);
  }
  bw.Bits(eoi_code, code_width);
  return bw.Finish();
}

std::optional<GifAnimation> GifDecode(const std::uint8_t* data, std::size_t len) {
  if (len < 13 || std::memcmp(data, "GIF8", 4) != 0) {
    return std::nullopt;
  }
  GifAnimation anim;
  anim.width = data[6] | (data[7] << 8);
  anim.height = data[8] | (data[9] << 8);
  std::uint8_t packed = data[10];
  std::size_t pos = 13;
  std::uint32_t palette[256] = {};
  int gct_size = 0;
  if (packed & 0x80) {
    gct_size = 2 << (packed & 7);
    if (pos + std::size_t(gct_size) * 3 > len) {
      return std::nullopt;
    }
    for (int i = 0; i < gct_size; ++i) {
      palette[i] = 0xff000000u | (std::uint32_t(data[pos]) << 16) |
                   (std::uint32_t(data[pos + 1]) << 8) | data[pos + 2];
      pos += 3;
    }
  }
  std::uint32_t delay_ms = 100;
  while (pos < len) {
    std::uint8_t block = data[pos++];
    if (block == 0x3b) {  // trailer
      break;
    }
    if (block == 0x21) {  // extension
      if (pos + 1 > len) {
        return std::nullopt;
      }
      std::uint8_t label = data[pos++];
      if (label == 0xf9 && pos + 6 <= len && data[pos] == 4) {
        delay_ms = (data[pos + 2] | (data[pos + 3] << 8)) * 10;
      }
      // Skip sub-blocks.
      while (pos < len && data[pos] != 0) {
        pos += data[pos] + 1;
      }
      ++pos;
      continue;
    }
    if (block != 0x2c) {  // image descriptor expected
      return std::nullopt;
    }
    if (pos + 9 > len) {
      return std::nullopt;
    }
    std::uint32_t ix = data[pos] | (data[pos + 1] << 8);
    std::uint32_t iy = data[pos + 2] | (data[pos + 3] << 8);
    std::uint32_t iw = data[pos + 4] | (data[pos + 5] << 8);
    std::uint32_t ih = data[pos + 6] | (data[pos + 7] << 8);
    std::uint8_t ipacked = data[pos + 8];
    pos += 9;
    if (ipacked & 0x40) {
      return std::nullopt;  // interlaced unsupported
    }
    const std::uint32_t* pal = palette;
    std::uint32_t local_pal[256];
    if (ipacked & 0x80) {
      int lct = 2 << (ipacked & 7);
      if (pos + std::size_t(lct) * 3 > len) {
        return std::nullopt;
      }
      for (int i = 0; i < lct; ++i) {
        local_pal[i] = 0xff000000u | (std::uint32_t(data[pos]) << 16) |
                       (std::uint32_t(data[pos + 1]) << 8) | data[pos + 2];
        pos += 3;
      }
      pal = local_pal;
    }
    if (pos >= len) {
      return std::nullopt;
    }
    int min_code = data[pos++];
    std::vector<std::uint8_t> lzw;
    while (pos < len && data[pos] != 0) {
      std::uint8_t n = data[pos++];
      if (pos + n > len) {
        return std::nullopt;
      }
      lzw.insert(lzw.end(), data + pos, data + pos + n);
      pos += n;
    }
    ++pos;  // block terminator
    auto indices = GifLzwDecode(lzw.data(), lzw.size(), min_code,
                                std::size_t(anim.width) * anim.height + 16);
    if (!indices || indices->size() < std::size_t(iw) * ih) {
      return std::nullopt;
    }
    Image frame;
    frame.width = anim.width;
    frame.height = anim.height;
    // Start from the previous frame (GIF "do not dispose" composition).
    if (!anim.frames.empty()) {
      frame.pixels = anim.frames.back().pixels;
    } else {
      frame.pixels.assign(std::size_t(anim.width) * anim.height, 0xff000000u);
    }
    for (std::uint32_t y = 0; y < ih && iy + y < anim.height; ++y) {
      for (std::uint32_t x = 0; x < iw && ix + x < anim.width; ++x) {
        frame.pixels[std::size_t(iy + y) * anim.width + ix + x] =
            pal[(*indices)[std::size_t(y) * iw + x]];
      }
    }
    anim.frames.push_back(std::move(frame));
    anim.delays_ms.push_back(delay_ms);
  }
  if (anim.frames.empty()) {
    return std::nullopt;
  }
  return anim;
}

std::vector<std::uint8_t> GifEncode(const std::vector<Image>& frames, std::uint32_t delay_ms) {
  if (frames.empty()) {
    return {};
  }
  std::uint32_t w = frames[0].width, h = frames[0].height;
  // Global palette: 3:3:2 RGB cube (256 entries) — a real quantizer choice.
  std::vector<std::uint8_t> out;
  out.insert(out.end(), {'G', 'I', 'F', '8', '9', 'a'});
  out.push_back(static_cast<std::uint8_t>(w));
  out.push_back(static_cast<std::uint8_t>(w >> 8));
  out.push_back(static_cast<std::uint8_t>(h));
  out.push_back(static_cast<std::uint8_t>(h >> 8));
  out.push_back(0xf7);  // GCT present, 256 entries
  out.push_back(0);
  out.push_back(0);
  for (int i = 0; i < 256; ++i) {
    out.push_back(static_cast<std::uint8_t>(((i >> 5) & 7) * 255 / 7));  // R
    out.push_back(static_cast<std::uint8_t>(((i >> 2) & 7) * 255 / 7));  // G
    out.push_back(static_cast<std::uint8_t>((i & 3) * 255 / 3));         // B
  }
  for (const Image& img : frames) {
    // Graphic control extension with the delay.
    out.insert(out.end(), {0x21, 0xf9, 4, 0});
    std::uint16_t ds = static_cast<std::uint16_t>(delay_ms / 10);
    out.push_back(static_cast<std::uint8_t>(ds));
    out.push_back(static_cast<std::uint8_t>(ds >> 8));
    out.insert(out.end(), {0, 0});
    // Image descriptor.
    out.push_back(0x2c);
    out.insert(out.end(), {0, 0, 0, 0});
    out.push_back(static_cast<std::uint8_t>(w));
    out.push_back(static_cast<std::uint8_t>(w >> 8));
    out.push_back(static_cast<std::uint8_t>(h));
    out.push_back(static_cast<std::uint8_t>(h >> 8));
    out.push_back(0);  // no LCT
    // Quantize to 3:3:2.
    std::vector<std::uint8_t> idx(std::size_t(w) * h);
    for (std::size_t i = 0; i < idx.size(); ++i) {
      std::uint32_t px = img.pixels[i];
      idx[i] = static_cast<std::uint8_t>((((px >> 16) & 0xff) >> 5 << 5) |
                                         (((px >> 8) & 0xff) >> 5 << 2) | ((px & 0xff) >> 6));
    }
    out.push_back(8);  // min code size
    std::vector<std::uint8_t> lzw = GifLzwEncode(idx.data(), idx.size(), 8);
    for (std::size_t off = 0; off < lzw.size(); off += 255) {
      std::uint8_t n = static_cast<std::uint8_t>(std::min<std::size_t>(255, lzw.size() - off));
      out.push_back(n);
      out.insert(out.end(), lzw.begin() + off, lzw.begin() + off + n);
    }
    out.push_back(0);
  }
  out.push_back(0x3b);
  return out;
}

}  // namespace vos
