#include "src/vos/system.h"

#include "src/apps/mario.h"
#include "src/base/assert.h"
#include "src/base/status.h"
#include "src/kernel/velf.h"
#include "src/media/vmv.h"
#include "src/media/vog.h"
#include "src/media/wav.h"
#include "src/ulib/giflite.h"
#include "src/ulib/pnglite.h"

namespace vos {

FsSpec System::MakeMediaAssets(std::uint32_t video_w, std::uint32_t video_h, int frames) {
  FsSpec spec;
  // Music: a synthesized melody, ADPCM-compressed, with PNG cover art.
  {
    Image cover;
    cover.width = 64;
    cover.height = 64;
    cover.pixels.resize(64 * 64);
    for (std::uint32_t y = 0; y < 64; ++y) {
      for (std::uint32_t x = 0; x < 64; ++x) {
        cover.pixels[y * 64 + x] = Rgb(static_cast<std::uint8_t>(x * 4),
                                       static_cast<std::uint8_t>(y * 4), 160);
      }
    }
    WavData wav = SynthesizeMelody(44100, 44100 * 2, 2);  // 2 seconds
    spec.files.push_back(FsEntry{
        "/music/track1.vog",
        VogEncode(wav.samples.data(), wav.frames(), wav.channels, wav.sample_rate,
                  PngEncode(cover))});
  }
  // Video: an encoded synthetic scene.
  {
    VmvEncodeOptions opt;
    opt.fps = 30;
    VmvEncoder enc(video_w, video_h, opt);
    for (const YuvFrame& f : SynthesizeScene(video_w, video_h, frames)) {
      enc.AddFrame(f);
    }
    spec.files.push_back(FsEntry{"/videos/clip480.vmv", enc.Finish()});
  }
  // Slides: BMP + PNG + a tiny animated GIF.
  {
    auto make_slide = [](std::uint32_t tint) {
      Image img;
      img.width = 160;
      img.height = 120;
      img.pixels.resize(std::size_t(160) * 120);
      for (std::uint32_t y = 0; y < 120; ++y) {
        for (std::uint32_t x = 0; x < 160; ++x) {
          img.pixels[y * 160 + x] =
              0xff000000u | (tint & 0x00ffffffu) | ((x * y / 64) & 0x3f);
        }
      }
      return img;
    };
    spec.files.push_back(FsEntry{"/slides/s1.bmp", BmpEncode(make_slide(0x402000))});
    spec.files.push_back(FsEntry{"/slides/s2.png", PngEncode(make_slide(0x004020))});
    std::vector<Image> gif_frames = {make_slide(0x000040), make_slide(0x200040)};
    spec.files.push_back(FsEntry{"/slides/s3.gif", GifEncode(gif_frames, 50)});
  }
  return spec;
}

System::System(SystemOptions opt) : opt_(std::move(opt)) {
  BoardConfig bc;
  bc.cores = opt_.cores;
  bc.dram_size = opt_.dram_size;
  bc.sd_capacity = opt_.sd_capacity;
  bc.real_hardware = opt_.real_hardware;
  bc.usb_keyboard_present = opt_.usb_keyboard;
  bc.usb_storage_present = opt_.usb_storage;
  bc.usb_storage_capacity = opt_.usb_storage_capacity;
  bc.game_hat_present = opt_.game_hat;
  board_ = std::make_unique<Board>(bc);

  KernelConfig kc = MakeConfig(opt_.stage, opt_.platform, opt_.os);
  kc.cores = opt_.cores;
  kc.fb_width = opt_.fb_width;
  kc.fb_height = opt_.fb_height;
  if (opt_.config_hook) {
    opt_.config_hook(kc);
  }
  kernel_ = std::make_unique<Kernel>(*board_, kc);

  if (kc.HasFiles()) {
    // Root image: apps in /bin, the rc script, the mario ROM, small slides.
    FsSpec root = opt_.extra_root;
    root.files.push_back(
        FsEntry{"/etc/rc", std::vector<std::uint8_t>{}});
    std::string rc = "echo vos: rc script running\n";
    root.files.back().data.assign(rc.begin(), rc.end());
    std::string lvl = MarioEngine::BuiltinLevel();
    root.files.push_back(FsEntry{"/roms/world1.lvl",
                                 std::vector<std::uint8_t>(lvl.begin(), lvl.end())});
    kernel_->SetRamdiskImage(BuildRootImage(root));
  } else if (kc.HasVm()) {
    // Prototype 3: file-less exec blobs bundled with the kernel image.
    for (const char* name : {"hello", "mario", "donut"}) {
      kernel_->AddBootBlob(
          name, BuildVelf(name, AppRegistry::Instance().CodeSize(name), {},
                          AppRegistry::Instance().HeapReserve(name)));
    }
  }
  if (opt_.usb_storage) {
    // Superfloppy format: the FAT volume starts at LBA 0, as thumb drives
    // commonly ship.
    FormatFatVolume(board_->usb_storage()->disk(), opt_.usb_stick);
  }
  if (kc.HasSd()) {
    FsSpec fat = opt_.extra_fat;
    if (opt_.with_media_assets) {
      FsSpec media =
          MakeMediaAssets(opt_.media_video_w, opt_.media_video_h, opt_.media_video_frames);
      for (FsEntry& e : media.files) {
        fat.files.push_back(std::move(e));
      }
    }
    ProvisionSdCard(board_->sd(), fat);
  }

  boot_report_ = kernel_->Boot();
}

System::~System() = default;

Task* System::Start(const std::string& name, const std::vector<std::string>& extra_args) {
  std::vector<std::string> argv = {name};
  for (const std::string& a : extra_args) {
    argv.push_back(a);
  }
  return kernel_->StartUserProgram("/bin/" + name, argv);
}

std::int64_t System::WaitProgram(Task* t, Cycles timeout) {
  VOS_CHECK(t != nullptr);
  Pid pid = t->pid();
  Cycles deadline = board_->clock().now() + timeout;
  while (board_->clock().now() < deadline) {
    Task* cur = kernel_->FindTask(pid);
    if (cur == nullptr) {
      return kErrNoEnt;  // reaped elsewhere
    }
    if (cur->state == TaskState::kZombie) {
      return kernel_->ReapZombie(pid);
    }
    Cycles before = board_->clock().now();
    kernel_->RunFor(std::min<Cycles>(Ms(50), deadline - before));
    if (board_->clock().now() == before) {
      // Machine fully idle with nothing pending: the task is stuck.
      break;
    }
  }
  Task* cur = kernel_->FindTask(pid);
  if (cur != nullptr && cur->state == TaskState::kZombie) {
    return kernel_->ReapZombie(pid);
  }
  return kErrAgain;
}

std::int64_t System::RunProgram(const std::string& name,
                                const std::vector<std::string>& extra_args, Cycles timeout) {
  return WaitProgram(Start(name, extra_args), timeout);
}

void System::KeyDown(std::uint8_t hid_code, std::uint8_t modifiers) {
  board_->keyboard().KeyDown(hid_code, modifiers);
}

void System::KeyUp(std::uint8_t hid_code) { board_->keyboard().KeyUp(hid_code); }

void System::TapKey(std::uint8_t hid_code, std::uint8_t modifiers, Cycles hold) {
  KeyDown(hid_code, modifiers);
  Run(hold);
  KeyUp(hid_code);
  Run(Ms(20));
}

void System::PressHatButton(unsigned pin) { board_->gpio().PressButton(pin); }
void System::ReleaseHatButton(unsigned pin) { board_->gpio().ReleaseButton(pin); }

Image System::Screenshot() const {
  Image img;
  const FramebufferHw& fb = board_->fb();
  if (!fb.allocated()) {
    return img;
  }
  img.width = fb.width();
  img.height = fb.height();
  img.pixels.assign(fb.scanout_pixels(),
                    fb.scanout_pixels() + std::size_t(fb.width()) * fb.height());
  return img;
}

}  // namespace vos
