// Runs a one-off test program inside a booted System: the register-and-run
// helper every boot-level test shares.
#ifndef VOS_TESTS_RUN_IN_OS_H_
#define VOS_TESTS_RUN_IN_OS_H_

#include <cstdint>
#include <string>
#include <utility>

#include "src/apps/app_registry.h"
#include "src/base/assert.h"
#include "src/fs/xv6fs.h"
#include "src/kernel/velf.h"
#include "src/vos/system.h"

namespace vos {

// Registers `main_fn` as `name` plus a serial number, injects its image as a
// kernel boot blob (the ramdisk was built before this registration), and
// starts it. The app registry is one per process and refuses a name twice,
// so the serial is one per process too: each test file keeping its own
// counter collides with the others when the suite runs as one process.
// Every later boot packs each registered app into /bin, so a name that does
// not fit a directory entry would break every System built after it.
inline Task* StartInOs(System& sys, const std::string& name, AppMain main_fn,
                       std::uint64_t heap = 4 << 20) {
  static int serial = 0;
  std::string unique = name + std::to_string(serial++);
  VOS_CHECK_MSG(unique.size() <= kDirNameLen, "test app name too long for a /bin entry");
  AppRegistry::Instance().Register(unique, std::move(main_fn), 1024, heap);
  sys.kernel().AddBootBlob(unique, BuildVelf(unique, 1024, {}, heap));
  return sys.kernel().StartUserProgram(unique, {unique});
}

// StartInOs, then runs the machine until the program exits. Returns its exit
// code (kErrAgain if it is still running after 300 s of virtual time).
inline int RunInOs(System& sys, const std::string& name, AppMain main_fn,
                   std::uint64_t heap = 4 << 20) {
  return static_cast<int>(sys.WaitProgram(StartInOs(sys, name, std::move(main_fn), heap)));
}

}  // namespace vos

#endif  // VOS_TESTS_RUN_IN_OS_H_
