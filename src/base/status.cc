#include "src/base/status.h"

namespace vos {

const char* ErrName(std::int64_t e) {
  if (e >= 0) {
    return "OK";
  }
  switch (e) {
    case kErrPerm:
      return "EPERM";
    case kErrNoEnt:
      return "ENOENT";
    case kErrIntr:
      return "EINTR";
    case kErrIo:
      return "EIO";
    case kErrBadFd:
      return "EBADF";
    case kErrNoMem:
      return "ENOMEM";
    case kErrFault:
      return "EFAULT";
    case kErrExist:
      return "EEXIST";
    case kErrNotDir:
      return "ENOTDIR";
    case kErrIsDir:
      return "EISDIR";
    case kErrInval:
      return "EINVAL";
    case kErrNFile:
      return "ENFILE";
    case kErrMFile:
      return "EMFILE";
    case kErrFBig:
      return "EFBIG";
    case kErrNoSpace:
      return "ENOSPC";
    case kErrPipe:
      return "EPIPE";
    case kErrNameTooLong:
      return "ENAMETOOLONG";
    case kErrNotEmpty:
      return "ENOTEMPTY";
    case kErrWouldBlock:  // == kErrAgain, as on Linux
      return "EAGAIN";
    case kErrNoSys:
      return "ENOSYS";
    case kErrChild:
      return "ECHILD";
    case kErrXDev:
      return "EXDEV";
    case kErrRange:
      return "ERANGE";
    default:
      return "E?";
  }
}

}  // namespace vos
