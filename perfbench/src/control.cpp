#include "control.hpp"

#include <new>
#include <stdexcept>

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

namespace perfbench {

namespace {

Control* map_file(const std::filesystem::path& file, bool create) {
  const int fd = ::open(file.c_str(), create ? (O_RDWR | O_CREAT | O_TRUNC)
                                             : O_RDWR,
                        0600);
  if (fd < 0) {
    throw std::runtime_error("control file: cannot open " + file.string());
  }
  if (create && ::ftruncate(fd, sizeof(Control)) != 0) {
    ::close(fd);
    throw std::runtime_error("control file: cannot size " + file.string());
  }
  void* p = ::mmap(nullptr, sizeof(Control), PROT_READ | PROT_WRITE,
                   MAP_SHARED, fd, 0);
  ::close(fd);
  if (p == MAP_FAILED) {
    throw std::runtime_error("control file: cannot map " + file.string());
  }
  return create ? new (p) Control() : static_cast<Control*>(p);
}

}  // namespace

ControlMap ControlMap::create(const std::filesystem::path& file) {
  return ControlMap(map_file(file, true));
}

ControlMap ControlMap::attach(const std::filesystem::path& file) {
  return ControlMap(map_file(file, false));
}

ControlMap::~ControlMap() {
  if (ctl_ != nullptr) ::munmap(ctl_, sizeof(Control));
}

}  // namespace perfbench
