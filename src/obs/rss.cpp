#include "obs/rss.hpp"

#include <unistd.h>

#include <cstdio>
#include <cstring>

namespace nonmask::obs {

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  unsigned long long kib = 0;
  bool found = false;
  while (!found && std::fgets(line, sizeof(line), f) != nullptr) {
    found = std::strncmp(line, "VmHWM:", 6) == 0 &&
            std::sscanf(line + 6, "%llu", &kib) == 1;
  }
  std::fclose(f);
  return found ? static_cast<double>(kib) / 1024.0 : 0.0;  // kB = KiB
}

double current_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long long vm_pages = 0, rss_pages = 0;
  const int matched = std::fscanf(f, "%llu %llu", &vm_pages, &rss_pages);
  std::fclose(f);
  if (matched != 2) return 0.0;
  const long page = ::sysconf(_SC_PAGESIZE);
  return static_cast<double>(rss_pages) *
         static_cast<double>(page > 0 ? page : 4096) / (1024.0 * 1024.0);
}

}  // namespace nonmask::obs
