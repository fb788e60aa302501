#include "host.hpp"

#include <sys/resource.h>
#include <sys/vfs.h>
#include <time.h>
#include <unistd.h>

#include <cstdint>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

namespace perfbench {

long online_cpus() noexcept { return sysconf(_SC_NPROCESSORS_ONLN); }

std::string compiler() { return PERFBENCH_COMPILER; }

std::string build_type() { return PERFBENCH_BUILD_TYPE; }

std::string filesystem_of(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  const auto magic = static_cast<unsigned long>(fs.f_type);
  switch (magic) {
    case 0xEF53UL: return "ext4";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x2FC12FC1UL: return "zfs";
    case 0x6969UL: return "nfs";
    case 0x65735546UL: return "fuse";
    case 0x01021997UL: return "9p";
    default: break;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%lx", magic);
  return buf;
}

double peak_rss_mb() noexcept {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double process_cpu_s() noexcept {
  struct timespec ts {};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

std::uint64_t probe_kernel(std::vector<std::uint64_t>& buffer, std::uint64_t seed) {
  std::uint64_t x = seed;
  std::uint64_t acc = 0;
  for (int i = 0; i < 8'000'000; ++i) {
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    acc += z ^ (z >> 31);
  }
  for (int pass = 0; pass < 16; ++pass)
    for (std::size_t i = 0; i < buffer.size(); ++i) {
      buffer[i] += acc + i;
      acc ^= buffer[i];
    }
  return acc;
}

}  // namespace

double host_probe_s(std::size_t threads) {
  static std::vector<std::vector<std::uint64_t>> buffers;
  static volatile std::uint64_t sink = 0;
  if (threads == 0) threads = 1;
  if (buffers.size() < threads)
    buffers.resize(threads, std::vector<std::uint64_t>(std::size_t{1} << 19));  // 4 MiB
  std::vector<std::uint64_t> results(threads, 0);
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::jthread> helpers;
    for (std::size_t i = 1; i < threads; ++i)
      helpers.emplace_back([i, &results] { results[i] = probe_kernel(buffers[i], i); });
    results[0] = probe_kernel(buffers[0], 0);
  }
  const double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  for (const std::uint64_t r : results) sink = sink + r;
  return wall;
}

}  // namespace perfbench
