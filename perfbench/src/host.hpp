#pragma once
// Host and build provenance, plus the process resource probes.

#include <cstddef>
#include <string>

namespace perfbench {

/// Online processors as the OS reports them.
[[nodiscard]] long online_cpus() noexcept;
/// Compiler id and version the benchmark was built with.
[[nodiscard]] std::string compiler();
/// CMake build type of the benchmark and the library it links.
[[nodiscard]] std::string build_type();
/// Filesystem type of `path` (e.g. "ext4", "tmpfs", "overlayfs"), or the
/// statfs magic in hex when unknown, or "unknown" when statfs fails.
[[nodiscard]] std::string filesystem_of(const std::string& path);

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb() noexcept;
/// CPU time consumed by all threads of this process, in seconds.
[[nodiscard]] double process_cpu_s() noexcept;

/// Wall seconds a fixed probe of host speed takes on `threads` threads at
/// once (the caller and threads - 1 helpers), each running an integer-hash
/// loop plus passes over its own 4 MiB buffer. It runs no hpcpower code, so
/// no change to the program can move it.
[[nodiscard]] double host_probe_s(std::size_t threads);

}  // namespace perfbench
