#ifndef TPA_UTIL_CACHE_INFO_H_
#define TPA_UTIL_CACHE_INFO_H_

#include <cstddef>

namespace tpa {

/// Size in bytes of the last-level data cache of cpu0, read from the Linux
/// sysfs cache topology (`/sys/devices/system/cpu/cpu0/cache/index*/`).
/// Falls back to `fallback_bytes` when the topology is unreadable (non-Linux
/// hosts, restricted containers).  Benchmarks record it in their host
/// fingerprint and size their working sets against it; no serving path
/// reads it.
size_t DetectLastLevelCacheBytes(size_t fallback_bytes = 8ull << 20);

}  // namespace tpa

#endif  // TPA_UTIL_CACHE_INFO_H_
