// Cache-line sizing and padding utilities.
//
// STM meta-data placement is the core subject of the paper (Figure 3): a shared orec
// table suffers extra cache-line transfers, while TVars and value-based words keep
// meta-data on the line already holding the data. Padding shared counters (the global
// clock, per-thread epochs) keeps that comparison honest by removing incidental false
// sharing from the runtime itself.
#ifndef SPECTM_COMMON_CACHELINE_H_
#define SPECTM_COMMON_CACHELINE_H_

#include <cstddef>
#include <new>
#include <utility>

namespace spectm {

// Hardcoded rather than std::hardware_destructive_interference_size: the constant must
// be ABI-stable across TUs, and 64 bytes is correct for every x86-64 and most AArch64
// parts (the paper's AMD Opteron and Intel Xeon machines both use 64-byte lines).
inline constexpr std::size_t kCacheLineSize = 64;

// Wraps a T so that it occupies at least one full cache line, preventing false sharing
// between adjacent instances (e.g. per-thread epoch slots in a contiguous array).
template <typename T>
struct alignas(kCacheLineSize) CacheAligned {
  T value{};

  CacheAligned() = default;
  template <typename... Args>
  explicit CacheAligned(Args&&... args) : value(std::forward<Args>(args)...) {}

  T* operator->() { return &value; }
  const T* operator->() const { return &value; }
  T& operator*() { return value; }
  const T& operator*() const { return value; }
};

// Pause instruction for spin loops: de-pipelines the spin and yields the core's
// resources to the sibling hyperthread (matters on the paper's 128-way SMT machine).
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  asm volatile("" ::: "memory");
#endif
}

// Prefetch hints: start pulling the line holding `p` toward L1 so a later
// access finds it cached. PrefetchForWrite asks for the line exclusive, for
// words about to be CAS-locked or stored. Neither has any semantic effect.
inline void Prefetch(const void* p) { __builtin_prefetch(p, 0, 3); }
inline void PrefetchForWrite(const void* p) { __builtin_prefetch(p, 1, 3); }

}  // namespace spectm

#endif  // SPECTM_COMMON_CACHELINE_H_
