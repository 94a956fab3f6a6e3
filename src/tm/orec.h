// Ownership records and the shared orec table (Figure 3(a)).
//
// An orec is one 64-bit word:
//   unlocked: (version << 1) | 0   — version incremented on every committed update
//   locked:   (TxDesc*   ) | 1     — body points to the owning transaction descriptor
//
// The shared-table layout hashes an arbitrary heap address to one of 2^kOrecTableLog2
// records. Distinct locations may collide on one orec ("false conflicts", §2.3); the
// engines must therefore tolerate re-locking an orec they already own.
#ifndef SPECTM_TM_OREC_H_
#define SPECTM_TM_OREC_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/common/tagged.h"
#include "src/tm/config.h"
#include "src/tm/txdesc.h"

namespace spectm {

constexpr bool OrecIsLocked(Word w) { return (w & kLockBit) != 0; }
constexpr Word OrecVersionOf(Word w) { return w >> 1; }
constexpr Word MakeOrecVersion(Word version) { return version << 1; }

inline TxDesc* OrecOwnerOf(Word w) {
  return reinterpret_cast<TxDesc*>(static_cast<std::uintptr_t>(w & ~kLockBit));
}

inline Word MakeOrecLocked(TxDesc* owner) {
  return static_cast<Word>(reinterpret_cast<std::uintptr_t>(owner)) | kLockBit;
}

// Global table of ownership records, indexed by a multiplicative (Fibonacci)
// hash of the data address. Never resized; shared by all transactional
// locations of its domain.
class OrecTable {
 public:
  explicit OrecTable(int log2_size = kOrecTableLog2)
      : shift_(64 - log2_size), orecs_(std::size_t{1} << log2_size) {}

  std::atomic<Word>& ForAddr(const void* addr) {
    auto x = static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(addr)) >> 3;
    x *= 0x9e3779b97f4a7c15ULL;  // Fibonacci hashing
    return orecs_[x >> shift_].word;
  }

  std::size_t Size() const { return orecs_.size(); }

 private:
  struct OrecCell {
    std::atomic<Word> word{0};
  };

  int shift_;
  std::vector<OrecCell> orecs_;
};

}  // namespace spectm

#endif  // SPECTM_TM_OREC_H_
