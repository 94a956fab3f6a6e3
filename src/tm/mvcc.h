// Bounded multi-version chains for the `val` layout (MVCC snapshot reads).
//
// Every committing writer displaces one word per written slot; the MVCC layer
// threads those displaced values onto a per-slot chain of VersionNode, newest
// first, each stamped with the commit-clock index of the commit that displaced
// it (the flock `persistent_ptr` idiom: publish the link first, resolve the
// stamp with a lazy CAS). A read-only transaction that pinned snapshot S then
// reads, per slot, either the current word (newest stamp <= S) or the newest
// chain node whose validity interval [floor, stamp) contains S — no
// validation, no sandwiching, no aborts.
//
// Interval invariants (immutable once a node is reachable):
//   * node.floor  = stamp of the node it was pushed over (0 for the first) —
//     the commit index at which node.word became the slot's current value.
//   * node.stamp  = commit index of the commit that displaced node.word;
//     kUnstamped only transiently, while the pushing writer still holds the
//     slot's commit lock. chain invariant: node.next.stamp == node.floor.
//   * An aborted publish (throw between push and stamp CAS) is repaired by
//     stamping the node with its own floor — an empty interval no snapshot
//     ever selects — never by popping, since a concurrent reader may already
//     hold the pointer (TombstoneUnstampedHead).
//
// Reclamation: a node can no longer be SELECTED by any snapshot reader once
// stamp <= done_stamp (EpochManager::SnapshotDoneStamp — the minimum pinned
// snapshot, bounded by a pre-scan clock sample); such nodes are recycled
// at once into the per-thread pool, and chain-bound overflow
// drops (stamp > done_stamp) park on a deferred list until the done stamp
// catches up. Selection-dead is not touch-dead — a reader that loaded a chain
// pointer just before the unlink may still dereference the node — so a
// recycled node is reused only two epochs after its unlink, and memory only
// returns to the allocator through the epoch manager's Retire; snapshot
// transactions hold an epoch Guard for their pinned duration.
// docs/VALIDATION.md §10 carries the full argument.
#ifndef SPECTM_TM_MVCC_H_
#define SPECTM_TM_MVCC_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "src/common/failpoint.h"
#include "src/common/tagged.h"
#include "src/epoch/epoch.h"

namespace spectm {
namespace mvcc {

// Sentinel stamp for a half-published node (pushing writer still holds the
// slot lock). Also conveniently greater than every real snapshot.
inline constexpr Word kUnstamped = ~Word{0};

// Chain-length bound: a push that would grow a chain past this drops the tail
// suffix (readers whose snapshot predates the surviving floor detect the
// truncation — deepest floor > S — and fall back).
inline constexpr int kMaxVersions = 8;

struct VersionNode {
  std::atomic<Word> stamp{kUnstamped};      // displaced at this commit index
  Word floor = 0;                           // became current at this index
  Word word = 0;                            // the displaced value
  std::atomic<VersionNode*> next{nullptr};  // next-older version
};

struct DeferredNode {
  VersionNode* node;
  Word stamp;
};

namespace internal {

// Deferred nodes from exited threads. Intentionally leaked (reachable after
// TLS destructors) and drained opportunistically by live pools.
struct Spill {
  std::mutex mu;
  std::vector<DeferredNode> nodes;
};

inline Spill& GlobalSpill() {
  static Spill* s = new Spill;
  return *s;
}

}  // namespace internal

// Per-thread node allocator. Recycle() is only legal for nodes proven
// unreachable-for-SELECTION (stamp <= done_stamp at unlink, or never
// published); anything else goes through Defer() and waits for the done
// stamp. Selection-dead is weaker than touch-dead: a snapshot reader that
// loaded a chain pointer just before the unlink may still dereference the
// node, and if the node had meanwhile been reused — as another slot's head,
// say — it would read that slot's stamp, floor and word. The free list is
// therefore epoch-gated: a recycled node waits in FIFO order until the
// global epoch has advanced twice past its unlink, by which time every
// snapshot transaction that could hold its pointer (each holds an epoch
// Guard while pinned) has finished. Every path that returns memory to the
// allocator goes through the epoch manager's Retire for the same reason.
class NodePool {
 public:
  static constexpr std::size_t kMaxFree = 256;

  VersionNode* Acquire() {
    if (!free_.empty() &&
        free_.front().epoch + 2 <= GlobalEpochManager().GlobalEpoch()) {
      VersionNode* n = free_.front().node;
      free_.pop_front();
      return n;
    }
    return new VersionNode;
  }

  void Recycle(VersionNode* n) {
    n->stamp.store(kUnstamped, std::memory_order_relaxed);
    n->next.store(nullptr, std::memory_order_relaxed);
    if (free_.size() < kMaxFree) {
      // The epoch must be read after the unlink is visible (standard EBR):
      // a stale, smaller epoch would let the node's reuse overtake a reader
      // that entered after that epoch and still holds the pointer.
      std::atomic_thread_fence(std::memory_order_seq_cst);
      free_.push_back(FreeNode{n, GlobalEpochManager().GlobalEpoch()});
    } else {
      EpochManager& mgr = GlobalEpochManager();
      EpochManager::Guard g(mgr);
      mgr.Retire(n);
    }
  }

  void Defer(VersionNode* n, Word stamp) { deferred_.push_back(DeferredNode{n, stamp}); }

  // Recycles deferred nodes whose stamp the done stamp has passed, then makes
  // the same sweep over the cold global spill (try-lock: contention means
  // someone else is already draining).
  void DrainDeferred(Word done_stamp) {
    for (std::size_t i = 0; i < deferred_.size();) {
      if (deferred_[i].stamp <= done_stamp) {
        Recycle(deferred_[i].node);
        deferred_[i] = deferred_.back();
        deferred_.pop_back();
      } else {
        ++i;
      }
    }
    internal::Spill& spill = internal::GlobalSpill();
    std::unique_lock<std::mutex> lock(spill.mu, std::try_to_lock);
    if (!lock.owns_lock()) {
      return;
    }
    EpochManager& mgr = GlobalEpochManager();
    EpochManager::Guard g(mgr);
    for (std::size_t i = 0; i < spill.nodes.size();) {
      if (spill.nodes[i].stamp <= done_stamp) {
        mgr.Retire(spill.nodes[i].node);
        spill.nodes[i] = spill.nodes.back();
        spill.nodes.pop_back();
      } else {
        ++i;
      }
    }
  }

  std::size_t DeferredCount() const { return deferred_.size(); }

  ~NodePool() {
    // Runs from a TLS destructor: the epoch manager's own thread cache may
    // already be torn down, so no Enter/Retire here. Free-list nodes may
    // still be transiently dereferenced by a reader that loaded a chain
    // pointer just before their unlink (stamp 0 = selection-dead at once),
    // so they join the spill too and a live pool's DrainDeferred retires
    // them through the epoch manager. The spill itself is reachable-forever
    // by design, so anything no thread drains stays reachable, not leaked.
    if (free_.empty() && deferred_.empty()) {
      return;
    }
    internal::Spill& spill = internal::GlobalSpill();
    std::lock_guard<std::mutex> lock(spill.mu);
    for (const FreeNode& f : free_) {
      spill.nodes.push_back(DeferredNode{f.node, 0});
    }
    spill.nodes.insert(spill.nodes.end(), deferred_.begin(), deferred_.end());
  }

 private:
  struct FreeNode {
    VersionNode* node;
    std::uint64_t epoch;  // global epoch read after the node's unlink
  };

  std::deque<FreeNode> free_;  // oldest first: reuse order is epoch order
  std::vector<DeferredNode> deferred_;
};

inline NodePool& Pool() {
  thread_local NodePool pool;
  return pool;
}

// The epoch manager carrying the snapshot-pin registry (and done stamp) for
// the val-layout MVCC domain. Snapshot transactions pin here; version
// reclamation bounds itself here.
inline EpochManager& MvccEpoch() { return GlobalEpochManager(); }

struct PublishStats {
  int retired = 0;   // nodes unlinked (recycled or deferred)
  int splices = 0;   // chain truncation operations
};

// Unlinks the suffix starting at `n` (already detached from the chain) and
// reclaims it: provably-dead nodes recycle now, the rest defer.
inline void ReclaimSuffix(VersionNode* n, Word done_stamp, NodePool& pool,
                          PublishStats* stats) {
  while (n != nullptr) {
    VersionNode* next = n->next.load(std::memory_order_relaxed);
    const Word st = n->stamp.load(std::memory_order_relaxed);
    // Schedule point (PR 9): a node leaving the chain while snapshot readers
    // may still be traversing toward it.
    SPECTM_SCHED_POINT(failpoint::Site::kVersionRetire);
    if (st <= done_stamp) {
      pool.Recycle(n);
    } else {
      pool.Defer(n, st);
    }
    ++stats->retired;
    n = next;
  }
}

// Walks the chain under `head` (the slot's current head, lock held by the
// caller) and truncates at the first node the done stamp has passed, or at
// the kMaxVersions bound, whichever comes first.
inline void TrimChain(VersionNode* head, Word done_stamp, NodePool& pool,
                      PublishStats* stats) {
  int len = 1;
  VersionNode* prev = head;
  VersionNode* n = head->next.load(std::memory_order_relaxed);
  while (n != nullptr) {
    const Word st = n->stamp.load(std::memory_order_relaxed);
    if (st <= done_stamp || len >= kMaxVersions) {
      prev->next.store(nullptr, std::memory_order_release);
      ++stats->splices;
      ReclaimSuffix(n, done_stamp, pool, stats);
      return;
    }
    prev = n;
    n = n->next.load(std::memory_order_relaxed);
    ++len;
  }
}

// Publishes `displaced` as the newest version under `head_ref` and stamps it
// with `commit_idx` (the publishing commit's clock index), then bounds the
// chain. The caller holds the slot's commit lock for the whole call, which is
// what makes the head unstamped-window exclusive to us.
inline void PublishVersion(std::atomic<VersionNode*>& head_ref, Word displaced,
                           Word commit_idx, Word done_stamp, NodePool& pool,
                           PublishStats* stats) {
  VersionNode* head = head_ref.load(std::memory_order_relaxed);
  VersionNode* n = pool.Acquire();
  // A reachable head is always stamped: its pusher stamped it (or tombstoned
  // it on abort) before releasing the lock we now hold.
  n->floor = (head != nullptr) ? head->stamp.load(std::memory_order_relaxed) : 0;
  assert(n->floor != kUnstamped && "chain head left unstamped by a previous owner");
  n->word = displaced;
  n->stamp.store(kUnstamped, std::memory_order_relaxed);
  n->next.store(head, std::memory_order_relaxed);
  head_ref.store(n, std::memory_order_release);
  // The flock-style lazy-stamp window: the link is public, the stamp is not.
  // Snapshot readers that meet the unstamped head retry (the slot is locked);
  // a throw here unwinds into TombstoneUnstampedHead via the commit guard.
  SPECTM_FAILPOINT_PAUSE(failpoint::Site::kVersionPublish);
  Word expected = kUnstamped;
  n->stamp.compare_exchange_strong(expected, commit_idx, std::memory_order_acq_rel);
  TrimChain(n, done_stamp, pool, stats);
}

// Abort-path repair for a throw inside the publish window: an unstamped head
// under a still-held slot lock is ours. Stamp it with its own floor — the
// empty interval [floor, floor) that no snapshot ever selects — and leave it
// chained for normal splicing to reclaim. Popping instead would free a node a
// concurrent reader may already hold a pointer to.
inline void TombstoneUnstampedHead(std::atomic<VersionNode*>& head_ref) {
  VersionNode* head = head_ref.load(std::memory_order_relaxed);
  if (head != nullptr && head->stamp.load(std::memory_order_relaxed) == kUnstamped) {
    head->stamp.store(head->floor, std::memory_order_release);
  }
}

// Chain length (test support; caller must exclude concurrent pushes).
inline int ChainLength(const std::atomic<VersionNode*>& head_ref) {
  int len = 0;
  for (VersionNode* n = head_ref.load(std::memory_order_acquire); n != nullptr;
       n = n->next.load(std::memory_order_acquire)) {
    ++len;
  }
  return len;
}

}  // namespace mvcc
}  // namespace spectm

#endif  // SPECTM_TM_MVCC_H_
