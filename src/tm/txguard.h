// Unwind-safe abort machinery: the TxCancel control-flow exception, the RAII
// unwind guard the engines hang their abort paths on, and the one retry driver
// that catches both.
//
// The paper's retry loops assume user code returns; a real service's user code
// throws. Any exception escaping a transaction body — a deliberate cancel or a
// foreign std::bad_alloc — must not unwind past held orec/val locks, the
// serial-irrevocable token (src/tm/serial.h), or half-reset attempt state, or
// the whole domain wedges (every later committer spins on the orphaned locks,
// every later escalation blocks on the orphaned token).
//
// Three pieces:
//
//   * TxCancel — a control-flow exception users throw (via CancelAndRetry /
//     CancelTx) to abort the current attempt compositionally, from arbitrarily
//     deep inside the body. The one retry driver, RunAtomically() below,
//     catches it, unwinds the attempt through the ordinary abort path, and
//     either retries the body (kRetry) or returns false to the caller
//     (kAbort). Foreign exceptions take the same unwind path but rethrow
//     after the attempt is cleanly aborted.
//
//   * TxUnwindGuard — a dismissible scope guard. A commit path constructs one
//     over "release my locks, finish the attempt as aborted" immediately after
//     the first acquire; every early `return false` AND every exception runs
//     the cleanup, and only the fully-committed tail Dismiss()es it. Guards
//     destruct in reverse construction order, which is exactly the unwind
//     ordering docs/VALIDATION.md §8 requires: locks restored before the gate
//     flag retracts, gate before the serial token releases.
//
//   * RunAtomically — the retry driver behind every Family::Full::Atomically.
//
// Cleanup callables must be noexcept in spirit: they run during unwind, where a
// second exception is std::terminate. The engines' release paths are plain
// atomic stores and satisfy this by construction (no fail-point sites are
// planted inside any abort/release path).
#ifndef SPECTM_TM_TXGUARD_H_
#define SPECTM_TM_TXGUARD_H_

#include <utility>

namespace spectm {

// Composable user-initiated abort. Thrown from inside a transaction body; the
// retry loop that owns the attempt catches it (never user code mid-body).
struct TxCancel {
  enum class Policy {
    kRetry,  // abort this attempt, re-run the body
    kAbort,  // abort and leave the retry loop (Atomically returns false)
  };
  Policy policy = Policy::kRetry;
};

// Abort the current attempt and retry it from the top.
[[noreturn]] inline void CancelAndRetry() { throw TxCancel{TxCancel::Policy::kRetry}; }

// Abort the current attempt and give up: the enclosing Atomically() returns
// false without having published anything.
[[noreturn]] inline void CancelTx() { throw TxCancel{TxCancel::Policy::kAbort}; }

// Dismissible scope guard: runs `cleanup` at scope exit unless Dismiss()ed.
template <typename Cleanup>
class TxUnwindGuard {
 public:
  explicit TxUnwindGuard(Cleanup cleanup) : cleanup_(std::move(cleanup)) {}
  ~TxUnwindGuard() {
    if (armed_) {
      cleanup_();
    }
  }

  TxUnwindGuard(const TxUnwindGuard&) = delete;
  TxUnwindGuard& operator=(const TxUnwindGuard&) = delete;

  // The success tail calls this after the last operation that can throw or
  // fail; from here on the attempt is committed and must not be unwound.
  void Dismiss() { armed_ = false; }

 private:
  Cleanup cleanup_;
  bool armed_ = true;
};

template <typename Cleanup>
TxUnwindGuard(Cleanup) -> TxUnwindGuard<Cleanup>;

// The retry driver behind both full engines' Atomically(): runs `body(tx)` on
// a fresh attempt until one commits. The body must tolerate re-execution and
// check tx.ok() before dereferencing read results.
//
// Exception contract: a TxCancel thrown anywhere inside the body aborts the
// attempt through the ordinary unwind path, then either retries
// (Policy::kRetry) or returns false with nothing published (Policy::kAbort).
// Any OTHER exception — a foreign throw from user code, or an injected fault
// erupting inside Commit itself — aborts the attempt the same way and
// rethrows, with every lock restored and the serial token released before the
// exception leaves this frame. Returns true iff a body execution committed.
template <typename Tx, typename Body>
bool RunAtomically(Body& body) {
  Tx tx;
  while (true) {
    try {
      tx.Start();
      body(tx);
      if (tx.Commit()) {
        return true;
      }
    } catch (const TxCancel& cancel) {
      tx.AbortForUnwind();
      if (cancel.policy == TxCancel::Policy::kAbort) {
        return false;
      }
    } catch (...) {
      tx.AbortForUnwind();
      throw;
    }
  }
}

}  // namespace spectm

#endif  // SPECTM_TM_TXGUARD_H_
