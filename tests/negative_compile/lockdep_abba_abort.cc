// Must-ABORT case for the configure-time lockdep liveness proof (try_run
// in the top-level CMakeLists.txt): this program seeds an ABBA lock-order
// inversion on one thread, across two instances of each class (a1 -> b1,
// then b2 -> a2). The two sequences share no mutex, so only a class-level
// order check sees the cycle; a race detector that tracks instances (TSan)
// does not. A live detector reports the inversion and aborts before the
// second sequence completes; if this program ever exits 0, lockdep has
// silently stopped detecting and the configure step fails.
//
// Single-TU harness: try_run cannot link project libraries at configure
// time, so the detector is compiled into this program directly.
#include "common/synchronization.h"

#include "common/lockdep.cc"  // NOLINT

int main() {
  using namespace couchkv;
  static_assert(lockdep::kEnabled,
                "liveness proof must compile with -DCOUCHKV_LOCKDEP");
  Mutex a1{"proof.abba_a"};
  Mutex a2{"proof.abba_a"};
  Mutex b1{"proof.abba_b"};
  Mutex b2{"proof.abba_b"};
  {
    LockGuard la(a1);
    LockGuard lb(b1);  // edge abba_a -> abba_b
  }
  {
    LockGuard lb(b2);
    LockGuard la(a2);  // inversion: lockdep must abort here
  }
  return 0;  // reaching this line means the detector is dead
}
