// OS-visible names for the threads src/ spawns. Each spawn site calls
// SetThreadName as the first statement of its thread function, so the name
// shows up in /proc/self/task/*/comm, `top -H`, `ps -L` and gdb's
// `info threads`. The names are listed in DESIGN.md "Threading model".
#ifndef COUCHKV_COMMON_THREAD_NAME_H_
#define COUCHKV_COMMON_THREAD_NAME_H_

#include <pthread.h>

#include <cstddef>

namespace couchkv::common {

// Names the calling thread. Linux caps a thread name at 15 characters plus
// the terminator and rejects a longer one, so the limit is checked on the
// literal at compile time.
template <std::size_t N>
inline void SetThreadName(const char (&name)[N]) {
  static_assert(N <= 16, "thread names are limited to 15 characters");
  pthread_setname_np(pthread_self(), name);
}

}  // namespace couchkv::common

#endif  // COUCHKV_COMMON_THREAD_NAME_H_
