#pragma once

// Clang thread-safety-analysis vocabulary for the whole tree
// (docs/static_analysis.md, "Thread-safety annotations").
//
// Every lock-holding seam — util::ThreadPool, the sweep/parallel_for error
// funnel, core::PlanCache, the gf::shared_field memo — declares its mutex
// as util::Mutex and its shared state with PFAR_GUARDED_BY, so Clang's
// -Wthread-safety -Wthread-safety-beta (the PFAR_THREAD_SAFETY CMake
// toggle, enforced as errors by the thread-safety CI job) proves at
// compile time that no guarded field is ever touched without its lock.
// Under GCC every macro expands to nothing and util::Mutex is a plain
// std::mutex wrapper; behavior is identical either way.
//
// Condition variables pair with util::Mutex via
// std::condition_variable_any, waiting on the Mutex itself (a
// BasicLockable). The analysis treats the wait call as opaque — the lock
// is held before and after, which is exactly the invariant the caller
// relies on.
//
// Subsystems that are single-writer BY DESIGN (obsv Tracer/Metrics/
// Recorder, service::AllreduceService's virtual-clock loop, simnet's cycle
// loop) carry no locks on purpose: their no-concurrent-access discipline
// is enforced structurally (a run and its recorder belong to the one
// thread that calls it; CI fails if a simnet source includes
// util/thread_pool.hpp) and checked dynamically by the TSan CI job, while
// tools/pfar_lint's mutex-naming
// rule guarantees any future lock added to them lands on these annotated
// primitives rather than on a bare std::mutex the analysis cannot see.

#include <mutex>

#if defined(__clang__)
#define PFAR_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define PFAR_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

// On types: this class is a lockable capability / an RAII lock holder.
#define PFAR_CAPABILITY(x) PFAR_THREAD_ANNOTATION(capability(x))
#define PFAR_SCOPED_CAPABILITY PFAR_THREAD_ANNOTATION(scoped_lockable)

// On data members: reads/writes require the named capability (or, for
// PT_GUARDED_BY, dereferences of the pointee do).
#define PFAR_GUARDED_BY(x) PFAR_THREAD_ANNOTATION(guarded_by(x))
#define PFAR_PT_GUARDED_BY(x) PFAR_THREAD_ANNOTATION(pt_guarded_by(x))

// On functions: capability state demanded, produced or consumed.
#define PFAR_REQUIRES(...) \
  PFAR_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define PFAR_ACQUIRE(...) \
  PFAR_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define PFAR_RELEASE(...) \
  PFAR_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define PFAR_TRY_ACQUIRE(...) \
  PFAR_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define PFAR_EXCLUDES(...) PFAR_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define PFAR_ASSERT_CAPABILITY(x) \
  PFAR_THREAD_ANNOTATION(assert_capability(x))
#define PFAR_RETURN_CAPABILITY(x) PFAR_THREAD_ANNOTATION(lock_returned(x))
#define PFAR_NO_THREAD_SAFETY_ANALYSIS \
  PFAR_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace pfar::util {

/// std::mutex carrying the `capability` attribute, so PFAR_GUARDED_BY
/// declarations can name it. BasicLockable: usable directly with
/// std::condition_variable_any::wait. Prefer MutexLock for RAII holds —
/// std::lock_guard acquires inside a system header the analysis does not
/// look into, so a guard over a Mutex would not register as a hold.
class PFAR_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() PFAR_ACQUIRE() { mu_.lock(); }
  void unlock() PFAR_RELEASE() { mu_.unlock(); }
  bool try_lock() PFAR_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII exclusive hold of a util::Mutex, visible to the analysis
/// (SCOPED_CAPABILITY): the capability is held from construction to the
/// end of the enclosing scope.
class PFAR_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) PFAR_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() PFAR_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace pfar::util
