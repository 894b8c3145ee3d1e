#ifndef UNILOG_BENCH_ALLOC_HOOKS_H_
#define UNILOG_BENCH_ALLOC_HOOKS_H_

// Global allocation counter for the allocs/op bench columns. Including
// this header REPLACES the global operator new/delete for the whole
// binary, so it must be included from exactly one translation unit — the
// bench's main .cc — and never from library code. Counting is a relaxed
// atomic increment: cheap enough to leave on for every measured section,
// and exact (not sampled) so allocs/op deltas are stable run to run.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace unilog::bench {

inline std::atomic<uint64_t> g_alloc_count{0};

/// Total operator-new calls since process start.
inline uint64_t AllocCount() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

/// Measures the allocation count across a scope.
class AllocScope {
 public:
  AllocScope() : start_(AllocCount()) {}
  uint64_t Delta() const { return AllocCount() - start_; }

 private:
  uint64_t start_;
};

// Counted allocation; nullptr on failure.
inline void* CountedMalloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

inline void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
#if defined(_WIN32)
  return _aligned_malloc(size ? size : 1, a);
#else
  return std::aligned_alloc(a, (size + a - 1) / a * a);
#endif
}

}  // namespace unilog::bench

void* operator new(std::size_t size) {
  if (void* p = unilog::bench::CountedMalloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = unilog::bench::CountedAlignedAlloc(size, align)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

// The nothrow forms (std::stable_sort's temporary buffer, among others)
// are replaced too, so each allocation is counted once and released by the
// std::free-based deletes below. Left to the runtime, they come from an
// allocator those deletes do not own: AddressSanitizer reports
// alloc-dealloc-mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return unilog::bench::CountedMalloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return unilog::bench::CountedMalloc(size);
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return unilog::bench::CountedAlignedAlloc(size, align);
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return unilog::bench::CountedAlignedAlloc(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // UNILOG_BENCH_ALLOC_HOOKS_H_
