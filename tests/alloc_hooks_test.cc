// Tests for bench/alloc_hooks.h, the counting global operator new the
// benches and the repository benchmark install: every replaceable form,
// nothrow ones included, is counted once and freed by the matching
// replacement delete. Under -DUNILOG_SANITIZE=ON a form left to the runtime
// shows up as AddressSanitizer alloc-dealloc-mismatch.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <new>
#include <vector>

#include "alloc_hooks.h"

namespace unilog::bench {
namespace {

TEST(AllocHooksTest, StableSortTemporaryBufferIsCountedAndFreed) {
  // std::stable_sort takes its temporary buffer with nothrow new.
  std::vector<int> v(5000);
  for (int i = 0; i < 5000; ++i) v[i] = (i * 7919) % 5000;
  AllocScope scope;
  std::stable_sort(v.begin(), v.end());
  EXPECT_EQ(scope.Delta(), 1u);
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
}

TEST(AllocHooksTest, NothrowFormsCountOnce) {
  AllocScope plain;
  void* p = ::operator new(100, std::nothrow);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(plain.Delta(), 1u);
  ::operator delete(p, std::nothrow);

  AllocScope array;
  void* a = ::operator new[](100, std::nothrow);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(array.Delta(), 1u);
  ::operator delete[](a);

  AllocScope aligned;
  constexpr auto kAlign = std::align_val_t{64};
  void* q = ::operator new(100, kAlign, std::nothrow);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(q) % 64, 0u);
  void* r = ::operator new[](100, kAlign, std::nothrow);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(r) % 64, 0u);
  EXPECT_EQ(aligned.Delta(), 2u);
  ::operator delete(q, kAlign);
  ::operator delete[](r, kAlign, std::nothrow);
}

TEST(AllocHooksTest, NothrowFailureReturnsNull) {
#if defined(UNILOG_SANITIZE) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer allocators abort on an impossible allocation";
#else
  volatile size_t huge = SIZE_MAX / 2;  // opaque: no compile-time check
  EXPECT_EQ(::operator new(huge, std::nothrow), nullptr);
  EXPECT_EQ(::operator new[](huge, std::nothrow), nullptr);
  EXPECT_EQ(::operator new(huge, std::align_val_t{64}, std::nothrow), nullptr);
  EXPECT_THROW(static_cast<void>(::operator new(huge)), std::bad_alloc);
#endif
}

}  // namespace
}  // namespace unilog::bench
