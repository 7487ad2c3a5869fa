#include "core/simd_search.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/macros.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define LTREE_SEARCH_X86 1
#else
#define LTREE_SEARCH_X86 0
#endif

namespace ltree {
namespace search {

// --------------------------------------------------------------- scalar

uint32_t LowerBoundScalar(const Label* keys, uint32_t n, Label key) {
  return static_cast<uint32_t>(std::lower_bound(keys, keys + n, key) - keys);
}

uint32_t UpperBoundScalar(const Label* keys, uint32_t n, Label key) {
  return static_cast<uint32_t>(std::upper_bound(keys, keys + n, key) - keys);
}

// ----------------------------------------------------------- branchless

// On sorted input the bound index equals the number of elements below it,
// so a data-independent sum of setcc results replaces the binary search's
// unpredictable branches. n <= 64 in every tree-node caller.

uint32_t LowerBoundBranchless(const Label* keys, uint32_t n, Label key) {
  uint32_t c = 0;
  for (uint32_t i = 0; i < n; ++i) c += keys[i] < key ? 1u : 0u;
  return c;
}

uint32_t UpperBoundBranchless(const Label* keys, uint32_t n, Label key) {
  uint32_t c = 0;
  for (uint32_t i = 0; i < n; ++i) c += keys[i] <= key ? 1u : 0u;
  return c;
}

// ----------------------------------------------------------------- avx2

#if LTREE_SEARCH_X86

__attribute__((target("avx2"))) uint32_t LowerBoundAvx2(const Label* keys,
                                                        uint32_t n,
                                                        Label key) {
  // AVX2 has a signed 64-bit compare; one sign flip makes it unsigned.
  const __m256i sign64 =
      _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ull));
  const __m256i probe = _mm256_xor_si256(
      _mm256_set1_epi64x(static_cast<long long>(key)), sign64);
  uint32_t c = 0;
  uint32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i)),
        sign64);
    const __m256i gt = _mm256_cmpgt_epi64(probe, v);
    c += static_cast<uint32_t>(
        __builtin_popcount(_mm256_movemask_pd(_mm256_castsi256_pd(gt))));
  }
  for (; i < n; ++i) c += keys[i] < key ? 1u : 0u;
  return c;
}

__attribute__((target("avx2"))) uint32_t UpperBoundAvx2(const Label* keys,
                                                        uint32_t n,
                                                        Label key) {
  const __m256i sign64 =
      _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ull));
  const __m256i probe = _mm256_xor_si256(
      _mm256_set1_epi64x(static_cast<long long>(key)), sign64);
  uint32_t gt = 0;
  uint32_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i)),
        sign64);
    const __m256i m = _mm256_cmpgt_epi64(v, probe);
    gt += static_cast<uint32_t>(
        __builtin_popcount(_mm256_movemask_pd(_mm256_castsi256_pd(m))));
  }
  for (; i < n; ++i) gt += keys[i] > key ? 1u : 0u;
  return n - gt;
}

#else  // !LTREE_SEARCH_X86

// Non-x86 hosts never resolve to these kernels; keep the symbols defined
// (as the portable fallback) so callers link everywhere.
uint32_t LowerBoundAvx2(const Label* keys, uint32_t n, Label key) {
  return LowerBoundBranchless(keys, n, key);
}
uint32_t UpperBoundAvx2(const Label* keys, uint32_t n, Label key) {
  return UpperBoundBranchless(keys, n, key);
}

#endif  // LTREE_SEARCH_X86

// ------------------------------------------------------------- dispatch

namespace {

using SearchFn = uint32_t (*)(const Label*, uint32_t, Label);

constexpr uint8_t kUnresolved = 0xff;

// Idempotent once resolved, so relaxed atomics suffice: two threads racing
// the first call install identical pointers.
std::atomic<SearchFn> g_lower{nullptr};
std::atomic<SearchFn> g_upper{nullptr};
std::atomic<uint8_t> g_kernel{kUnresolved};

Kernel DetectKernel() {
  if (const char* env = std::getenv("LTREE_SEARCH_KERNEL")) {
    for (const Kernel k :
         {Kernel::kScalar, Kernel::kBranchless, Kernel::kAvx2}) {
      if (std::strcmp(env, KernelName(k)) == 0 && KernelAvailable(k)) {
        return k;
      }
    }
    // Unknown or unavailable names fall through to cpuid detection.
  }
#if LTREE_SEARCH_X86
  if (__builtin_cpu_supports("avx2")) return Kernel::kAvx2;
#endif
  return Kernel::kBranchless;
}

void Install(Kernel k) {
  SearchFn lower = nullptr;
  SearchFn upper = nullptr;
  switch (k) {
    case Kernel::kScalar:
      lower = LowerBoundScalar;
      upper = UpperBoundScalar;
      break;
    case Kernel::kBranchless:
      lower = LowerBoundBranchless;
      upper = UpperBoundBranchless;
      break;
    case Kernel::kAvx2:
      lower = LowerBoundAvx2;
      upper = UpperBoundAvx2;
      break;
  }
  g_lower.store(lower, std::memory_order_relaxed);
  g_upper.store(upper, std::memory_order_relaxed);
  g_kernel.store(static_cast<uint8_t>(k), std::memory_order_relaxed);
}

}  // namespace

uint32_t LowerBound(const Label* keys, uint32_t n, Label key) {
  SearchFn fn = g_lower.load(std::memory_order_relaxed);
  if (fn == nullptr) {
    Install(DetectKernel());
    fn = g_lower.load(std::memory_order_relaxed);
  }
  return fn(keys, n, key);
}

uint32_t UpperBound(const Label* keys, uint32_t n, Label key) {
  SearchFn fn = g_upper.load(std::memory_order_relaxed);
  if (fn == nullptr) {
    Install(DetectKernel());
    fn = g_upper.load(std::memory_order_relaxed);
  }
  return fn(keys, n, key);
}

bool KernelAvailable(Kernel k) {
  switch (k) {
    case Kernel::kScalar:
    case Kernel::kBranchless:
      return true;
    case Kernel::kAvx2:
#if LTREE_SEARCH_X86
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
  }
  return false;
}

Kernel ActiveKernel() {
  uint8_t k = g_kernel.load(std::memory_order_relaxed);
  if (k == kUnresolved) {
    Install(DetectKernel());
    k = g_kernel.load(std::memory_order_relaxed);
  }
  return static_cast<Kernel>(k);
}

const char* KernelName(Kernel k) {
  switch (k) {
    case Kernel::kScalar:
      return "scalar";
    case Kernel::kBranchless:
      return "branchless";
    case Kernel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

void SetKernelForTest(Kernel k) {
  LTREE_CHECK(KernelAvailable(k));
  Install(k);
}

void ResetKernel() { Install(DetectKernel()); }

}  // namespace search
}  // namespace ltree
