#include "heap_meter.h"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<bool> g_counting{false};
std::atomic<int64_t> g_live{0};
std::atomic<int64_t> g_peak{0};

void CountAlloc(void* p) {
  int64_t size = static_cast<int64_t>(malloc_usable_size(p));
  int64_t live = g_live.fetch_add(size, std::memory_order_relaxed) + size;
  int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak && !g_peak.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
}

}  // namespace

void* operator new(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  if (g_counting.load(std::memory_order_relaxed)) CountAlloc(p);
  return p;
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  if (g_counting.load(std::memory_order_relaxed)) {
    g_live.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                     std::memory_order_relaxed);
  }
  std::free(p);
}

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace perfbench {

// Frees of blocks allocated before the window lower the live level, so the
// mark is relative: the rise above the level at the start of the window.
void HeapMeterStart() {
  g_live.store(0, std::memory_order_relaxed);
  g_peak.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_seq_cst);
}

int64_t HeapMeterStop() {
  g_counting.store(false, std::memory_order_seq_cst);
  return g_peak.load(std::memory_order_relaxed);
}

}  // namespace perfbench
