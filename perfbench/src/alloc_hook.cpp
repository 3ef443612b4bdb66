// Counting replacements of every global operator new/delete form the
// library can reach (plain, array, sized, aligned). Each allocation adds
// its usable size to a relaxed atomic and each delete subtracts it, so
// heap_live_bytes() is the exact live operator-new footprint.
#include "alloc_hook.hpp"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::int64_t> g_live{0};
std::atomic<std::uint64_t> g_calls{0};

void* counted(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  g_live.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
  g_calls.fetch_add(1, std::memory_order_relaxed);
  return p;
}

void* plain_alloc(std::size_t size) {
  return counted(std::malloc(size == 0 ? 1 : size));
}

void* aligned_alloc_counted(std::size_t size, std::align_val_t align) {
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = ((size == 0 ? 1 : size) + a - 1) / a * a;
  return counted(std::aligned_alloc(a, rounded));
}

void release(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

namespace perfbench {
std::int64_t heap_live_bytes() {
  return g_live.load(std::memory_order_relaxed);
}
std::uint64_t heap_alloc_calls() {
  return g_calls.load(std::memory_order_relaxed);
}
}  // namespace perfbench

void* operator new(std::size_t size) { return plain_alloc(size); }
void* operator new[](std::size_t size) { return plain_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return aligned_alloc_counted(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return aligned_alloc_counted(size, align);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
