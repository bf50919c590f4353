// Returning heap memory to the operating system.
//
// glibc gives every thread that allocates its own malloc arena and keeps a
// thread arena's free top chunk resident: malloc_trim() releases the main
// arena's top and the free pages inside every arena's bins, but not the
// tops of thread arenas. Large transients built on worker threads therefore
// stay resident for the single-threaded stages that follow, which never
// allocate from those arenas. Two tools keep such transients out of the
// resident set.
#pragma once

#include <cstddef>
#include <memory>
#include <new>

#if defined(__unix__) && !defined(__SANITIZE_ADDRESS__)
#include <sys/mman.h>
#define FOCUS_MAPPED_ALLOCATOR 1
#endif

namespace focus {

/// Returns the allocator's free pages to the operating system:
/// malloc_trim(0) under glibc, a no-op elsewhere. The stage-2 drivers call
/// it on entry and before they return.
void release_free_heap();

/// Allocator for large arrays that a pool thread builds and another thread
/// frees: each allocation is its own anonymous mapping, unmapped when it is
/// freed, so its pages leave the resident set at once whichever arena the
/// building thread used. Pages come zero-filled. Falls back to
/// std::allocator off POSIX and under AddressSanitizer, which checks bounds
/// on heap memory only.
template <typename T>
struct MappedAllocator {
  using value_type = T;

  MappedAllocator() = default;
  template <typename U>
  MappedAllocator(const MappedAllocator<U>&) {}

  T* allocate(std::size_t n) {
#ifdef FOCUS_MAPPED_ALLOCATOR
    void* p = mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return static_cast<T*>(p);
#else
    return std::allocator<T>().allocate(n);
#endif
  }

  void deallocate(T* p, std::size_t n) {
#ifdef FOCUS_MAPPED_ALLOCATOR
    munmap(p, n * sizeof(T));
#else
    std::allocator<T>().deallocate(p, n);
#endif
  }

  template <typename U>
  bool operator==(const MappedAllocator<U>&) const {
    return true;
  }
};

}  // namespace focus
