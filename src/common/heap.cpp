#include "common/heap.hpp"

#include <cstdlib>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace focus {

void release_free_heap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

}  // namespace focus
