// Heap accounting for the benchmark binary only: alloc_hook.cpp replaces
// the global operator new/delete (the mechanism tests/test_allocation_free
// uses) and keeps a running count of live bytes, measured as
// malloc_usable_size so frees subtract exactly what allocations added.
#pragma once

#include <cstdint>

namespace perfbench {

/// Bytes currently allocated through operator new and not yet deleted.
std::int64_t heap_live_bytes();

/// Operator-new calls since process start.
std::uint64_t heap_alloc_calls();

}  // namespace perfbench
