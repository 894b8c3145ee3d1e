// The one translation unit that installs the allocation-counting global
// operator new (see bench/alloc_hooks.h) into the benchmark binaries.

#include "alloc_hooks.h"
#include "ledger.h"

namespace perfbench {

uint64_t AllocCount() { return unilog::bench::AllocCount(); }

}  // namespace perfbench
