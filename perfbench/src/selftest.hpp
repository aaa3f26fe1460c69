// Forwarding self-test of the decorators (perfbench --selftest).
#pragma once

namespace perfbench {

/// Calls every decorated entry point (Placer::place and
/// place_with_context, CommAllocator::allocate, EprRouter::route) next to
/// the same call on the inner object and checks that results, RNG state,
/// call counts and spans agree. Prints each failure; true when all pass.
bool run_selftest();

}  // namespace perfbench
