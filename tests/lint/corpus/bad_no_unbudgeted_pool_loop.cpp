// tveg-lint fixture: exactly one no-unbudgeted-pool-loop finding (line 10).
// The "pool_loop" in the file name opts it into the solver-layer scope.
// Never compiled — only scanned by the lint tests and corpus ctests.
#include "support/thread_pool.hpp"

namespace tveg::fixture {

void grind(support::ThreadPool& pool, double* out, std::size_t n) {
  // No token, no poll: a cancelled solve could never drain this loop.
  pool.parallel_for(0, n, [&](std::size_t i) { out[i] = double(i) * 2.0; });
}

}  // namespace tveg::fixture
