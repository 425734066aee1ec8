// Prints google-benchmark's JSON context, whose "library_build_type" says
// whether the installed library was built as a debug build.
#include <benchmark/benchmark.h>

static void BM_probe(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(state.iterations());
}
BENCHMARK(BM_probe)->Iterations(1);

BENCHMARK_MAIN();
