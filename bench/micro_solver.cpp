// M1 — google-benchmark microbenchmarks of the solver primitives: domain
// mutation, bitmatrix correlation, anchor computation, non-overlap
// propagation and a full small placement solve.
#include <benchmark/benchmark.h>

#include "reference/table.hpp"
#include "rrplace.hpp"
#include "util/rng.hpp"

namespace {

using namespace rr;

void BM_DomainRemoveValues(benchmark::State& state) {
  const long n = state.range(0);
  Rng rng(7);
  std::vector<int> batch;
  for (long i = 0; i < n / 4; ++i)
    batch.push_back(rng.uniform_int(0, static_cast<int>(n - 1)));
  std::sort(batch.begin(), batch.end());
  batch.erase(std::unique(batch.begin(), batch.end()), batch.end());
  for (auto _ : state) {
    cp::Domain d(0, static_cast<int>(n - 1));
    benchmark::DoNotOptimize(d.remove_values_sorted(batch));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DomainRemoveValues)->Arg(256)->Arg(4096)->Arg(65536);

void BM_DomainIntersect(benchmark::State& state) {
  const long n = state.range(0);
  cp::Domain even = [&] {
    std::vector<int> v;
    for (long i = 0; i < n; i += 2) v.push_back(static_cast<int>(i));
    return cp::Domain::from_values(std::move(v));
  }();
  for (auto _ : state) {
    cp::Domain d(0, static_cast<int>(n - 1));
    benchmark::DoNotOptimize(d.intersect(even));
  }
}
BENCHMARK(BM_DomainIntersect)->Arg(1024)->Arg(16384);

void BM_DomainKeepMasked(benchmark::State& state) {
  const long n = state.range(0);
  const std::size_t words = static_cast<std::size_t>((n + 63) / 64);
  std::vector<std::uint64_t> mask(words, 0xAAAAAAAAAAAAAAAAULL);
  for (auto _ : state) {
    cp::Domain d(0, static_cast<int>(n - 1));
    benchmark::DoNotOptimize(d.keep_masked(0, mask));
    // Second call hits the word-block representation.
    benchmark::DoNotOptimize(d.keep_masked(0, mask));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DomainKeepMasked)->Arg(256)->Arg(4096)->Arg(65536);

/// One re-propagation of a positive table constraint (tests/reference)
/// after removing a value from the middle variable. range(1) selects the
/// engine: 0 = scanning oracle, 1 = compact-table.
void BM_TablePropagation(benchmark::State& state) {
  const int tuples_n = static_cast<int>(state.range(0));
  const bool compact = state.range(1) != 0;
  constexpr int kArity = 3;
  constexpr int kDomainSize = 64;
  Rng rng(11);
  std::vector<std::vector<int>> tuples;
  for (int t = 0; t < tuples_n; ++t) {
    std::vector<int> tuple(kArity);
    for (int i = 0; i < kArity; ++i)
      tuple[i] = rng.uniform_int(0, kDomainSize - 1);
    tuples.push_back(std::move(tuple));
  }
  for (auto _ : state) {
    state.PauseTiming();
    cp::Space space;
    std::vector<cp::VarId> vars;
    for (int i = 0; i < kArity; ++i)
      vars.push_back(space.new_var(0, kDomainSize - 1));
    reference::post_table(space, vars, tuples,
                          compact ? reference::TableEngine::kCompact
                                  : reference::TableEngine::kScanning);
    space.propagate();
    space.push();
    space.remove(vars[1], kDomainSize / 2);
    state.ResumeTiming();
    benchmark::DoNotOptimize(space.propagate());
    state.PauseTiming();
    space.pop();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * tuples_n);
}
BENCHMARK(BM_TablePropagation)
    ->Args({512, 0})
    ->Args({512, 1})
    ->Args({4096, 0})
    ->Args({4096, 1});

/// One re-propagation of an element constraint after a B&B-style cut on
/// the result variable. range(1): 0 = scanning engine (post_element's
/// memory-guard fallback), 1 = compact-table (post_element).
void BM_ElementPropagation(benchmark::State& state) {
  const int table_n = static_cast<int>(state.range(0));
  const bool compact = state.range(1) != 0;
  Rng rng(13);
  std::vector<int> table(static_cast<std::size_t>(table_n));
  for (int& v : table) v = rng.uniform_int(4, 40);
  for (auto _ : state) {
    state.PauseTiming();
    cp::Space space;
    const cp::VarId index = space.new_var(0, table_n - 1);
    const cp::VarId result = space.new_var(0, 64);
    if (compact) cp::post_element(space, table, index, result);
    else cp::detail::post_scanning_element(space, table, index, result);
    space.propagate();
    space.push();
    space.set_max(result, 20);  // the objective cut
    state.ResumeTiming();
    benchmark::DoNotOptimize(space.propagate());
    state.PauseTiming();
    space.pop();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * table_n);
}
BENCHMARK(BM_ElementPropagation)
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Args({16384, 0})
    ->Args({16384, 1});

void BM_BitMatrixIntersects(benchmark::State& state) {
  const int dim = static_cast<int>(state.range(0));
  BitMatrix grid(dim, dim);
  Rng rng(3);
  for (int i = 0; i < dim * dim / 8; ++i)
    grid.set(rng.uniform_int(0, dim - 1), rng.uniform_int(0, dim - 1), true);
  BitMatrix shape(8, 8, true);
  int r = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        grid.intersects_shifted(shape, r % (dim - 8), (r * 7) % (dim - 8)));
    ++r;
  }
}
BENCHMARK(BM_BitMatrixIntersects)->Arg(32)->Arg(128);

void BM_AnchorComputation(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  fpga::ColumnarSpec spec;
  spec.bram_period = 12;
  spec.bram_offset = 5;
  auto fabric = std::make_shared<const fpga::Fabric>(
      fpga::make_columnar(width, 28, spec));
  const fpga::PartialRegion region(fabric);
  const auto shape =
      model::ModuleGenerator::make_column_shape(40, 2, 2, 8, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        geost::compute_valid_anchors(region.masks(), shape));
  }
}
BENCHMARK(BM_AnchorComputation)->Arg(60)->Arg(160);

void BM_PrepareTables(benchmark::State& state) {
  const int modules_n = static_cast<int>(state.range(0));
  fpga::IrregularSpec spec;
  spec.base.bram_period = 12;
  spec.base.bram_offset = 5;
  auto fabric = std::make_shared<const fpga::Fabric>(
      fpga::make_irregular(modules_n * 5, 28, spec, 1));
  const fpga::PartialRegion region(fabric);
  model::GeneratorParams params;
  // The DSP and centre clock columns cut the CLB runs between BRAM columns
  // below 11 tiles: at max_width 11, two of the 8 modules have no placement
  // on the 40-wide fabric. 8 keeps every module placeable at both sizes.
  params.max_width = 8;
  params.bram_blocks_max = 2;
  model::ModuleGenerator generator(params, 1);
  const auto modules = generator.generate_many(modules_n);
  for (const placer::ModuleTables& tables :
       placer::prepare_tables(region, modules, true)) {
    if (tables.table.empty()) {
      state.SkipWithError("a module has no placement on this fabric");
      return;
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(placer::prepare_tables(region, modules, true));
  }
}
BENCHMARK(BM_PrepareTables)->Arg(8)->Arg(24);

void BM_NonOverlapPropagation(benchmark::State& state) {
  // One propagation pass after an assignment, on a mid-size model.
  fpga::IrregularSpec spec;
  spec.base.bram_period = 12;
  spec.base.bram_offset = 5;
  auto fabric = std::make_shared<const fpga::Fabric>(
      fpga::make_irregular(80, 28, spec, 1));
  const fpga::PartialRegion region(fabric);
  model::GeneratorParams params;
  params.max_width = 11;
  params.bram_blocks_max = 2;
  model::ModuleGenerator generator(params, 2);
  const auto modules = generator.generate_many(10);
  const auto tables = placer::prepare_tables(region, modules, true);
  for (auto _ : state) {
    state.PauseTiming();
    placer::BuiltModel model =
        placer::build_model_from_tables(region, tables);
    model.space->propagate();
    model.space->push();
    model.space->assign(model.placement_vars[0], 0);
    state.ResumeTiming();
    benchmark::DoNotOptimize(model.space->propagate());
  }
}
BENCHMARK(BM_NonOverlapPropagation);

void BM_SmallPlacementSolve(benchmark::State& state) {
  auto fabric = std::make_shared<const fpga::Fabric>(
      fpga::make_homogeneous(20, 8));
  const fpga::PartialRegion region(fabric);
  model::GeneratorParams params;
  params.clb_min = 6;
  params.clb_max = 16;
  params.bram_blocks_max = 0;
  params.max_height = 6;
  model::ModuleGenerator generator(params, 5);
  const auto modules = generator.generate_many(6);
  for (auto _ : state) {
    placer::PlacerOptions options;
    options.mode = placer::PlacerMode::kBranchAndBound;
    options.time_limit_seconds = 5.0;
    benchmark::DoNotOptimize(
        placer::Placer(region, modules, options).place());
  }
}
BENCHMARK(BM_SmallPlacementSolve)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
