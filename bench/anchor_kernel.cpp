// Batch anchor-feasibility kernel microbench.
//
// Three measurements over the paper's evaluation fabric and workload, each
// cross-checked against its scalar differential oracle (any disagreement
// fails the bench — the batch kernels must be bit-identical, fast or not):
//
//   anchor_speedup   — batch valid-anchor bitmaps (erosion) vs the
//                      per-anchor covers_shifted loop, over every shape of
//                      the generated workload.
//   conflict_speedup — batch conflict bitmaps (dilation) vs one
//                      intersects_shifted call per anchor, against a
//                      fragmented occupancy built from the workload.
//   word_kernel_speedup — the dispatched word kernels vs the scalar
//                      reference table on raw arrays (the shift-AND /
//                      shifted-popcount inner loops everything above
//                      bottoms out in). ~1x on the scalar dispatch leg by
//                      construction, so it is pinned on SIMD legs only.
#include <chrono>

#include "bench_common.hpp"
#include "geost/anchor_kernel.hpp"
#include "reference/anchors.hpp"
#include "util/rng.hpp"
#include "util/simd/simd.hpp"

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main() {
  using namespace rr;
  const bench::EvalConfig config = bench::EvalConfig::from_env();
  config.print(std::cout);
  std::cout << "# simd level: " << simd::level_name(simd::active_level())
            << '\n';
  bench::StatsJsonWriter record("anchor_kernel", config);

  RunningStats anchor_speedup, conflict_speedup;
  RunningStats anchor_batch_ms, anchor_scalar_ms;
  RunningStats conflict_batch_ms, conflict_scalar_ms;
  int mismatches = 0;

  for (int run = 0; run < config.runs; ++run) {
    const std::uint64_t seed = config.seed + static_cast<std::uint64_t>(run);
    const auto region = bench::make_eval_region(seed, config.modules);
    model::ModuleGenerator generator(bench::paper_workload_params(), seed);
    const auto modules = generator.generate_many(config.modules);

    // --- Valid-anchor sweep: batch erosion vs per-anchor covers.
    double batch_ms = 0, scalar_ms = 0;
    for (const model::Module& module : modules) {
      for (const geost::ShapeFootprint& shape : module.shapes()) {
        double t0 = now_ms();
        const auto batch = geost::compute_valid_anchors(region->masks(), shape);
        batch_ms += now_ms() - t0;
        t0 = now_ms();
        const auto scalar =
            reference::compute_valid_anchors_scalar(region->masks(), shape);
        scalar_ms += now_ms() - t0;
        if (batch != scalar) ++mismatches;
      }
    }
    anchor_batch_ms.add(batch_ms);
    anchor_scalar_ms.add(scalar_ms);
    if (batch_ms > 0) anchor_speedup.add(scalar_ms / batch_ms);

    // --- Conflict sweep against a fragmented occupancy: greedily place
    // every other module bottom-left, then ask, for each shape of the
    // remaining modules, which anchors would conflict. One batch sweep takes
    // a few microseconds, so each arm is timed over kConflictReps identical
    // sweeps and reported per sweep.
    constexpr int kConflictReps = 50;
    baseline::OnlinePlacer placer(*region);
    for (std::size_t m = 0; m < modules.size(); m += 2)
      placer.place(static_cast<int>(m), modules[m]);
    const BitMatrix& occupancy = placer.occupied_matrix();
    batch_ms = scalar_ms = 0;
    for (std::size_t m = 1; m < modules.size(); m += 2) {
      for (const geost::ShapeFootprint& shape : modules[m].shapes()) {
        BitMatrix conflict;
        double t0 = now_ms();
        for (int rep = 0; rep < kConflictReps; ++rep) {
          conflict = BitMatrix(occupancy.rows(), occupancy.cols());
          geost::accumulate_conflicts(conflict, occupancy, shape.mask(), 0,
                                      occupancy.rows());
        }
        batch_ms += (now_ms() - t0) / kConflictReps;
        BitMatrix reference;
        t0 = now_ms();
        for (int rep = 0; rep < kConflictReps; ++rep) {
          reference = BitMatrix(occupancy.rows(), occupancy.cols());
          for (int y = 0; y < occupancy.rows(); ++y) {
            for (int x = 0; x < occupancy.cols(); ++x) {
              if (occupancy.intersects_shifted(shape.mask(), y, x))
                reference.set(y, x, true);
            }
          }
        }
        scalar_ms += (now_ms() - t0) / kConflictReps;
        if (conflict != reference) ++mismatches;
      }
    }
    conflict_batch_ms.add(batch_ms);
    conflict_scalar_ms.add(scalar_ms);
    if (batch_ms > 0) conflict_speedup.add(scalar_ms / batch_ms);
  }

  // --- Raw word kernels: dispatched table vs scalar reference on arrays
  // sized like a fabric occupancy row sweep.
  RunningStats word_speedup;
  {
    constexpr std::size_t kWords = 4096;
    constexpr int kReps = 400;
    Rng rng(config.seed);
    std::vector<std::uint64_t> a(kWords), b(kWords), scratch(kWords);
    for (std::size_t i = 0; i < kWords; ++i) {
      a[i] = rng();
      b[i] = rng();
    }
    const simd::Kernels& dispatched = simd::active();
    const simd::Kernels& scalar = simd::scalar_kernels();
    for (int round = 0; round < 5; ++round) {
      const long shift = 7 + round * 13;
      std::size_t sum_dispatched = 0, sum_scalar = 0;
      double t0 = now_ms();
      for (int rep = 0; rep < kReps; ++rep) {
        scratch = a;
        sum_dispatched += dispatched.shifted_and_popcount(a.data(), kWords,
                                                          b.data(), kWords,
                                                          shift);
        sum_dispatched += dispatched.shift_and_into(scratch.data(), kWords,
                                                    b.data(), kWords, shift);
      }
      const double dispatched_ms = now_ms() - t0;
      const std::vector<std::uint64_t> dispatched_words = scratch;
      t0 = now_ms();
      for (int rep = 0; rep < kReps; ++rep) {
        scratch = a;
        sum_scalar += scalar.shifted_and_popcount(a.data(), kWords, b.data(),
                                                  kWords, shift);
        sum_scalar += scalar.shift_and_into(scratch.data(), kWords, b.data(),
                                            kWords, shift);
      }
      const double scalar_ms = now_ms() - t0;
      if (sum_dispatched != sum_scalar || dispatched_words != scratch)
        ++mismatches;
      if (dispatched_ms > 0) word_speedup.add(scalar_ms / dispatched_ms);
    }
  }

  TextTable table({"Metric", "Batch/dispatched", "Scalar oracle", "Speedup"});
  table.add_row({"valid anchors",
                 TextTable::num(anchor_batch_ms.mean(), 2) + "ms",
                 TextTable::num(anchor_scalar_ms.mean(), 2) + "ms",
                 TextTable::num(anchor_speedup.mean(), 2) + "x"});
  table.add_row({"conflict bitmaps",
                 TextTable::num(conflict_batch_ms.mean(), 2) + "ms",
                 TextTable::num(conflict_scalar_ms.mean(), 2) + "ms",
                 TextTable::num(conflict_speedup.mean(), 2) + "x"});
  table.add_row({"word kernels", "-", "-",
                 TextTable::num(word_speedup.mean(), 2) + "x"});
  table.print(std::cout,
              "Batch anchor-feasibility kernels vs scalar oracles "
              "(bit-identical results required)");

  record.add_result("anchor_speedup", anchor_speedup);
  record.pin("anchor_speedup", bench::Better::kHigher);
  record.add_result("conflict_speedup", conflict_speedup);
  record.pin("conflict_speedup", bench::Better::kHigher);
  record.add_result("word_kernel_speedup", word_speedup);
  if (simd::active_level() != simd::Level::kScalar)
    record.pin("word_kernel_speedup", bench::Better::kHigher);
  record.add_result("anchor_ms_batch", anchor_batch_ms);
  record.add_result("anchor_ms_scalar", anchor_scalar_ms);
  record.add_result("conflict_ms_batch", conflict_batch_ms);
  record.add_result("conflict_ms_scalar", conflict_scalar_ms);
  // The differential oracle (batch vs per-anchor) stays at zero.
  record.add_result("mismatches", json::Value(mismatches));
  record.pin("mismatches", bench::Better::kLower);
  if (mismatches > 0) {
    std::cerr << "KERNEL MISMATCH: batch kernels disagreed with their "
                 "scalar oracles on "
              << mismatches << " input(s)\n";
    return 1;
  }
  return 0;
}
