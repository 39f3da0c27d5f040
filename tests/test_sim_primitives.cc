// Unit tests for histogram, reduce_by_key (RLE backend), and dense/sparse
// conversion in the simulated-GPU substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "sim/histogram.hh"
#include "sim/launch.hh"
#include "sim/reduce_by_key.hh"
#include "sim/sparse.hh"

namespace {

using szp::sim::dense_to_sparse;
using szp::sim::device_histogram;
using szp::sim::expand_runs;
using szp::sim::reduce_by_key;
using szp::sim::scatter_add;

TEST(DeviceHistogram, MatchesNaiveCount) {
  std::mt19937 rng(1);
  std::vector<std::uint16_t> data(100000);
  for (auto& x : data) x = static_cast<std::uint16_t>(rng() % 300);

  const auto bins = device_histogram<std::uint16_t>(data, 300);

  std::vector<std::uint64_t> expected(300, 0);
  for (const auto x : data) ++expected[x];
  EXPECT_EQ(bins, expected);
}

TEST(DeviceHistogram, IgnoresOutOfRangeAndHandlesEmpty) {
  std::vector<std::uint16_t> data{5, 500, 5};
  const auto bins = device_histogram<std::uint16_t>(data, 10);
  EXPECT_EQ(bins[5], 2u);
  std::uint64_t total = 0;
  for (const auto b : bins) total += b;
  EXPECT_EQ(total, 2u);  // the 500 is dropped

  const auto empty = device_histogram<std::uint16_t>(std::vector<std::uint16_t>{}, 4);
  EXPECT_EQ(empty, std::vector<std::uint64_t>(4, 0));
}

/// Histogram against a scalar count over two full 2^20-element tiles and a
/// ragged third: skewed (most codes in one bin, as quant codes are),
/// uniform, and with out-of-range codes the kernel must drop.
void expect_histogram_matches_scalar(const std::vector<std::uint16_t>& data,
                                     std::size_t num_bins) {
  std::vector<std::uint64_t> want(num_bins, 0);
  for (const auto x : data) {
    if (x < num_bins) ++want[x];
  }
  EXPECT_EQ(device_histogram<std::uint16_t>(data, num_bins), want);
}

TEST(HistogramOracle, SkewedUniformAndOutOfRangeWithRaggedTile) {
  const std::size_t n = 2 * szp::sim::kHistogramTile + 12345;
  std::mt19937 rng(4);
  std::vector<std::uint16_t> skewed(n), uniform(n), wild(n);
  for (std::size_t i = 0; i < n; ++i) {
    skewed[i] = static_cast<std::uint16_t>(rng() % 100 < 84 ? 512 : 500 + rng() % 25);
    uniform[i] = static_cast<std::uint16_t>(rng() % 1024);
    wild[i] = static_cast<std::uint16_t>(rng() % 1500);  // ~1/3 beyond 1024 bins
  }
  expect_histogram_matches_scalar(skewed, 1024);
  expect_histogram_matches_scalar(uniform, 1024);
  expect_histogram_matches_scalar(wild, 1024);
  // A run of one code longer than a lane's stripe, ending mid-tile.
  std::vector<std::uint16_t> run(n, 7);
  std::fill(run.begin() + 1000003, run.end(), 9);
  expect_histogram_matches_scalar(run, 16);
  // Every tail length of the four-way interleave.
  for (std::size_t m = 1; m <= 9; ++m) {
    const std::vector<std::uint16_t> head(skewed.begin(),
                                          skewed.begin() + static_cast<std::ptrdiff_t>(m));
    expect_histogram_matches_scalar(head, 1024);
  }
}

std::vector<std::uint16_t> runs_sequence(std::uint32_t seed, std::size_t nruns,
                                         std::uint64_t max_run) {
  std::mt19937 rng(seed);
  std::vector<std::uint16_t> seq;
  std::uint16_t prev = 0xffff;
  for (std::size_t r = 0; r < nruns; ++r) {
    std::uint16_t v;
    do {
      v = static_cast<std::uint16_t>(rng() % 16);
    } while (v == prev);
    prev = v;
    const std::uint64_t len = 1 + rng() % max_run;
    seq.insert(seq.end(), len, v);
  }
  return seq;
}

// Tile size sweep: runs straddling tile boundaries must be stitched.
class ReduceByKeyTile : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ReduceByKeyTile, RoundTripsAndRunsAreMaximal) {
  const auto seq = runs_sequence(42, 200, 37);
  const auto runs = reduce_by_key<std::uint16_t, std::uint64_t>(seq, GetParam());

  // Maximality: no two adjacent runs share a key.
  for (std::size_t r = 1; r < runs.keys.size(); ++r) {
    EXPECT_NE(runs.keys[r], runs.keys[r - 1]) << "r=" << r;
  }
  // Round trip.
  const auto expanded = expand_runs(std::span<const std::uint16_t>(runs.keys),
                                    std::span<const std::uint64_t>(runs.counts));
  EXPECT_EQ(expanded, seq);
}

INSTANTIATE_TEST_SUITE_P(TileSizes, ReduceByKeyTile, ::testing::Values(1, 2, 16, 1024, 1 << 20));

TEST(LaunchBlocks, ZeroIterationGridIsANoOp) {
  // Regression: a zero-block grid used to enter the OpenMP parallel region
  // (spinning up a whole team for nothing); it must early-return like the
  // single-block fast path, in every launcher variant.
  int calls = 0;
  szp::sim::launch_blocks(0, [&](std::size_t) { ++calls; });
  szp::sim::launch_blocks_3d({0, 4, 4}, [&](std::uint32_t, std::uint32_t, std::uint32_t) {
    ++calls;
  });
  szp::sim::launch_blocks_in_order({}, true, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(LaunchBlocks, NestedLaunchRunsInlineOneLevel) {
  // A kernel launched from inside a worker of an active parallel region
  // must execute its whole grid inline on the calling thread (explicit
  // one-level fan-out), still visiting every block exactly once.
  std::vector<int> outer_seen(3, 0);
  std::vector<int> inner_total(3, 0);
  szp::sim::launch_blocks(3, [&](std::size_t b) {
    outer_seen[b] += 1;
    // inner_total[b] is unsynchronized on purpose: if the inner grid spawned
    // a nested team these increments would race (and the tsan leg would
    // flag it); inline execution keeps them on one thread.
    szp::sim::launch_blocks(8, [&](std::size_t) { inner_total[b] += 1; });
  });
  for (std::size_t b = 0; b < 3; ++b) {
    EXPECT_EQ(outer_seen[b], 1);
    EXPECT_EQ(inner_total[b], 8);
  }
}

TEST(ReduceByKey, SingleRunAcrossAllTiles) {
  std::vector<std::uint16_t> seq(10000, 7);
  const auto runs = reduce_by_key<std::uint16_t, std::uint64_t>(seq, 64);
  ASSERT_EQ(runs.keys.size(), 1u);
  EXPECT_EQ(runs.keys[0], 7u);
  EXPECT_EQ(runs.counts[0], 10000u);
}

TEST(ReduceByKey, EmptyInput) {
  const auto runs = reduce_by_key<std::uint16_t, std::uint64_t>(std::vector<std::uint16_t>{});
  EXPECT_TRUE(runs.keys.empty());
  EXPECT_TRUE(runs.counts.empty());
}

TEST(DenseToSparse, GathersExactlyTheNonzeros) {
  std::mt19937 rng(3);
  std::vector<std::int32_t> dense(50000, 0);
  std::size_t nnz = 0;
  for (auto& x : dense) {
    if (rng() % 100 < 3) {
      x = static_cast<std::int32_t>(rng() % 1000) - 500;
      if (x == 0) x = 1;
      ++nnz;
    }
  }

  const auto sparse = dense_to_sparse<std::int32_t>(dense, 777);
  EXPECT_EQ(sparse.nnz(), nnz);
  // Indices strictly increasing, values match.
  for (std::size_t i = 0; i < sparse.nnz(); ++i) {
    if (i > 0) EXPECT_LT(sparse.indices[i - 1], sparse.indices[i]);
    EXPECT_EQ(sparse.values[i], dense[sparse.indices[i]]);
    EXPECT_NE(sparse.values[i], 0);
  }
}

TEST(DenseToSparse, ScatterAddRoundTrips) {
  std::mt19937 rng(4);
  std::vector<std::int32_t> dense(10000, 0);
  for (auto& x : dense) {
    if (rng() % 50 == 0) x = static_cast<std::int32_t>(rng() % 2000) - 1000;
  }
  const auto sparse = dense_to_sparse<std::int32_t>(dense);

  std::vector<std::int32_t> rebuilt(dense.size(), 0);
  scatter_add(sparse, std::span<std::int32_t>(rebuilt));
  EXPECT_EQ(rebuilt, dense);
}

TEST(DenseToSparse, AllZeroAndAllNonzero) {
  std::vector<std::int32_t> zeros(100, 0);
  EXPECT_EQ(dense_to_sparse<std::int32_t>(zeros).nnz(), 0u);

  std::vector<std::int32_t> ones(100, 1);
  const auto sparse = dense_to_sparse<std::int32_t>(ones);
  EXPECT_EQ(sparse.nnz(), 100u);
}

}  // namespace
