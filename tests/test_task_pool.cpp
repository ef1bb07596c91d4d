#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "audio/dataset.hpp"
#include "audio/synth.hpp"
#include "dsp/features.hpp"
#include "dsp/matrix.hpp"
#include "dsp/mel.hpp"
#include "dsp/stft.hpp"
#include "dsp_oracle.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/task_pool.hpp"

namespace u = beesim::util;
namespace dsp = beesim::dsp;
namespace audio = beesim::audio;
namespace oracle = beesim::oracle;
using oracle::expect_matrices_identical;

namespace {

// A deterministic per-index workload: every index owns its cell, so any
// schedule lands on the same vector.
std::vector<double> nested_compute(unsigned outer_threads,
                                   unsigned inner_threads) {
  constexpr std::size_t kOuter = 12;
  constexpr std::size_t kInner = 64;
  std::vector<double> out(kOuter * kInner, 0.0);
  u::parallel_for(
      kOuter,
      [&](std::size_t i) {
        u::parallel_for(
            kInner,
            [&](std::size_t j) {
              double acc = 0.0;
              for (std::size_t k = 0; k < 50; ++k)
                acc += static_cast<double>((i + 1) * (j + 1) + k) * 1e-3;
              out[i * kInner + j] = acc;
            },
            inner_threads);
      },
      outer_threads);
  return out;
}

std::vector<double> stft_signal() {
  std::vector<double> signal(8192);
  for (std::size_t i = 0; i < signal.size(); ++i)
    signal[i] = std::sin(0.031 * static_cast<double>(i)) +
                0.25 * std::sin(0.173 * static_cast<double>(i));
  return signal;
}

dsp::StftParams stft_params() {
  dsp::StftParams params;
  params.n_fft = 256;
  params.hop = 64;
  return params;
}

}  // namespace

// --------------------------------------------------------------- TaskPool

TEST(TaskPool, NestedRegionsBitIdenticalForAnyWorkerCount) {
  const auto serial = nested_compute(1, 1);
  EXPECT_EQ(serial, nested_compute(0, 0));
  EXPECT_EQ(serial, nested_compute(2, 3));
  EXPECT_EQ(serial, nested_compute(8, 1));
  EXPECT_EQ(serial, nested_compute(1, 8));
}

TEST(TaskPool, NestedStftMatchesSerialFrameLoop) {
  const std::vector<double> signal = stft_signal();
  const dsp::Matrix serial = oracle::stft_power_serial(signal, stft_params());
  expect_matrices_identical(serial, dsp::stft_power(signal, stft_params()));
  // Frame-parallel STFT nested inside an outer clip-style region (the
  // shape the dataset featurizer produces): the pool composes the tree
  // and the result still matches the serial loop.
  dsp::Matrix nested;
  u::parallel_for(2, [&](std::size_t i) {
    const dsp::Matrix m = dsp::stft_power(signal, stft_params());
    if (i == 0) nested = m;
  });
  expect_matrices_identical(serial, nested);
}

TEST(TaskPool, DatasetFeaturizerInvariantToNestedStftParallelism) {
  // The featurizer runs chunk-parallel STFTs inside its clip-parallel
  // region. Every example must equal the oracle pipeline on one thread:
  // serial planned STFT, dense filterbank, power_to_db, band means, then
  // the spectral descriptor. The clips are re-synthesised the way the
  // generator draws them: sequentially from Rng(seed), example i queen
  // iff i % 2 == 0.
  audio::DatasetParams params;
  params.count = 6;
  params.clip_seconds = 0.5;
  params.extended_features = true;
  const audio::QueenDataset ds = audio::generate_queen_dataset(params);
  ASSERT_EQ(ds.size(), 6u);

  const auto& mp = params.mel;
  const dsp::Matrix fb = dsp::mel_filterbank(mp.n_mels, mp.n_fft,
                                             mp.sample_rate, mp.fmin, mp.fmax);
  dsp::StftParams sp;
  sp.n_fft = mp.n_fft;
  sp.hop = mp.hop;
  audio::BeeAudioSynth synth(params.synth);
  u::Rng rng(params.seed);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const bool queen = i % 2 == 0;
    const std::vector<double> clip =
        synth.synthesize(queen, params.clip_seconds, rng);
    const dsp::Matrix power = oracle::stft_power_serial(clip, sp);
    const dsp::Matrix mel_db =
        dsp::power_to_db(oracle::apply_filterbank(fb, power));
    std::vector<double> features = oracle::band_means(mel_db);
    const auto descriptor = dsp::spectral_descriptor(power, mp.sample_rate);
    features.insert(features.end(), descriptor.begin(), descriptor.end());

    EXPECT_EQ(ds.examples[i].queen_present, queen);
    EXPECT_EQ(ds.examples[i].features, features) << "example " << i;
    expect_matrices_identical(ds.examples[i].mel_db, mel_db);
  }
}

TEST(TaskPool, ThreeLevelNestingCompletes) {
  std::atomic<std::size_t> leaves{0};
  u::parallel_for(
      4,
      [&](std::size_t) {
        u::parallel_for(
            4,
            [&](std::size_t) {
              u::parallel_for(
                  4,
                  [&](std::size_t) {
                    leaves.fetch_add(1, std::memory_order_relaxed);
                  },
                  4);
            },
            4);
      },
      4);
  EXPECT_EQ(leaves.load(), 64u);
}

TEST(TaskPool, ExceptionInNestedRegionPropagatesLowestIndex) {
  try {
    u::parallel_for(
        8,
        [](std::size_t i) {
          u::parallel_for(
              8,
              [i](std::size_t j) {
                if (j >= 4)
                  throw std::runtime_error("inner " + std::to_string(i) + ":" +
                                           std::to_string(j));
              },
              8);
        },
        8);
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    // Each inner region rethrows its own lowest failing index; the outer
    // region then rethrows the lowest failing outer index.
    EXPECT_STREQ(e.what(), "inner 0:4");
  }
}

TEST(TaskPool, ExceptionDoesNotLoseIndices) {
  // On the pool path every index runs even when some throw, so a region
  // never silently skips work after a failure.
  std::vector<std::atomic<int>> visits(64);
  EXPECT_THROW(u::parallel_for(
                   visits.size(),
                   [&](std::size_t i) {
                     visits[i].fetch_add(1);
                     if (i % 7 == 0) throw std::runtime_error("boom");
                   },
                   4),
               std::runtime_error);
  for (auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(TaskPool, ConcurrentIssuersFromExternalThreads) {
  constexpr std::size_t kIssuers = 8;
  constexpr std::size_t kItems = 512;
  std::vector<std::vector<int>> results(kIssuers,
                                        std::vector<int>(kItems, 0));
  std::vector<std::thread> issuers;
  issuers.reserve(kIssuers);
  for (std::size_t t = 0; t < kIssuers; ++t) {
    issuers.emplace_back([&results, t] {
      for (int rep = 0; rep < 4; ++rep)
        u::parallel_for(
            kItems, [&results, t](std::size_t i) { ++results[t][i]; }, 4);
    });
  }
  for (auto& thread : issuers) thread.join();
  for (const auto& row : results)
    for (int v : row) EXPECT_EQ(v, 4);
}

TEST(TaskPool, StatsAreMonotonic) {
  auto& pool = u::TaskPool::instance();
  const auto before = pool.stats();
  // A region of no-ops can finish on its issuer before a lazily woken
  // worker claims a chunk, leaving `tasks` where it was. So the region
  // needs a helper: index 0 waits (generously bounded) until some other
  // thread has run an index.
  const bool has_workers = pool.worker_count() > 0;
  const std::thread::id issuer = std::this_thread::get_id();
  std::atomic<bool> helped{false};
  u::parallel_for(
      256,
      [&](std::size_t i) {
        if (std::this_thread::get_id() != issuer) helped.store(true);
        if (i != 0 || !has_workers) return;
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (!helped.load() && std::chrono::steady_clock::now() < deadline)
          std::this_thread::yield();
      },
      4);
  const auto after = pool.stats();
  EXPECT_GE(after.tasks, before.tasks);
  EXPECT_GE(after.steals, before.steals);
  EXPECT_GE(after.parks, before.parks);
  if (pool.worker_count() > 0) {
    EXPECT_GT(after.tasks, before.tasks);
  }
}

TEST(TaskPool, InlineFastPathDispatchesNoTasks) {
  auto& pool = u::TaskPool::instance();
  const auto before = pool.stats();
  u::parallel_for(1000, [](std::size_t) {}, 1);  // threads == 1 -> inline
  u::parallel_for(1, [](std::size_t) {});        // n <= 1 -> inline
  const auto after = pool.stats();
  EXPECT_EQ(after.tasks, before.tasks);
}

TEST(TaskPool, NestedHelpersReachSiblingWorkers) {
  // The nested tests above check results only, which would hold even if
  // a nested region's helpers never left its issuer: the issuer runs
  // every chunk nobody claims. Here index 0 of each region waits
  // (bounded) until another thread has run one of its indices.
  auto& pool = u::TaskPool::instance();
  if (pool.worker_count() < 2) GTEST_SKIP() << "needs two pool workers";
  const auto wait_for_help = [](const std::atomic<bool>& helped) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!helped.load() && std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
  };

  // Issued from the test thread: helpers run, none of them is a steal.
  const auto before = pool.stats();
  const std::thread::id test_thread = std::this_thread::get_id();
  std::atomic<bool> external_helped{false};
  u::parallel_for(64, [&](std::size_t i) {
    if (std::this_thread::get_id() != test_thread) external_helped = true;
    if (i == 0) wait_for_help(external_helped);
  });
  ASSERT_TRUE(external_helped.load());
  const auto external = pool.stats();
  EXPECT_GT(external.tasks, before.tasks);
  EXPECT_EQ(external.steals, before.steals);

  // Issued from a pool worker: the test thread's outer index waits until
  // a worker has taken the other one, which issues the nested region;
  // only a sibling worker can then run a nested index.
  std::atomic<bool> on_worker{false};
  std::atomic<bool> nested_helped{false};
  u::parallel_for(
      2,
      [&](std::size_t) {
        if (std::this_thread::get_id() == test_thread) {
          wait_for_help(on_worker);
          return;
        }
        on_worker = true;
        const std::thread::id issuer = std::this_thread::get_id();
        u::parallel_for(64, [&](std::size_t j) {
          if (std::this_thread::get_id() != issuer) nested_helped = true;
          if (j == 0) wait_for_help(nested_helped);
        });
      },
      2);
  ASSERT_TRUE(on_worker.load());
  EXPECT_TRUE(nested_helped.load());
  EXPECT_GT(pool.stats().steals, external.steals);
}
