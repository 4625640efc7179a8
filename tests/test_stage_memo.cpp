// Tests for the cross-point stage memoization layer (core/stage_memo.hpp).
//
// The load-bearing property is *byte identity*: a memoized sweep must write
// exactly the bytes a non-memoized sweep writes — cache file, journal rows,
// every formatted metric. The tests below run real sub-sweeps both ways and
// compare raw bytes, and hammer the shared memo from 8 threads so the TSan
// CI leg exercises the concurrent paths.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/deadline.hpp"
#include "common/journal.hpp"
#include "common/parallel.hpp"
#include "core/dse.hpp"
#include "verify/faultpoint.hpp"

namespace musa::core {
namespace {

std::string tmp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + name;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// Reduced trace slices: the identity property is path-equality, not slice
/// size, and the full 320k-instruction warm-up would make these tests the
/// slowest in the suite.
PipelineOptions fast_options() {
  PipelineOptions o;
  o.warm_instrs = 40'000;
  o.measure_instrs = 32'000;
  return o;
}

/// 36 configs spanning every memo key dimension: 4 core presets × 3
/// frequencies × 3 vector widths. With two apps this is the 72-point
/// sub-sweep the byte-identity tests run.
std::vector<MachineConfig> sub_space() {
  std::vector<MachineConfig> configs;
  for (const auto& core : cpusim::core_presets())
    for (double freq : {1.5, 2.0, 2.5})
      for (int vec : {128, 256, 512}) {
        MachineConfig c;
        c.core = core;
        c.freq_ghz = freq;
        c.vector_bits = vec;
        configs.push_back(c);
      }
  return configs;
}

SweepOptions sub_sweep(bool memoize) {
  SweepOptions o;
  o.verbose = false;
  o.memoize = memoize;
  o.apps = {"hydro", "lulesh"};
  o.configs = sub_space();
  return o;
}

TEST(StageMemo, MemoizedPipelineMatchesPlainPointwise) {
  const apps::AppModel& app = apps::find_app("spmz");
  MachineConfig config;
  config.freq_ghz = 2.5;
  config.mem_channels = 8;

  Pipeline plain(fast_options());
  auto memo = std::make_shared<StageMemo>(
      pipeline_options_fingerprint(fast_options()));
  Pipeline memoized(fast_options(), memo);

  const SimResult a = plain.run(app, config);
  const SimResult b = memoized.run(app, config);
  EXPECT_EQ(DseEngine::to_row(a), DseEngine::to_row(b));
}

TEST(StageMemo, SecondRunHitsEveryTable) {
  const apps::AppModel& app = apps::find_app("hydro");
  auto memo = std::make_shared<StageMemo>(
      pipeline_options_fingerprint(fast_options()));
  Pipeline pipeline(fast_options(), memo);

  const SimResult first = pipeline.run(app, MachineConfig{});
  const MemoStats cold = memo->stats();
  EXPECT_GT(cold.total_misses(), 0u);

  const SimResult second = pipeline.run(app, MachineConfig{});
  const MemoStats warm = memo->stats();
  // The repeat run computes nothing new...
  EXPECT_EQ(warm.total_misses(), cold.total_misses());
  // ...every stage is served from the memo (the warm-up state is consulted
  // only to fill a missing outcome entry, so a repeat run never reads it)...
  EXPECT_GT(warm.burst_hits, cold.burst_hits);
  EXPECT_GT(warm.region_hits, cold.region_hits);
  EXPECT_GT(warm.trace_hits, cold.trace_hits);
  EXPECT_GT(warm.stream_hits, cold.stream_hits);
  EXPECT_GT(warm.outcome_hits, cold.outcome_hits);
  EXPECT_EQ(warm.warm_hits + warm.warm_misses,
            cold.warm_hits + cold.warm_misses);
  EXPECT_GT(warm.perfect_hits, cold.perfect_hits);
  // ...and the result is still bit-identical.
  EXPECT_EQ(DseEngine::to_row(first), DseEngine::to_row(second));
}

TEST(StageMemo, RejectsMemoBuiltForDifferentOptions) {
  auto memo = std::make_shared<StageMemo>(
      pipeline_options_fingerprint(fast_options()));
  EXPECT_THROW(Pipeline(PipelineOptions{}, memo), SimError);
  PipelineOptions other = fast_options();
  other.seed = 99;
  EXPECT_THROW(Pipeline(other, memo), SimError);
  EXPECT_NO_THROW(Pipeline(fast_options(), memo));
}

TEST(StageMemo, SubSweepCacheIsByteIdenticalWithAndWithoutMemo) {
  const std::string on_path = tmp_path("musa_memo_on.csv");
  const std::string off_path = tmp_path("musa_memo_off.csv");

  Pipeline pipe_on(fast_options());
  DseEngine on(pipe_on, on_path, sub_sweep(/*memoize=*/true));
  on.recompute();
  ASSERT_TRUE(on.report().finalized);
  // The sweep actually exercised the memo: with 2 apps and 36 configs all
  // sharing (cores, cache, channels), all but a handful of lookups hit.
  EXPECT_GT(on.report().memo.total_hits(), 0u);
  EXPECT_GT(on.report().memo.stream_hits, on.report().memo.stream_misses);

  Pipeline pipe_off(fast_options());
  DseEngine off(pipe_off, off_path, sub_sweep(/*memoize=*/false));
  off.recompute();
  ASSERT_TRUE(off.report().finalized);
  EXPECT_EQ(off.report().memo.total_hits() + off.report().memo.total_misses(),
            0u);

  const std::string on_bytes = slurp(on_path);
  ASSERT_FALSE(on_bytes.empty());
  EXPECT_EQ(on_bytes, slurp(off_path));
  std::remove(on_path.c_str());
  std::remove(off_path.c_str());
}

TEST(StageMemo, QuarantinedJournalRowsAreByteIdenticalWithAndWithoutMemo) {
  // A sweep held back by quarantined points leaves its journal behind; the
  // journalled row strings (what the cache is later assembled from) must
  // not depend on memoization either. The injected fault is a pure function
  // of the point key, so both runs quarantine the same points. Rows are
  // compared as key -> row maps because the append order depends on worker
  // interleaving, which is not part of the byte-identity contract (the
  // finalized cache is written in plan order).
  struct ClearFaults {
    ~ClearFaults() { verify::FaultPlan::clear(); }
  } clear_faults;
  verify::FaultPlan::install(
      verify::FaultPlan::parse("pipeline.power:injected:5:0.25"));
  const auto journal_of = [&](bool memoize) {
    const std::string cache =
        tmp_path(memoize ? "musa_memo_q_on.csv" : "musa_memo_q_off.csv");
    Pipeline pipe(fast_options());
    DseEngine dse(pipe, cache, sub_sweep(memoize));
    const SweepReport rep = dse.sweep(/*force=*/true);
    EXPECT_FALSE(rep.finalized);
    EXPECT_GT(rep.quarantined, 0u);
    EXPECT_EQ(rep.computed + rep.quarantined, rep.total);
    ResultJournal::LoadResult lr =
        ResultJournal::read(cache + ".journal", DseEngine::csv_header());
    EXPECT_FALSE(lr.schema_mismatch);
    EXPECT_EQ(lr.dropped, 0u);
    dse.clear_cache();
    return lr;
  };

  const ResultJournal::LoadResult with_memo = journal_of(true);
  const ResultJournal::LoadResult without_memo = journal_of(false);
  ASSERT_EQ(with_memo.entries.size(), without_memo.entries.size());
  ASSERT_GT(with_memo.entries.size(), 0u);
  for (const auto& [key, row] : with_memo.entries) {
    const auto it = without_memo.entries.find(key);
    ASSERT_NE(it, without_memo.entries.end()) << "missing key: " << key;
    EXPECT_EQ(row, it->second) << "row differs for " << key;
  }
  ASSERT_EQ(with_memo.fails.size(), without_memo.fails.size());
  for (const auto& [key, fail] : with_memo.fails)
    EXPECT_EQ(without_memo.fails.count(key), 1u) << "fail differs: " << key;
}

TEST(StageMemo, EightWorkersHammeringSharedMemoAgreeWithPlain) {
  // 8 threads × 12 points through one StageMemo: every worker must get
  // the same bytes the memo-less pipeline computes. Under the TSan CI leg
  // this is the data-race hammer for the shared tables. Each worker walks
  // the points from its own offset, so different fused-op and outcome keys
  // (spanning 3 vector widths, 3 cache geometries and 2 core counts) are
  // filled concurrently, as well as the same key by several workers.
  const apps::AppModel& app = apps::find_app("btmz");
  std::vector<MachineConfig> configs;
  for (const auto& core : cpusim::core_presets()) {
    MachineConfig c;
    c.core = core;
    configs.push_back(c);
  }
  for (int vec : {256, 512}) {
    MachineConfig c;
    c.vector_bits = vec;
    configs.push_back(c);
  }
  for (const char* cache : {"64M:512K", "96M:1M"}) {
    MachineConfig c;
    c.cache_label = cache;
    c.vector_bits = c.cache_label == "96M:1M" ? 512 : 128;
    configs.push_back(c);
    c.cores = 1;
    configs.push_back(c);
  }
  for (int vec : {256, 512}) {
    MachineConfig c;
    c.cores = 1;
    c.vector_bits = vec;
    configs.push_back(c);
  }

  std::vector<std::vector<std::string>> expected;
  Pipeline plain(fast_options());
  expected.reserve(configs.size());
  for (const auto& c : configs)
    expected.push_back(DseEngine::to_row(plain.run(app, c)));

  auto memo = std::make_shared<StageMemo>(
      pipeline_options_fingerprint(fast_options()));
  constexpr int kWorkers = 8;
  std::vector<std::vector<std::vector<std::string>>> got(kWorkers);
  parallel_workers(kWorkers, [&](int w) {
    Pipeline local(fast_options(), memo);
    auto& rows = got[static_cast<std::size_t>(w)];
    rows.resize(configs.size());
    for (std::size_t k = 0; k < configs.size(); ++k) {
      const std::size_t i = (k + static_cast<std::size_t>(w)) % configs.size();
      rows[i] = DseEngine::to_row(local.run(app, configs[i]));
    }
  });

  for (int w = 0; w < kWorkers; ++w)
    EXPECT_EQ(got[static_cast<std::size_t>(w)], expected)
        << "worker " << w << " diverged";
  const MemoStats stats = memo->stats();
  EXPECT_GT(stats.total_hits(), 0u);
  EXPECT_GT(stats.stream_hits, 0u);
  EXPECT_GT(stats.outcome_hits, 0u);
  EXPECT_GT(stats.outcome_misses, 0u);
  EXPECT_GT(stats.warm_hits + stats.warm_misses, 0u);

  // Fills are single-flight: however the workers raced, each table
  // computed each distinct key once, as one worker alone does.
  auto serial_memo = std::make_shared<StageMemo>(
      pipeline_options_fingerprint(fast_options()));
  Pipeline serial(fast_options(), serial_memo);
  for (const auto& c : configs) serial.run(app, c);
  const MemoStats keys = serial_memo->stats();
  EXPECT_EQ(stats.region_misses, keys.region_misses);
  EXPECT_EQ(stats.trace_misses, keys.trace_misses);
  EXPECT_EQ(stats.burst_misses, keys.burst_misses);
  EXPECT_EQ(stats.stream_misses, keys.stream_misses);
  EXPECT_EQ(stats.outcome_misses, keys.outcome_misses);
  EXPECT_EQ(stats.warm_misses, keys.warm_misses);
  EXPECT_EQ(stats.perfect_misses, keys.perfect_misses);
}

// --- Single-flight fills -----------------------------------------------------
// StageMemo::burst_concurrency takes any callback, so these drive one key
// of one table directly: `started` tells the second worker that the first
// one has claimed the key and is inside its fill.

TEST(StageMemo, WorkerWaitsForAKeyBeingFilledInsteadOfComputingIt) {
  const apps::AppModel& app = apps::find_app("hydro");
  StageMemo memo(pipeline_options_fingerprint(fast_options()));
  std::atomic<bool> started{false};
  double first = 0.0;
  std::thread filler([&] {
    first = memo.burst_concurrency(app, 8, [&] {
      started = true;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      return 3.5;
    });
  });
  while (!started) std::this_thread::yield();
  const double second = memo.burst_concurrency(app, 8, []() -> double {
    ADD_FAILURE() << "second worker computed a key being filled";
    return -1.0;
  });
  filler.join();
  EXPECT_EQ(first, 3.5);
  EXPECT_EQ(second, 3.5);
  EXPECT_EQ(memo.stats().burst_misses, 1u);
  EXPECT_EQ(memo.stats().burst_hits, 1u);
}

TEST(StageMemo, WaitersComputeForThemselvesWhenTheFillThrows) {
  // The claimant's fill throws once (as an injected fault inside a fill
  // callback does); the waiting worker wakes, claims the key and fills it.
  const apps::AppModel& app = apps::find_app("hydro");
  StageMemo memo(pipeline_options_fingerprint(fast_options()));
  std::atomic<bool> started{false};
  bool threw = false;
  std::thread filler([&] {
    try {
      memo.burst_concurrency(app, 8, []() -> double {
        throw SimError("injected fill failure");
      });
    } catch (const SimError&) {
      threw = true;
    }
  });
  filler.join();
  // And while a waiter is parked on the claim.
  std::thread slow_filler([&] {
    try {
      memo.burst_concurrency(app, 16, [&]() -> double {
        started = true;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        throw SimError("injected fill failure");
      });
    } catch (const SimError&) {
    }
  });
  while (!started) std::this_thread::yield();
  const double waited = memo.burst_concurrency(app, 16, [] { return 2.0; });
  slow_filler.join();
  EXPECT_TRUE(threw);
  EXPECT_EQ(waited, 2.0);
  // The key the failed fill left unfilled is computed on the next lookup.
  EXPECT_EQ(memo.burst_concurrency(app, 8, [] { return 1.0; }), 1.0);
  EXPECT_EQ(memo.burst_concurrency(app, 8, [] { return 9.0; }), 1.0);
  const MemoStats stats = memo.stats();
  EXPECT_EQ(stats.burst_misses, 4u);  // two failed fills, two good ones
  EXPECT_EQ(stats.burst_hits, 1u);
}

TEST(StageMemo, WaitingWorkerStillHonoursItsDeadline) {
  const apps::AppModel& app = apps::find_app("hydro");
  StageMemo memo(pipeline_options_fingerprint(fast_options()));
  std::atomic<bool> started{false}, release{false};
  std::thread filler([&] {
    memo.burst_concurrency(app, 8, [&] {
      started = true;
      while (!release)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return 3.5;
    });
  });
  while (!started) std::this_thread::yield();
  {
    deadline::Scope budget(0.02);
    try {
      memo.burst_concurrency(app, 8, [] { return -1.0; });
      ADD_FAILURE() << "wait outlived its deadline";
    } catch (const SimError& e) {
      EXPECT_EQ(e.error_class(), ErrorClass::kTimeout) << e.what();
    }
  }
  release = true;
  filler.join();
  EXPECT_EQ(memo.burst_concurrency(app, 8, [] { return -1.0; }), 3.5);
}

}  // namespace
}  // namespace musa::core
