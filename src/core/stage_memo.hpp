// Cross-point memoization of redundant pipeline stages.
//
// The 864-configuration sweep recomputes, at every point, work whose inputs
// only span a handful of distinct values (DESIGN.md "Stage memoization"):
//
//   * region generation                 — keyed (app, phase);
//   * the burst trace, kept only as its compiled netsim::ReplayProgram
//     (the "trace" table)               — keyed (app, ranks);
//   * the burst pre-pass concurrency    — keyed (app, cores): 3 values/app;
//   * the measured run's fused-op stream (the "stream" table) — keyed
//     (app, phase, vector width): the KernelSource is deterministic in
//     (profile, budget, seed), none of which vary across machine
//     configurations, and vector fusion is a pure function of the stream
//     and the width;
//   * the measured run's cache outcomes (the "outcome" table) — keyed
//     (app, phase, vector width, exact scaled hierarchy geometry): cache
//     lookups take no time input, so which ops leave the L1 fast path and
//     where each of their lines is served from never depend on the core,
//     the frequency or the DRAM system (DESIGN.md §7k);
//   * the post-warm-up cache state      — keyed (app, phase, exact scaled
//     hierarchy geometry): the functional warm-up touches the hierarchy
//     with a fixed address stream, so its end state is a pure function of
//     the cache geometry. Only an outcome-table miss consults it;
//   * the perfect-memory CPI            — keyed (app, phase, core preset,
//     vector width): perfect memory never consults caches or DRAM, so
//     frequency / memory-technology / channel dimensions cancel out.
//
// A memoized point therefore runs only the timing half of its measured
// run: CoreModel::replay over the stream and outcome entries, against the
// point's own DRAM system.
//
// Every memoized value is the bit-exact result the non-memoized path would
// compute (same constructors, same seeds, same arithmetic), which is what
// makes the memoized sweep's dse_cache.csv byte-identical — the property
// test_stage_memo locks in and `run_dse --no-memo` exists to bisect.
//
// Thread safety: one StageMemo is shared by every sweep worker. Each table
// has its own shared_mutex (read-mostly: taken shared on the hit path).
// Fills are single-flight: the first worker to miss a key claims it and
// computes *outside* any lock, while other workers missing the same key
// wait for it (polling the point's watchdog, so a --timeout budget still
// holds) and then read its value, so each key is computed once. If the
// claimant throws (fault-injection sites sit inside the fill callbacks),
// its claim is dropped and a waiter claims the key and computes it itself.
// Fills nest only along burst → region / trace and outcome → warm, so a
// worker waiting on a key never holds a claim the key's claimant waits
// for: the claims cannot deadlock. std::unordered_map never moves node
// storage, so returned references stay valid while others insert.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "apps/apps.hpp"
#include "cachesim/hierarchy.hpp"
#include "common/deadline.hpp"
#include "cpusim/core_config.hpp"
#include "cpusim/measured_trace.hpp"
#include "netsim/replay_program.hpp"

namespace musa::core {

/// 128-bit memo key: an application fingerprint plus a stage-specific tag
/// (phase index, rank count, or a hash of the stage's remaining inputs).
struct MemoKey {
  std::uint64_t app = 0;
  std::uint64_t tag = 0;
  bool operator==(const MemoKey&) const = default;
};

struct MemoKeyHash {
  using is_transparent = void;
  std::size_t operator()(const MemoKey& k) const noexcept {
    // splitmix-style finalizer over the two halves.
    std::uint64_t h = k.app ^ (k.tag * 0x9e3779b97f4a7c15ull);
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    return static_cast<std::size_t>(h);
  }
};

/// FNV-1a over raw bytes; the building block of every fingerprint.
std::uint64_t fnv1a_bytes(const void* data, std::size_t n,
                          std::uint64_t seed = 0xcbf29ce484222325ull);

/// Identity of an AppModel for memo keys: the registry apps are distinct
/// stable objects, so the address alone would do; the name hash guards the
/// stack-allocated apps tests build (same address reused, different app).
std::uint64_t app_fingerprint(const apps::AppModel& app);

/// Exact numeric content of a scaled hierarchy configuration.
std::uint64_t hierarchy_fingerprint(const cachesim::HierarchyConfig& c);

/// Exact numeric content of a core preset (label included).
std::uint64_t core_fingerprint(const cpusim::CoreConfig& c);

/// Mirror a table's hit/miss onto the global metric registry as
/// "memo.<table>.hits" / "memo.<table>.misses". The per-instance atomic
/// counters below stay the source of truth for stats() — tests assert
/// per-memo deltas — the registry mirror is what sweeps export
/// (metrics.json, summary table) without threading MemoStats around.
void memo_hit(const char* table);
void memo_miss(const char* table);

/// Per-table hit/miss counts, snapshot for reporting. A "miss" is a compute:
/// one per distinct key, plus one per fill that threw. A lookup that waited
/// for another worker's fill counts as a hit.
struct MemoStats {
  std::uint64_t region_hits = 0, region_misses = 0;
  std::uint64_t trace_hits = 0, trace_misses = 0;
  std::uint64_t burst_hits = 0, burst_misses = 0;
  std::uint64_t stream_hits = 0, stream_misses = 0;    // fused-op stream
  std::uint64_t outcome_hits = 0, outcome_misses = 0;  // cache outcomes
  std::uint64_t warm_hits = 0, warm_misses = 0;
  std::uint64_t perfect_hits = 0, perfect_misses = 0;

  std::uint64_t total_hits() const {
    return region_hits + trace_hits + burst_hits + stream_hits +
           outcome_hits + warm_hits + perfect_hits;
  }
  std::uint64_t total_misses() const {
    return region_misses + trace_misses + burst_misses + stream_misses +
           outcome_misses + warm_misses + perfect_misses;
  }
  static double rate(std::uint64_t hits, std::uint64_t misses) {
    const std::uint64_t n = hits + misses;
    return n ? static_cast<double>(hits) / static_cast<double>(n) : 0.0;
  }
};

class StageMemo {
 public:
  /// `options_fingerprint` identifies the PipelineOptions every user of
  /// this memo must share (seed, slice sizes, cache scale — see
  /// pipeline_options_fingerprint in pipeline.hpp); Pipeline refuses to
  /// attach a memo built for different options.
  explicit StageMemo(std::uint64_t options_fingerprint)
      : options_fp_(options_fingerprint) {}

  std::uint64_t options_fingerprint() const { return options_fp_; }

  MemoStats stats() const {
    MemoStats s;
    regions_.read(s.region_hits, s.region_misses);
    programs_.read(s.trace_hits, s.trace_misses);
    burst_.read(s.burst_hits, s.burst_misses);
    streams_.read(s.stream_hits, s.stream_misses);
    outcomes_.read(s.outcome_hits, s.outcome_misses);
    warm_.read(s.warm_hits, s.warm_misses);
    perfect_.read(s.perfect_hits, s.perfect_misses);
    return s;
  }

  template <typename Fn>
  const trace::Region& region(const apps::AppModel& app, std::size_t phase,
                              Fn&& compute) {
    return lookup(regions_, MemoKey{app_fingerprint(app), phase},
                  std::forward<Fn>(compute));
  }

  /// The compiled replay program of the burst trace at `ranks`.
  template <typename Fn>
  const netsim::ReplayProgram& program(const apps::AppModel& app, int ranks,
                                       Fn&& compute) {
    return lookup(programs_,
                  MemoKey{app_fingerprint(app),
                          static_cast<std::uint64_t>(ranks)},
                  std::forward<Fn>(compute));
  }

  /// Average concurrency of the burst pre-pass (drives the L3 share).
  template <typename Fn>
  double burst_concurrency(const apps::AppModel& app, int cores,
                           Fn&& compute) {
    return lookup(burst_,
                  MemoKey{app_fingerprint(app),
                          static_cast<std::uint64_t>(cores)},
                  std::forward<Fn>(compute));
  }

  /// The fused ops of the measured run at `vector_bits`.
  template <typename Fn>
  const cpusim::FusedOpTrace& fused_ops(const apps::AppModel& app,
                                        std::size_t phase, int vector_bits,
                                        Fn&& compute) {
    return lookup(streams_,
                  MemoKey{app_fingerprint(app),
                          fnv1a_bytes(&vector_bits, sizeof(vector_bits),
                                      fnv1a_bytes(&phase, sizeof(phase)))},
                  std::forward<Fn>(compute));
  }

  /// Cache outcomes of the measured run at `vector_bits` against the warm
  /// hierarchy of geometry `caches` (which already folds in the
  /// active-core L3 share, itself a function of (app, cores)).
  template <typename Fn>
  const cpusim::MemOutcomeTrace& mem_outcomes(
      const apps::AppModel& app, std::size_t phase, int vector_bits,
      const cachesim::HierarchyConfig& caches, Fn&& compute) {
    std::uint64_t tag = hierarchy_fingerprint(caches);
    tag = fnv1a_bytes(&phase, sizeof(phase), tag);
    tag = fnv1a_bytes(&vector_bits, sizeof(vector_bits), tag);
    return lookup(outcomes_, MemoKey{app_fingerprint(app), tag},
                  std::forward<Fn>(compute));
  }

  /// The hierarchy after functional warm-up + reset_stats.
  template <typename Fn>
  const cachesim::MemHierarchy& warm_state(
      const apps::AppModel& app, std::size_t phase,
      const cachesim::HierarchyConfig& caches, Fn&& compute) {
    return lookup(warm_,
                  MemoKey{app_fingerprint(app),
                          fnv1a_bytes(&phase, sizeof(phase),
                                      hierarchy_fingerprint(caches))},
                  std::forward<Fn>(compute));
  }

  /// CPI of the perfect-memory run (stall attribution baseline).
  template <typename Fn>
  double perfect_cpi(const apps::AppModel& app, std::size_t phase,
                     const cpusim::CoreConfig& core, int vector_bits,
                     Fn&& compute) {
    std::uint64_t tag = core_fingerprint(core);
    tag = fnv1a_bytes(&phase, sizeof(phase), tag);
    tag = fnv1a_bytes(&vector_bits, sizeof(vector_bits), tag);
    return lookup(perfect_, MemoKey{app_fingerprint(app), tag},
                  std::forward<Fn>(compute));
  }

 private:
  /// One memoized stage: its values, the keys being filled, and counters.
  template <typename V>
  struct Table {
    explicit Table(const char* n) : name(n) {}

    void read(std::uint64_t& h, std::uint64_t& m) const {
      h = hits.load(std::memory_order_relaxed);
      m = misses.load(std::memory_order_relaxed);
    }

    const char* name;  // metric name: memo.<name>.hits / .misses
    std::shared_mutex mu;
    std::condition_variable_any filled;  // a fill finished or was dropped
    std::unordered_map<MemoKey, V, MemoKeyHash> values;
    std::unordered_set<MemoKey, MemoKeyHash> filling;  // claimed keys
    std::atomic<std::uint64_t> hits{0}, misses{0};
  };

  template <typename V, typename Fn>
  const V& lookup(Table<V>& t, const MemoKey& key, Fn&& compute) {
    auto hit = [&](const V& v) -> const V& {
      t.hits.fetch_add(1, std::memory_order_relaxed);
      memo_hit(t.name);
      return v;
    };
    {
      std::shared_lock lock(t.mu);
      auto it = t.values.find(key);
      if (it != t.values.end()) return hit(it->second);
    }
    {
      std::unique_lock lock(t.mu);
      while (true) {
        auto it = t.values.find(key);
        if (it != t.values.end()) return hit(it->second);
        if (t.filling.insert(key).second) break;  // ours to compute
        // Another worker is filling this key: wait, but keep honouring
        // this point's wall-clock budget.
        t.filled.wait_for(lock, std::chrono::milliseconds(1));
        deadline::check_now();
      }
    }
    t.misses.fetch_add(1, std::memory_order_relaxed);
    memo_miss(t.name);
    // Compute outside the lock: callbacks that re-enter the memo (the
    // burst pre-pass builds regions and traces) take other tables' locks.
    try {
      auto value = compute();
      std::unique_lock lock(t.mu);
      t.filling.erase(key);
      const V& stored =
          t.values.try_emplace(key, std::move(value)).first->second;
      lock.unlock();
      t.filled.notify_all();
      return stored;
    } catch (...) {
      {
        std::unique_lock lock(t.mu);
        t.filling.erase(key);
      }
      t.filled.notify_all();
      throw;
    }
  }

  std::uint64_t options_fp_;

  Table<trace::Region> regions_{"region"};
  Table<netsim::ReplayProgram> programs_{"trace"};
  Table<double> burst_{"burst"};
  Table<cpusim::FusedOpTrace> streams_{"stream"};
  Table<cpusim::MemOutcomeTrace> outcomes_{"outcome"};
  Table<cachesim::MemHierarchy> warm_{"warm"};
  Table<double> perfect_{"perfect"};
};

}  // namespace musa::core
