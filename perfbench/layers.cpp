#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <utility>

#include "cachesim/hierarchy.hpp"
#include "common/units.hpp"
#include "core/dse.hpp"
#include "cpusim/core_model.hpp"
#include "cpusim/runtime.hpp"
#include "dramsim/dram.hpp"
#include "isa/vector_fusion.hpp"
#include "netsim/dimemas.hpp"
#include "powersim/power.hpp"
#include "trace/instr_source.hpp"
#include "trace/kernel.hpp"

namespace bench {

namespace mc = musa::core;
using musa::apps::AppModel;

namespace {

// The three helpers below restate, from the outside, the reduced-scale
// and jitter rules core::Pipeline applies (pipeline.hpp explains them).
// If the program changes them, the fidelity checks of the probe fail.

musa::trace::KernelProfile scale_profile(const musa::trace::KernelProfile& p,
                                         int factor) {
  musa::trace::KernelProfile s = p;
  s.vec_ws_bytes = std::max<std::uint64_t>(256, p.vec_ws_bytes / factor);
  for (auto& st : s.streams)
    st.ws_bytes = std::max<std::uint64_t>(256, st.ws_bytes / factor);
  return s;
}

musa::cachesim::HierarchyConfig scale_caches(
    const musa::cachesim::HierarchyConfig& c, int factor, double l3_share) {
  using musa::cachesim::kLineBytes;
  musa::cachesim::HierarchyConfig s = c;
  s.num_cores = 1;
  s.l1.size_bytes = std::max<std::uint64_t>(
      kLineBytes * s.l1.ways, c.l1.size_bytes / std::max(1, factor / 2));
  s.l2.size_bytes =
      std::max<std::uint64_t>(kLineBytes * s.l2.ways, c.l2.size_bytes / factor);
  const auto l3 = static_cast<std::uint64_t>(
      static_cast<double>(c.l3.size_bytes) / factor * l3_share);
  s.l3.size_bytes = std::max<std::uint64_t>(kLineBytes * s.l3.ways, l3);
  return s;
}

double makespan_jitter_sigma(const AppModel& app, int cores) {
  if (cores <= 1) return 0.0;
  const double tasks_per_core =
      std::max(1.0, static_cast<double>(app.tasks_per_region) / cores);
  return std::min(0.35, app.task_imbalance / std::sqrt(tasks_per_core));
}

/// Generates a kernel stream into one buffer, in whole generator blocks as
/// the core model pulls it (the source finishes its last outer iteration
/// past `budget`, exactly as it does for the pipeline).
std::vector<musa::isa::Instr> generate(const musa::trace::KernelProfile& profile,
                                       std::uint64_t budget, std::uint64_t seed) {
  musa::trace::KernelSource source(profile, budget, seed);
  std::vector<musa::isa::Instr> out;
  out.reserve(budget + static_cast<std::uint64_t>(profile.instrs_per_outer()));
  const musa::isa::Instr* block = nullptr;
  for (std::size_t n; (n = source.take_block(&block, SIZE_MAX)) > 0;)
    out.insert(out.end(), block, block + n);
  return out;
}

/// Pulls a kernel stream through the generator without keeping it — the
/// generation cost the memo-less pipeline pays while it streams. Returns
/// the instruction count.
std::uint64_t stream_through(const musa::trace::KernelProfile& profile,
                             std::uint64_t budget, std::uint64_t seed) {
  musa::trace::KernelSource source(profile, budget, seed);
  const musa::isa::Instr* block = nullptr;
  std::uint64_t count = 0;
  for (std::size_t n; (n = source.take_block(&block, SIZE_MAX)) > 0;) count += n;
  return count;
}

/// Functional warm-up: every memory instruction of the first `instrs`
/// touches the hierarchy. Returns the number of accesses made.
std::uint64_t functional_warm(const std::vector<musa::isa::Instr>& stream,
                              musa::cachesim::MemHierarchy& hierarchy,
                              std::uint64_t instrs) {
  std::uint64_t accesses = 0;
  const std::size_t n = std::min<std::size_t>(stream.size(), instrs);
  for (std::size_t i = 0; i < n; ++i) {
    const musa::isa::Instr& in = stream[i];
    if (!musa::isa::is_mem(in.op)) continue;
    hierarchy.access(0, in.addr, in.op == musa::isa::OpClass::kStore);
    ++accesses;
  }
  return accesses;
}

/// Times one call and records it as a span when tracing.
class Timer {
 public:
  Timer(SpanLog* spans, const char* name, const std::string& key)
      : spans_(spans), name_(name), key_(key), t0_(Clock::now()),
        t0_us_(spans && spans->enabled() ? spans->now_us() : 0.0) {}
  double stop() {
    const double s = seconds_since(t0_);
    if (spans_ && spans_->enabled())
      spans_->add(Span{name_, key_, t0_us_, s * 1e6, 0});
    return s;
  }

 private:
  SpanLog* spans_;
  const char* name_;
  const std::string& key_;
  Clock::time_point t0_;
  double t0_us_;
};

}  // namespace

std::vector<mc::BurstResult> direct_burst(const mc::PipelineOptions& options,
                                          const std::vector<BurstCall>& calls,
                                          NetCost* cost, SpanLog* spans) {
  // A fresh Pipeline caches regions per (app, phase) and burst traces per
  // (app, ranks); this map pair is that cache.
  std::map<std::pair<const AppModel*, std::size_t>, musa::trace::Region>
      regions;
  std::map<std::pair<const AppModel*, int>,
           std::pair<musa::trace::AppTrace, std::uint64_t>>
      traces;  // trace plus its event count
  const musa::netsim::DimemasEngine net(options.network);
  std::vector<mc::BurstResult> out;
  out.reserve(calls.size());
  for (const BurstCall& call : calls) {
    const AppModel& app = *call.app;
    const std::string key = app.name + "|" + std::to_string(call.cores) +
                            "c|" + std::to_string(call.ranks) + "r";
    const std::vector<musa::apps::Phase> phases = app.phases();
    const musa::cpusim::RuntimeSim runtime;
    std::vector<double> scales;
    mc::BurstResult r;
    for (std::size_t ph = 0; ph < phases.size(); ++ph) {
      auto it = regions.find({&app, ph});
      if (it == regions.end())
        it = regions
                 .emplace(std::make_pair(&app, ph),
                          musa::apps::make_region(phases[ph], options.seed + ph))
                 .first;
      const musa::trace::Region& region = it->second;
      const std::vector<musa::cpusim::TaskTiming> timing = {
          {.seconds_per_work = phases[ph].ref_region_seconds / region.total_work(),
           .mem_stall_frac = 0.0,
           .dram_gbps = 0.0}};
      Timer t(spans, "runtime.run", key);
      const musa::cpusim::NodeResult node = runtime.run(
          region, timing,
          {.cores = call.cores, .dispatch_overhead_s = app.dispatch_overhead_s,
           .bw_capacity_gbps = 0.0});
      cost->runtime_s += t.stop();
      ++cost->runtime_calls;
      r.region_seconds += node.seconds;
      scales.push_back(node.seconds / phases[ph].ref_region_seconds);
    }
    auto tr = traces.find({&app, call.ranks});
    if (tr == traces.end()) {
      Timer t(spans, "trace.burst_gen", key);
      musa::trace::AppTrace trace =
          musa::apps::make_burst_trace(app, call.ranks, options.seed + 1);
      cost->burst_gen_s += t.stop();
      ++cost->burst_gens;
      std::uint64_t events = 0;
      for (const auto& rank : trace.ranks) events += rank.events.size();
      tr = traces
               .emplace(std::make_pair(&app, call.ranks),
                        std::make_pair(std::move(trace), events))
               .first;
    }
    musa::netsim::ReplayOptions ropts;
    ropts.region_scale = std::move(scales);
    ropts.region_jitter_sigma = makespan_jitter_sigma(app, call.cores);
    Timer t(spans, "netsim.replay", key);
    const musa::netsim::ReplayResult replay = net.replay(tr->second.first, ropts);
    const double s = t.stop();
    cost->replay_s += s;
    cost->replay_ms.push_back(s * 1e3);
    cost->events += tr->second.second;
    r.wall_seconds = replay.total_seconds;
    out.push_back(r);
  }
  return out;
}

ProbedPoint probe_point(const AppModel& app, const mc::MachineConfig& config,
                        const mc::PipelineOptions& options, KernelCost* cost,
                        SpanLog* spans) {
  ProbedPoint out;
  out.key = mc::DseEngine::point_key(app.name, config);
  const std::string& key = out.key;

  // Reference: the same point through a fresh, memo-less Pipeline.
  {
    mc::Pipeline pipeline(options);
    Timer t(spans, "pipeline.run", key);
    out.pipeline = pipeline.run(app, config);
    t.stop();
    cost->kernel_stage_s += pipeline.stage_times().kernel_s;
  }

  // Burst pre-pass (the pipeline's burst stage, not timed as a layer):
  // how many cores hold tasks, which sets the L3 and DRAM share.
  musa::cpusim::NodeResult burst_node;
  mc::Pipeline(options).run_burst(app, config.cores, 1, &burst_node, nullptr);
  const double active = std::clamp(burst_node.avg_concurrency, 1.0,
                                   static_cast<double>(config.cores));

  const musa::Frequency freq{config.freq_ghz};
  const double l3_share = config.cores > 1 ? 1.0 / std::max(1.0, active) : 1.0;
  const musa::cachesim::HierarchyConfig caches =
      scale_caches(config.cache_config(1), options.cache_scale, l3_share);
  const std::uint64_t perfect_slice =
      std::max<std::uint64_t>(1, options.measure_instrs / 4);
  const std::uint64_t stream_seed = options.seed * 7919 + 17;
  const std::vector<musa::apps::Phase> phases = app.phases();
  const musa::cpusim::RuntimeSim runtime;

  struct PhaseOut {
    double ipc, mpki_l1, mpki_l2, mpki_l3, instrs;
  };
  std::vector<PhaseOut> per_phase;
  double node_instrs = 0.0;
  for (std::size_t phi = 0; phi < phases.size(); ++phi) {
    const musa::apps::Phase& phase = phases[phi];

    Timer tr(spans, "trace.region", key);
    const musa::trace::Region region =
        musa::apps::make_region(phase, options.seed + phi);
    cost->region_s += tr.stop();

    // trace: the warm-up + measured stream and the perfect-memory slice.
    const musa::trace::KernelProfile profile =
        scale_profile(phase.kernel, options.cache_scale);
    // Timed as streamed, then generated again into buffers the layer calls
    // below replay (the stage memo's form of the same streams).
    const std::uint64_t full_budget = options.warm_instrs + options.measure_instrs;
    Timer tk(spans, "trace.kernel_gen", key);
    cost->kgen_instrs += stream_through(profile, full_budget, stream_seed) +
                         stream_through(profile, perfect_slice, stream_seed);
    cost->kgen_s += tk.stop();
    const std::vector<musa::isa::Instr> full =
        generate(profile, full_budget, stream_seed);
    const std::vector<musa::isa::Instr> perfect =
        generate(profile, perfect_slice, stream_seed);

    // cachesim: functional warm-up of the scaled hierarchy.
    musa::cachesim::MemHierarchy hierarchy(caches);
    Timer tw(spans, "cachesim.warm", key);
    cost->warm_accesses +=
        functional_warm(full, hierarchy, options.warm_instrs);
    cost->warm_s += tw.stop();
    hierarchy.reset_stats();

    // isa: vector fusion of the measured slice on its own (inside the core
    // run it is interleaved with timing, so it is timed separately here).
    {
      musa::trace::SpanSource source(full, options.warm_instrs);
      musa::isa::VectorFusion fusion(source, config.vector_bits);
      musa::isa::FusedBlock block;
      Timer tf(spans, "isa.fusion", key);
      while (fusion.next_block(block)) {
      }
      cost->fusion_s += tf.stop();
      cost->fused_in += fusion.stats().in_instrs;
      cost->fused_ops += fusion.stats().out_instrs;
    }

    // cpusim with cachesim and dramsim behind it: the measured run.
    musa::dramsim::DramTiming dram_timing =
        musa::dramsim::timing_for(config.mem_tech);
    if (config.cores > 1) dram_timing.bytes_per_clock /= std::max(1.0, active);
    musa::dramsim::DramSystem dram(dram_timing, config.mem_channels);
    musa::cpusim::CoreModel core(config.core, freq, hierarchy, dram);
    musa::trace::SpanSource measured(full, options.warm_instrs);
    Timer tc(spans, "cpusim.core", key);
    const musa::cpusim::CoreStats stats =
        core.run(measured, {.vector_bits = config.vector_bits});
    cost->core_s += tc.stop();
    cost->core_instrs += stats.scalar_instrs;

    // cpusim alone: the perfect-memory attribution run.
    musa::cachesim::MemHierarchy perfect_hierarchy(caches);
    musa::dramsim::DramSystem perfect_dram(
        musa::dramsim::timing_for(config.mem_tech), 1);
    musa::cpusim::CoreModel perfect_core(config.core, freq, perfect_hierarchy,
                                         perfect_dram);
    musa::trace::SpanSource perfect_source(perfect);
    Timer tp(spans, "cpusim.perfect", key);
    const musa::cpusim::CoreStats pstats = perfect_core.run(
        perfect_source,
        {.vector_bits = config.vector_bits, .perfect_memory = true});
    cost->perfect_s += tp.stop();
    cost->perfect_instrs += pstats.scalar_instrs;

    cost->l1_acc += stats.l1_accesses;
    cost->l1_miss += stats.l1_misses;
    cost->l2_acc += stats.l2_accesses;
    cost->l2_miss += stats.l2_misses;
    cost->l3_acc += stats.l3_accesses;
    cost->l3_miss += stats.l3_misses;
    cost->dram_requests += stats.dram.reads + stats.dram.writes;
    cost->dram_row_hits += stats.dram.row_hits;

    const auto instrs = static_cast<double>(stats.scalar_instrs);
    const double cpi = stats.cycles / instrs;
    const double perfect_cpi =
        pstats.cycles / static_cast<double>(pstats.scalar_instrs);
    const musa::cpusim::TaskTiming task{
        .seconds_per_work = cpi * phase.task_instrs / freq.hz(),
        .mem_stall_frac = std::clamp(1.0 - perfect_cpi / cpi, 0.0, 0.98),
        .dram_gbps = stats.dram_gbps(freq)};
    Timer tn(spans, "runtime.run", key);
    const musa::cpusim::NodeResult node = runtime.run(
        region, {task},
        {.cores = config.cores, .dispatch_overhead_s = app.dispatch_overhead_s,
         .bw_capacity_gbps = 0.0});
    cost->runtime_s += tn.stop();
    ++cost->runtime_calls;

    // powersim: the three component models on this phase's activity.
    musa::powersim::NodeActivity activity;
    const double region_s = std::max(node.seconds, 1e-12);
    const double phase_instrs = phase.task_instrs * region.total_work();
    for (int c = 0; c < musa::isa::kNumOpClasses; ++c) {
      activity.ops_s[c] =
          static_cast<double>(stats.class_ops[c]) / instrs * phase_instrs / region_s;
      activity.lanes_s[c] = static_cast<double>(stats.class_lanes[c]) / instrs *
                            phase_instrs / region_s;
    }
    activity.l1_access_s =
        static_cast<double>(stats.l1_accesses) / instrs * phase_instrs / region_s;
    activity.l2_access_s =
        static_cast<double>(stats.l2_accesses) / instrs * phase_instrs / region_s;
    activity.l3_access_s =
        static_cast<double>(stats.l3_accesses) / instrs * phase_instrs / region_s;
    activity.active_cores = node.avg_concurrency;
    activity.total_cores = config.cores;
    constexpr int kPowerReps = 200;  // one evaluation is well below 1 µs
    double watts = 0.0;
    Timer tw2(spans, "powersim.eval", key);
    for (int rep = 0; rep < kPowerReps; ++rep) {
      const musa::powersim::CorePower core_power(config.core, config.vector_bits,
                                                 config.freq_ghz);
      const musa::powersim::CachePower cache_power(
          config.cache_config(config.cores), config.freq_ghz);
      const musa::powersim::DramPower dram_power(
          musa::powersim::DramPower::dimms_for_channels(config.mem_channels));
      watts += core_power.evaluate_w(activity) + cache_power.evaluate_w(activity) +
               dram_power.evaluate_w(stats.dram, region_s);
    }
    cost->power_s += tw2.stop();
    cost->power_evals += kPowerReps;
    if (!(watts > 0.0)) throw std::runtime_error("power probe produced no watts");

    per_phase.push_back({1.0 / cpi, stats.mpki_l1(), stats.mpki_l2(),
                         stats.mpki_l3(), phase_instrs});
    node_instrs += phase_instrs;
  }
  // Instruction-weighted aggregation over phases, as Pipeline::run does.
  for (const PhaseOut& p : per_phase) {
    const double w = p.instrs / node_instrs;
    out.mpki_l1 += p.mpki_l1 * w;
    out.mpki_l2 += p.mpki_l2 * w;
    out.mpki_l3 += p.mpki_l3 * w;
    out.ipc += p.ipc * w;
  }
  return out;
}

}  // namespace bench
