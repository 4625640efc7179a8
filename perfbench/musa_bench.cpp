// Repository benchmark program: runs one workload in-process, checks its
// outputs against the committed results, and prints one JSON record.
//
//   musa_bench --workload sweep_full|net_whatif --seed N
//              --seconds S --trace 0|1 --root DIR --work DIR
//              [--spans FILE]
//   musa_bench --record-net-ref FILE        (defines the net_whatif reference)
//
// `--trace 0` measures the end-to-end metrics with no benchmark tracing;
// `--trace 1` runs the workload once untraced and once traced (spans around
// every layer call, written to --spans) and adds the layer probes, for the
// per-layer metrics. perfbench/README.md documents every metric.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "bench_util.hpp"
#include "common/journal.hpp"
#include "common/parallel.hpp"
#include "core/config_space.hpp"
#include "core/dse.hpp"
#include "core/pipeline.hpp"
#include "layers.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "sweep/protocol.hpp"
#include "verify/invariants.hpp"

namespace {

namespace mc = musa::core;
namespace fs = std::filesystem;
using bench::Clock;
using bench::quantile;
using bench::seconds_since;

// ---- workload parameters (BENCHMARK.json and README.md cite them) --------

constexpr int kThreads = 2;          // sweep workers and server compute threads
constexpr int kSetupReps = 15;  // set-ups before and again after the timed phase;
                                // setup_s is the median of all of them
// The traced sweep loop must land within wall_s's bound (BENCHMARK.json)
// of the untraced DseEngine::sweep.
constexpr double kTraceBound = 0.25;

// sweep_full: post-sweep point queries per (app, cores) stratum, each
// asked kQueryPasses times.
constexpr int kWarmPerStratum = 12;
constexpr int kColdPerStratum = 6;
constexpr int kQueryPasses = 3;

// net_whatif grid.
const std::vector<int> kNetCores = {1, 16, 32, 64};
const std::vector<int> kNetRanks = {256, 512, 1024, 2048};
const std::vector<musa::netsim::Topology> kNetTopologies = {
    musa::netsim::Topology::kCrossbar, musa::netsim::Topology::kBus,
    musa::netsim::Topology::kTorus2D, musa::netsim::Topology::kFatTree};
const std::vector<double> kNetBandwidthGbps = {6.0, 12.0, 25.0};
const std::vector<double> kNetLatencyUs = {0.5, 1.5, 5.0};
constexpr double kRemeasure = 1.15;  // pass-time ratio that triggers a re-run
constexpr std::size_t kMaxRemeasured = 4;  // re-runs per grid at most

// Serving probe of the traced sweep_full run: an open loop of kServeProbeS.
constexpr double kServeProbeS = 10.0;
constexpr std::size_t kWarmKeys = 1500;  // keys journaled before the server starts
constexpr double kWarmRate = 400.0;      // warm queries per second
constexpr double kColdRate = 40.0;       // cold (never computed) queries per second
constexpr double kMaxLateMs = 20.0;      // generator p99 lateness that voids a run
constexpr double kDrainTimeoutS = 60.0;  // wait for answers after the last send
constexpr std::size_t kMemoWarmup = 150; // cold keys computed before the schedule

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string root = ".";
  std::string work;
  std::string spans;
  std::string record_net_ref;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "musa_bench: %s\nusage: musa_bench --workload W --seed N "
               "--seconds S --trace 0|1 --root DIR --work DIR [--spans FILE]\n"
               "       musa_bench --record-net-ref FILE\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::stoull(v);
    else if (flag == "--seconds") a.seconds = std::stod(v);
    else if (flag == "--trace") a.trace = v == "1";
    else if (flag == "--root") a.root = v;
    else if (flag == "--work") a.work = v;
    else if (flag == "--spans") a.spans = v;
    else if (flag == "--record-net-ref") a.record_net_ref = v;
    else usage("unknown flag " + flag);
  }
  if (a.record_net_ref.empty() && (a.workload.empty() || a.work.empty()))
    usage("--workload and --work are required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

std::string join_cells(const std::vector<std::string>& cells) {
  std::string out;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) out += ',';
    out += cells[i];
  }
  return out;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cell;
  std::istringstream in(s);
  while (std::getline(in, cell, sep)) out.push_back(cell);
  if (!s.empty() && s.back() == sep) out.emplace_back();
  return out;
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw std::runtime_error("cannot read " + path);
  std::string out;
  char buf[1 << 16];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;)
    out.append(buf, n);
  std::fclose(f);
  return out;
}

bench::CommittedCache load_committed(const std::string& path) {
  bench::CommittedCache c;
  c.bytes = read_file(path);
  std::istringstream in(c.bytes);
  std::string line;
  if (!std::getline(in, line) || split(line, ',') != mc::DseEngine::csv_header())
    throw std::runtime_error(path + ": not a DSE cache");
  while (std::getline(in, line)) {
    const mc::SimResult r = mc::DseEngine::from_row(split(line, ','));
    const std::string key = mc::DseEngine::point_key(r.app, r.config);
    c.keys.push_back(key);
    c.rows.emplace(key, line);
  }
  return c;
}

std::string row_of(const mc::SimResult& r) {
  return join_cells(mc::DseEngine::to_row(r));
}

// ---- the metric sets ------------------------------------------------------

/// Median and p99 of one class of timed operations.
struct Latency {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::size_t samples = 0;
};

Latency pooled(const std::vector<double>& ms) {
  return {quantile(ms, 0.5), quantile(ms, 0.99), ms.size()};
}

/// End-to-end figures every workload fills.
struct EndToEnd {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double setup_s = 0.0;
  Latency warm, cold;
};

struct Run {
  const Args& args;
  const bench::CommittedCache& ref;
  bench::Tally tally;
  std::vector<std::string> notes;  // carried into the result record
  EndToEnd e2e;
  bench::Values layers;  // per-layer values; a layer left unset reads 0
  bench::SpanLog spans;
  Run(const Args& a, const bench::CommittedCache& r)
      : args(a), ref(r), spans(a.trace) {}
};

/// Compares a computed row with the committed one for `key`.
void check_row(bench::Tally& tally, const bench::CommittedCache& ref,
               const std::string& key, const std::string& row) {
  const auto it = ref.rows.find(key);
  if (it == ref.rows.end()) return tally.fail(key + ": not in the committed cache");
  if (it->second != row) return tally.fail(key + ": row differs from the committed one");
  tally.ok();
}

/// (app, cores) strata of the full space, each point's index in `configs`.
std::vector<std::pair<const musa::apps::AppModel*, std::vector<std::size_t>>>
strata(const std::vector<mc::MachineConfig>& configs,
       const std::vector<int>& core_counts) {
  std::vector<std::pair<const musa::apps::AppModel*, std::vector<std::size_t>>> out;
  for (const auto& app : musa::apps::registry())
    for (const int cores : core_counts) {
      std::vector<std::size_t> idx;
      for (std::size_t i = 0; i < configs.size(); ++i)
        if (configs[i].cores == cores) idx.push_back(i);
      out.emplace_back(&app, std::move(idx));
    }
  return out;
}

// ---- shared layer probes (every traced run) -------------------------------

void probe_kernel_layers(Run& run) {
  const mc::PipelineOptions options;
  const std::vector<mc::MachineConfig> configs = mc::ConfigSpace::full_space();
  bench::Rng rng(run.args.seed * 0x9e3779b97f4a7c15ull + 3);
  bench::KernelCost cost;
  // One seeded point per (app, cores in {1, 64}) stratum: ten points that
  // cover every app at both ends of the node size.
  for (const auto& [app, idx] : strata(configs, {1, 64})) {
    const mc::MachineConfig& config = configs[idx[rng.below(idx.size())]];
    const bench::ProbedPoint p = bench::probe_point(*app, config, options, &cost, &run.spans);
    // Fidelity: the probe must reproduce the committed ipc and MPKI cells
    // and the memo-less pipeline must reproduce the whole committed row.
    check_row(run.tally, run.ref, p.key, row_of(p.pipeline));
    mc::SimResult mine = p.pipeline;
    mine.ipc = p.ipc;
    mine.mpki_l1 = p.mpki_l1;
    mine.mpki_l2 = p.mpki_l2;
    mine.mpki_l3 = p.mpki_l3;
    if (p.ipc != p.pipeline.ipc || p.mpki_l1 != p.pipeline.mpki_l1 ||
        p.mpki_l2 != p.pipeline.mpki_l2 || p.mpki_l3 != p.pipeline.mpki_l3)
      run.tally.fail(p.key + ": layer probe does not reproduce ipc/mpki");
    else
      check_row(run.tally, run.ref, p.key, row_of(mine));
  }
  auto per = [](double s, std::uint64_t n) {
    return n ? s / static_cast<double>(n) : 0.0;
  };
  auto ratio = [](std::uint64_t hit, std::uint64_t all) {
    return all ? static_cast<double>(hit) / static_cast<double>(all) : 0.0;
  };
  bench::Values& L = run.layers;
  L.set("trace.kgen_ns_per_instr", per(cost.kgen_s, cost.kgen_instrs) * 1e9);
  L.set("cachesim.accesses", static_cast<double>(cost.warm_accesses));
  L.set("cachesim.ns_per_access", per(cost.warm_s, cost.warm_accesses) * 1e9);
  L.set("cachesim.l1_hit_ratio", 1.0 - ratio(cost.l1_miss, cost.l1_acc));
  L.set("cachesim.l2_hit_ratio", 1.0 - ratio(cost.l2_miss, cost.l2_acc));
  L.set("cachesim.l3_hit_ratio", 1.0 - ratio(cost.l3_miss, cost.l3_acc));
  L.set("isa.fused_ops", static_cast<double>(cost.fused_ops));
  L.set("isa.lanes_per_op", ratio(cost.fused_in, cost.fused_ops));
  L.set("isa.fusion_ns_per_op", per(cost.fusion_s, cost.fused_ops) * 1e9);
  const double perfect_ns = per(cost.perfect_s, cost.perfect_instrs) * 1e9;
  const double core_ns = per(cost.core_s, cost.core_instrs) * 1e9;
  L.set("cpusim.perfect_ns_per_instr", perfect_ns);
  L.set("cpusim.core_ns_per_instr", core_ns);
  L.set("cpusim.sim_minstr_per_s",
        cost.core_s > 0 ? static_cast<double>(cost.core_instrs) / cost.core_s / 1e6
                        : 0.0);
  L.set("dramsim.requests", static_cast<double>(cost.dram_requests));
  L.set("dramsim.row_hit_ratio", ratio(cost.dram_row_hits, cost.dram_requests));
  L.set("mem.ns_per_instr", core_ns - perfect_ns);
  L.set("probe.closure_err",
        cost.kernel_stage_s > 0
            ? std::abs(cost.layer_sum_s() - cost.kernel_stage_s) / cost.kernel_stage_s
            : 0.0);
  run.notes.push_back("probe: timed layer calls sum to " + std::to_string(cost.layer_sum_s()) +
                      " s against a kernel stage of " +
                      std::to_string(cost.kernel_stage_s) + " s");
  L.set("powersim.us_per_point", per(cost.power_s, cost.power_evals) * 1e6);
}

void report_net_cost(Run& run, const bench::NetCost& cost) {
  bench::Values& L = run.layers;
  L.set("netsim.replay_ms.p50", quantile(cost.replay_ms, 0.5));
  L.set("netsim.replay_ms.p99", quantile(cost.replay_ms, 0.99));
  L.set("netsim.events", static_cast<double>(cost.events));
  L.set("netsim.ns_per_event",
        cost.events ? cost.replay_s / static_cast<double>(cost.events) * 1e9 : 0.0);
  L.set("trace.burst_gen_ms",
        cost.burst_gens ? cost.burst_gen_s / static_cast<double>(cost.burst_gens) * 1e3
                        : 0.0);
  L.set("runtime.us_per_call",
        cost.runtime_calls
            ? cost.runtime_s / static_cast<double>(cost.runtime_calls) * 1e6
            : 0.0);
}

/// Net probe for workloads that do not replay a what-if grid: one call per
/// (app, ranks) pair under the default network, on 32 cores.
void probe_net_layers(Run& run) {
  std::vector<bench::BurstCall> calls;
  for (const auto& app : musa::apps::registry())
    for (const int ranks : kNetRanks) calls.push_back({&app, 32, ranks});
  mc::PipelineOptions options;
  bench::NetCost cost;
  const auto direct = bench::direct_burst(options, calls, &cost, &run.spans);
  mc::Pipeline pipeline(options);
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const mc::BurstResult r =
        pipeline.run_burst(*calls[i].app, calls[i].cores, calls[i].ranks);
    if (r.wall_seconds != direct[i].wall_seconds ||
        r.region_seconds != direct[i].region_seconds)
      run.tally.fail(calls[i].app->name + ": direct burst calls differ from run_burst");
    else
      run.tally.ok();
  }
  report_net_cost(run, cost);
}

void probe_verify(Run& run) {
  std::vector<double> plan_s;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    const mc::SweepPlan plan = mc::make_sweep_plan(mc::SweepOptions{});
    plan_s.push_back(seconds_since(t0));
  }
  std::vector<mc::SimResult> results;
  for (const auto& key : run.ref.keys)
    results.push_back(mc::DseEngine::from_row(split(run.ref.rows.at(key), ',')));
  const auto t0 = Clock::now();
  for (const auto& r : results) musa::verify::verify_result(r);
  const double s = seconds_since(t0);
  run.layers.set("verify.plan_s", bench::median(plan_s));
  run.layers.set("verify.result_us", s / static_cast<double>(results.size()) * 1e6);
}

/// Journal probe for workloads that do not journal: append then reload.
void probe_journal(Run& run, std::size_t rows) {
  const std::string path = run.args.work + "/probe.csv.journal";
  std::vector<double> append_us;
  {
    musa::ResultJournal journal(path, mc::DseEngine::csv_header());
    for (std::size_t i = 0; i < rows && i < run.ref.keys.size(); ++i) {
      const std::string& key = run.ref.keys[i];
      const auto cells = split(run.ref.rows.at(key), ',');
      const auto t0 = Clock::now();
      journal.append(key, cells);
      append_us.push_back(seconds_since(t0) * 1e6);
    }
  }
  const auto t0 = Clock::now();
  const auto loaded = musa::ResultJournal::read(path, mc::DseEngine::csv_header());
  run.layers.set("journal.load_s", seconds_since(t0));
  if (loaded.entries.size() != append_us.size())
    run.tally.fail("journal probe reloaded a different row count");
  run.layers.set("journal.appends", static_cast<double>(append_us.size()));
  run.layers.set("journal.append_us.p50", quantile(append_us, 0.5));
  run.layers.set("journal.append_us.p99", quantile(append_us, 0.99));
}

// ---- sweep_full -----------------------------------------------------------

void probe_serve_layers(Run& run);  // with the serving code below

/// The sweep loop the traced run times: DseEngine::sweep's work
/// (Pipeline::run -> verify_result -> ResultJournal::append on kThreads
/// workers sharing one fresh memo) with every call timed from outside.
double traced_sweep(Run& run) {
  const mc::PipelineOptions options;
  const mc::SweepPlan plan = mc::make_sweep_plan(mc::SweepOptions{});
  auto memo = std::make_shared<mc::StageMemo>(mc::pipeline_options_fingerprint(options));
  musa::ResultJournal journal(run.args.work + "/traced.csv.journal",
                              mc::DseEngine::csv_header());
  struct PointRec {
    std::uint64_t idx;
    double run_s, verify_s, journal_s, total_s;
    mc::StageTimes stages;
    std::string row;
  };
  std::vector<std::vector<PointRec>> recs(kThreads);
  std::vector<double> busy(kThreads, 0.0), finish(kThreads, 0.0);
  musa::WorkQueue queue(plan.size());
  const auto t0 = Clock::now();
  musa::parallel_workers(kThreads, [&](int w) {
    mc::Pipeline local(options, memo);
    std::vector<bench::Span> spans;
    std::uint64_t begin = 0, end = 0;
    while (queue.next(begin, end)) {
      for (std::uint64_t idx = begin; idx < end; ++idx) {
        const std::string& key = plan.keys[idx];
        const mc::StageTimes before = local.stage_times();
        const double us0 = run.spans.now_us();
        const auto a = Clock::now();
        const mc::SimResult r = local.run(plan.app_of(idx), plan.config_of(idx));
        const auto b = Clock::now();
        musa::verify::verify_result(r);
        const auto c = Clock::now();
        std::vector<std::string> cells = mc::DseEngine::to_row(r);
        journal.append(key, cells);
        const auto d = Clock::now();
        const auto sec = [](auto x, auto y) {
          return std::chrono::duration<double>(y - x).count();
        };
        PointRec rec{idx, sec(a, b), sec(b, c), sec(c, d), sec(a, d), {}, join_cells(cells)};
        const mc::StageTimes& after = local.stage_times();
        rec.stages.burst_s = after.burst_s - before.burst_s;
        rec.stages.kernel_s = after.kernel_s - before.kernel_s;
        rec.stages.replay_s = after.replay_s - before.replay_s;
        rec.stages.power_s = after.power_s - before.power_s;
        busy[w] += rec.total_s;
        spans.push_back({"pipeline.run", key, us0, rec.run_s * 1e6, w});
        spans.push_back({"verify.result", key, us0 + rec.run_s * 1e6, rec.verify_s * 1e6, w});
        spans.push_back({"journal.append", key, us0 + (rec.run_s + rec.verify_s) * 1e6,
                         rec.journal_s * 1e6, w});
        recs[static_cast<std::size_t>(w)].push_back(std::move(rec));
      }
    }
    finish[static_cast<std::size_t>(w)] = seconds_since(t0);
    run.spans.add(std::move(spans));
  });
  const double wall = seconds_since(t0);

  std::vector<double> point_ms, append_us;
  std::map<std::string, std::vector<double>> per_app;
  mc::StageTimes stages;
  double total_s = 0.0;
  for (const auto& worker : recs)
    for (const PointRec& rec : worker) {
      check_row(run.tally, run.ref, plan.keys[rec.idx], rec.row);
      point_ms.push_back(rec.run_s * 1e3);
      per_app[plan.app_of(rec.idx).name].push_back(rec.run_s * 1e3);
      append_us.push_back(rec.journal_s * 1e6);
      stages.merge(rec.stages);
      total_s += rec.total_s;
    }
  if (point_ms.size() != plan.size()) run.tally.fail("traced sweep lost points");

  bench::Values& L = run.layers;
  L.set("core.point_ms.p50", quantile(point_ms, 0.5));
  L.set("core.point_ms.p99", quantile(point_ms, 0.99));
  for (const auto& [app, ms] : per_app) L.set("core.point_ms." + app, bench::median(ms));
  L.set("stage.burst_s", stages.burst_s);
  L.set("stage.kernel_s", stages.kernel_s);
  L.set("stage.replay_s", stages.replay_s);
  L.set("stage.power_s", stages.power_s);
  L.set("stage.other_s", total_s - stages.total_s());
  double busy_sum = 0.0;
  for (const double b : busy) busy_sum += b;
  L.set("dse.occupancy", busy_sum / (kThreads * wall));
  L.set("dse.tail_s", *std::max_element(finish.begin(), finish.end()) -
                          *std::min_element(finish.begin(), finish.end()));
  const mc::MemoStats m = memo->stats();
  L.set("memo.hit_rate.region", mc::MemoStats::rate(m.region_hits, m.region_misses));
  L.set("memo.hit_rate.trace", mc::MemoStats::rate(m.trace_hits, m.trace_misses));
  L.set("memo.hit_rate.burst", mc::MemoStats::rate(m.burst_hits, m.burst_misses));
  L.set("memo.hit_rate.stream", mc::MemoStats::rate(m.stream_hits, m.stream_misses));
  L.set("memo.hit_rate.warm", mc::MemoStats::rate(m.warm_hits, m.warm_misses));
  L.set("memo.hit_rate.perfect", mc::MemoStats::rate(m.perfect_hits, m.perfect_misses));
  L.set("journal.appends", static_cast<double>(append_us.size()));
  L.set("journal.append_us.p50", quantile(append_us, 0.5));
  L.set("journal.append_us.p99", quantile(append_us, 0.99));
  const auto l0 = Clock::now();
  const auto loaded = musa::ResultJournal::read(journal.path(), mc::DseEngine::csv_header());
  L.set("journal.load_s", seconds_since(l0));
  if (loaded.entries.size() != plan.size()) run.tally.fail("traced journal lost rows");
  return wall;
}

void sweep_full(Run& run) {
  const mc::PipelineOptions options;
  mc::SweepOptions sweep_options;
  sweep_options.verbose = false;
  const std::string cache = run.args.work + "/dse_cache.csv";

  // Set-up: plan build and engine construction, timed kSetupReps times
  // before the sweep and kSetupReps times after it.
  struct Engine {
    std::unique_ptr<mc::Pipeline> pipeline;
    std::unique_ptr<mc::DseEngine> engine;
  };
  std::vector<double> setups;
  std::uint64_t plan_points = 0;
  auto set_up = [&](Engine& e) {
    e.engine.reset();
    e.pipeline.reset();
    const auto t0 = Clock::now();
    const mc::SweepPlan plan = mc::make_sweep_plan(sweep_options);
    e.pipeline = std::make_unique<mc::Pipeline>(
        options,
        std::make_shared<mc::StageMemo>(mc::pipeline_options_fingerprint(options)));
    e.engine = std::make_unique<mc::DseEngine>(*e.pipeline, cache, sweep_options);
    setups.push_back(seconds_since(t0));
    plan_points = plan.size();
  };
  bench::CpuRotation cpus;  // single-threaded phases rotate over the CPUs
  Engine used;
  for (int i = 0; i < kSetupReps; ++i) {
    cpus.pin(static_cast<std::size_t>(i));
    set_up(used);
  }
  cpus.unpin();
  mc::DseEngine* engine = used.engine.get();
  mc::Pipeline* pipeline = used.pipeline.get();

  // Timed: the full sweep, forced, into a fresh journal-backed cache.
  const double cpu0 = bench::process_cpu_s();
  const auto t0 = Clock::now();
  const mc::SweepReport rep = engine->sweep(/*force=*/true);
  run.e2e.wall_s = seconds_since(t0);
  run.e2e.cpu_s = bench::process_cpu_s() - cpu0;

  // Output check: the finalized cache must equal the committed one, byte
  // for byte; every differing or missing row counts as a failed point.
  if (!rep.finalized || rep.workers != kThreads || rep.computed != plan_points)
    run.tally.fail("sweep did not finalize all " + std::to_string(plan_points) +
                   " points on " + std::to_string(kThreads) + " threads");
  const std::string got = fs::exists(cache) ? read_file(cache) : std::string();
  if (got == run.ref.bytes) {
    run.tally.attempted += plan_points;
  } else {
    std::set<std::string> lines;
    std::istringstream in(got);
    for (std::string line; std::getline(in, line);) lines.insert(line);
    for (const auto& key : run.ref.keys) {
      if (lines.count(run.ref.rows.at(key))) run.tally.ok();
      else run.tally.fail(key + ": swept row differs from the committed cache");
    }
    run.tally.fail("swept cache is not byte-identical to dse_cache.csv");
  }

  // Point queries after the sweep: warm on the sweep's memo, cold on a
  // fresh memo-less pipeline. The sample is fixed — evenly spaced points of
  // every (app, cores) stratum — and is asked kQueryPasses times, the seed
  // shuffling each pass. A point's latency is the median of its passes: on
  // a shared host a stall lands on one pass of a point, not on its median.
  const mc::SweepPlan plan = mc::make_sweep_plan(sweep_options);
  struct PointQuery {
    const musa::apps::AppModel* app;
    const mc::MachineConfig* config;
    bool warm;
    std::vector<double> ms;
  };
  std::vector<PointQuery> queries;
  for (const auto& [app, idx] : strata(plan.configs, mc::ConfigSpace::core_counts())) {
    for (int k = 0; k < kWarmPerStratum; ++k)
      queries.push_back({app, &plan.configs[idx[k * idx.size() / kWarmPerStratum]], true, {}});
    for (int k = 0; k < kColdPerStratum; ++k)
      queries.push_back({app,
                         &plan.configs[idx[(2 * k + 1) * idx.size() / (2 * kColdPerStratum)]],
                         false, {}});
  }
  bench::Rng rng(run.args.seed);
  mc::Pipeline warm(options, pipeline->memo());
  std::size_t n = 0;
  for (int pass = 0; pass < kQueryPasses; ++pass) {
    rng.shuffle(queries);
    for (PointQuery& q : queries) {
      cpus.pin(n++);
      mc::Pipeline cold(options);
      const auto q0 = Clock::now();
      const mc::SimResult r = (q.warm ? warm : cold).run(*q.app, *q.config);
      q.ms.push_back(seconds_since(q0) * 1e3);
      check_row(run.tally, run.ref, mc::DseEngine::point_key(q.app->name, *q.config), row_of(r));
    }
  }
  std::vector<double> warm_ms, cold_ms;
  for (const PointQuery& q : queries) (q.warm ? warm_ms : cold_ms).push_back(bench::median(q.ms));
  run.e2e.warm = pooled(warm_ms);
  run.e2e.cold = pooled(cold_ms);

  Engine spare;
  for (int i = 0; i < kSetupReps; ++i) {
    cpus.pin(static_cast<std::size_t>(i));
    set_up(spare);
  }
  cpus.unpin();
  run.e2e.setup_s = bench::median(setups);

  if (run.args.trace) {
    const double traced_wall = traced_sweep(run);
    const double overhead = traced_wall / run.e2e.wall_s;
    run.layers.set("trace_overhead", overhead);
    if (overhead > 1.0 + kTraceBound)
      run.tally.fail("traced sweep loop took " + std::to_string(overhead) +
                     "x the untraced sweep");
    probe_net_layers(run);
    probe_serve_layers(run);
  }
}

// ---- net_whatif -----------------------------------------------------------

struct NetGrid {
  std::vector<mc::PipelineOptions> configs;          // one per network config
  std::vector<std::vector<bench::BurstCall>> calls;  // per network config
};

std::string net_key(const mc::PipelineOptions& o, const bench::BurstCall& c) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s,%d,%d,%s,%g,%g", c.app->name.c_str(), c.cores,
                c.ranks, musa::netsim::topology_name(o.network.topology),
                o.network.bandwidth_gbps, o.network.latency_s * 1e6);
  return buf;
}

std::string net_value(const mc::BurstResult& r) {
  char buf[80];
  std::snprintf(buf, sizeof buf, "%.17g,%.17g", r.region_seconds, r.wall_seconds);
  return buf;
}

/// The what-if grid; a seed shuffles the network-config order and the call
/// order within each config (results do not depend on either).
NetGrid make_net_grid(bench::Rng* rng) {
  NetGrid g;
  for (const auto topology : kNetTopologies)
    for (const double bw : kNetBandwidthGbps)
      for (const double lat : kNetLatencyUs) {
        mc::PipelineOptions o;
        o.network.topology = topology;
        o.network.bandwidth_gbps = bw;
        o.network.latency_s = lat * 1e-6;
        g.configs.push_back(o);
      }
  std::vector<bench::BurstCall> calls;
  for (const auto& app : musa::apps::registry())
    for (const int cores : kNetCores)
      for (const int ranks : kNetRanks) calls.push_back({&app, cores, ranks});
  if (rng) rng->shuffle(g.configs);
  for (std::size_t i = 0; i < g.configs.size(); ++i) {
    g.calls.push_back(calls);
    if (rng) rng->shuffle(g.calls.back());
  }
  return g;
}

std::map<std::string, std::string> load_net_ref(const std::string& path) {
  std::map<std::string, std::string> ref;
  std::istringstream in(read_file(path));
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    // key = first six cells, value = the last two
    std::size_t cut = 0;
    for (int i = 0; i < 6; ++i) cut = line.find(',', cut) + 1;
    ref.emplace(line.substr(0, cut - 1), line.substr(cut));
  }
  return ref;
}

int record_net_ref(const std::string& path) {
  const NetGrid g = make_net_grid(nullptr);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return 1;
  std::fputs("app,cores,ranks,topology,bw_gbps,lat_us,region_s,wall_s\n", f);
  for (std::size_t i = 0; i < g.configs.size(); ++i) {
    mc::Pipeline pipeline(g.configs[i]);
    for (const auto& c : g.calls[i]) {
      const mc::BurstResult r = pipeline.run_burst(*c.app, c.cores, c.ranks);
      std::fprintf(f, "%s,%s\n", net_key(g.configs[i], c).c_str(), net_value(r).c_str());
    }
  }
  return std::fclose(f) == 0 ? 0 : 1;
}

/// One network configuration's calls, timed.
struct NetPass {
  double wall_s = 0.0, cpu_s = 0.0;
  std::vector<double> warm_ms, cold_ms;
  std::vector<std::pair<std::string, std::string>> got;  // key, result
};

/// Runs config `i` of the grid on CPU `slot` of the rotation: through
/// Pipeline::run_burst, or, with a `cost`, through the direct layer calls
/// run_burst makes.
NetPass net_pass(const NetGrid& grid, std::size_t i, bench::CpuRotation& cpus,
                 std::size_t slot, bench::NetCost* cost, bench::SpanLog* spans) {
  cpus.pin(slot);
  NetPass pass;
  const double cpu0 = bench::process_cpu_s();
  const auto t0 = Clock::now();
  if (cost) {
    const auto results = bench::direct_burst(grid.configs[i], grid.calls[i], cost, spans);
    for (std::size_t k = 0; k < results.size(); ++k)
      pass.got.emplace_back(net_key(grid.configs[i], grid.calls[i][k]),
                            net_value(results[k]));
  } else {
    mc::Pipeline pipeline(grid.configs[i]);
    std::set<std::pair<const musa::apps::AppModel*, int>> seen;
    for (const auto& c : grid.calls[i]) {
      const auto q0 = Clock::now();
      const mc::BurstResult r = pipeline.run_burst(*c.app, c.cores, c.ranks);
      const double ms = seconds_since(q0) * 1e3;
      (seen.insert({c.app, c.ranks}).second ? pass.cold_ms : pass.warm_ms).push_back(ms);
      pass.got.emplace_back(net_key(grid.configs[i], c), net_value(r));
    }
  }
  pass.wall_s = seconds_since(t0);
  pass.cpu_s = bench::process_cpu_s() - cpu0;
  return pass;
}

/// Host interference comes in bursts of a few seconds. A pass that ran
/// more than kRemeasure times the median pass is run once more and the
/// faster of its two passes is kept; a pass that is slow for a real reason
/// stays slow on the second try, so regressions still show.
void remeasure_outliers(const NetGrid& grid, std::vector<NetPass>& passes,
                        bench::CpuRotation& cpus, bench::NetCost* cost,
                        bench::SpanLog* spans) {
  std::vector<double> walls;
  for (const NetPass& p : passes) walls.push_back(p.wall_s);
  const double limit = kRemeasure * bench::median(walls);
  std::vector<std::size_t> slow;
  for (std::size_t i = 0; i < passes.size(); ++i)
    if (passes[i].wall_s > limit) slow.push_back(i);
  // The slowest first, at most kMaxRemeasured of them: a bounded cost.
  std::sort(slow.begin(), slow.end(), [&](std::size_t a, std::size_t b) {
    return passes[a].wall_s > passes[b].wall_s;
  });
  if (slow.size() > kMaxRemeasured) slow.resize(kMaxRemeasured);
  for (const std::size_t i : slow) {
    NetPass again = net_pass(grid, i, cpus, i + 1, cost, spans);
    if (again.wall_s < passes[i].wall_s) passes[i] = std::move(again);
  }
}

void net_whatif(Run& run) {
  const std::string ref_path = run.args.root + "/perfbench/net_whatif_ref.csv";
  NetGrid grid;
  std::map<std::string, std::string> ref;
  std::vector<double> setups;
  auto set_up = [&] {
    const auto t0 = Clock::now();
    bench::Rng rng(run.args.seed);
    grid = make_net_grid(&rng);
    ref = load_net_ref(ref_path);
    setups.push_back(seconds_since(t0));
  };
  bench::CpuRotation cpus;  // setups and passes rotate over the CPUs
  for (int i = 0; i < kSetupReps; ++i) {
    cpus.pin(static_cast<std::size_t>(i));
    set_up();
  }

  // Timed: every call, one pass per network config through a fresh
  // Pipeline. A call is cold when it is the first for its (app, ranks) on
  // that pipeline (the burst trace is generated), warm when it reuses it.
  const auto t0 = Clock::now();
  std::vector<NetPass> passes;
  for (std::size_t i = 0; i < grid.configs.size(); ++i)
    passes.push_back(net_pass(grid, i, cpus, i, nullptr, nullptr));
  remeasure_outliers(grid, passes, cpus, nullptr, nullptr);
  const double elapsed = seconds_since(t0);

  auto check = [&](const NetPass& pass) {
    for (const auto& [key, value] : pass.got) {
      const auto it = ref.find(key);
      if (it == ref.end()) run.tally.fail(key + ": no reference");
      else if (it->second != value) run.tally.fail(key + ": differs from the reference");
      else run.tally.ok();
    }
  };
  double wall = 0.0;
  std::vector<double> warm_ms, cold_ms;
  for (const NetPass& pass : passes) {
    check(pass);
    wall += pass.wall_s;
    run.e2e.cpu_s += pass.cpu_s;
    warm_ms.insert(warm_ms.end(), pass.warm_ms.begin(), pass.warm_ms.end());
    cold_ms.insert(cold_ms.end(), pass.cold_ms.begin(), pass.cold_ms.end());
  }
  run.e2e.wall_s = wall;
  run.e2e.warm = pooled(warm_ms);
  run.e2e.cold = pooled(cold_ms);
  for (int i = 0; i < kSetupReps; ++i) {
    cpus.pin(static_cast<std::size_t>(i));
    set_up();
  }
  run.e2e.setup_s = bench::median(setups);
  run.notes.push_back("net_whatif: kept passes sum to " + std::to_string(wall) +
                      " s of " + std::to_string(elapsed) + " s elapsed");

  if (run.args.trace) {
    // Traced passes: the same grid through direct layer calls.
    bench::NetCost cost;
    std::vector<NetPass> traced;
    for (std::size_t i = 0; i < grid.configs.size(); ++i)
      traced.push_back(net_pass(grid, i, cpus, i, &cost, &run.spans));
    remeasure_outliers(grid, traced, cpus, &cost, &run.spans);
    double traced_wall = 0.0;
    for (const NetPass& pass : traced) {
      check(pass);
      traced_wall += pass.wall_s;
    }
    run.layers.set("trace_overhead", traced_wall / wall);
    report_net_cost(run, cost);
  }
}

// ---- serving probe (traced sweep_full runs) -------------------------------

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Blocks until one line arrives on `ch` (or `timeout_s` passes).
bool read_line(musa::sweep::LineChannel& ch, std::string* line, double timeout_s) {
  const auto t0 = Clock::now();
  std::vector<std::string> lines;
  while (seconds_since(t0) < timeout_s) {
    pollfd p{ch.fd(), POLLIN, 0};
    if (::poll(&p, 1, 100) > 0 && !ch.drain(&lines) && lines.empty()) return false;
    if (!lines.empty()) {
      *line = lines.front();
      return true;
    }
  }
  return false;
}

struct Query {
  double due_s;       // offset from the schedule origin
  bool warm;
  std::string key;
  double sent_s = -1, answered_s = -1;
  enum class State { kPending, kRow, kFailed } state = State::kPending;
};

struct ServeResult {
  Latency warm, cold;
  std::vector<double> late_ms;
  musa::serve::ServeStats stats;
  std::size_t sent = 0;
};

std::string point_request(const std::string& id, const std::string& key) {
  const std::size_t bar = key.find('|');
  return "{\"id\":\"" + id + "\",\"op\":\"point\",\"app\":\"" + key.substr(0, bar) +
         "\",\"config\":\"" + key.substr(bar + 1) + "\"}";
}

/// Starts a server and waits for the answer to its first ping.
std::unique_ptr<musa::serve::DseServer> start_server(
    const musa::serve::ServeOptions& options) {
  auto server = std::make_unique<musa::serve::DseServer>(options);
  server->start();
  musa::sweep::LineChannel ch(connect_unix(options.socket_path));
  std::string pong;
  if (ch.fd() < 0 || !ch.send("{\"id\":\"p\",\"op\":\"ping\"}") ||
      !read_line(ch, &pong, 10.0) || pong.find("\"pong\":true") == std::string::npos)
    throw std::runtime_error("server did not answer its first ping");
  return server;
}

/// One open-loop serving run of `seconds` in its own directory: journal the
/// warm set, start the server on it, then drive the schedule.
ServeResult serve_run(Run& run, const std::string& dir, double seconds) {
  namespace sv = musa::serve;
  fs::remove_all(dir);  // a fresh journal: the warm set and nothing else
  fs::create_directories(dir);
  ServeResult out;
  bench::Rng rng(run.args.seed * 0x2545F4914F6CDD1Dull + 11);
  std::vector<std::string> keys = run.ref.keys;
  rng.shuffle(keys);
  const std::vector<std::string> warm_keys(keys.begin(), keys.begin() + kWarmKeys);
  const std::vector<std::string> cold_keys(keys.begin() + kWarmKeys, keys.end());

  sv::ServeOptions options;
  options.socket_path = dir + "/serve.sock";
  options.cache_path = dir + "/serve_cache.csv";
  options.threads = kThreads;
  {
    musa::ResultJournal journal(options.cache_path + ".journal",
                                mc::DseEngine::csv_header());
    for (const auto& key : warm_keys) journal.append(key, split(run.ref.rows.at(key), ','));
  }
  std::unique_ptr<sv::DseServer> server = start_server(options);

  // The open-loop schedule: Poisson arrivals of warm and cold queries.
  std::vector<Query> queries;
  std::size_t next_cold = kMemoWarmup;  // the first cold keys warm the memo
  for (double t = rng.exponential(kWarmRate + kColdRate); t < seconds;
       t += rng.exponential(kWarmRate + kColdRate)) {
    const bool warm = rng.uniform() * (kWarmRate + kColdRate) < kWarmRate ||
                      next_cold == cold_keys.size();
    queries.push_back({t, warm,
                       warm ? warm_keys[rng.below(warm_keys.size())]
                            : cold_keys[next_cold++]});
  }
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < queries.size(); ++i)
    lines.push_back(point_request(std::to_string(i), queries[i].key));

  musa::sweep::LineChannel conn[2] = {
      musa::sweep::LineChannel(connect_unix(options.socket_path)),
      musa::sweep::LineChannel(connect_unix(options.socket_path))};
  if (conn[0].fd() < 0 || conn[1].fd() < 0)
    throw std::runtime_error("cannot connect to the server");

  // A restarted server's stage memo is empty, and the first few cold
  // points pay for filling it. Fill it with a batch of other cold keys
  // before the schedule starts, so the tail measures serving, not that
  // one-off transient.
  for (std::size_t i = 0; i < kMemoWarmup; ++i)
    conn[0].send(point_request(std::string("w").append(std::to_string(i)), cold_keys[i]));
  std::size_t answered = 0;
  for (const auto t0 = Clock::now(); answered < kMemoWarmup;) {
    if (seconds_since(t0) > kDrainTimeoutS)
      throw std::runtime_error("server did not answer the memo warm-up batch");
    pollfd p{conn[0].fd(), POLLIN, 0};
    std::vector<std::string> got;
    if (::poll(&p, 1, 100) > 0) conn[0].drain(&got);
    for (const std::string& line : got) {
      sv::JsonValue v;
      std::string err;
      if (!sv::parse_json(line, &v, &err) || v.find("done")) continue;
      const sv::JsonValue* key = v.find("key");
      const sv::JsonValue* row = v.find("row");
      ++answered;
      if (key && row) check_row(run.tally, run.ref, key->string, row->string);
      else run.tally.fail("memo warm-up query failed: " + line.substr(0, 80));
    }
  }

  // One thread drives the schedule: it sends each query when it is due
  // and, while it waits for the next, reads the replies off both
  // connections. A second thread would be one more to schedule on the
  // host's few CPUs, and its wake-ups would land in every latency.
  std::vector<std::string> problems;
  const auto origin = Clock::now();
  auto at = [&] { return seconds_since(origin); };
  const double deadline = seconds + kDrainTimeoutS;
  std::size_t next = 0, resolved = 0;
  std::vector<std::string> got;
  while ((next < queries.size() || resolved < out.sent) && at() < deadline) {
    for (; next < queries.size() && queries[next].due_s <= at(); ++next) {
      queries[next].sent_s = at();
      if (!conn[next % 2].send(lines[next])) {
        next = queries.size();  // a broken connection ends the schedule
        break;
      }
      ++out.sent;
    }
    const double wait_s = next < queries.size() ? queries[next].due_s - at() : 0.05;
    const auto wait_ns = static_cast<long long>(std::max(0.0, wait_s) * 1e9);
    const timespec wait{static_cast<time_t>(wait_ns / 1000000000),
                        static_cast<long>(wait_ns % 1000000000)};
    pollfd p[2] = {{conn[0].fd(), POLLIN, 0}, {conn[1].fd(), POLLIN, 0}};
    if (::ppoll(p, 2, &wait, nullptr) <= 0) continue;
    for (int c = 0; c < 2; ++c)
      if (p[c].revents) conn[c].drain(&got);
    const double now = at();
    for (const std::string& line : got) {
      sv::JsonValue v;
      std::string err;
      if (!sv::parse_json(line, &v, &err) || !v.find("id")) {
        problems.push_back("unparsable reply: " + line.substr(0, 80));
        continue;
      }
      if (v.find("done")) continue;
      const std::string& id = v.find("id")->string;
      const bool numeric = !id.empty() && id.size() < 10 &&
                           id.find_first_not_of("0123456789") == std::string::npos;
      const std::size_t i = numeric ? std::stoul(id) : queries.size();
      if (i >= queries.size() || queries[i].state != Query::State::kPending) {
        problems.push_back("unexpected reply: " + line.substr(0, 80));
        continue;
      }
      Query& q = queries[i];
      q.answered_s = now;
      const sv::JsonValue* row = v.find("row");
      q.state = row ? Query::State::kRow : Query::State::kFailed;
      if (row && row->string != run.ref.rows.at(q.key))
        q.state = Query::State::kFailed;
      ++resolved;
    }
    got.clear();
  }
  for (const auto& p : problems) run.tally.fail(p);

  out.stats = server->stats();
  conn[0].close();
  conn[1].close();
  server->stop();
  server.reset();

  std::vector<bench::Span> spans;
  std::vector<double> warm_ms, cold_ms;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    if (q.sent_s >= 0) out.late_ms.push_back((q.sent_s - q.due_s) * 1e3);
    if (q.state != Query::State::kRow) {
      run.tally.fail(q.key + (q.state == Query::State::kPending
                                  ? ": no answer" : ": failed or wrong row"));
      continue;
    }
    run.tally.ok();
    (q.warm ? warm_ms : cold_ms).push_back((q.answered_s - q.due_s) * 1e3);
    spans.push_back({q.warm ? "serve.warm" : "serve.cold", q.key, q.due_s * 1e6,
                     (q.answered_s - q.due_s) * 1e6, 0});
  }
  out.warm = pooled(warm_ms);
  out.cold = pooled(cold_ms);
  run.spans.add(std::move(spans));
  const double late_p99 = quantile(out.late_ms, 0.99);
  if (late_p99 > kMaxLateMs)
    run.tally.fail("load generator ran " + std::to_string(late_p99) +
                   " ms late at p99; the run does not measure the server");
  return out;
}

/// Serving probe: an in-process DseServer on a journal of warm keys, driven
/// open-loop for kServeProbeS, every served row checked.
void probe_serve_layers(Run& run) {
  const ServeResult t = serve_run(run, run.args.work + "/serve", kServeProbeS);
  bench::Values& L = run.layers;
  L.set("serve.computed", static_cast<double>(t.stats.computed));
  L.set("serve.cache_hits", static_cast<double>(t.stats.cache_hits));
  L.set("serve.dedup_hits", static_cast<double>(t.stats.dedup_hits));
  L.set("serve.busy", static_cast<double>(t.stats.busy));
  L.set("serve.errors", static_cast<double>(t.stats.errors));
  L.set("serve.warm_ms.p50", t.warm.p50_ms);
  L.set("serve.warm_ms.p99", t.warm.p99_ms);
  L.set("serve.cold_ms.p50", t.cold.p50_ms);
  L.set("serve.cold_ms.p99", t.cold.p99_ms);
  L.set("loadgen.sent", static_cast<double>(t.sent));
  L.set("loadgen.late_ms.p99", quantile(t.late_ms, 0.99));
}

std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i)
    out += (i ? ", \"" : "\"") + musa::serve::json_escape(items[i]) + "\"";
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (!args.record_net_ref.empty()) return record_net_ref(args.record_net_ref);
    const bench::CommittedCache ref = load_committed(args.root + "/dse_cache.csv");
    fs::create_directories(args.work);
    Run run(args, ref);
    if (args.workload == "sweep_full") sweep_full(run);
    else if (args.workload == "net_whatif") net_whatif(run);
    else usage("unknown workload " + args.workload);

    bench::Values values;
    if (args.trace) {
      if (args.workload == "net_whatif") probe_journal(run, 200);
      probe_kernel_layers(run);
      probe_verify(run);
      values = run.layers;
      if (!args.spans.empty()) run.spans.write(args.spans);
    } else {
      const EndToEnd& e = run.e2e;
      const double attempted = static_cast<double>(run.tally.attempted);
      values.set("wall_s", e.wall_s);
      values.set("cpu_s", e.cpu_s);
      values.set("setup_s", e.setup_s);
      values.set("peak_rss_mb", bench::peak_rss_mb());
      values.set("ok_frac", attempted > 0
                                ? 1.0 - static_cast<double>(run.tally.failed) / attempted
                                : 0.0);
      values.set("warm_p50_ms", e.warm.p50_ms);
      values.set("warm_p99_ms", e.warm.p99_ms);
      values.set("cold_p50_ms", e.cold.p50_ms);
      values.set("cold_p99_ms", e.cold.p99_ms);
    }
    const std::string reasons = json_list(run.tally.reasons);
    std::printf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"values\": %s, "
        "\"build\": {\"compiler\": \"%s\", \"build_type\": \"%s\", \"threads\": %d, "
        "\"warm_samples\": %zu, \"cold_samples\": %zu}, \"failures\": %s, "
        "\"notes\": %s}\n",
        run.tally.failed == 0 && run.tally.attempted > 0 ? "true" : "false",
        static_cast<unsigned long long>(run.tally.attempted),
        static_cast<unsigned long long>(run.tally.failed), values.json().c_str(),
        MUSA_BENCH_COMPILER, MUSA_BENCH_BUILD_TYPE, kThreads, run.e2e.warm.samples,
        run.e2e.cold.samples, reasons.c_str(), json_list(run.notes).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "musa_bench: %s\n", e.what());
    return 1;
  }
}
