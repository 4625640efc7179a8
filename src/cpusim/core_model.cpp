#include "cpusim/core_model.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/deadline.hpp"
#include "isa/latencies.hpp"
#include "trace/instr_source.hpp"

namespace musa::cpusim {

namespace {
constexpr double kStoreCommitLatency = 1.0;  // store data into the buffer

// Per-class tables for the block loop, indexed by OpClass value:
// IntAlu, IntMul, FpAdd, FpMul, FpDiv, Load, Store, Branch. They mirror
// isa::exec_latency and the pipelined-unless-divide occupancy rule of the
// single-step path exactly (int → double is value-preserving, so the two
// paths stay bit-identical).
constexpr double kBusy[isa::kNumOpClasses] = {1.0, 1.0, 1.0,  1.0,
                                              18.0, 1.0, 1.0, 1.0};
constexpr double kExecLatency[isa::kNumOpClasses] = {1.0,  3.0, 3.0, 4.0,
                                                     18.0, 1.0, 1.0, 1.0};
}  // namespace

CoreModel::CoreModel(const CoreConfig& config, Frequency freq,
                     cachesim::MemHierarchy& hierarchy,
                     dramsim::DramSystem& dram, int core_id)
    : CoreModel(config, freq, &hierarchy, dram, core_id) {}

CoreModel::CoreModel(const CoreConfig& config, Frequency freq,
                     dramsim::DramSystem& dram)
    : CoreModel(config, freq, nullptr, dram, 0) {}

CoreModel::CoreModel(const CoreConfig& config, Frequency freq,
                     cachesim::MemHierarchy* hierarchy,
                     dramsim::DramSystem& dram, int core_id)
    : config_(config),
      freq_(freq),
      hierarchy_(hierarchy),
      dram_(dram),
      core_id_(core_id) {
  MUSA_CHECK_MSG(config.rob > 0 && config.issue_width > 0, "bad core config");
  MUSA_CHECK_MSG(config.alus > 0 && config.fpus > 0 && config.lsus > 0,
                 "core needs FUs");
  MUSA_CHECK_MSG(config.irf > 0 && config.frf > 0 && config.store_buffer > 0,
                 "core needs registers and a store buffer");
  rob_release_.resize(static_cast<std::size_t>(config.rob));
  irf_release_.resize(static_cast<std::size_t>(config.irf));
  frf_release_.resize(static_cast<std::size_t>(config.frf));
  sb_release_.resize(static_cast<std::size_t>(config.store_buffer));
  alu_pool_.resize(static_cast<std::size_t>(config.alus));
  fpu_pool_.resize(static_cast<std::size_t>(config.fpus));
  lsu_pool_.resize(static_cast<std::size_t>(config.lsus));
}

void StreamPrefetcher::admit(std::uint64_t line, double ready_ns) {
  Line& entry = inflight.find_or_insert(line);
  entry.ready_ns = ready_ns;
  entry.seq = next_seq;
  fifo.emplace_back(line, next_seq);
  ++next_seq;
  // Compact once dead entries dominate. Every live in-flight line has
  // exactly one fifo entry whose seq matches the table (re-admits stale the
  // older entry), so live == inflight.size() and the predicate fires on the
  // dead fraction alone — a run that keeps consuming entries without ever
  // overflowing the buffer stays bounded too, not just one that pushes
  // fifo_head past the capacity. Amortised O(1): each compaction scans
  // entries that each paid O(1) on admission.
  if (fifo.size() >= 2 * (inflight.size() + kCompactSlack)) {
    std::size_t keep = 0;
    for (std::size_t i = fifo_head; i < fifo.size(); ++i) {
      const Line* live = inflight.find(fifo[i].first);
      if (live != nullptr && live->seq == fifo[i].second)
        fifo[keep++] = fifo[i];
    }
    fifo.resize(keep);
    fifo_head = 0;
  }
}

std::uint64_t StreamPrefetcher::evict_to_capacity() {
  std::uint64_t evicted = 0;
  while (inflight.size() > kMaxInflight && fifo_head < fifo.size()) {
    const auto [line, seq] = fifo[fifo_head++];
    const Line* entry = inflight.find(line);
    if (entry == nullptr || entry->seq != seq) continue;  // already consumed
    inflight.erase(line);
    ++evicted;
  }
  return evicted;
}

double CoreModel::fu_acquire(std::vector<double>& pool, double ready,
                             double busy) {
  // Pick the earliest-free unit; pools are ≤ 8 entries, linear scan is fine.
  std::size_t best = 0;
  for (std::size_t i = 1; i < pool.size(); ++i)
    if (pool[i] < pool[best]) best = i;
  const double start = std::max(ready, pool[best]);
  pool[best] = start + busy;
  return start;
}

double CoreModel::mem_access(std::uint64_t addr, std::int64_t stride,
                             int lanes, double issue_cycle, bool is_write,
                             CoreStats& stats) {
  // A fused memory op touches `lanes` addresses `stride` bytes apart; every
  // distinct cache line is accessed (so bandwidth and cache state are fully
  // charged — the paper's fusion model "doubles the size to account for
  // memory bandwidth"), while the op's load-to-use latency is that of the
  // leading line: trailing lines stream behind it, matching the paper's
  // deliberately optimistic vectorisation model (§III).
  //
  // Phase split: the coalesced line list goes through the hierarchy in one
  // batched walk, then DRAM/prefetcher effects are applied per line in the
  // original order (settle_lines). Cache state is touched only by phase 1
  // and DRAM/prefetcher state only by phase 2, and each phase preserves the
  // per-line order, so the split is outcome-identical to the interleaved
  // loop — and phase 1, which takes no time input, can be recorded once
  // and replayed (record_outcomes / replay).
  coalesce_lines(addr, stride, lanes, line_addrs_);
  const std::size_t n = line_addrs_.size();
  if (n == 0) return hierarchy_->config().l1.latency_cycles;
  line_outcomes_.resize(n);
  hierarchy_->access_block(core_id_, line_addrs_.data(), n, is_write,
                           line_outcomes_.data());
  return settle_lines(n, issue_cycle, stats);
}

double CoreModel::settle_lines(std::size_t n, double issue_cycle,
                               CoreStats& stats) {
  MUSA_DCHECK_MSG(n >= 1 && n <= line_outcomes_.size(), "no lines to settle");
  const bool prefetch_on = prefetch_enabled_;
  const double period = freq_.period_ns();
  const double issue_ns = issue_cycle * period;
  double lead = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const cachesim::MemOutcome& out = line_outcomes_[i];
    double lat = out.latency_cycles;
    if (out.dram_read) {
      const std::uint64_t a = line_addrs_[i];
      const std::uint64_t line = a / cachesim::kLineBytes;
      // Line-fill buffer hit: a prefetch already fetched (or is fetching)
      // this line; pay only the residual time.
      const StreamPrefetcher::Line* pf =
          prefetch_on ? prefetcher_.inflight.find(line) : nullptr;
      if (pf != nullptr) {
        lat = std::max<double>(out.latency_cycles,
                               (pf->ready_ns - issue_ns) / period);
        prefetcher_.inflight.erase(line);
      } else {
        ++stats.dram_reads;
        const double done_ns =
            dram_.request(issue_ns + out.latency_cycles * period, a,
                          /*is_write=*/false);
        lat = (done_ns - issue_ns) / period;
      }

      // Stream detection per 2 MB region; confident streams prefetch the
      // next lines so later demand misses find them in flight.
      if (prefetch_on && prefetcher_.observe_miss(line)) {
        for (int ahead = 1; ahead <= StreamPrefetcher::kDepth; ++ahead) {
          const std::uint64_t next = line + ahead;
          if (prefetcher_.inflight.contains(next)) continue;
          ++stats.dram_reads;
          prefetcher_.admit(next, dram_.request(issue_ns,
                                                next * cachesim::kLineBytes,
                                                /*is_write=*/false));
        }
        // Over capacity the *oldest* in-flight lines fall out of the
        // line-fill buffer (their DRAM requests were already issued and
        // paid for; only the latency benefit is lost). The previous
        // behaviour — dropping the entire buffer — forfeited every
        // outstanding prefetch at once.
        stats.pf_evictions += prefetcher_.evict_to_capacity();
      }
    }
    if (out.dram_writebacks > 0) {
      stats.dram_writes += out.dram_writebacks;
      // Write-backs drain in the background; they consume DRAM bandwidth
      // (affecting later reads through the channel state) but do not stall
      // this instruction.
      dram_.request(issue_ns, out.wb_addr, /*is_write=*/true);
    }
    if (i == 0) lead = lat;
  }
  return lead;
}

void CoreModel::reset_rings(double t0) {
  for (auto* v : {&rob_release_, &irf_release_, &frf_release_, &sb_release_,
                  &alu_pool_, &fpu_pool_, &lsu_pool_})
    std::fill(v->begin(), v->end(), t0);
}

// ---- Memory-resolution policies of the block loop ------------------------
//
// run_blocked() asks its policy for the next columns of ops (next), for the
// load-to-use latency of a memory op in them (latency), and at the end for
// the activity and cache statistics (finish). The live policy fuses and
// walks the caches as it goes; the recorded one reads both from a trace.

struct CoreModel::OpColumns {
  const isa::OpClass* cls = nullptr;
  const std::uint8_t* dst = nullptr;
  const std::uint8_t* src1 = nullptr;
  const std::uint8_t* src2 = nullptr;
  std::size_t size = 0;
};

namespace {
void set_cache_stats(CoreStats& stats, const cachesim::CacheStats& l1,
                     const cachesim::CacheStats& l2,
                     const cachesim::CacheStats& l3) {
  stats.l1_accesses = l1.accesses;
  stats.l1_misses = l1.misses;
  stats.l2_accesses = l2.accesses;
  stats.l2_misses = l2.misses;
  stats.l3_accesses = l3.accesses;
  stats.l3_misses = l3.misses;
}
}  // namespace

/// Fuses the source block by block and resolves each memory op against the
/// hierarchy: the L1 fast path, else mem_access.
class CoreModel::LiveMemory {
 public:
  LiveMemory(CoreModel& core, trace::InstrSource& source, int vector_bits)
      : core_(core),
        fusion_(source, vector_bits),
        l1_(core.hierarchy_->l1_cache(core.core_id_)),
        l1_lat_(core.hierarchy_->config().l1.latency_cycles) {}

  double l1_latency() const { return l1_lat_; }

  bool next(OpColumns& ops) {
    if (!fusion_.next_block(block_)) return false;
    // Per-class tallies are a pure function of the block's columns: count
    // them in their own tight pass so the timing loop carries no counter
    // read-modify-writes.
    for (std::size_t i = 0; i < block_.size; ++i) {
      const auto ci = static_cast<std::size_t>(block_.cls[i]);
      const std::uint16_t lanes = block_.lanes[i];
      scalar_instrs_ += lanes;
      ++class_ops_[ci];
      class_lanes_[ci] += lanes;
    }
    ops = {block_.cls.data(), block_.dst.data(), block_.src1.data(),
           block_.src2.data(), block_.size};
    return true;
  }

  double latency(std::size_t i, double start, bool is_store,
                 CoreStats& stats) {
    // Memory fast path: when every lane of the fused op falls into one
    // cache line (the overwhelming replay case — unit strides coalesce,
    // scalar ops are single-lane) and that line hits L1, the access is
    // fully resolved right here: the L1 probe performs the exact access()
    // hit side effects and nothing downstream (L2/L3, DRAM, prefetcher)
    // would have been touched anyway. Any other case — multi-line, L1
    // miss — takes the generic path, which starts from the same cache
    // state because a failed probe changes nothing.
    const std::uint64_t a = block_.addr[i];
    const std::int64_t stride = block_.stride[i];
    const int lanes = block_.lanes[i];
    if (on_one_line(a, stride, lanes) && l1_.try_hit(a, is_store))
      return l1_lat_;
    return core_.mem_access(a, stride, lanes, start, is_store, stats);
  }

  void finish(CoreStats& stats) const {
    stats.scalar_instrs = scalar_instrs_;
    stats.class_ops = class_ops_;
    stats.class_lanes = class_lanes_;
    const cachesim::MemHierarchy& h = *core_.hierarchy_;
    set_cache_stats(stats, h.total_l1_stats(), h.total_l2_stats(),
                    h.l3_stats());
  }

 private:
  CoreModel& core_;
  isa::VectorFusion fusion_;
  isa::FusedBlock block_;
  cachesim::Cache& l1_;
  double l1_lat_;
  std::uint64_t scalar_instrs_ = 0;
  std::array<std::uint64_t, isa::kNumOpClasses> class_ops_{};
  std::array<std::uint64_t, isa::kNumOpClasses> class_lanes_{};
};

/// Walks a FusedOpTrace in block-sized slices and resolves each memory op
/// from its MemOutcomeTrace: ops not in slow_ops took the L1 fast path;
/// the others' lines are decoded into the core's line scratch and settled
/// against this core's DRAM system and prefetcher.
class CoreModel::RecordedMemory {
 public:
  RecordedMemory(CoreModel& core, const FusedOpTrace& ops,
                 const MemOutcomeTrace& outcomes)
      : core_(core),
        ops_(ops),
        out_(outcomes),
        l1_lat_(outcomes.latency_cycles[0]) {
    next_slow_ = out_.slow_ops.empty() ? kNoOp : out_.slow_ops[0];
  }

  double l1_latency() const { return l1_lat_; }

  bool next(OpColumns& ops) {
    if (pos_ >= ops_.size()) return false;
    base_ = pos_;
    const std::size_t n =
        std::min<std::size_t>(isa::FusedBlock::kCapacity, ops_.size() - pos_);
    ops = {ops_.cls.data() + pos_, ops_.dst.data() + pos_,
           ops_.src1.data() + pos_, ops_.src2.data() + pos_, n};
    pos_ += n;
    return true;
  }

  double latency(std::size_t i, double start, bool /*is_store*/,
                 CoreStats& stats) {
    if (base_ + i != next_slow_) return l1_lat_;
    std::vector<cachesim::MemOutcome>& outs = core_.line_outcomes_;
    std::vector<std::uint64_t>& addrs = core_.line_addrs_;
    outs.clear();
    addrs.clear();
    std::uint8_t code;
    do {
      code = out_.lines[line_++];
      cachesim::MemOutcome o;
      o.level = static_cast<cachesim::HitLevel>(code &
                                                MemOutcomeTrace::kLevelMask);
      o.latency_cycles =
          out_.latency_cycles[static_cast<std::size_t>(o.level)];
      o.dram_read = o.level == cachesim::HitLevel::kMemory;
      o.dram_writebacks = code >> MemOutcomeTrace::kWritebackShift &
                          MemOutcomeTrace::kWritebackMask;
      if (o.dram_writebacks > 0) o.wb_addr = out_.wb_addrs[wb_++];
      outs.push_back(o);
      addrs.push_back(o.dram_read ? out_.dram_addrs[dram_++] : 0);
    } while ((code & MemOutcomeTrace::kLastLine) == 0);
    ++slow_;
    next_slow_ =
        slow_ < out_.slow_ops.size() ? out_.slow_ops[slow_] : kNoOp;
    return core_.settle_lines(outs.size(), start, stats);
  }

  void finish(CoreStats& stats) const {
    MUSA_CHECK_MSG(slow_ == out_.slow_ops.size() &&
                       line_ == out_.lines.size() &&
                       dram_ == out_.dram_addrs.size() &&
                       wb_ == out_.wb_addrs.size(),
                   "memory outcome trace does not belong to this op trace");
    stats.scalar_instrs = ops_.scalar_instrs;
    stats.class_ops = ops_.class_ops;
    stats.class_lanes = ops_.class_lanes;
    set_cache_stats(stats, out_.l1, out_.l2, out_.l3);
  }

 private:
  static constexpr std::size_t kNoOp = ~std::size_t{0};

  CoreModel& core_;
  const FusedOpTrace& ops_;
  const MemOutcomeTrace& out_;
  double l1_lat_;
  std::size_t pos_ = 0, base_ = 0;  // next op; first op of current slice
  std::size_t next_slow_;
  std::size_t slow_ = 0, line_ = 0, dram_ = 0, wb_ = 0;  // cursors
};

CoreStats CoreModel::run_single_step(trace::InstrSource& source,
                                     const CoreRunOptions& options) {
  CoreStats stats;
  isa::VectorFusion fusion(source, options.vector_bits);
  // A bounded run can stop mid-stream and the caller may resume the same
  // source later (time-quantum execution): the fusion pass must consume the
  // source one instruction at a time, never ahead of what it retires.
  if (options.max_scalar_instrs != 0 || options.max_cycle != 0.0)
    fusion.disable_bulk_pull();

  // Scoreboard of register ready-times.
  const double t0 = options.start_cycle;
  std::array<double, isa::kNumRegs> reg_ready{};
  // Ring buffers of resource release times: an op reusing entry (i mod N)
  // must wait for that entry's previous owner to release it. The vectors
  // are member scratch (sized at construction) so repeated run() calls on
  // the sweep hot path reset them in place instead of reallocating.
  reset_rings(t0);
  std::vector<double>& rob_release = rob_release_;
  std::vector<double>& irf_release = irf_release_;
  std::vector<double>& frf_release = frf_release_;
  std::vector<double>& sb_release = sb_release_;
  std::vector<double>& alu_pool = alu_pool_;
  std::vector<double>& fpu_pool = fpu_pool_;
  std::vector<double>& lsu_pool = lsu_pool_;

  const double dispatch_step = 1.0 / config_.issue_width;
  double last_dispatch = t0;
  double last_commit = t0;
  // Ring positions as wrapping indices: `counter % size` costs an integer
  // division per op on the sweep hot path, the compare-and-reset does not.
  const std::size_t rob_n = rob_release.size(), irf_n = irf_release.size(),
                    frf_n = frf_release.size(), sb_n = sb_release.size();
  std::size_t rob_i = 0, irf_i = 0, frf_i = 0, sb_i = 0;

  isa::FusedInstr op;
  while ((options.max_scalar_instrs == 0 ||
          stats.scalar_instrs < options.max_scalar_instrs) &&
         (options.max_cycle == 0.0 || last_commit < options.max_cycle) &&
         fusion.next(op)) {
    deadline::poll();
    const isa::OpClass cls = op.first.op;

    // ---- Dispatch: bandwidth + ROB + RF + SB occupancy ----
    double dispatch =
        std::max(last_dispatch + dispatch_step, rob_release[rob_i]);
    const bool has_dst = op.first.dst != isa::kNoReg;
    const bool fp_dst = has_dst && op.first.dst >= isa::kFpRegBase;
    if (has_dst) {
      if (fp_dst)
        dispatch = std::max(dispatch, frf_release[frf_i]);
      else
        dispatch = std::max(dispatch, irf_release[irf_i]);
    }
    if (cls == isa::OpClass::kStore)
      dispatch = std::max(dispatch, sb_release[sb_i]);
    last_dispatch = dispatch;

    // ---- Issue: operand readiness + functional unit ----
    double ready = dispatch;
    if (op.first.src1 != isa::kNoReg)
      ready = std::max(ready, reg_ready[op.first.src1]);
    if (op.first.src2 != isa::kNoReg)
      ready = std::max(ready, reg_ready[op.first.src2]);

    // Pipelined units occupy one slot-cycle; divides block the unit.
    const double busy = cls == isa::OpClass::kFpDiv
                            ? static_cast<double>(isa::exec_latency(cls))
                            : 1.0;
    std::vector<double>& pool = isa::is_fp(cls)    ? fpu_pool
                                : isa::is_mem(cls) ? lsu_pool
                                                   : alu_pool;
    const double start = fu_acquire(pool, ready, busy);

    // ---- Execute ----
    double complete;
    double release = 0.0;  // extra lifetime for SB entries
    switch (cls) {
      case isa::OpClass::kLoad: {
        const double lat = options.perfect_memory
                               ? hierarchy_->config().l1.latency_cycles
                               : mem_access(op.first.addr, op.stride, op.lanes,
                                            start, /*is_write=*/false, stats);
        complete = start + lat;
        break;
      }
      case isa::OpClass::kStore: {
        complete = start + kStoreCommitLatency;
        // The buffered store drains to memory after commit; the entry is
        // held until the write completes.
        const double drain = options.perfect_memory
                                 ? hierarchy_->config().l1.latency_cycles
                                 : mem_access(op.first.addr, op.stride,
                                              op.lanes, start,
                                              /*is_write=*/true, stats);
        release = drain;
        break;
      }
      default:
        complete = start + isa::exec_latency(cls);
        break;
    }

    // ---- Writeback / commit ----
    if (has_dst) reg_ready[op.first.dst] = complete;
    const double commit = std::max(complete, last_commit + dispatch_step);
    last_commit = commit;
    rob_release[rob_i] = commit;
    if (++rob_i == rob_n) rob_i = 0;
    if (has_dst) {
      // Physical registers recycle at completion (early release): holding
      // them to commit would double-count the ROB occupancy limit.
      if (fp_dst) {
        frf_release[frf_i] = complete;
        if (++frf_i == frf_n) frf_i = 0;
      } else {
        irf_release[irf_i] = complete;
        if (++irf_i == irf_n) irf_i = 0;
      }
    }
    if (cls == isa::OpClass::kStore) {
      sb_release[sb_i] = commit + release;
      if (++sb_i == sb_n) sb_i = 0;
    }

    // ---- Statistics ----
    ++stats.fused_ops;
    stats.scalar_instrs += op.lanes;
    const auto ci = static_cast<std::size_t>(cls);
    ++stats.class_ops[ci];
    stats.class_lanes[ci] += op.lanes;
  }

  stats.cycles = last_commit - t0;
  set_cache_stats(stats, hierarchy_->total_l1_stats(),
                  hierarchy_->total_l2_stats(), hierarchy_->l3_stats());
  stats.dram = dram_.total_counters();
  return stats;
}

template <class Memory>
CoreStats CoreModel::run_blocked(Memory& memory,
                                 const CoreRunOptions& options) {
  CoreStats stats;

  const double t0 = options.start_cycle;
  // Scoreboard extended with a dead slot so src reads are unconditional:
  // kNoReg (0xff) indexes slot 255, which stays 0.0 forever (writes are
  // guarded by has_dst and real registers are < 64) and 0.0 never exceeds
  // `ready`, so max() with it is the identity — same result as the
  // branching reads of the single-step path, without the two branches on
  // every op.
  std::array<double, 256> reg_ready{};
  reset_rings(t0);
  // Raw pointers into the member rings: indexing through the vectors makes
  // every release-array touch reload the data pointer after any opaque call
  // (mem_access and the DRAM model may alias anything as far as the
  // compiler can tell); the pointees are still re-read as required, but the
  // bases stay in registers across the whole run.
  double* const rob_release = rob_release_.data();
  double* const irf_release = irf_release_.data();
  double* const frf_release = frf_release_.data();
  double* const sb_release = sb_release_.data();
  // Per-class FU pool table (order = OpClass): int/branch → ALU, fp → FPU,
  // mem → LSU, matching the is_fp/is_mem selection of the single-step path.
  struct Pool {
    double* data;
    std::size_t n;
  };
  const Pool alu{alu_pool_.data(), alu_pool_.size()};
  const Pool fpu{fpu_pool_.data(), fpu_pool_.size()};
  const Pool lsu{lsu_pool_.data(), lsu_pool_.size()};
  const Pool pool_of[isa::kNumOpClasses] = {alu, alu, fpu, fpu,
                                            fpu, lsu, lsu, alu};

  const double dispatch_step = 1.0 / config_.issue_width;
  const double l1_lat = memory.l1_latency();
  const bool perfect = options.perfect_memory;
  double last_dispatch = t0;
  double last_commit = t0;
  const std::size_t rob_n = rob_release_.size(), irf_n = irf_release_.size(),
                    frf_n = frf_release_.size(), sb_n = sb_release_.size();
  std::size_t rob_i = 0, irf_i = 0, frf_i = 0, sb_i = 0;

  OpColumns ops;
  while (memory.next(ops)) {
    // One watchdog poll and one policy call per block, not per op.
    deadline::poll();
    for (std::size_t i = 0; i < ops.size; ++i) {
      const isa::OpClass cls = ops.cls[i];
      const auto ci = static_cast<std::size_t>(cls);
      const std::uint8_t dst = ops.dst[i];

      // ---- Dispatch ----
      // Branchless gates: a constraint that does not apply resolves to t0,
      // which no pipeline time ever drops below (everything starts at t0
      // and only grows), so max() with it is the identity — bit-identical
      // to the guarded version of the single-step path. Reassociating the
      // four-way max into a tree is exact too (plain non-NaN doubles; no
      // ±0 mixing since all times are ≥ t0): both gates resolve off the
      // loop-carried last_dispatch chain instead of serialising behind it.
      const bool has_dst = dst != isa::kNoReg;
      const bool fp_dst = has_dst && dst >= isa::kFpRegBase;
      const double rf_gate =
          has_dst ? (fp_dst ? frf_release[frf_i] : irf_release[irf_i]) : t0;
      const bool is_store = cls == isa::OpClass::kStore;
      const double sb_gate = is_store ? sb_release[sb_i] : t0;
      const double dispatch =
          std::max(std::max(last_dispatch + dispatch_step, rob_release[rob_i]),
                   std::max(rf_gate, sb_gate));
      last_dispatch = dispatch;

      // ---- Issue ----
      const double ready =
          std::max(dispatch, std::max(reg_ready[ops.src1[i]],
                                      reg_ready[ops.src2[i]]));
      // fu_acquire inlined on the raw pool, split into a branchless value
      // scan (std::min chains compile to minsd, no data-dependent branch
      // to mispredict) and a first-match index pick — the same unit the
      // strict-< scan of fu_acquire chooses, with the same start time.
      const Pool& pl = pool_of[ci];
      double pool_min = pl.data[0];
      for (std::size_t k = 1; k < pl.n; ++k)
        pool_min = std::min(pool_min, pl.data[k]);
      std::size_t best = pl.n - 1;
      for (std::size_t k = pl.n - 1; k-- > 0;)
        if (pl.data[k] == pool_min) best = k;
      const double start = std::max(ready, pool_min);
      pl.data[best] = start + kBusy[ci];

      // ---- Execute ----
      // Fast path: the dominant non-memory classes complete off the
      // latency table with no memory-system involvement at all.
      double complete;
      double release = 0.0;
      if (!isa::is_mem(cls)) {
        complete = start + kExecLatency[ci];
      } else {
        const double lat =
            perfect ? l1_lat : memory.latency(i, start, is_store, stats);
        if (is_store) {
          complete = start + kStoreCommitLatency;
          release = lat;
        } else {
          complete = start + lat;
        }
      }

      // ---- Writeback / commit ----
      if (has_dst) reg_ready[dst] = complete;
      const double commit = std::max(complete, last_commit + dispatch_step);
      last_commit = commit;
      rob_release[rob_i] = commit;
      if (++rob_i == rob_n) rob_i = 0;
      if (has_dst) {
        if (fp_dst) {
          frf_release[frf_i] = complete;
          if (++frf_i == frf_n) frf_i = 0;
        } else {
          irf_release[irf_i] = complete;
          if (++irf_i == irf_n) irf_i = 0;
        }
      }
      if (is_store) {
        sb_release[sb_i] = commit + release;
        if (++sb_i == sb_n) sb_i = 0;
      }
    }
    stats.fused_ops += ops.size;
  }

  memory.finish(stats);
  stats.cycles = last_commit - t0;
  stats.dram = dram_.total_counters();
  return stats;
}

CoreStats CoreModel::run(trace::InstrSource& source,
                         const CoreRunOptions& options) {
  MUSA_CHECK_MSG(hierarchy_ != nullptr,
                 "core built without a hierarchy can only replay");
  prefetch_enabled_ = options.enable_prefetcher;
  // The block path reads the source ahead of what it retires, so any run
  // that can stop early (instruction or cycle bound) and expects the source
  // positioned at the stop point must single-step: node_detailed resumes
  // cores from a shared source across time quanta.
  const bool single_step = options.single_step ||
                           options.max_scalar_instrs != 0 ||
                           options.max_cycle != 0.0;
  if (single_step) return run_single_step(source, options);
  LiveMemory memory(*this, source, options.vector_bits);
  return run_blocked(memory, options);
}

CoreStats CoreModel::replay(const FusedOpTrace& ops,
                            const MemOutcomeTrace& outcomes,
                            const CoreRunOptions& options) {
  MUSA_CHECK_MSG(options.vector_bits == ops.vector_bits,
                 "replay at a vector width the ops were not fused for");
  MUSA_CHECK_MSG(!options.perfect_memory && !options.single_step &&
                     options.max_scalar_instrs == 0 && options.max_cycle == 0.0,
                 "replay supports only full measured block runs");
  prefetch_enabled_ = options.enable_prefetcher;
  RecordedMemory memory(*this, ops, outcomes);
  return run_blocked(memory, options);
}

}  // namespace musa::cpusim
