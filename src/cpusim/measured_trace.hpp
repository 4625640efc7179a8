// The timing-free half of a measured core run (DESIGN.md §7k).
//
// A measured run splits into what the machine's timing cannot change and
// what it decides. Vector fusion is a pure function of (source stream,
// vector width). The cache hierarchy's access(), access_block() and
// try_hit() take no time argument, and prefetches never fill a cache. So
// the fused op stream, and every cache outcome of the run, depend only on
// (stream, vector width, exact hierarchy geometry and warm state). Only the
// OoO timestamp loop, the DRAM system and the stream prefetcher see time.
//
// FusedOpTrace records the fused ops, MemOutcomeTrace the cache outcomes of
// their memory accesses; CoreModel::replay times the pair against a point's
// own DRAM system and reproduces CoreModel::run's CoreStats bit for bit.
// The stage memo keeps one FusedOpTrace per (app, phase, vector width) and
// one MemOutcomeTrace per (app, phase, vector width, scaled hierarchy), so
// the 24-32 design points sharing them skip fusion and the cache walk.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "cachesim/hierarchy.hpp"
#include "isa/instr.hpp"

namespace musa::trace {
class InstrSource;
}

namespace musa::cpusim {

/// True when every lane of a fused memory op (`lanes` addresses `stride`
/// bytes apart from `addr`) falls into one cache line. Lane addresses are
/// monotone in the lane index, so the first and last lane decide it.
inline bool on_one_line(std::uint64_t addr, std::int64_t stride, int lanes) {
  const std::uint64_t last =
      addr + static_cast<std::uint64_t>(static_cast<std::int64_t>(lanes - 1) *
                                        stride);
  return addr / cachesim::kLineBytes == last / cachesim::kLineBytes;
}

/// The representative address (first lane) of every distinct line a fused
/// memory op touches, in lane order, into `out` (cleared first).
void coalesce_lines(std::uint64_t addr, std::int64_t stride, int lanes,
                    std::vector<std::uint64_t>& out);

/// The fused op stream of one measured run, as the timing loop reads it:
/// one column entry per op, in emission order (isa::FusedBlock's columns
/// without the per-op address fields). Memory ops also keep what the cache
/// walk needs, one entry per memory op.
struct FusedOpTrace {
  int vector_bits = 0;
  std::vector<isa::OpClass> cls;
  std::vector<std::uint8_t> dst, src1, src2;
  std::vector<std::uint64_t> mem_addr;
  std::vector<std::int64_t> mem_stride;
  std::vector<std::uint16_t> mem_lanes;
  // CoreStats' activity tallies, summed once at fusion time.
  std::uint64_t scalar_instrs = 0;
  std::array<std::uint64_t, isa::kNumOpClasses> class_ops{};
  std::array<std::uint64_t, isa::kNumOpClasses> class_lanes{};

  std::size_t size() const { return cls.size(); }
};

/// Fuses the whole of `source` at `vector_bits` into a FusedOpTrace — the
/// same ops, in the same order, CoreModel::run's fusion pass produces.
FusedOpTrace fuse_ops(trace::InstrSource& source, int vector_bits);

/// Cache outcomes of every memory op of a FusedOpTrace, against one warm
/// hierarchy. Ops that take the L1 fast path (one line, L1 hit) leave no
/// record: the timing loop charges them the L1 latency. Every other op is
/// listed in `slow_ops` and owns a run of line codes, ended by kLastLine.
struct MemOutcomeTrace {
  // A line code: the HitLevel in the low two bits, the number of DRAM
  // write-backs (0..3) in the next two, and kLastLine on an op's last line.
  static constexpr std::uint8_t kLevelMask = 0x3;
  static constexpr int kWritebackShift = 2;
  static constexpr std::uint8_t kWritebackMask = 0x3;
  static constexpr std::uint8_t kLastLine = 0x10;

  std::vector<std::uint32_t> slow_ops;    // op indices, ascending
  std::vector<std::uint8_t> lines;        // one code per line of those ops
  std::vector<std::uint64_t> dram_addrs;  // per line read from DRAM
  std::vector<std::uint64_t> wb_addrs;    // per line with write-backs
  std::array<int, 4> latency_cycles{};    // by HitLevel (kMemory: L3's)
  // The hierarchy's statistics after the walk, which CoreModel::run reports.
  cachesim::CacheStats l1, l2, l3;
};

/// Walks every memory op of `ops` through core 0 of `hierarchy` exactly as
/// the live block loop does (L1 fast-path probe, else coalesce and
/// access_block) and records the outcomes. `hierarchy` ends in the state
/// the live run leaves.
MemOutcomeTrace record_outcomes(const FusedOpTrace& ops,
                                cachesim::MemHierarchy& hierarchy);

}  // namespace musa::cpusim
