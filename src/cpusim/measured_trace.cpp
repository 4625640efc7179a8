#include "cpusim/measured_trace.hpp"

#include <limits>

#include "common/check.hpp"
#include "isa/vector_fusion.hpp"

namespace musa::cpusim {

void coalesce_lines(std::uint64_t addr, std::int64_t stride, int lanes,
                    std::vector<std::uint64_t>& out) {
  out.clear();
  std::uint64_t prev_line = ~0ull;
  for (int lane = 0; lane < lanes; ++lane) {
    const std::uint64_t a =
        addr +
        static_cast<std::uint64_t>(static_cast<std::int64_t>(lane) * stride);
    const std::uint64_t line = a / cachesim::kLineBytes;
    if (line == prev_line) continue;  // coalesced with the previous lane
    prev_line = line;
    out.push_back(a);
  }
}

FusedOpTrace fuse_ops(trace::InstrSource& source, int vector_bits) {
  FusedOpTrace t;
  t.vector_bits = vector_bits;
  isa::VectorFusion fusion(source, vector_bits);
  isa::FusedBlock block;
  while (fusion.next_block(block)) {
    for (std::size_t i = 0; i < block.size; ++i) {
      const isa::OpClass cls = block.cls[i];
      const auto ci = static_cast<std::size_t>(cls);
      t.cls.push_back(cls);
      t.dst.push_back(block.dst[i]);
      t.src1.push_back(block.src1[i]);
      t.src2.push_back(block.src2[i]);
      t.scalar_instrs += block.lanes[i];
      ++t.class_ops[ci];
      t.class_lanes[ci] += block.lanes[i];
      if (isa::is_mem(cls)) {
        t.mem_addr.push_back(block.addr[i]);
        t.mem_stride.push_back(block.stride[i]);
        t.mem_lanes.push_back(block.lanes[i]);
      }
    }
  }
  MUSA_CHECK_MSG(t.size() <= std::numeric_limits<std::uint32_t>::max(),
                 "fused op stream too long to index");
  // Memo entries live for the whole sweep: drop the growth slack.
  t.cls.shrink_to_fit();
  t.dst.shrink_to_fit();
  t.src1.shrink_to_fit();
  t.src2.shrink_to_fit();
  t.mem_addr.shrink_to_fit();
  t.mem_stride.shrink_to_fit();
  t.mem_lanes.shrink_to_fit();
  return t;
}

MemOutcomeTrace record_outcomes(const FusedOpTrace& ops,
                                cachesim::MemHierarchy& hierarchy) {
  constexpr int core = 0;
  MemOutcomeTrace t;
  const cachesim::HierarchyConfig& cfg = hierarchy.config();
  t.latency_cycles = {cfg.l1.latency_cycles, cfg.l2.latency_cycles,
                      cfg.l3.latency_cycles, cfg.l3.latency_cycles};
  cachesim::Cache& l1 = hierarchy.l1_cache(core);
  std::vector<std::uint64_t> addrs;
  std::vector<cachesim::MemOutcome> outs;
  std::size_t m = 0;  // memory-op index
  for (std::size_t k = 0; k < ops.size(); ++k) {
    if (!isa::is_mem(ops.cls[k])) continue;
    const bool is_store = ops.cls[k] == isa::OpClass::kStore;
    const std::uint64_t a = ops.mem_addr[m];
    const std::int64_t stride = ops.mem_stride[m];
    const int lanes = ops.mem_lanes[m];
    ++m;
    if (on_one_line(a, stride, lanes) && l1.try_hit(a, is_store)) continue;
    coalesce_lines(a, stride, lanes, addrs);
    // An op with no lanes touches nothing and costs the L1 latency, the
    // same as a fast-path hit, so it needs no record either.
    if (addrs.empty()) continue;
    outs.resize(addrs.size());
    hierarchy.access_block(core, addrs.data(), addrs.size(), is_store,
                           outs.data());
    t.slow_ops.push_back(static_cast<std::uint32_t>(k));
    for (std::size_t i = 0; i < outs.size(); ++i) {
      const cachesim::MemOutcome& out = outs[i];
      MUSA_CHECK_MSG(out.dram_writebacks <= MemOutcomeTrace::kWritebackMask,
                     "more DRAM write-backs per line than a line code holds");
      MUSA_DCHECK_MSG(out.dram_read == (out.level == cachesim::HitLevel::kMemory),
                      "DRAM read without a memory-level outcome");
      t.lines.push_back(static_cast<std::uint8_t>(
          static_cast<std::uint8_t>(out.level) |
          out.dram_writebacks << MemOutcomeTrace::kWritebackShift |
          (i + 1 == outs.size() ? MemOutcomeTrace::kLastLine : 0)));
      if (out.dram_read) t.dram_addrs.push_back(addrs[i]);
      if (out.dram_writebacks > 0) t.wb_addrs.push_back(out.wb_addr);
    }
  }
  t.l1 = hierarchy.total_l1_stats();
  t.l2 = hierarchy.total_l2_stats();
  t.l3 = hierarchy.l3_stats();
  t.slow_ops.shrink_to_fit();
  t.lines.shrink_to_fit();
  t.dram_addrs.shrink_to_fit();
  t.wb_addrs.shrink_to_fit();
  return t;
}

}  // namespace musa::cpusim
