// A burst trace compiled once into a flat MPI replay program.
//
// Everything the replay engine would otherwise rebuild from the trace on
// every replay is resolved here, once per trace (DESIGN.md §7j):
//
//   * the events of all ranks sit in one array of 24-byte steps, with
//     per-rank offsets;
//   * each Send, Isend, Recv and Irecv names its (src, dst) channel by a
//     dense index into `channels`, so a replay needs no hash lookups and
//     computes hop latencies once per channel rather than once per send.
//     Each channel owns a segment of one arrivals array, sized by its send
//     count, which a replay uses as the channel's message queue;
//   * request ids resolve to request slots: an Isend or Irecv takes a
//     slot free on its rank, and its Wait names that slot. Which
//     request a Wait retires depends only on the rank's own program, so
//     this is exact;
//   * each compute burst carries its σ-free jitter offset
//     d = Σ₁₂ uniforms − 6, drawn from the same per-(rank, event index)
//     seed the engine used, so max(0.3, 1 + d·σ) is bit-identical to the
//     Rng::next_normal(1, σ) draw for any σ;
//   * region ids map to dense scale slots.
//
// A program depends on the trace only: network, region scales and σ are
// replay options, so one cached program serves every what-if.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/burst.hpp"

namespace musa::netsim {

/// One event of a compiled program.
struct ReplayStep {
  enum class Op : std::uint8_t {
    kCompute, kSend, kIsend, kRecv, kIrecv, kWait, kAllreduce, kBarrier
  };
  /// A point-to-point op's channel and request slot.
  struct P2p {
    std::uint32_t channel;
    std::uint32_t req;
  };

  union {
    double seconds = 0.0;  // kCompute: reference-machine duration
    std::uint64_t bytes;   // MPI ops: message payload
  };
  union {
    double jitter = 0.0;  // kCompute: σ-free jitter offset d
    P2p p2p;  // Send/Isend/Recv/Irecv: channel; Isend/Irecv/Wait: slot
  };
  std::uint32_t region = 0;  // kCompute: index into ReplayProgram::region_ids
  Op op = Op::kCompute;
};
static_assert(sizeof(ReplayStep) == 24);

struct ReplayProgram {
  struct Channel {
    int src = -1, dst = -1;
    std::uint32_t arrivals_begin = 0;  // first index of its arrivals segment
  };

  std::vector<ReplayStep> steps;
  /// Rank r's steps are [rank_begin[r], rank_begin[r + 1]).
  std::vector<std::uint32_t> rank_begin;
  /// Channels in order of first appearance (rank order, then event order).
  std::vector<Channel> channels;
  /// The trace's distinct region ids, indexed by ReplayStep::region.
  std::vector<int> region_ids;
  std::uint32_t num_sends = 0;     // size of the arrivals array
  std::uint32_t num_requests = 0;  // request slots over all ranks

  int num_ranks() const { return static_cast<int>(rank_begin.size()) - 1; }
};

/// Compiles `app`. Throws SimError if the trace has no ranks, a
/// point-to-point op names a peer outside [0, P) (Wait's peer is unused),
/// an Isend or Irecv reuses a request id still in flight, or a Wait names
/// none in flight: the messages the engine raised when it reached them.
ReplayProgram compile_replay(const trace::AppTrace& app);

}  // namespace musa::netsim
