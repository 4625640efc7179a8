#include "netsim/replay_program.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <unordered_map>

#include "common/check.hpp"
#include "common/flat_table.hpp"
#include "common/rng.hpp"

namespace musa::netsim {

namespace {

/// The σ-free part of the engine's ~N(1, σ) jitter for event `idx` of
/// `rank`: Rng::next_normal(1, σ) is 1 + d·σ with this d.
double jitter_offset(int rank, std::size_t idx) {
  Rng rng((static_cast<std::uint64_t>(rank) << 24) ^
          (static_cast<std::uint64_t>(idx) * 0x9e3779b9ull) ^ 0x51c0ffeeull);
  double acc = 0.0;
  for (int i = 0; i < 12; ++i) acc += rng.next_double();
  return acc - 6.0;
}

ReplayStep::Op step_op(trace::MpiOp op) {
  switch (op) {
    case trace::MpiOp::kSend: return ReplayStep::Op::kSend;
    case trace::MpiOp::kRecv: return ReplayStep::Op::kRecv;
    case trace::MpiOp::kIsend: return ReplayStep::Op::kIsend;
    case trace::MpiOp::kIrecv: return ReplayStep::Op::kIrecv;
    case trace::MpiOp::kWait: return ReplayStep::Op::kWait;
    case trace::MpiOp::kAllreduce: return ReplayStep::Op::kAllreduce;
    case trace::MpiOp::kBarrier: return ReplayStep::Op::kBarrier;
  }
  throw SimError("unknown MPI op in burst trace");
}

}  // namespace

ReplayProgram compile_replay(const trace::AppTrace& app) {
  const int P = app.num_ranks();
  MUSA_CHECK_MSG(P >= 1, "trace has no ranks");

  ReplayProgram prog;
  std::size_t total = 0;
  for (const auto& rank : app.ranks) total += rank.events.size();
  MUSA_CHECK_MSG(total < std::numeric_limits<std::uint32_t>::max(),
                 "burst trace too large to compile");
  prog.steps.reserve(total);
  prog.rank_begin.reserve(static_cast<std::size_t>(P) + 1);

  // Channel key src * P + dst -> 1 + index into prog.channels.
  std::vector<std::uint32_t> sends_on;  // per channel
  FlatTable64<std::uint32_t> channel_of(4 * static_cast<std::size_t>(P));
  auto channel = [&](int src, int dst) {
    std::uint32_t& idx =
        channel_of.find_or_insert(static_cast<std::uint64_t>(src) * P + dst);
    if (idx == 0) {
      prog.channels.push_back({.src = src, .dst = dst});
      sends_on.push_back(0);
      idx = static_cast<std::uint32_t>(prog.channels.size());
    }
    return idx - 1;
  };
  std::unordered_map<int, std::uint32_t> slot_of;  // region id -> slot
  auto region_slot = [&](int id) {
    const auto [it, added] = slot_of.try_emplace(
        id, static_cast<std::uint32_t>(prog.region_ids.size()));
    if (added) prog.region_ids.push_back(id);
    return it->second;
  };

  // The current rank's in-flight requests (id, slot) and its freed slots.
  std::vector<std::pair<int, std::uint32_t>> inflight;
  std::vector<std::uint32_t> free_slots;
  for (int r = 0; r < P; ++r) {
    prog.rank_begin.push_back(static_cast<std::uint32_t>(prog.steps.size()));
    inflight.clear();
    free_slots.clear();
    const auto& events = app.ranks[r].events;
    for (std::size_t i = 0; i < events.size(); ++i) {
      const trace::BurstEvent& e = events[i];
      ReplayStep s;
      if (e.kind == trace::BurstEvent::Kind::kCompute) {
        s.op = ReplayStep::Op::kCompute;
        s.seconds = e.seconds;
        s.jitter = jitter_offset(r, i);
        s.region = region_slot(e.region_id);
        prog.steps.push_back(s);
        continue;
      }

      using Op = ReplayStep::Op;
      s.op = step_op(e.op);
      s.bytes = e.bytes;
      s.p2p = {.channel = 0, .req = 0};
      if (s.op == Op::kSend || s.op == Op::kIsend || s.op == Op::kRecv ||
          s.op == Op::kIrecv) {
        if (e.peer < 0 || e.peer >= P)
          throw SimError(std::string(trace::mpi_op_name(e.op)) + " on rank " +
                         std::to_string(r) + ": peer " +
                         std::to_string(e.peer) + " outside [0, " +
                         std::to_string(P) + ")");
        const bool sends = s.op == Op::kSend || s.op == Op::kIsend;
        s.p2p.channel = sends ? channel(r, e.peer) : channel(e.peer, r);
        if (sends) ++sends_on[s.p2p.channel];
      }
      auto in_flight = [&] {
        return std::find_if(inflight.begin(), inflight.end(),
                            [&](const auto& q) { return q.first == e.req; });
      };
      if (s.op == Op::kIsend || s.op == Op::kIrecv) {
        // An id still in flight is a broken trace (MPI would report the
        // reused request), not a replacement.
        if (in_flight() != inflight.end())
          throw SimError(std::string(trace::mpi_op_name(e.op)) + " on rank " +
                         std::to_string(r) + " reuses request " +
                         std::to_string(e.req) + " while it is in flight");
        std::uint32_t slot = prog.num_requests;
        if (free_slots.empty()) {
          ++prog.num_requests;
        } else {
          slot = free_slots.back();
          free_slots.pop_back();
        }
        inflight.emplace_back(e.req, slot);
        s.p2p.req = slot;
      } else if (s.op == Op::kWait) {
        const auto q = in_flight();
        MUSA_CHECK_MSG(q != inflight.end(), "Wait on unknown request");
        s.p2p.req = q->second;
        free_slots.push_back(q->second);
        *q = inflight.back();
        inflight.pop_back();
      }
      prog.steps.push_back(s);
    }
  }
  prog.rank_begin.push_back(static_cast<std::uint32_t>(prog.steps.size()));
  for (std::size_t c = 0; c < prog.channels.size(); ++c) {
    prog.channels[c].arrivals_begin = prog.num_sends;
    prog.num_sends += sends_on[c];
  }
  return prog;
}

}  // namespace musa::netsim
