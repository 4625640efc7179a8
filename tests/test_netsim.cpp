// Unit tests for the Dimemas-style MPI replay engine.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "apps/apps.hpp"
#include "common/check.hpp"
#include "netsim/dimemas.hpp"
#include "netsim/replay_program.hpp"
#include "trace/burst.hpp"

namespace musa::netsim {
namespace {

using trace::AppTrace;
using trace::BurstEvent;
using trace::MpiOp;

AppTrace two_ranks() {
  AppTrace t;
  t.ranks.resize(2);
  t.ranks[0].rank = 0;
  t.ranks[1].rank = 1;
  return t;
}

NetworkConfig fast_net() {
  return {.latency_s = 1e-6, .bandwidth_gbps = 10.0,
          .eager_threshold = 32 * 1024};
}

TEST(Dimemas, ComputeOnlyRanksFinishIndependently) {
  AppTrace t = two_ranks();
  t.ranks[0].events.push_back(BurstEvent::compute(1.0, 0));
  t.ranks[1].events.push_back(BurstEvent::compute(2.0, 0));
  DimemasEngine net(fast_net());
  const ReplayResult r = net.replay(t, {});
  EXPECT_NEAR(r.total_seconds, 2.0, 1e-9);
  EXPECT_NEAR(r.ranks[0].finish_s, 1.0, 1e-9);
}

TEST(Dimemas, RegionScaleRescalesComputeBursts) {
  AppTrace t = two_ranks();
  t.ranks[0].events.push_back(BurstEvent::compute(1.0, 0));
  t.ranks[1].events.push_back(BurstEvent::compute(1.0, 0));
  DimemasEngine net(fast_net());
  ReplayOptions opts;
  opts.region_scale = {0.25};
  EXPECT_NEAR(net.replay(t, opts).total_seconds, 0.25, 1e-9);
}

TEST(Dimemas, PerRegionScalesApplyIndependently) {
  AppTrace t = two_ranks();
  for (int r = 0; r < 2; ++r) {
    t.ranks[r].events.push_back(BurstEvent::compute(1.0, /*region=*/0));
    t.ranks[r].events.push_back(BurstEvent::compute(1.0, /*region=*/1));
  }
  DimemasEngine net(fast_net());
  ReplayOptions opts;
  opts.region_scale = {0.5, 2.0};
  EXPECT_NEAR(net.replay(t, opts).total_seconds, 2.5, 1e-9);
}

TEST(Dimemas, EagerSendDoesNotBlockSender) {
  AppTrace t = two_ranks();
  t.ranks[0].events.push_back(BurstEvent::mpi(MpiOp::kSend, 1, 1024));
  t.ranks[0].events.push_back(BurstEvent::compute(1.0, 0));
  t.ranks[1].events.push_back(BurstEvent::compute(0.5, 0));
  t.ranks[1].events.push_back(BurstEvent::mpi(MpiOp::kRecv, 0, 1024));
  DimemasEngine net(fast_net());
  const ReplayResult r = net.replay(t, {});
  // Sender continues after injecting 1 kB (~0.1 µs), not after the match.
  EXPECT_LT(r.ranks[0].finish_s, 1.001);
  // Receiver completes at max(post, arrival) = 0.5 s.
  EXPECT_NEAR(r.ranks[1].finish_s, 0.5, 1e-3);
}

TEST(Dimemas, RendezvousSenderPaysFullTransfer) {
  AppTrace t = two_ranks();
  const std::uint64_t big = 100 * 1024 * 1024;  // 100 MB >> eager threshold
  t.ranks[0].events.push_back(BurstEvent::mpi(MpiOp::kSend, 1, big));
  t.ranks[1].events.push_back(BurstEvent::mpi(MpiOp::kRecv, 0, big));
  DimemasEngine net(fast_net());
  const ReplayResult r = net.replay(t, {});
  const double expect = fast_net().transfer_s(big);
  EXPECT_NEAR(r.ranks[0].finish_s, expect, expect * 0.01);
  EXPECT_NEAR(r.ranks[1].finish_s, expect, expect * 0.01);
}

TEST(Dimemas, RecvWaitsForLateSender) {
  AppTrace t = two_ranks();
  t.ranks[0].events.push_back(BurstEvent::compute(2.0, 0));
  t.ranks[0].events.push_back(BurstEvent::mpi(MpiOp::kSend, 1, 8));
  t.ranks[1].events.push_back(BurstEvent::mpi(MpiOp::kRecv, 0, 8));
  DimemasEngine net(fast_net());
  const ReplayResult r = net.replay(t, {});
  EXPECT_GT(r.ranks[1].finish_s, 2.0);
  EXPECT_GT(r.ranks[1].p2p_s, 1.9);  // blocked nearly the whole time
}

TEST(Dimemas, IsendIrecvWaitRoundTrip) {
  AppTrace t = two_ranks();
  auto& r0 = t.ranks[0].events;
  auto& r1 = t.ranks[1].events;
  r0.push_back(BurstEvent::mpi(MpiOp::kIrecv, 1, 64, 0));
  r0.push_back(BurstEvent::mpi(MpiOp::kIsend, 1, 64, 1));
  r0.push_back(BurstEvent::compute(0.1, 0));
  r0.push_back(BurstEvent::mpi(MpiOp::kWait, 1, 0, 0));
  r0.push_back(BurstEvent::mpi(MpiOp::kWait, 1, 0, 1));
  r1.push_back(BurstEvent::mpi(MpiOp::kIrecv, 0, 64, 0));
  r1.push_back(BurstEvent::mpi(MpiOp::kIsend, 0, 64, 1));
  r1.push_back(BurstEvent::compute(0.1, 0));
  r1.push_back(BurstEvent::mpi(MpiOp::kWait, 0, 0, 0));
  r1.push_back(BurstEvent::mpi(MpiOp::kWait, 0, 0, 1));
  DimemasEngine net(fast_net());
  const ReplayResult r = net.replay(t, {});
  EXPECT_NEAR(r.total_seconds, 0.1, 0.01);  // overlapped exchange
}

TEST(Dimemas, BarrierSynchronisesAllRanks) {
  AppTrace t;
  t.ranks.resize(4);
  for (int i = 0; i < 4; ++i) {
    t.ranks[i].rank = i;
    t.ranks[i].events.push_back(BurstEvent::compute(0.5 * (i + 1), 0));
    t.ranks[i].events.push_back(BurstEvent::mpi(MpiOp::kBarrier, -1, 0));
    t.ranks[i].events.push_back(BurstEvent::compute(0.1, 0));
  }
  DimemasEngine net(fast_net());
  const ReplayResult r = net.replay(t, {});
  // Everyone leaves the barrier after the slowest (2.0 s) entrant.
  for (int i = 0; i < 4; ++i) EXPECT_GT(r.ranks[i].finish_s, 2.09);
  EXPECT_GT(r.ranks[0].collective_s, 1.4);  // rank 0 waited ~1.5 s
}

TEST(Dimemas, AllreduceCostsLogTreeTransfers) {
  AppTrace t;
  t.ranks.resize(8);
  for (int i = 0; i < 8; ++i) {
    t.ranks[i].rank = i;
    t.ranks[i].events.push_back(
        BurstEvent::mpi(MpiOp::kAllreduce, -1, 1024));
  }
  const NetworkConfig net_cfg = fast_net();
  DimemasEngine net(net_cfg);
  const ReplayResult r = net.replay(t, {});
  const double expect = 2.0 * 3 * net_cfg.transfer_s(1024);  // 2·log2(8)
  EXPECT_NEAR(r.total_seconds, expect, expect * 0.01);
}

TEST(Dimemas, JitterIsDeterministicAndBounded) {
  AppTrace t = two_ranks();
  for (int i = 0; i < 16; ++i) {
    t.ranks[0].events.push_back(BurstEvent::compute(1.0, 0));
    t.ranks[1].events.push_back(BurstEvent::compute(1.0, 0));
  }
  DimemasEngine net(fast_net());
  ReplayOptions opts;
  opts.region_jitter_sigma = 0.2;
  const ReplayResult a = net.replay(t, opts);
  const ReplayResult b = net.replay(t, opts);
  EXPECT_DOUBLE_EQ(a.total_seconds, b.total_seconds);
  // Jitter perturbs but does not explode: within ±60% of nominal total.
  EXPECT_NEAR(a.total_seconds, 16.0, 16.0 * 0.6);
  EXPECT_NE(a.total_seconds, 16.0);
}

TEST(Dimemas, TimelineRecordsSegments) {
  AppTrace t = two_ranks();
  t.ranks[0].events.push_back(BurstEvent::compute(1.0, 0));
  t.ranks[0].events.push_back(BurstEvent::mpi(MpiOp::kBarrier, -1, 0));
  t.ranks[1].events.push_back(BurstEvent::compute(2.0, 0));
  t.ranks[1].events.push_back(BurstEvent::mpi(MpiOp::kBarrier, -1, 0));
  DimemasEngine net(fast_net());
  ReplayOptions opts;
  opts.record_timeline = true;
  const ReplayResult r = net.replay(t, opts);
  bool compute_seen = false, collective_seen = false;
  for (const auto& seg : r.timeline) {
    if (seg.kind == RankSeg::Kind::kCompute) compute_seen = true;
    if (seg.kind == RankSeg::Kind::kCollective) collective_seen = true;
    EXPECT_LE(seg.start, seg.end);
  }
  EXPECT_TRUE(compute_seen);
  EXPECT_TRUE(collective_seen);
}

TEST(Dimemas, AccountsComputeAndMpiSeparately) {
  AppTrace t = two_ranks();
  t.ranks[0].events.push_back(BurstEvent::compute(1.0, 0));
  t.ranks[0].events.push_back(BurstEvent::mpi(MpiOp::kBarrier, -1, 0));
  t.ranks[1].events.push_back(BurstEvent::compute(3.0, 0));
  t.ranks[1].events.push_back(BurstEvent::mpi(MpiOp::kBarrier, -1, 0));
  DimemasEngine net(fast_net());
  const ReplayResult r = net.replay(t, {});
  EXPECT_NEAR(r.total_compute(), 4.0, 1e-6);
  EXPECT_NEAR(r.ranks[0].collective_s, 2.0, 0.01);
  EXPECT_NEAR(r.total_mpi(), 2.0, 0.05);
}

/// The SimError message of replaying `t`, or "no error".
std::string replay_error(const AppTrace& t) {
  try {
    DimemasEngine(fast_net()).replay(t, {});
  } catch (const SimError& e) {
    return e.what();
  }
  return "no error";
}

TEST(Dimemas, DetectsUnmatchedRecv) {
  // The receiver blocks first and the silent sender finishes later in the
  // same pass (receiver rank 0), or the sender has already finished when
  // the receiver gets there (receiver rank 1).
  for (int recv_rank : {0, 1}) {
    AppTrace t = two_ranks();
    t.ranks[recv_rank].events.push_back(
        BurstEvent::mpi(MpiOp::kRecv, 1 - recv_rank, 64));
    t.ranks[1 - recv_rank].events.push_back(BurstEvent::compute(0.1, 0));
    EXPECT_EQ(replay_error(t), "Recv with no matching Send in trace")
        << "receiver rank " << recv_rank;
  }
}

TEST(Dimemas, DetectsUnmatchedWaitRecv) {
  for (int recv_rank : {0, 1}) {
    AppTrace t = two_ranks();
    auto& ev = t.ranks[recv_rank].events;
    ev.push_back(BurstEvent::mpi(MpiOp::kIrecv, 1 - recv_rank, 64, 0));
    ev.push_back(BurstEvent::mpi(MpiOp::kWait, 1 - recv_rank, 0, 0));
    t.ranks[1 - recv_rank].events.push_back(BurstEvent::compute(0.1, 0));
    EXPECT_EQ(replay_error(t), "Wait(recv) with no matching Send")
        << "receiver rank " << recv_rank;
  }
}

TEST(Dimemas, RejectsUndrainedChannel) {
  // A send nobody receives: every rank finishes, one message is left.
  AppTrace t = two_ranks();
  t.ranks[0].events.push_back(BurstEvent::mpi(MpiOp::kSend, 1, 64));
  EXPECT_EQ(replay_error(t),
            "MPI replay: channel 0->1 holds 1 message(s) never received at "
            "the end of the trace");
  // More sends than receives on one channel.
  AppTrace extra = two_ranks();
  for (int i = 0; i < 3; ++i)
    extra.ranks[1].events.push_back(BurstEvent::mpi(MpiOp::kSend, 0, 64));
  extra.ranks[0].events.push_back(BurstEvent::mpi(MpiOp::kRecv, 1, 64));
  EXPECT_EQ(replay_error(extra),
            "MPI replay: channel 1->0 holds 2 message(s) never received at "
            "the end of the trace");
}

TEST(Dimemas, RejectsRequestIdReusedInFlight) {
  // Rank 0 posts Irecv(1, req 0) twice before waiting; rank 1 sends twice.
  AppTrace t = two_ranks();
  auto& r0 = t.ranks[0].events;
  r0.push_back(BurstEvent::mpi(MpiOp::kIrecv, 1, 64, 0));
  r0.push_back(BurstEvent::mpi(MpiOp::kIrecv, 1, 64, 0));
  r0.push_back(BurstEvent::mpi(MpiOp::kWait, 1, 0, 0));
  for (int i = 0; i < 2; ++i)
    t.ranks[1].events.push_back(BurstEvent::mpi(MpiOp::kSend, 0, 64));
  EXPECT_EQ(replay_error(t),
            "Irecv on rank 0 reuses request 0 while it is in flight");
  // The same for an Isend; an id is free again once its Wait retired it.
  AppTrace isend = two_ranks();
  auto& r1 = isend.ranks[1].events;
  r1.push_back(BurstEvent::mpi(MpiOp::kIsend, 0, 64, 3));
  r1.push_back(BurstEvent::mpi(MpiOp::kWait, 0, 0, 3));
  r1.push_back(BurstEvent::mpi(MpiOp::kIsend, 0, 64, 3));
  r1.push_back(BurstEvent::mpi(MpiOp::kIsend, 0, 64, 3));
  for (int i = 0; i < 3; ++i)
    isend.ranks[0].events.push_back(BurstEvent::mpi(MpiOp::kRecv, 1, 64));
  EXPECT_EQ(replay_error(isend),
            "Isend on rank 1 reuses request 3 while it is in flight");
}

TEST(Dimemas, ReportsDeadlock) {
  // Each rank receives before it sends: neither can ever progress.
  AppTrace t = two_ranks();
  for (int r = 0; r < 2; ++r) {
    t.ranks[r].events.push_back(BurstEvent::mpi(MpiOp::kRecv, 1 - r, 64));
    t.ranks[r].events.push_back(BurstEvent::mpi(MpiOp::kSend, 1 - r, 64));
  }
  EXPECT_EQ(replay_error(t), "MPI replay deadlock: no rank can progress");
}

TEST(Dimemas, RejectsOutOfRangePeer) {
  // Every point-to-point op is checked before its peer indexes anything.
  for (int bad : {2, -1}) {
    AppTrace recv = two_ranks();
    recv.ranks[0].events.push_back(BurstEvent::mpi(MpiOp::kRecv, bad, 64));
    AppTrace irecv = two_ranks();
    irecv.ranks[0].events.push_back(
        BurstEvent::mpi(MpiOp::kIrecv, bad, 64, 0));
    irecv.ranks[0].events.push_back(BurstEvent::mpi(MpiOp::kWait, bad, 0, 0));
    AppTrace isend = two_ranks();
    isend.ranks[1].events.push_back(
        BurstEvent::mpi(MpiOp::kIsend, bad, 64, 0));
    isend.ranks[1].events.push_back(BurstEvent::mpi(MpiOp::kWait, bad, 0, 0));
    for (const AppTrace* t : {&recv, &irecv, &isend}) {
      const std::string msg = replay_error(*t);
      EXPECT_NE(msg.find("peer " + std::to_string(bad) + " outside [0, 2)"),
                std::string::npos)
          << msg;
    }
  }
}

TEST(Dimemas, RejectsWaitOnUnknownRequest) {
  AppTrace t = two_ranks();
  t.ranks[0].events.push_back(BurstEvent::mpi(MpiOp::kWait, 1, 0, 7));
  const std::string msg = replay_error(t);
  EXPECT_NE(msg.find("Wait on unknown request"), std::string::npos) << msg;
}

TEST(Dimemas, UndrainedChannelErrorNamesTheFirstUsedChannel) {
  // Two channels end undrained. Rank 0's Send(1) sits first in rank order,
  // but rank 0 blocks on its Recv(2) until rank 2 has sent on 2->1, so
  // 2->1 is used first and is the one named.
  AppTrace t;
  t.ranks.resize(3);
  for (int i = 0; i < 3; ++i) t.ranks[i].rank = i;
  t.ranks[0].events.push_back(BurstEvent::mpi(MpiOp::kRecv, 2, 64));
  t.ranks[0].events.push_back(BurstEvent::mpi(MpiOp::kSend, 1, 64));
  t.ranks[1].events.push_back(BurstEvent::compute(0.1, 0));
  t.ranks[2].events.push_back(BurstEvent::mpi(MpiOp::kSend, 0, 64));
  t.ranks[2].events.push_back(BurstEvent::mpi(MpiOp::kSend, 1, 64));
  EXPECT_EQ(replay_error(t),
            "MPI replay: channel 2->1 holds 1 message(s) never received at "
            "the end of the trace");
}

TEST(Dimemas, TraceChecksFailAtCompileWithTheReplayMessage) {
  // A bad peer, a reused request id and a Wait with no request in flight
  // depend only on the rank's own events, so compile_replay rejects them
  // before any replay starts, with the message replay(AppTrace) gives.
  AppTrace peer = two_ranks();
  peer.ranks[1].events.push_back(BurstEvent::mpi(MpiOp::kSend, 5, 64));
  AppTrace reused = two_ranks();
  reused.ranks[0].events.push_back(BurstEvent::mpi(MpiOp::kIsend, 1, 64, 2));
  reused.ranks[0].events.push_back(BurstEvent::mpi(MpiOp::kIsend, 1, 64, 2));
  AppTrace unknown = two_ranks();
  unknown.ranks[1].events.push_back(BurstEvent::mpi(MpiOp::kWait, 0, 0, 4));
  for (const AppTrace* t : {&peer, &reused, &unknown}) {
    std::string compile_msg = "no error";
    try {
      compile_replay(*t);
    } catch (const SimError& e) {
      compile_msg = e.what();
    }
    EXPECT_EQ(compile_msg, replay_error(*t));
    EXPECT_NE(compile_msg, "no error");
  }
}

// --- Compiled programs -----------------------------------------------------

/// FNV-1a over the bit patterns of every rank's finish, compute, p2p and
/// collective times, in rank order.
std::uint64_t rank_stats_digest(const ReplayResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const RankStats& s : r.ranks)
    for (double v : {s.finish_s, s.compute_s, s.p2p_s, s.collective_s}) {
      h ^= std::bit_cast<std::uint64_t>(v);
      h *= 0x100000001b3ull;
    }
  return h;
}

/// Field-by-field equality of two timelines.
bool same_timeline(const std::vector<RankSeg>& a,
                   const std::vector<RankSeg>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].rank != b[i].rank || a[i].kind != b[i].kind ||
        std::bit_cast<std::uint64_t>(a[i].start) !=
            std::bit_cast<std::uint64_t>(b[i].start) ||
        std::bit_cast<std::uint64_t>(a[i].end) !=
            std::bit_cast<std::uint64_t>(b[i].end))
      return false;
  return true;
}

TEST(ReplayProgram, OneProgramUnderVariedOptionsEqualsCompilePerCall) {
  // A two-region app at 48 ranks (not a square: the torus has a ragged
  // edge; above the fat-tree radix: both switch levels). The one program is
  // replayed under every option set in turn, so state leaking from one
  // replay into the next would show.
  apps::AppModel app = apps::find_app("lulesh");
  app.extra_phases = {app.phases().front()};
  const AppTrace t = apps::make_burst_trace(app, 48);
  const ReplayProgram program = compile_replay(t);
  EXPECT_EQ(program.region_ids, (std::vector<int>{0, 1}));
  const std::vector<std::vector<double>> scales = {{}, {0.5}, {0.25, 2.0}};
  int compared = 0;
  for (const Topology topology :
       {Topology::kCrossbar, Topology::kBus, Topology::kTorus2D,
        Topology::kFatTree}) {
    NetworkConfig cfg;
    cfg.topology = topology;
    const DimemasEngine net(cfg);
    for (const double sigma : {0.0, 0.2})
      for (const auto& scale : scales)
        for (const bool timeline : {false, true}) {
          const ReplayOptions opts{.region_scale = scale,
                                   .region_jitter_sigma = sigma,
                                   .record_timeline = timeline};
          const ReplayResult cached = net.replay(program, opts);
          const ReplayResult fresh = net.replay(t, opts);
          const std::string where =
              std::string(topology_name(topology)) + " sigma " +
              std::to_string(sigma) + " scales " +
              std::to_string(scale.size()) + " timeline " +
              std::to_string(timeline);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(cached.total_seconds),
                    std::bit_cast<std::uint64_t>(fresh.total_seconds))
              << where;
          EXPECT_EQ(rank_stats_digest(cached), rank_stats_digest(fresh))
              << where;
          EXPECT_TRUE(same_timeline(cached.timeline, fresh.timeline)) << where;
          EXPECT_EQ(cached.timeline.empty(), !timeline) << where;
          ++compared;
        }
  }
  EXPECT_EQ(compared, 4 * 2 * 3 * 2);
}

TEST(ReplayProgram, ResolvesChannelsRequestsAndArrivalSegments) {
  // Ring exchange at 4 ranks: every rank sends right and left and receives
  // from both, so 8 channels; two requests in flight per rank at most.
  const AppTrace t = apps::make_burst_trace(apps::find_app("spmz"), 4);
  const ReplayProgram p = compile_replay(t);
  ASSERT_EQ(p.num_ranks(), 4);
  EXPECT_EQ(p.rank_begin.front(), 0u);
  std::size_t events = 0;
  for (const auto& rank : t.ranks) events += rank.events.size();
  EXPECT_EQ(p.steps.size(), events);
  EXPECT_EQ(p.rank_begin.back(), events);
  EXPECT_EQ(p.channels.size(), 8u);
  EXPECT_EQ(p.num_requests, 4u * 4u);
  std::uint32_t sends = 0;
  for (const ReplayStep& s : p.steps)
    sends += s.op == ReplayStep::Op::kSend || s.op == ReplayStep::Op::kIsend;
  EXPECT_EQ(p.num_sends, sends);
  // Segments tile the arrivals array in channel order.
  for (std::size_t c = 1; c < p.channels.size(); ++c)
    EXPECT_GT(p.channels[c].arrivals_begin, p.channels[c - 1].arrivals_begin);
  // Every point-to-point step names a channel with itself at the right end.
  for (int r = 0; r < 4; ++r)
    for (std::uint32_t i = p.rank_begin[r]; i < p.rank_begin[r + 1]; ++i) {
      const ReplayStep& s = p.steps[i];
      if (s.op == ReplayStep::Op::kIsend || s.op == ReplayStep::Op::kSend) {
        EXPECT_EQ(p.channels[s.p2p.channel].src, r);
      }
      if (s.op == ReplayStep::Op::kIrecv || s.op == ReplayStep::Op::kRecv) {
        EXPECT_EQ(p.channels[s.p2p.channel].dst, r);
      }
    }
}

// --- Golden pins -----------------------------------------------------------
// Bit-exact results of a replay that visits every unfinished rank, in rank
// order, on every pass. They pin the order in which ranks change state:
// the bus topology's shared medium and an Irecv that binds its message at
// post time both depend on it (DESIGN.md §7j).

TEST(Dimemas, GoldenLulesh64EveryTopology) {
  const AppTrace t = apps::make_burst_trace(apps::find_app("lulesh"), 64);
  struct Pin {
    Topology topology;
    double total_seconds;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {Topology::kCrossbar, 0x1.3a2f96f30e9bap-2, 0x964fc3092f0f0970ull},
      {Topology::kBus, 0x1.6c2b060433acdp-2, 0x7f72a8dd6de9dcbaull},
      {Topology::kTorus2D, 0x1.3bbd218aacb26p-2, 0xa07c610c157f0677ull},
      {Topology::kFatTree, 0x1.3ade2d73ef00fp-2, 0xe7ee31c919cf6f15ull},
  };
  for (const Pin& pin : pins) {
    NetworkConfig cfg;
    cfg.topology = pin.topology;
    const ReplayResult r =
        DimemasEngine(cfg).replay(t, {.region_jitter_sigma = 0.2});
    EXPECT_EQ(r.total_seconds, pin.total_seconds)
        << topology_name(pin.topology);
    EXPECT_EQ(rank_stats_digest(r), pin.digest) << topology_name(pin.topology);
  }
}

TEST(Dimemas, GoldenSpmz512BusWithJitter) {
  // Bus topology at 512 ranks: every transfer claims the shared medium in
  // visit order, so this pins the pass schedule at scale. Recorded from the
  // engine that walked the trace's events directly, before replays ran on
  // compiled programs.
  const AppTrace t = apps::make_burst_trace(apps::find_app("spmz"), 512);
  NetworkConfig cfg;
  cfg.topology = Topology::kBus;
  const ReplayResult r =
      DimemasEngine(cfg).replay(t, {.region_jitter_sigma = 0.2});
  EXPECT_EQ(r.total_seconds, 0x1.0c3324ba26d5p+0);
  EXPECT_EQ(rank_stats_digest(r), 0x089608986c6c6a5aull);
}

TEST(Dimemas, GoldenIrecvThenRecvFromSamePeer) {
  // Rank 0 posts Irecv(1) before rank 1 has sent, so the Irecv stays
  // unbound and the following Recv(1) takes rank 1's first message; the
  // Wait then binds the second. Irecv(2) is posted after rank 2 has sent
  // both its messages (though before either arrives), so it binds the
  // first at post time and Recv(2) waits for the later second one.
  AppTrace t;
  t.ranks.resize(3);
  for (int i = 0; i < 3; ++i) t.ranks[i].rank = i;
  auto& r0 = t.ranks[0].events;
  r0.push_back(BurstEvent::mpi(MpiOp::kIrecv, 1, 512, 0));
  r0.push_back(BurstEvent::mpi(MpiOp::kRecv, 1, 512));
  r0.push_back(BurstEvent::compute(0.01, 0));
  r0.push_back(BurstEvent::mpi(MpiOp::kWait, 1, 0, 0));
  r0.push_back(BurstEvent::mpi(MpiOp::kIrecv, 2, 1 << 20, 1));
  r0.push_back(BurstEvent::compute(0.001, 0));
  r0.push_back(BurstEvent::mpi(MpiOp::kRecv, 2, 1 << 20));
  r0.push_back(BurstEvent::compute(0.0005, 0));
  r0.push_back(BurstEvent::mpi(MpiOp::kWait, 2, 0, 1));
  auto& r1 = t.ranks[1].events;
  r1.push_back(BurstEvent::compute(0.002, 0));
  r1.push_back(BurstEvent::mpi(MpiOp::kSend, 0, 512));
  r1.push_back(BurstEvent::compute(0.001, 0));
  r1.push_back(BurstEvent::mpi(MpiOp::kSend, 0, 40000));  // rendezvous
  auto& r2 = t.ranks[2].events;
  r2.push_back(BurstEvent::compute(0.02, 0));
  r2.push_back(BurstEvent::mpi(MpiOp::kSend, 0, 1 << 20));
  r2.push_back(BurstEvent::mpi(MpiOp::kSend, 0, 1 << 20));

  const ReplayResult r = DimemasEngine(NetworkConfig{}).replay(t, {});
  EXPECT_EQ(r.total_seconds, 0x1.52c8d29a191e5p-6);
  const RankStats want[3] = {
      {.compute_s = 0x1.78d4fdf3b645ap-7, .p2p_s = 0x1.2cbca7407bf6fp-7,
       .collective_s = 0.0, .finish_s = 0x1.52c8d29a191e5p-6},
      {.compute_s = 0x1.89374bc6a7efap-9, .p2p_s = 0x1.47390ac9c3ep-18,
       .collective_s = 0.0, .finish_s = 0x1.89dae84c0cd19p-9},
      {.compute_s = 0x1.47ae147ae147bp-6, .p2p_s = 0x1.74cb9adf80dp-13,
       .collective_s = 0.0, .finish_s = 0x1.4a97abb0a0495p-6},
  };
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(r.ranks[i].finish_s, want[i].finish_s) << "rank " << i;
    EXPECT_EQ(r.ranks[i].compute_s, want[i].compute_s) << "rank " << i;
    EXPECT_EQ(r.ranks[i].p2p_s, want[i].p2p_s) << "rank " << i;
    EXPECT_EQ(r.ranks[i].collective_s, want[i].collective_s) << "rank " << i;
  }
}

class RankCountSweep : public ::testing::TestWithParam<int> {};

TEST_P(RankCountSweep, RingExchangeDrainsAtAnyScale) {
  const int P = GetParam();
  AppTrace t;
  t.ranks.resize(P);
  for (int r = 0; r < P; ++r) {
    t.ranks[r].rank = r;
    auto& ev = t.ranks[r].events;
    ev.push_back(BurstEvent::compute(0.01, 0));
    ev.push_back(BurstEvent::mpi(MpiOp::kIrecv, (r + P - 1) % P, 4096, 0));
    ev.push_back(BurstEvent::mpi(MpiOp::kIsend, (r + 1) % P, 4096, 1));
    ev.push_back(BurstEvent::mpi(MpiOp::kWait, -1, 0, 0));
    ev.push_back(BurstEvent::mpi(MpiOp::kWait, -1, 0, 1));
    ev.push_back(BurstEvent::mpi(MpiOp::kBarrier, -1, 0));
  }
  DimemasEngine net(fast_net());
  const ReplayResult r = net.replay(t, {});
  EXPECT_GT(r.total_seconds, 0.01);
  EXPECT_LT(r.total_seconds, 0.1);
}

INSTANTIATE_TEST_SUITE_P(Ranks, RankCountSweep,
                         ::testing::Values(2, 3, 16, 64, 256));

}  // namespace
}  // namespace musa::netsim
