#include "netsim/dimemas.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/check.hpp"
#include "common/deadline.hpp"
#include "common/flat_table.hpp"
#include "common/rng.hpp"

namespace musa::netsim {

namespace {

/// Deterministic ~N(1, sigma) factor for burst `idx` of `rank`.
double jitter_factor(int rank, int idx, double sigma) {
  if (sigma <= 0.0) return 1.0;
  Rng rng((static_cast<std::uint64_t>(rank) << 24) ^
          (static_cast<std::uint64_t>(idx) * 0x9e3779b9ull) ^
          0x51c0ffeeull);
  return std::max(0.3, rng.next_normal(1.0, sigma));
}

struct Collective {
  int entered = 0;
  double max_enter = 0.0;
  double completion = -1.0;  // < 0 until all ranks entered
};

struct PendingReq {
  int id = -1;
  bool is_recv = false;
  int peer = -1;
  double completion = -1.0;  // resolved completion; < 0 = unmatched recv
};

/// Arrival times of the messages in flight on one (src, dst) channel, in
/// send order. Consumed from `head`; a drained channel resets so its
/// capacity is reused by the next message.
struct Channel {
  int src = -1, dst = -1;
  std::vector<double> arrivals;
  std::size_t head = 0;

  bool empty() const { return head == arrivals.size(); }
  std::size_t size() const { return arrivals.size() - head; }
  double pop() {
    const double a = arrivals[head++];
    if (head == arrivals.size()) {
      arrivals.clear();
      head = 0;
    }
    return a;
  }
};

/// Why a rank stopped short of the end of its trace.
enum class Block : std::uint8_t { kNone, kChannel, kCollective };

struct RankState {
  std::size_t ip = 0;   // next event index
  double t = 0.0;
  bool done = false;
  Block block = Block::kNone;
  int blocked_src = -1;  // sender of the channel a kChannel block waits on
  int collectives_crossed = 0;
  // Collective whose entry this rank has registered but not yet crossed: a
  // rank revisits its blocking event when woken, and must count once.
  int entered_collective = -1;
  std::vector<PendingReq> reqs;  // in-flight requests (2-4 in practice)

  PendingReq* find_req(int id) {
    for (auto& q : reqs)
      if (q.id == id) return &q;
    return nullptr;
  }

  /// Posts `req`; an id still in flight is a broken trace (MPI would
  /// report the reused request), not a replacement.
  void post_req(const PendingReq& req, int rank) {
    if (find_req(req.id) != nullptr)
      throw SimError((req.is_recv ? "Irecv" : "Isend") +
                     std::string(" on rank ") + std::to_string(rank) +
                     " reuses request " + std::to_string(req.id) +
                     " while it is in flight");
    reqs.push_back(req);
  }
};

int ceil_log2(int p) {
  int bits = 0;
  int v = 1;
  while (v < p) {
    v <<= 1;
    ++bits;
  }
  return bits;
}

}  // namespace

ReplayResult DimemasEngine::replay(const trace::AppTrace& app,
                                   const ReplayOptions& options) const {
  const int P = app.num_ranks();
  MUSA_CHECK_MSG(P >= 1, "trace has no ranks");

  auto scale_of = [&](int region_id) {
    if (region_id >= 0 &&
        static_cast<std::size_t>(region_id) < options.region_scale.size())
      return options.region_scale[region_id];
    return 1.0;
  };

  std::vector<RankState> st(P);
  // Per (src,dst) in-flight message queues, created on first use; the
  // table maps key src * P + dst to 1 + the index into `channels` (0, the
  // value a new slot starts with, means "not created yet").
  std::vector<Channel> channels;
  FlatTable64<std::uint32_t> channel_of(4 * static_cast<std::size_t>(P));
  std::vector<double> out_link_free(P, 0.0);
  std::vector<Collective> collectives;
  double bus_free = 0.0;  // shared medium (Topology::kBus only)
  const HopMetric topo(config_.topology, P);

  ReplayResult result;
  result.ranks.resize(P);

  const int tree_depth = std::max(1, ceil_log2(P));

  auto push_seg = [&](int rank, double start, double end, RankSeg::Kind k) {
    if (options.record_timeline && end > start)
      result.timeline.push_back(
          {.rank = rank, .start = start, .end = end, .kind = k});
  };

  auto channel = [&](int src, int dst) -> Channel& {
    std::uint32_t& idx =
        channel_of.find_or_insert(static_cast<std::uint64_t>(src) * P + dst);
    if (idx == 0) {
      channels.push_back({.src = src, .dst = dst});
      idx = static_cast<std::uint32_t>(channels.size());
    }
    return channels[idx - 1];
  };

  // Sender-side transfer: serialises on the rank's output link (and, for a
  // bus topology, on the shared medium); latency scales with the topology's
  // hop distance. Returns the message's arrival time at the destination and
  // the time the *sender* may continue (injection for eager, full transfer
  // for rendezvous).
  auto transmit = [&](int src, int dst, double post_t, std::uint64_t bytes,
                      double& sender_continue) {
    const double inject = static_cast<double>(bytes) /
                          (config_.bandwidth_gbps * 1e9);
    double start = std::max(post_t, out_link_free[src]);
    if (config_.topology == Topology::kBus) {
      start = std::max(start, bus_free);
      bus_free = start + inject;
    }
    out_link_free[src] = start + inject;
    const double arrival =
        start + config_.latency_s * topo.hops(src, dst) + inject;
    sender_continue = bytes <= config_.eager_threshold ? start + inject
                                                       : arrival;
    return arrival;
  };

  // Woken-rank pass schedule (DESIGN.md §7j). Each pass visits the
  // ranks in `visit` in increasing rank order; a visit advances the rank
  // until it blocks or drains. A blocked rank is visited again only once
  // something it waits on changes: a message posted on its channel, its
  // collective completing, or its channel's sender finishing. A rank woken
  // by rank r joins the current pass if it comes after r and the next pass
  // otherwise, so the ranks that change state do so in the same order as a
  // scan of every rank on every pass would produce.
  const std::size_t words = (static_cast<std::size_t>(P) + 63) / 64;
  std::vector<std::uint64_t> visit(words, 0), visit_next(words, 0);
  for (int r = 0; r < P; ++r) visit[r / 64] |= 1ull << (r % 64);
  std::vector<int> channel_waiters(P, 0);  // kChannel blocks per sender
  int running = 0;                         // the rank being advanced

  auto wake = [&](int q) {
    RankState& w = st[q];
    if (w.block == Block::kNone) return;
    if (w.block == Block::kChannel) --channel_waiters[w.blocked_src];
    w.block = Block::kNone;
    auto& set = q > running ? visit : visit_next;
    set[q / 64] |= 1ull << (q % 64);
  };
  auto block_on_channel = [&](RankState& s, int src) {
    s.block = Block::kChannel;
    s.blocked_src = src;
    ++channel_waiters[src];
  };

  auto advance = [&](int r) {
    RankState& s = st[r];
    const auto& events = app.ranks[r].events;

    while (s.ip < events.size()) {
      const trace::BurstEvent& e = events[s.ip];

      if (e.kind == trace::BurstEvent::Kind::kCompute) {
        const double d = e.seconds * scale_of(e.region_id) *
                         jitter_factor(r, static_cast<int>(s.ip),
                                       options.region_jitter_sigma);
        push_seg(r, s.t, s.t + d, RankSeg::Kind::kCompute);
        result.ranks[r].compute_s += d;
        s.t += d;
        ++s.ip;
        continue;
      }

      const bool collective = e.op == trace::MpiOp::kAllreduce ||
                              e.op == trace::MpiOp::kBarrier;
      // Wait's own peer is unused: its request's peer was checked at post.
      if (!collective && e.op != trace::MpiOp::kWait &&
          (e.peer < 0 || e.peer >= P))
        throw SimError(std::string(trace::mpi_op_name(e.op)) + " on rank " +
                       std::to_string(r) + ": peer " +
                       std::to_string(e.peer) + " outside [0, " +
                       std::to_string(P) + ")");

      const double entry = s.t;
      switch (e.op) {
        case trace::MpiOp::kSend:
        case trace::MpiOp::kIsend: {
          double cont = entry;
          const double arrival = transmit(r, e.peer, entry, e.bytes, cont);
          channel(r, e.peer).arrivals.push_back(arrival);
          if (st[e.peer].block == Block::kChannel &&
              st[e.peer].blocked_src == r)
            wake(e.peer);
          if (e.op == trace::MpiOp::kSend) {
            s.t = cont;
          } else {
            // Isend returns immediately; Wait resolves at `cont`.
            s.post_req({.id = e.req, .is_recv = false, .peer = e.peer,
                        .completion = cont},
                       r);
          }
          break;
        }
        case trace::MpiOp::kRecv: {
          Channel& q = channel(e.peer, r);
          if (q.empty()) {
            if (st[e.peer].done)
              throw SimError("Recv with no matching Send in trace");
            block_on_channel(s, e.peer);
            return;
          }
          s.t = std::max(entry, q.pop());
          break;
        }
        case trace::MpiOp::kIrecv: {
          // Never blocks: try to bind a message now; otherwise resolve at
          // the matching Wait.
          Channel& q = channel(e.peer, r);
          PendingReq req{.id = e.req, .is_recv = true, .peer = e.peer};
          if (!q.empty()) req.completion = q.pop();
          s.post_req(req, r);
          break;
        }
        case trace::MpiOp::kWait: {
          PendingReq* req = s.find_req(e.req);
          MUSA_CHECK_MSG(req != nullptr, "Wait on unknown request");
          if (req->is_recv && req->completion < 0) {
            Channel& q = channel(req->peer, r);
            if (q.empty()) {
              if (st[req->peer].done)
                throw SimError("Wait(recv) with no matching Send");
              block_on_channel(s, req->peer);
              return;
            }
            req->completion = q.pop();
          }
          s.t = std::max(entry, req->completion);
          *req = s.reqs.back();
          s.reqs.pop_back();
          break;
        }
        case trace::MpiOp::kAllreduce:
        case trace::MpiOp::kBarrier: {
          const int k = s.collectives_crossed;
          if (static_cast<std::size_t>(k) >= collectives.size())
            collectives.resize(k + 1);
          Collective& col = collectives[k];
          if (s.entered_collective != k) {
            s.entered_collective = k;
            ++col.entered;
            col.max_enter = std::max(col.max_enter, entry);
            if (col.entered == P) {
              // Tree collectives: each of the log2(P) stages crosses the
              // topology (diameter hops at worst in the upper stages).
              const int dia = topo.diameter();
              const double step =
                  e.op == trace::MpiOp::kAllreduce
                      ? 2.0 * tree_depth * config_.transfer_s(e.bytes, dia)
                      : 1.0 * tree_depth * config_.latency_s * dia;
              col.completion = col.max_enter + step;
              // Every other rank entered earlier and is blocked here.
              for (int q = 0; q < P; ++q)
                if (q != r) wake(q);
            }
          }
          if (col.completion < 0) {
            s.block = Block::kCollective;
            return;
          }
          ++s.collectives_crossed;
          s.t = std::max(entry, col.completion);
          break;
        }
      }

      // Account MPI time and advance.
      const double waited = s.t - entry;
      if (collective) {
        result.ranks[r].collective_s += waited;
        push_seg(r, entry, s.t, RankSeg::Kind::kCollective);
      } else {
        result.ranks[r].p2p_s += waited;
        push_seg(r, entry, s.t, RankSeg::Kind::kP2p);
      }
      ++s.ip;
    }

    s.done = true;
    result.ranks[r].finish_s = s.t;
    // Ranks still blocked on a channel from r can never receive: wake them
    // so their next visit reports the unmatched receive.
    if (channel_waiters[r] > 0)
      for (int q = 0; q < P; ++q)
        if (st[q].block == Block::kChannel && st[q].blocked_src == r) wake(q);
  };

  int remaining = P;
  while (true) {
    deadline::poll();
    for (std::size_t w = 0; w < words; ++w) {
      // Re-read the word after each visit: a visit may wake later ranks
      // of this word into the current pass.
      while (visit[w] != 0) {
        const int bit = __builtin_ctzll(visit[w]);
        visit[w] &= visit[w] - 1;
        running = static_cast<int>(w * 64) + bit;
        advance(running);
        if (st[running].done) --remaining;
      }
    }
    if (remaining == 0) break;
    if (std::all_of(visit_next.begin(), visit_next.end(),
                    [](std::uint64_t w) { return w == 0; }))
      throw SimError("MPI replay deadlock: no rank can progress");
    visit.swap(visit_next);
  }

  // Every rank finished, so a message still queued was sent and never
  // received: the trace is inconsistent, not merely slow.
  for (const Channel& c : channels)
    if (!c.empty())
      throw SimError("MPI replay: channel " + std::to_string(c.src) + "->" +
                     std::to_string(c.dst) + " holds " +
                     std::to_string(c.size()) +
                     " message(s) never received at the end of the trace");
  for (const auto& rs : result.ranks)
    result.total_seconds = std::max(result.total_seconds, rs.finish_s);
  return result;
}

}  // namespace musa::netsim
