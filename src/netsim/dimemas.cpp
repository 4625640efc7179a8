#include "netsim/dimemas.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "common/check.hpp"
#include "common/deadline.hpp"

namespace musa::netsim {

namespace {

struct Collective {
  int entered = 0;
  double max_enter = 0.0;
  double completion = -1.0;  // < 0 until all ranks entered
};

/// An Isend or Irecv in flight, in the request slot the program gave it.
struct Request {
  double completion = -1.0;  // resolved completion; < 0 = unmatched recv
  std::uint32_t channel = 0;
  bool is_recv = false;
};

/// The messages in flight on one channel, as indices into the channel's
/// segment of the arrivals array: sent [0, tail), received [0, head).
struct ChannelQueue {
  std::uint32_t head = 0, tail = 0;
  std::uint32_t first_use = 0;  // 1 + use order; 0 = not used yet

  bool empty() const { return head == tail; }
  std::uint32_t size() const { return tail - head; }
};

/// Why a rank stopped short of the end of its trace.
enum class Block : std::uint8_t { kNone, kChannel, kCollective };

struct RankState {
  std::size_t ip = 0;   // next step index
  double t = 0.0;
  bool done = false;
  Block block = Block::kNone;
  int blocked_src = -1;  // sender of the channel a kChannel block waits on
  int collectives_crossed = 0;
  // Collective whose entry this rank has registered but not yet crossed: a
  // rank revisits its blocking event when woken, and must count once.
  int entered_collective = -1;
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
  return replay(compile_replay(app), options);
}

ReplayResult DimemasEngine::replay(const ReplayProgram& program,
                                   const ReplayOptions& options) const {
  const int P = program.num_ranks();
  MUSA_CHECK_MSG(P >= 1, "trace has no ranks");
  const std::vector<ReplayStep>& steps = program.steps;

  // Per-replay tables over the program's dense indices: each region's
  // compute scale, and each channel's hop latency.
  std::vector<double> scale(program.region_ids.size(), 1.0);
  for (std::size_t i = 0; i < scale.size(); ++i) {
    const int id = program.region_ids[i];
    if (id >= 0 && static_cast<std::size_t>(id) < options.region_scale.size())
      scale[i] = options.region_scale[id];
  }
  const HopMetric topo(config_.topology, P);
  const std::size_t num_channels = program.channels.size();
  std::vector<double> hop_latency(num_channels);
  for (std::size_t c = 0; c < num_channels; ++c)
    hop_latency[c] =
        config_.latency_s *
        topo.hops(program.channels[c].src, program.channels[c].dst);
  const double sigma = options.region_jitter_sigma;

  std::vector<RankState> st(P);
  for (int r = 0; r < P; ++r) st[r].ip = program.rank_begin[r];
  std::vector<ChannelQueue> channels(num_channels);
  std::uint32_t channel_uses = 0;
  // Arrival times of every message, in each channel's segment in send
  // order; every slot is written by its send before it is read.
  const auto arrivals =
      std::make_unique_for_overwrite<double[]>(program.num_sends);
  std::vector<Request> reqs(program.num_requests);
  std::vector<double> out_link_free(P, 0.0);
  std::vector<Collective> collectives;
  double bus_free = 0.0;  // shared medium (Topology::kBus only)

  ReplayResult result;
  result.ranks.resize(P);

  const int tree_depth = std::max(1, ceil_log2(P));

  auto push_seg = [&](int rank, double start, double end, RankSeg::Kind k) {
    if (options.record_timeline && end > start)
      result.timeline.push_back(
          {.rank = rank, .start = start, .end = end, .kind = k});
  };

  // The in-flight queue of channel `c`, stamped with the order of first
  // use so an undrained-channel error names the channel it always named.
  auto channel = [&](std::uint32_t c) -> ChannelQueue& {
    ChannelQueue& q = channels[c];
    if (q.first_use == 0) q.first_use = ++channel_uses;
    return q;
  };
  auto push = [&](std::uint32_t c, double arrival) {
    ChannelQueue& q = channel(c);
    arrivals[program.channels[c].arrivals_begin + q.tail++] = arrival;
  };
  auto pop = [&](std::uint32_t c) {
    return arrivals[program.channels[c].arrivals_begin + channels[c].head++];
  };

  // Sender-side transfer on channel `c`: serialises on the sender's output
  // link (and, for a bus topology, on the shared medium); latency scales
  // with the topology's hop distance. Returns the message's arrival time
  // at the destination and the time the *sender* may continue (injection
  // for eager, full transfer for rendezvous).
  auto transmit = [&](int src, std::uint32_t c, double post_t,
                      std::uint64_t bytes, double& sender_continue) {
    const double inject = static_cast<double>(bytes) /
                          (config_.bandwidth_gbps * 1e9);
    double start = std::max(post_t, out_link_free[src]);
    if (config_.topology == Topology::kBus) {
      start = std::max(start, bus_free);
      bus_free = start + inject;
    }
    out_link_free[src] = start + inject;
    const double arrival = start + hop_latency[c] + inject;
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
    const std::size_t end = program.rank_begin[r + 1];

    while (s.ip < end) {
      const ReplayStep& e = steps[s.ip];
      using Op = ReplayStep::Op;

      if (e.op == Op::kCompute) {
        const double jitter =
            sigma > 0.0 ? std::max(0.3, 1.0 + e.jitter * sigma) : 1.0;
        const double d = e.seconds * scale[e.region] * jitter;
        push_seg(r, s.t, s.t + d, RankSeg::Kind::kCompute);
        result.ranks[r].compute_s += d;
        s.t += d;
        ++s.ip;
        continue;
      }

      const bool collective = e.op == Op::kAllreduce || e.op == Op::kBarrier;
      const double entry = s.t;
      switch (e.op) {
        case Op::kSend:
        case Op::kIsend: {
          const std::uint32_t c = e.p2p.channel;
          const int dst = program.channels[c].dst;
          double cont = entry;
          const double arrival = transmit(r, c, entry, e.bytes, cont);
          push(c, arrival);
          if (st[dst].block == Block::kChannel && st[dst].blocked_src == r)
            wake(dst);
          if (e.op == Op::kSend) {
            s.t = cont;
          } else {
            // Isend returns immediately; Wait resolves at `cont`.
            reqs[e.p2p.req] = {.completion = cont, .channel = c,
                               .is_recv = false};
          }
          break;
        }
        case Op::kRecv: {
          const std::uint32_t c = e.p2p.channel;
          if (channel(c).empty()) {
            const int src = program.channels[c].src;
            if (st[src].done)
              throw SimError("Recv with no matching Send in trace");
            block_on_channel(s, src);
            return;
          }
          s.t = std::max(entry, pop(c));
          break;
        }
        case Op::kIrecv: {
          // Never blocks: try to bind a message now; otherwise resolve at
          // the matching Wait.
          const std::uint32_t c = e.p2p.channel;
          reqs[e.p2p.req] = {.completion = channel(c).empty() ? -1.0 : pop(c),
                             .channel = c,
                             .is_recv = true};
          break;
        }
        case Op::kWait: {
          Request& req = reqs[e.p2p.req];
          if (req.is_recv && req.completion < 0) {
            if (channel(req.channel).empty()) {
              const int src = program.channels[req.channel].src;
              if (st[src].done)
                throw SimError("Wait(recv) with no matching Send");
              block_on_channel(s, src);
              return;
            }
            req.completion = pop(req.channel);
          }
          s.t = std::max(entry, req.completion);
          break;
        }
        case Op::kAllreduce:
        case Op::kBarrier: {
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
                  e.op == Op::kAllreduce
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
        case Op::kCompute:
          break;  // handled above
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
  // received: the trace is inconsistent, not merely slow. Name the
  // undrained channel that was used first.
  std::size_t first = num_channels;
  for (std::size_t c = 0; c < num_channels; ++c)
    if (!channels[c].empty() &&
        (first == num_channels ||
         channels[c].first_use < channels[first].first_use))
      first = c;
  if (first < num_channels)
    throw SimError("MPI replay: channel " +
                   std::to_string(program.channels[first].src) + "->" +
                   std::to_string(program.channels[first].dst) + " holds " +
                   std::to_string(channels[first].size()) +
                   " message(s) never received at the end of the trace");
  for (const auto& rs : result.ranks)
    result.total_seconds = std::max(result.total_seconds, rs.finish_s);
  return result;
}

}  // namespace musa::netsim
