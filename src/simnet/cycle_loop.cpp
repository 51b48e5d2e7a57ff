// The cycle loop of the fast-forward engine, alone in its translation unit.
// src/simnet/CMakeLists.txt compiles this file with -falign-functions=64, so
// no edit elsewhere in simnet can change the loop's code or move it against
// 64-byte lines (docs/simulation_engine.md, "Source layout").
#include <algorithm>
#include <array>
#include <bit>
#include <climits>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "simnet/sim_internal.hpp"
#include "util/contracts.hpp"

namespace pfar::simnet::detail {

// ---------------------------------------------------------------------------
// The cycle loop (fast-forward engine). Bit-identical to the original
// cycle-by-cycle loop — kept as the test oracle, "the reference loop"
// below (tests/oracle/reference_allreduce.cpp) — with five structural
// changes:
//
//  * arrivals and credit returns are scheduled on a time-indexed wheel (all
//    landing times are `now + link_latency`, so the wheel has latency + 1
//    buckets and each cycle drains exactly one) instead of scanning every
//    VC every cycle, with at most one wake-up per (VC, cycle);
//  * broadcast replication visits only (node, tree) engines that an event
//    re-armed (packet arrival, root-queue push, fork-slot drain) instead of
//    all n * num_trees engines, and reduce readiness is an incrementally
//    maintained waiting-children counter instead of a per-probe child scan;
//  * packet payloads live in a slab arena (fixed stride = packet_payload,
//    free-list recycling) and every queue — receive buffer + in-flight
//    pipeline (one combined ring per VC), credit returns, fork stages, root
//    turnaround — is a fixed-capacity power-of-two ring over flat arrays.
//    All of them are bounded by the credit/fork-buffer limits, so nothing
//    allocates after setup;
//  * link arbitration visits only links an event marked as possibly
//    grantable, in the reference loop's ascending order, and each link's
//    token bucket and background accumulator catch up lazily when it is
//    visited (min(t + k, cap) is the k-fold composition of the per-cycle
//    recharge; drains are applied one by one at their own cycles);
//  * a cycle in which nothing moved and no event landed is provably
//    followed by identical no-op cycles until the next in-flight landing or
//    the recharge of a starved link with work, so `now` jumps there in one
//    step; the jump is clamped to the stall and max_cycles deadlines so
//    even the throwing paths report the same cycle numbers as the
//    reference loop.
//
// On a quiet network, a sixth change skips the busy steady state: once the
// pipeline waves have filled the trees, the loop's control state
// (everything that decides what moves next, with times taken relative to
// `now`) often repeats every P cycles while only counters and packet
// values advance. A rolling signature of each cycle's grants
// (PeriodFinder) proposes P; a full snapshot compared exactly P cycles
// later confirms it, and the loop then advances k whole periods in closed
// form: absolute times move by k * P, counters and in-flight values by k
// times their per-period delta. Values are linear in the element index and
// the reduction is a sum, so the translated values are exactly the ones k
// simulated periods would produce; the jump stops at least one period
// before any engine's injection end, the next fault event and max_cycles
// (docs/simulation_engine.md, "Steady periods are skipped in one jump").
// On a fault-free run, the first verified period that qualifies is also
// exported as a PeriodCertificate (certify_period below).
// ---------------------------------------------------------------------------

namespace {

// Candidate steady periods from per-cycle grant signatures: the smallest
// P <= kMaxPeriod such that each of the last 2P + kSlack cycles matches the
// cycle P before it and the window saw a grant. A candidate is only a hint;
// run_fast_loop confirms it on the full control state.
class PeriodFinder {
 public:
  static constexpr int kMaxPeriod = 128;

  void push(std::uint64_t signature) {
    hist_[static_cast<std::size_t>(count_) & kMask] = signature;
    ++count_;
  }

  // `cycles` grant-free cycles skipped by the idle jump.
  void push_idle(long long cycles) {
    if (cycles >= static_cast<long long>(kHistory)) {
      count_ = 0;
      return;
    }
    for (long long i = 0; i < cycles; ++i) push(0);
  }

  void clear() { count_ = 0; }

  int candidate() const {
    for (int p = 1; p <= kMaxPeriod && count_ >= 3LL * p + kSlack; ++p) {
      const long long window = 2LL * p + kSlack;
      bool granted = false;
      long long i = 0;
      for (; i < window && back(i) == back(i + p); ++i) {
        granted = granted || back(i) != 0;
      }
      if (i == window && granted) return p;
    }
    return 0;
  }

 private:
  static constexpr std::size_t kHistory = 512;  // >= 3 * kMaxPeriod + kSlack
  static constexpr std::size_t kMask = kHistory - 1;
  static constexpr long long kSlack = 4;

  std::uint64_t back(long long i) const {
    return hist_[static_cast<std::size_t>(count_ - 1 - i) & kMask];
  }

  std::array<std::uint64_t, kHistory> hist_{};
  long long count_ = 0;
};

// The certificate of the period verified at cycle `now`, read from the
// per-period `delta` of run_fast_loop's count visits (state s owns 4s..4s+3,
// tree t owns 4 * num_states + t, then delivered_total, then one link_flits
// count per active link). Empty unless no tree was canceled, every engine
// of a tree advanced by the same element count e_t, the tree's owed
// deliveries fell by e_t at each of the n nodes, some tree moved, and the
// period can repeat at least once more (docs/simulation_engine.md, "A
// verified period answers other vector sizes").
std::optional<PeriodCertificate> certify_period(
    long long period, long long now, const std::vector<long long>& delta,
    int n, std::size_t active_links,
    const std::vector<long long>& eng_target,
    const std::vector<long long>& eng_injected,
    const std::vector<long long>& tree_remaining,
    const std::vector<char>& tree_canceled) {
  const std::size_t nn = static_cast<std::size_t>(n);
  const std::size_t ntrees = tree_remaining.size();
  const std::size_t num_states = nn * ntrees;
  PeriodCertificate cert;
  cert.period = period;
  cert.verify_cycle = now;
  cert.elements_per_period.assign(ntrees, 0);
  long long left = LLONG_MAX;
  for (std::size_t t = 0; t < ntrees; ++t) {
    if (tree_canceled[t]) return std::nullopt;
    const long long e = delta[4 * t * nn];
    for (std::size_t s = t * nn; s < (t + 1) * nn; ++s) {
      if (delta[4 * s] != e) return std::nullopt;
      if (e > 0) left = std::min(left, (eng_target[s] - 1 - eng_injected[s]) / e);
    }
    if (delta[4 * num_states + t] != -e * n) return std::nullopt;
    if (e > 0) left = std::min(left, (tree_remaining[t] - 1) / (e * n));
    cert.elements_per_period[t] = e;
  }
  if (left == LLONG_MAX || left < 1) return std::nullopt;
  cert.periods_left = left;
  const std::size_t links = 4 * num_states + ntrees + 1;
  for (std::size_t j = 0; j < active_links; ++j) {
    cert.flits_per_period += delta[links + j];
  }
  return cert;
}

// Steady-period pacing, in cycles: how often the finder is asked for a
// candidate, and the back-off range after a candidate fails to confirm.
constexpr long long kSteadyProbeEvery = 8;
constexpr long long kSteadyMinBackoff = 16;
constexpr long long kSteadyMaxBackoff = 256;

}  // namespace

long long run_fast_loop(const Fabric& f, const SimConfig& config,
                        const std::vector<long long>& elements_per_tree,
                        SimResult& result,
                        std::vector<long long>& tree_remaining,
                        long long total_target, FaultState& fault,
                        const std::vector<long long>& bg_rates_ppm,
                        SimObserver* obs,
                        std::optional<PeriodCertificate>* cert) {
  const int n = f.n;
  const int num_trees = f.num_trees;
  const int num_vcs = f.num_vcs();

  // The fabric, read-only for the whole run.
  const std::span<const std::int32_t> root_state(f.root_state);
  const std::span<const char> vc_is_reduce(f.vc_is_reduce);
  const std::span<const std::int32_t> vc_src_state(f.vc_src_state);
  const std::span<const std::int32_t> vc_dst_state(f.vc_dst_state);
  const std::span<const std::int32_t> vc_dlink(f.vc_dlink);
  const std::span<const std::int32_t> vc_stage(f.vc_stage);
  const std::span<const std::int32_t> child_base(f.child_base);
  const std::span<const std::int32_t> child_vc(f.child_vc);
  const std::span<const std::int32_t> parent_bcast_vc(f.parent_bcast_vc);
  const std::span<const std::int32_t> link_base(f.link_base);
  const std::span<const std::int32_t> link_vc(f.link_vc);
  const std::span<const std::int32_t> active_dlinks(f.active_dlinks);
  const std::span<const std::int32_t> up_dlink(f.up_dlink);
  const std::span<const std::int32_t> stage_dlink(f.stage_dlink);

  long long delivered_total = 0;
  long long now = 0;
  long long last_progress = 0;
  std::vector<int> rr(static_cast<std::size_t>(f.num_dlinks), 0);
  std::vector<long long> tokens(static_cast<std::size_t>(f.num_dlinks), 0);
  const int header = config.packet_header_flits;
  const long long token_cap = config.packet_payload + header;
  const int latency = config.link_latency;

  // Background traffic, identical per-cycle mechanics to the reference
  // loop, applied lazily per link by sync() below.
  const bool bg_active = !bg_rates_ppm.empty();
  const long long bg_pkt_flits = config.background.packet_flits;
  const long long bg_pkt_ppm = bg_pkt_flits * 1'000'000;
  std::vector<long long> bg_acc(
      bg_active ? static_cast<std::size_t>(f.num_dlinks) : 0, 0);

  // --- Slab arena. Every packet's payload occupies one fixed-stride slab;
  // a consumed packet's slab goes on the free list for immediate reuse.
  const int stride = config.packet_payload;
  struct Ref {
    std::int32_t slab;
    std::int32_t size;
  };
  std::vector<std::int64_t> arena;
  std::vector<std::int32_t> free_slabs;
  std::int32_t num_slabs = 0;
  const auto alloc_slab = [&]() -> std::int32_t {
    if (!free_slabs.empty()) {
      const std::int32_t s = free_slabs.back();
      free_slabs.pop_back();
      return s;
    }
    arena.resize(arena.size() + static_cast<std::size_t>(stride));
    return num_slabs++;
  };

  // --- Per-VC rings. The receive buffer and the in-flight pipeline share
  // one FIFO ring: entries [0, ready) have landed (the reference loop's
  // `recv`), entries [ready, total) are still on the wire with their
  // landing times in ring_time. recv + in-flight together never exceed
  // vc_credits (a send consumes a credit that only returns after the pop),
  // so a bit_ceil(vc_credits) ring never overflows; same for the credit-
  // return ring.
  const std::uint32_t pcap =
      std::bit_ceil(static_cast<std::uint32_t>(config.vc_credits));
  const std::uint32_t pmask = pcap - 1;
  std::vector<long long> ring_time(static_cast<std::size_t>(num_vcs) * pcap);
  std::vector<Ref> ring_ref(static_cast<std::size_t>(num_vcs) * pcap);
  std::vector<long long> credit_time(static_cast<std::size_t>(num_vcs) *
                                     pcap);
  std::vector<std::uint32_t> rhead(static_cast<std::size_t>(num_vcs), 0), rtotal(static_cast<std::size_t>(num_vcs), 0),
      rready(static_cast<std::size_t>(num_vcs), 0);
  std::vector<std::uint32_t> chead(static_cast<std::size_t>(num_vcs), 0), ccount(static_cast<std::size_t>(num_vcs), 0);
  std::vector<std::int32_t> credits(static_cast<std::size_t>(num_vcs), config.vc_credits);

  // --- Fault bookkeeping: poisoned VCs (a lost packet left a sequence gap
  // in the stream, so the VC stops presenting data) and per-tree
  // cancel/progress tracking.
  const bool faults_active = fault.active;
  const long long timeout = config.progress_timeout;
  std::vector<char> vc_poisoned(static_cast<std::size_t>(num_vcs), 0);
  std::vector<char> tree_canceled(static_cast<std::size_t>(num_trees), 0);
  std::vector<long long> tree_progress(static_cast<std::size_t>(num_trees), 0);

  // Links that may grant: step 4 visits only the links whose bit is set.
  // Every event that can make a VC grantable (a credit landing on an empty
  // VC, a reduce engine's last missing input, a fork-stage push, a fault
  // event, a steady-period jump) marks its link; a visit that finds
  // nothing grantable with tokens in hand, or finds the link down, clears
  // the bit. A token-starved link keeps it. Nothing on a down link can
  // grant before its link_up event, which marks it.
  std::vector<std::uint64_t> work(
      (static_cast<std::size_t>(f.num_dlinks) + 63) / 64, 0);
  const auto mark = [&](std::int32_t dl) {
    work[static_cast<std::size_t>(dl) >> 6] |= std::uint64_t{1} << (dl & 63);
  };
  const auto unmark = [&](int dl) {
    work[static_cast<std::size_t>(dl) >> 6] &= ~(std::uint64_t{1} << (dl & 63));
  };
  // The lowest marked link >= from, or -1.
  const auto next_marked = [&](int from) -> int {
    std::size_t w = static_cast<std::size_t>(from) >> 6;
    if (w >= work.size()) return -1;
    std::uint64_t bits = work[w] & (~std::uint64_t{0} << (from & 63));
    while (bits == 0) {
      if (++w == work.size()) return -1;
      bits = work[w];
    }
    return static_cast<int>(w * 64) + std::countr_zero(bits);
  };
  for (const std::int32_t dl : active_dlinks) mark(dl);

  // Per-link lazy time: link d's token bucket and background accumulator
  // have been advanced through cycle synced[d]. sync(d, c) applies the
  // reference loop's per-cycle update (recharge; on an up link, accumulate
  // and drain) to cycles synced[d] + 1 .. c, composed exactly:
  // min(t + k, cap) between drains, each drain at its own cycle. A
  // link's up/down state is constant over the range, because every fault
  // event syncs the link before it flips it.
  std::vector<long long> synced(static_cast<std::size_t>(f.num_dlinks), -1);
  const auto sync = [&](std::size_t d, long long upto) {
    long long k = upto - synced[d];
    if (k <= 0) return;
    long long& tok = tokens[d];
    const long long rate = bg_active ? bg_rates_ppm[d] : 0;
    if (rate > 0 && !(faults_active && !fault.edge_ok(static_cast<int>(d)))) {
      long long& acc = bg_acc[d];
      while (acc + k * rate >= bg_pkt_ppm) {
        // The next drain: the smallest j >= 1 with acc + j * rate >=
        // bg_pkt_ppm (acc stays below bg_pkt_ppm between drains).
        const long long j = (bg_pkt_ppm - acc + rate - 1) / rate;
        k -= j;
        tok = std::min(tok + j, token_cap);
        acc += j * rate;
        const long long pkts = acc / bg_pkt_ppm;
        acc -= pkts * bg_pkt_ppm;
        tok -= pkts * bg_pkt_flits;
        result.link_bg_flits[d] += pkts * bg_pkt_flits;
        synced[d] += j;
        PFAR_OBS(on_grant(static_cast<int>(d), synced[d]));
      }
      acc += k * rate;
    }
    tok = std::min(tok + k, token_cap);
    synced[d] = upto;
  };
  const auto sync_all = [&](long long upto) {
    for (const std::int32_t dl : active_dlinks) {
      sync(static_cast<std::size_t>(dl), upto);
    }
  };

  // --- Per-(node, tree) engine state: elements injected and delivered
  // (the latter for a canceled tree's complete prefix), the number of
  // children whose next reduce input has not landed (0 = inputs ready),
  // and one fork-stage ring per child slot.
  const std::size_t num_states =
      static_cast<std::size_t>(n) * static_cast<std::size_t>(num_trees);
  const int num_stages = child_base[num_states];
  std::vector<long long> eng_injected(num_states, 0);
  std::vector<long long> eng_delivered(num_states, 0);
  const auto nchild = [&](std::size_t si) {
    return child_base[si + 1] - child_base[si];
  };
  std::vector<std::int32_t> eng_waiting(num_states);
  std::vector<long long> eng_target(num_states);
  for (std::size_t i = 0; i < num_states; ++i) {
    eng_waiting[i] = nchild(i);
    eng_target[i] = elements_per_tree[i / static_cast<std::size_t>(n)];
  }
  const std::uint32_t fcap =
      std::bit_ceil(static_cast<std::uint32_t>(config.fork_buffer));
  const std::uint32_t fmask = fcap - 1;
  std::vector<Ref> fork_ring(static_cast<std::size_t>(num_stages) * fcap);
  std::vector<std::uint32_t> fhead(static_cast<std::size_t>(num_stages), 0), fcount(static_cast<std::size_t>(num_stages), 0);

  // --- Root turnaround queues, one ring per tree.
  std::vector<Ref> root_ring(static_cast<std::size_t>(num_trees) * pcap);
  std::vector<std::uint32_t> rq_head(static_cast<std::size_t>(num_trees), 0), rq_count(static_cast<std::size_t>(num_trees), 0);

  // Event wheel: every data landing and credit return is scheduled at
  // now + latency, so pending wake-ups live in (now, now + latency] and a
  // bit_ceil(latency + 1)-bucket wheel indexed by time & mask is
  // collision-free. All events scheduled within one cycle land in the same
  // bucket (`sched_bucket`, re-aimed at each cycle top); last_wake dedupes
  // to one entry per (VC, cycle).
  const std::uint32_t wheel_size =
      std::bit_ceil(static_cast<std::uint32_t>(latency) + 1u);
  const std::uint32_t wmask = wheel_size - 1;
  std::vector<std::vector<std::int32_t>> wheel(wheel_size);
  std::vector<long long> last_wake(static_cast<std::size_t>(num_vcs), -1);
  long long pending_events = 0;
  std::vector<std::int32_t>* sched_bucket = &wheel[static_cast<unsigned>(latency) & wmask];
  const auto schedule_wakeup = [&](int vc_id) {
    if (last_wake[static_cast<std::size_t>(vc_id)] == now) return;
    last_wake[static_cast<std::size_t>(vc_id)] = now;
    sched_bucket->push_back(vc_id);
    ++pending_events;
  };

  // Incremental operand/expected-value generators: operands and expected
  // results (the sum over all nodes) are linear in the element index, so
  // each engine keeps the next value and bumps it by the constant stride
  // per element — exactly the same integers as recomputing from scratch.
  const std::int64_t exp_slope = static_cast<std::int64_t>(n) * kElemStride;
  std::vector<std::int64_t> inj_next(num_states), exp_next(num_states);
  for (std::size_t i = 0; i < num_states; ++i) {
    const int t = static_cast<int>(i / static_cast<std::size_t>(n));
    inj_next[i] = local_value(static_cast<int>(i) % n, t, 0);
    exp_next[i] = sum_over_nodes(n, t, 0);
  }

  // Active broadcast engines: (node, tree) pairs that an event may have
  // unblocked since they last ran.
  std::vector<char> bcast_active(num_states, 0);
  std::vector<std::int32_t> bcast_list, bcast_current;
  const auto activate_bcast = [&](std::int32_t state_idx) {
    if (!bcast_active[static_cast<std::size_t>(state_idx)]) {
      bcast_active[static_cast<std::size_t>(state_idx)] = 1;
      bcast_list.push_back(state_idx);
    }
  };

  // Stages a broadcast packet for one child; a stage that was empty makes
  // its broadcast VC grantable.
  const auto push_fork = [&](std::int32_t stage, Ref packet) {
    const std::size_t sid = static_cast<std::size_t>(stage);
    fork_ring[sid * fcap + ((fhead[sid] + fcount[sid]) & fmask)] = packet;
    if (fcount[sid]++ == 0) mark(stage_dlink[sid]);
  };

  // True whenever this cycle changed any state besides token and
  // background accumulation (which sync() replays lazily) — cleared at
  // each cycle top.
  bool progressed = false;

  // Returns a consumed packet's credit to VC `id`'s sender — immediately if
  // the link is down (mirrors the reference loop's return_credit), else via
  // the credit-return ring after link_latency.
  const auto return_credit = [&](int id) {
    if (faults_active && !fault.edge_ok(vc_dlink[static_cast<std::size_t>(id)])) {
      ++credits[static_cast<std::size_t>(id)];
    } else {
      credit_time[static_cast<unsigned>(id) * pcap +
                  ((chead[static_cast<std::size_t>(id)] + ccount[static_cast<std::size_t>(id)]) & pmask)] =
          now + latency;
      ++ccount[static_cast<std::size_t>(id)];
      schedule_wakeup(id);
    }
  };

  // Readiness of VC `id` exactly as the grant path below tests it. Used
  // only by the credit-stall observability probe, so it must stay
  // side-effect-free.
  [[maybe_unused]] const auto vc_ready = [&](int id) -> bool {
    const std::size_t i = static_cast<std::size_t>(id);
    if (vc_is_reduce[i]) {
      const std::size_t si = static_cast<std::size_t>(vc_src_state[i]);
      return eng_injected[si] < eng_target[si] &&
             eng_waiting[si] == 0;
    }
    return fcount[static_cast<std::size_t>(vc_stage[i])] > 0;
  };

  // Marks VC `id` poisoned, withdrawing it from its consumer's ready inputs
  // (the reference loop's vc_ready/inputs_ready treat a poisoned VC as
  // never ready).
  const auto poison_vc = [&](int id) {
    if (vc_poisoned[static_cast<std::size_t>(id)]) return;
    vc_poisoned[static_cast<std::size_t>(id)] = 1;
    if (vc_is_reduce[static_cast<std::size_t>(id)] &&
        rready[static_cast<std::size_t>(id)] > 0) {
      ++eng_waiting[static_cast<std::size_t>(
          vc_dst_state[static_cast<std::size_t>(id)])];
    }
  };

  // Pops the ready head packet of a reduce child VC and schedules its
  // credit return; keeps the consumer's waiting-children counter in sync.
  const auto pop_child = [&](int cvc, std::int32_t consumer_state) -> Ref {
    const Ref head = ring_ref[static_cast<unsigned>(cvc) * pcap + (rhead[static_cast<std::size_t>(cvc)] & pmask)];
    rhead[static_cast<std::size_t>(cvc)] = (rhead[static_cast<std::size_t>(cvc)] + 1) & pmask;
    --rtotal[static_cast<std::size_t>(cvc)];
    if (--rready[static_cast<std::size_t>(cvc)] == 0) ++eng_waiting[static_cast<std::size_t>(consumer_state)];
    return_credit(cvc);
    return head;
  };

  // The engine's next chunk of local operands combined with one packet
  // from each child, as a fresh packet. Chunk sizes are aligned across
  // children because every stream chunks the same way.
  const auto make_reduce_packet = [&](std::int32_t state_idx) -> Ref {
    const std::size_t si = static_cast<std::size_t>(state_idx);
    const long long remaining = eng_target[si] - eng_injected[si];
    const Ref packet{alloc_slab(),
                     static_cast<std::int32_t>(std::min<long long>(
                         config.packet_payload, remaining))};
    std::int64_t* out = &arena[static_cast<std::size_t>(packet.slab) * static_cast<std::size_t>(stride)];
    std::int64_t value = inj_next[si];
    for (std::int32_t i = 0; i < packet.size; ++i) {
      out[i] = value;
      value += kElemStride;
    }
    inj_next[si] = value;
    eng_injected[si] += packet.size;
    const std::int32_t cb = child_base[si];
    for (std::int32_t c = 0; c < nchild(si); ++c) {
      const int cvc = child_vc[static_cast<std::size_t>(cb + c)];
      const Ref head = pop_child(cvc, state_idx);
      if (head.size != packet.size) {
        throw std::logic_error("reduce packet misalignment");
      }
      const std::int64_t* in =
          &arena[static_cast<std::size_t>(head.slab) * static_cast<std::size_t>(stride)];
      for (std::int32_t i = 0; i < packet.size; ++i) out[i] += in[i];
      free_slabs.push_back(head.slab);
    }
    PFAR_OBS(on_reduce_packet(
        state_idx / n,
        state_idx == root_state[static_cast<std::size_t>(state_idx / n)] &&
            eng_injected[si] >= eng_target[si],
        now));
    return packet;
  };

  const auto deliver = [&](int tree, std::int32_t state_idx, Ref packet) {
    if (result.tree_first_delivery[static_cast<std::size_t>(tree)] < 0) {
      result.tree_first_delivery[static_cast<std::size_t>(tree)] = now;
    }
    const std::int64_t* p =
        &arena[static_cast<std::size_t>(packet.slab) * static_cast<std::size_t>(stride)];
    std::int64_t expected = exp_next[static_cast<std::size_t>(state_idx)];
    for (std::int32_t i = 0; i < packet.size; ++i) {
      if (p[i] != expected) result.values_correct = false;
      expected += exp_slope;
      ++delivered_total;
      if (--tree_remaining[static_cast<std::size_t>(tree)] == 0) result.tree_finish_cycle[static_cast<std::size_t>(tree)] = now;
    }
    exp_next[static_cast<std::size_t>(state_idx)] = expected;
    eng_delivered[static_cast<std::size_t>(state_idx)] += packet.size;
    last_progress = now;
    tree_progress[static_cast<std::size_t>(tree)] = now;
    progressed = true;
  };

  // A packet lost on directed link d: its flits crossed (or were on) the
  // wire but nothing lands.
  const auto drop_packet = [&](int d, Ref r) {
    const long long flits = r.size + header;
    ++result.dropped_packets;
    result.dropped_flits += flits;
    result.link_dropped_flits[static_cast<std::size_t>(d)] += flits;
    free_slabs.push_back(r.slab);
  };

  // Fault handlers, mirroring the reference loop's drop_edge/cancel_tree
  // onto the flat rings. Retraction counts are order-independent, so the
  // engine and the oracle account identical totals.
  const auto drop_edge = [&](int eid) {
    for (int d : {2 * eid, 2 * eid + 1}) {
      for (std::int32_t lk = link_base[static_cast<std::size_t>(d)];
           lk < link_base[static_cast<std::size_t>(d) + 1]; ++lk) {
        const int id = link_vc[static_cast<std::size_t>(lk)];
        const std::size_t i = static_cast<std::size_t>(id);
        const std::size_t base = i * pcap;
        PFAR_ENSURE(credits[i] + static_cast<std::int32_t>(ccount[i]) +
                            static_cast<std::int32_t>(rtotal[i]) ==
                        config.vc_credits,
                    id, credits[i], ccount[i], rtotal[i]);
        const std::uint32_t inflight = rtotal[i] - rready[i];
        if (inflight > 0) {
          for (std::uint32_t k = rready[i]; k < rtotal[i]; ++k) {
            drop_packet(d, ring_ref[base + ((rhead[i] + k) & pmask)]);
          }
          rtotal[i] = rready[i];
          credits[i] += static_cast<std::int32_t>(inflight);
          poison_vc(id);
        }
        credits[i] += static_cast<std::int32_t>(ccount[i]);
        ccount[i] = 0;
        PFAR_ENSURE(credits[i] + static_cast<std::int32_t>(rready[i]) ==
                        config.vc_credits,
                    id, credits[i], rready[i]);
      }
    }
  };

  const auto cancel_tree = [&](int t) {
    tree_canceled[static_cast<std::size_t>(t)] = 1;
    result.tree_failed[static_cast<std::size_t>(t)] = 1;
    result.tree_fail_cycle[static_cast<std::size_t>(t)] = now;
    result.tree_finish_cycle[static_cast<std::size_t>(t)] = -1;
    long long prefix = LLONG_MAX;
    for (int v = 0; v < n; ++v) {
      prefix =
          std::min(prefix, eng_delivered[static_cast<std::size_t>(t * n + v)]);
    }
    result.tree_completed[static_cast<std::size_t>(t)] = prefix;
    PFAR_OBS(on_cancel(t, now, prefix));
    const auto retract = [&](Ref r) {
      ++result.canceled_packets;
      result.canceled_flits += static_cast<long long>(r.size) + header;
      free_slabs.push_back(r.slab);
    };
    for (int id = 0; id < num_vcs; ++id) {
      if (vc_src_state[static_cast<std::size_t>(id)] / n != t) continue;
      const std::size_t i = static_cast<std::size_t>(id);
      const std::size_t base = i * pcap;
      for (std::uint32_t k = 0; k < rtotal[i]; ++k) {
        retract(ring_ref[base + ((rhead[i] + k) & pmask)]);
      }
      // Withdraw from the consumer's ready inputs before clearing, exactly
      // once, matching the poisoned/ready bookkeeping.
      if (vc_is_reduce[i] && rready[i] > 0 && !vc_poisoned[i]) {
        ++eng_waiting[static_cast<std::size_t>(vc_dst_state[i])];
      }
      rtotal[i] = 0;
      rready[i] = 0;
      ccount[i] = 0;
      credits[i] = config.vc_credits;
      vc_poisoned[i] = 0;
    }
    // The tree's fork stages: its states are contiguous, so are their slots.
    const std::size_t ti = static_cast<std::size_t>(t);
    const std::size_t nn = static_cast<std::size_t>(n);
    const auto stages_end = static_cast<std::size_t>(child_base[(ti + 1) * nn]);
    for (auto sid = static_cast<std::size_t>(child_base[ti * nn]);
         sid < stages_end; ++sid) {
      for (std::uint32_t k = 0; k < fcount[sid]; ++k) {
        retract(fork_ring[sid * fcap + ((fhead[sid] + k) & fmask)]);
      }
      fcount[sid] = 0;
    }
    for (std::uint32_t k = 0; k < rq_count[ti]; ++k) {
      retract(root_ring[ti * pcap + ((rq_head[ti] + k) & pmask)]);
    }
    rq_count[ti] = 0;
    total_target -= tree_remaining[ti];
    tree_remaining[ti] = 0;
    last_progress = now;
    progressed = true;
  };

  // --- Steady-period jump (see the header comment). Only on a quiet
  // network: background drains follow absolute time, which the control
  // state does not hold. The snapshot is allocated on first use and holds
  // occupied slots only.
  const bool steady_ok = !bg_active;
  PeriodFinder finder;
  std::uint64_t cycle_sig = 0;  // this cycle's grants, rolled
  int period = 0;               // the candidate under verification
  long long verify_at = -1;     // its confirming cycle top; -1 = none
  long long next_try = 0;       // earliest cycle top for the next step
  long long backoff = kSteadyMinBackoff;
  std::vector<long long> snap_key, snap_val, delta;
  std::vector<std::int64_t> reduce_slope;  // per state, on first snapshot

  // Visits the loop state in one fixed order: `key` gets every control
  // value, `stamp` every absolute time the control state holds relative to
  // `now`, `count` every counter the jump translates, and `elem` every
  // in-flight element value with its stream's value slope and the index
  // of the count visit that measures how far the stream advanced. Counts
  // come first: state s owns count visits 4s..4s+3 (injected, delivered,
  // inj_next, exp_next), then tree t owns 4 * num_states + t (remaining).
  const std::size_t ntrees = static_cast<std::size_t>(num_trees);
  const auto walk = [&](auto&& key, auto&& stamp, auto&& count, auto&& elem) {
    for (std::size_t s = 0; s < num_states; ++s) {
      count(eng_injected[s]);
      count(eng_delivered[s]);
      count(inj_next[s]);
      count(exp_next[s]);
      key(eng_waiting[s]);
    }
    for (std::size_t t = 0; t < ntrees; ++t) {
      const bool live = !tree_canceled[t] && tree_remaining[t] > 0;
      count(tree_remaining[t]);
      key(tree_canceled[t]);
      key(live);
      if (live) stamp(tree_progress[t]);
    }
    count(delivered_total);
    stamp(last_progress);
    key(fault.next);
    for (const std::int32_t dl : active_dlinks) {
      const std::size_t d = static_cast<std::size_t>(dl);
      key(tokens[d]);
      key(rr[d]);
      count(result.link_flits[d]);
    }
    key(bcast_list.size());
    for (const std::int32_t idx : bcast_list) key(idx);
    for (std::uint32_t b = 0; b < wheel_size; ++b) {
      const auto& bucket = wheel[static_cast<std::size_t>(
          (now + static_cast<long long>(b)) & wmask)];
      key(bucket.size());
      for (const std::int32_t id : bucket) key(id);
    }
    const auto packet = [&](Ref r, std::int64_t slope, std::size_t advance) {
      key(r.size);
      std::int64_t* v = &arena[static_cast<std::size_t>(r.slab) *
                               static_cast<std::size_t>(stride)];
      for (std::int32_t e = 0; e < r.size; ++e) elem(v[e], slope, advance);
    };
    for (std::size_t i = 0; i < static_cast<std::size_t>(num_vcs); ++i) {
      const std::size_t src = static_cast<std::size_t>(vc_src_state[i]);
      const bool reduce = vc_is_reduce[i] != 0;
      const std::int64_t slope = reduce ? reduce_slope[src] : exp_slope;
      const std::size_t advance = 4 * src + (reduce ? 0 : 1);
      key(credits[i]);
      key(rtotal[i]);
      key(rready[i]);
      key(ccount[i]);
      key(vc_poisoned[i]);
      const std::size_t base = i * pcap;
      for (std::uint32_t j = 0; j < rtotal[i]; ++j) {
        const std::size_t at = base + ((rhead[i] + j) & pmask);
        if (j >= rready[i]) stamp(ring_time[at]);
        packet(ring_ref[at], slope, advance);
      }
      for (std::uint32_t j = 0; j < ccount[i]; ++j) {
        stamp(credit_time[base + ((chead[i] + j) & pmask)]);
      }
    }
    for (std::size_t s = 0; s < num_states; ++s) {
      for (auto sid = static_cast<std::size_t>(child_base[s]);
           sid < static_cast<std::size_t>(child_base[s + 1]); ++sid) {
        key(fcount[sid]);
        for (std::uint32_t j = 0; j < fcount[sid]; ++j) {
          packet(fork_ring[sid * fcap + ((fhead[sid] + j) & fmask)],
                 exp_slope, 4 * s + 1);
        }
      }
    }
    for (std::size_t t = 0; t < ntrees; ++t) {
      key(rq_count[t]);
      for (std::uint32_t j = 0; j < rq_count[t]; ++j) {
        packet(root_ring[t * pcap + ((rq_head[t] + j) & pmask)], exp_slope,
               4 * static_cast<std::size_t>(root_state[t]));
      }
    }
  };

  const auto snapshot = [&] {
    sync_all(now - 1);
    if (reduce_slope.empty()) {
      // A reduce stream carries its sender's subtree sum, whose value
      // grows by (subtree size) * kElemStride per element.
      reduce_slope.assign(num_states, kElemStride);
      std::vector<std::int32_t> parent(num_states, -1);
      for (std::size_t i = 0; i < static_cast<std::size_t>(num_vcs); ++i) {
        if (vc_is_reduce[i]) {
          parent[static_cast<std::size_t>(vc_src_state[i])] = vc_dst_state[i];
        }
      }
      for (std::size_t s = 0; s < num_states; ++s) {
        for (std::int32_t p = parent[s]; p >= 0;
             p = parent[static_cast<std::size_t>(p)]) {
          reduce_slope[static_cast<std::size_t>(p)] += kElemStride;
        }
      }
    }
    snap_key.clear();
    snap_val.clear();
    const auto key = [&](auto x) {
      snap_key.push_back(static_cast<long long>(x));
    };
    walk(key, [&](long long& t) { key(t - now); },
         [&](auto& x) { snap_val.push_back(static_cast<long long>(x)); },
         [&](std::int64_t& x, std::int64_t, std::size_t) {
           snap_val.push_back(x);
         });
  };

  // True iff the state is the snapshot's advanced by exactly one period:
  // the same control state, and every in-flight element moved by its
  // stream's slope times the elements that stream advanced. Fills `delta`
  // with every count and element's per-period change.
  const auto verify = [&] {
    sync_all(now - 1);
    std::size_t kp = 0;
    std::size_t vp = 0;
    bool same = true;
    delta.clear();
    const auto key = [&](auto x) {
      same = same && kp < snap_key.size() &&
             snap_key[kp] == static_cast<long long>(x);
      ++kp;
    };
    walk(key, [&](long long& t) { key(t - now); },
         [&](auto& x) {
           same = same && vp < snap_val.size();
           if (same) {
             delta.push_back(static_cast<long long>(x) - snap_val[vp++]);
           }
         },
         [&](std::int64_t& x, std::int64_t slope, std::size_t advance) {
           same = same && vp < snap_val.size();
           if (!same) return;
           const long long d = x - snap_val[vp++];
           same = d == slope * delta[advance];
           delta.push_back(d);
         });
    return same && kp == snap_key.size() && vp == snap_val.size();
  };

  // Whole periods the verified one may be repeated in closed form: the
  // jump stops at least one period before any engine's injection end, any
  // tree's last delivery, the next fault event and the max_cycles deadline.
  const auto periods_to_skip = [&] {
    long long k = (config.max_cycles - now) / period - 1;
    if (faults_active && fault.next < fault.events.size()) {
      k = std::min(k, (fault.events[fault.next].cycle - now) / period - 1);
    }
    for (std::size_t s = 0; s < num_states; ++s) {
      const long long d = delta[4 * s];
      if (d > 0) {
        k = std::min(k, (eng_target[s] - 1 - eng_injected[s]) / d - 1);
      }
    }
    for (std::size_t t = 0; t < ntrees; ++t) {
      const long long d = -delta[4 * num_states + t];
      if (d > 0) k = std::min(k, (tree_remaining[t] - 1) / d - 1);
    }
    return k;
  };

  // Advances k periods: absolute times by k * period, counters and
  // in-flight values by k times their per-period delta, and the wheel's
  // buckets along with `now`. Tokens (synced by verify), round-robin
  // pointers and maxima are periodic and stay as they are; every link is
  // marked.
  const auto jump = [&](long long k) {
    const long long shift = k * period;
    std::size_t i = 0;
    const auto translate = [&](auto& x) { x += k * delta[i++]; };
    walk([](auto) {}, [&](long long& t) { t += shift; }, translate,
         [&](std::int64_t& x, std::int64_t, std::size_t) { translate(x); });
    const std::uint32_t turn = static_cast<std::uint32_t>(shift) & wmask;
    std::rotate(wheel.begin(),
                wheel.begin() + ((wheel_size - turn) & wmask), wheel.end());
    now += shift;
    for (const std::int32_t dl : active_dlinks) {
      synced[static_cast<std::size_t>(dl)] = now - 1;
      mark(dl);
    }
  };

  // One step at a cycle top: propose a candidate and snapshot it, or
  // confirm one and jump. Returns true iff it jumped, so the caller
  // re-runs the cycle-top checks at the new `now`. A miss backs off.
  const auto steady_step = [&] {
    if (verify_at < 0) {
      period = finder.candidate();
      if (period == 0) {
        next_try = now + kSteadyProbeEvery;
        return false;
      }
      snapshot();
      verify_at = next_try = now + period;
      PFAR_OBS(start_tape(now));
      return false;
    }
    const bool hit = now == verify_at && result.values_correct && verify();
    verify_at = -1;
    if (hit && cert != nullptr && !cert->has_value()) {
      *cert = certify_period(period, now, delta, n, active_dlinks.size(),
                             eng_target, eng_injected, tree_remaining,
                             tree_canceled);
    }
    const long long k = hit ? periods_to_skip() : 0;
    if (k < 1) {
      PFAR_OBS(stop_tape());
      next_try = now + backoff;
      backoff = std::min(2 * backoff, kSteadyMaxBackoff);
      return false;
    }
    PFAR_OBS(skip_periods(now, period, k));
    jump(k);
    finder.clear();
    backoff = kSteadyMinBackoff;
    return true;
  };

  while (delivered_total < total_target) {
    if (now > config.max_cycles) {
      throw std::runtime_error("AllreduceSimulator: cycle limit exceeded");
    }
    if (now - last_progress > config.stall_limit) {
      throw std::runtime_error(
          "AllreduceSimulator: deadlock detected at cycle " +
          std::to_string(now));
    }
    if (steady_ok && now >= next_try && steady_step()) continue;

    progressed = false;
    sched_bucket = &wheel[static_cast<std::size_t>((now + latency) & wmask)];

    // 0a/0b. Fault events and per-tree loss detection, in the same order
    // and at the same point in the cycle as the reference loop. Either one
    // counts as progress so the idle-jump below never skips its effects.
    if (faults_active) {
      while (fault.next < fault.events.size() &&
             fault.events[fault.next].cycle <= now) {
        const PreparedFault& ev = fault.events[fault.next++];
        // Both halves reach the event's cycle in their old state.
        for (const int dl : {2 * ev.edge, 2 * ev.edge + 1}) {
          const std::size_t d = static_cast<std::size_t>(dl);
          if (link_base[d + 1] > link_base[d]) {
            sync(d, now - 1);
            mark(dl);
          }
        }
        if (ev.down) {
          if (!fault.edge_down[static_cast<std::size_t>(ev.edge)]) {
            fault.edge_down[static_cast<std::size_t>(ev.edge)] = 1;
            drop_edge(ev.edge);
          }
        } else {
          fault.edge_down[static_cast<std::size_t>(ev.edge)] = 0;
        }
        PFAR_OBS(on_fault(now, ev.edge, ev.down));
        progressed = true;
      }
    }
    if (timeout > 0) {
      for (int t = 0; t < num_trees; ++t) {
        if (!tree_canceled[static_cast<std::size_t>(t)] &&
            tree_remaining[static_cast<std::size_t>(t)] > 0 &&
            now - tree_progress[static_cast<std::size_t>(t)] > timeout) {
          cancel_tree(t);
        }
      }
    }

    // 1. Arrivals: only VCs with a wake-up scheduled for this cycle. A
    // landing advances the ready boundary of the combined ring; a matured
    // credit return bumps the sender-side credit count.
    {
      auto& bucket = wheel[static_cast<std::size_t>(now & wmask)];
      if (!bucket.empty()) {
        pending_events -= static_cast<long long>(bucket.size());
        for (std::int32_t id : bucket) {
          const std::size_t base = static_cast<std::size_t>(id) * pcap;
          const std::uint32_t before = rready[static_cast<std::size_t>(id)];
          while (rready[static_cast<std::size_t>(id)] < rtotal[static_cast<std::size_t>(id)] &&
                 ring_time[base + ((rhead[static_cast<std::size_t>(id)] + rready[static_cast<std::size_t>(id)]) & pmask)] <=
                     now) {
            ++rready[static_cast<std::size_t>(id)];
          }
          if (rready[static_cast<std::size_t>(id)] != before) {
            result.max_vc_occupancy =
                std::max(result.max_vc_occupancy,
                         static_cast<int>(rready[static_cast<std::size_t>(id)]));
            const std::size_t qd =
                static_cast<std::size_t>(vc_dlink[static_cast<std::size_t>(id)]);
            result.link_queue_hwm[qd] = std::max(
                result.link_queue_hwm[qd],
                static_cast<long long>(rready[static_cast<std::size_t>(id)]));
            last_progress = now;
            progressed = true;
            // A poisoned VC's landings still occupy the buffer (occupancy
            // above) but never make it ready (its consumer must not fire).
            if (vc_is_reduce[static_cast<std::size_t>(id)]) {
              // The consumer's last missing input makes its uplink VC
              // grantable.
              const std::size_t ds = static_cast<std::size_t>(
                  vc_dst_state[static_cast<std::size_t>(id)]);
              if (before == 0 && !vc_poisoned[static_cast<std::size_t>(id)] &&
                  --eng_waiting[ds] == 0 && up_dlink[ds] >= 0) {
                mark(up_dlink[ds]);
              }
            } else if (!vc_poisoned[static_cast<std::size_t>(id)]) {
              activate_bcast(vc_dst_state[static_cast<std::size_t>(id)]);
            }
          }
          const bool dry = credits[static_cast<std::size_t>(id)] == 0;
          while (ccount[static_cast<std::size_t>(id)] > 0 &&
                 credit_time[base + (chead[static_cast<std::size_t>(id)] & pmask)] <= now) {
            chead[static_cast<std::size_t>(id)] = (chead[static_cast<std::size_t>(id)] + 1) & pmask;
            --ccount[static_cast<std::size_t>(id)];
            ++credits[static_cast<std::size_t>(id)];
            progressed = true;
          }
          if (dry && credits[static_cast<std::size_t>(id)] > 0) {
            mark(vc_dlink[static_cast<std::size_t>(id)]);
          }
        }
        bucket.clear();
      }
    }

    // 2. Root engines (O(num_trees), cheap enough to visit every cycle):
    // a root whose inputs are ready turns one final sum around per cycle.
    for (int t = 0; t < num_trees; ++t) {
      const std::size_t ti = static_cast<std::size_t>(t);
      const std::size_t si = static_cast<std::size_t>(root_state[ti]);
      if (tree_canceled[ti] || eng_injected[si] >= eng_target[si] ||
          static_cast<int>(rq_count[ti]) >= config.vc_credits ||
          eng_waiting[si] != 0) {
        continue;
      }
      root_ring[ti * pcap + ((rq_head[ti] + rq_count[ti]) & pmask)] =
          make_reduce_packet(root_state[ti]);
      ++rq_count[ti];
      activate_bcast(root_state[ti]);
      last_progress = now;
      progressed = true;
    }

    // 3. Broadcast replication, active engines only. Processing order
    // within a cycle does not affect any state the engines share, so the
    // activation order is as good as the reference loop's (t, v) order.
    if (!bcast_list.empty()) {
      bcast_current.clear();
      bcast_current.swap(bcast_list);
      for (std::int32_t idx : bcast_current) bcast_active[static_cast<std::size_t>(idx)] = 0;
      for (std::int32_t idx : bcast_current) {
        const int t = idx / n;
        if (tree_canceled[static_cast<std::size_t>(t)]) continue;
        const bool is_root = (idx == root_state[static_cast<std::size_t>(t)]);
        const std::int32_t sb = child_base[static_cast<std::size_t>(idx)];
        const std::int32_t forks = nchild(static_cast<std::size_t>(idx));
        bool room = true;
        for (std::int32_t c = 0; c < forks; ++c) {
          if (static_cast<int>(fcount[static_cast<std::size_t>(sb + c)]) >= config.fork_buffer) {
            room = false;
            break;
          }
        }
        if (!room) continue;  // re-armed by a fork-slot drain in step 4
        Ref packet;
        if (is_root) {
          if (rq_count[static_cast<std::size_t>(t)] == 0) {
            continue;  // re-armed by the next root-queue push
          }
          packet = root_ring[static_cast<unsigned>(t) * pcap + (rq_head[static_cast<std::size_t>(t)] & pmask)];
          rq_head[static_cast<std::size_t>(t)] = (rq_head[static_cast<std::size_t>(t)] + 1) & pmask;
          --rq_count[static_cast<std::size_t>(t)];
        } else {
          const int pvc = parent_bcast_vc[static_cast<std::size_t>(idx)];
          if (vc_poisoned[static_cast<std::size_t>(pvc)] ||
              rready[static_cast<std::size_t>(pvc)] == 0) {
            continue;  // re-armed by the next arrival
          }
          packet = ring_ref[static_cast<unsigned>(pvc) * pcap + (rhead[static_cast<std::size_t>(pvc)] & pmask)];
          rhead[static_cast<std::size_t>(pvc)] = (rhead[static_cast<std::size_t>(pvc)] + 1) & pmask;
          --rtotal[static_cast<std::size_t>(pvc)];
          --rready[static_cast<std::size_t>(pvc)];
          return_credit(pvc);
        }
        deliver(t, idx, packet);
        if (forks == 0) {
          free_slabs.push_back(packet.slab);
        } else {
          for (std::int32_t c = 0; c + 1 < forks; ++c) {
            const std::int32_t slab = alloc_slab();
            std::copy_n(
                &arena[static_cast<std::size_t>(packet.slab) * static_cast<std::size_t>(stride)],
                packet.size,
                &arena[static_cast<std::size_t>(slab) * static_cast<std::size_t>(stride)]);
            push_fork(sb + c, Ref{slab, packet.size});
          }
          push_fork(sb + forks - 1, packet);
        }
        // Moved its one packet this cycle: it may have more next cycle with
        // no new event to re-arm it, so stay active.
        activate_bcast(idx);
      }
    }

    // 4. Link arbitration over the marked links, in the reference loop's
    // ascending order; a visit first syncs the link through `now`. A down
    // link drops its bit (its link_up event marks it again). A
    // token-starved link contributes its recharge time to the event
    // horizon instead of being probed.
    long long recharge_offset = LLONG_MAX;
    for (int dl = next_marked(0); dl >= 0; dl = next_marked(dl + 1)) {
      const std::size_t d = static_cast<std::size_t>(dl);
      sync(d, now);
      if (faults_active && !fault.edge_ok(dl)) {
        unmark(dl);
        continue;
      }
      if (tokens[d] <= 0) {
        // Cycles until the bucket is positive again: smallest k >= 1 with
        // tokens + k >= 1.
        recharge_offset = std::min(recharge_offset, 1 - tokens[d]);
        continue;
      }
      bool granted = false;
      const std::int32_t lb = link_base[d];
      const int count = static_cast<int>(link_base[d + 1] - lb);
      int slot = rr[d];
      for (int probe = 0; probe < count && tokens[d] > 0;
           ++probe, slot = slot + 1 == count ? 0 : slot + 1) {
        const int id = link_vc[static_cast<std::size_t>(lb + slot)];
        if (tree_canceled[static_cast<std::size_t>(
                vc_src_state[static_cast<std::size_t>(id)] / n)]) {
          continue;
        }
        if (credits[static_cast<std::size_t>(id)] <= 0) {
          // Credit stall, counted at the same probe point as the reference
          // loop. Stall totals are engine-relative: this engine never
          // probes the cycles it fast-forwards over or unmarked links.
          PFAR_OBS(on_credit_stall_if(vc_ready(id)));
          continue;
        }
        Ref packet;
        if (vc_is_reduce[static_cast<std::size_t>(id)]) {
          const std::int32_t si = vc_src_state[static_cast<std::size_t>(id)];
          if (eng_injected[static_cast<std::size_t>(si)] >= eng_target[static_cast<std::size_t>(si)] ||
              eng_waiting[static_cast<std::size_t>(si)] != 0) {
            continue;
          }
          rr[d] = slot + 1 == count ? 0 : slot + 1;
          packet = make_reduce_packet(si);
        } else {
          const std::int32_t sid = vc_stage[static_cast<std::size_t>(id)];
          if (fcount[static_cast<std::size_t>(sid)] == 0) continue;
          rr[d] = slot + 1 == count ? 0 : slot + 1;
          packet = fork_ring[static_cast<unsigned>(sid) * fcap + (fhead[static_cast<std::size_t>(sid)] & fmask)];
          fhead[static_cast<std::size_t>(sid)] = (fhead[static_cast<std::size_t>(sid)] + 1) & fmask;
          --fcount[static_cast<std::size_t>(sid)];
          activate_bcast(vc_src_state[static_cast<std::size_t>(id)]);  // fork slot drained
        }
        const long long flits = packet.size + header;
        tokens[d] -= flits;
        result.link_flits[d] += flits;
        cycle_sig = (cycle_sig ^ static_cast<std::uint64_t>(id + 1)) *
                    std::uint64_t{0x100000001b3};
        PFAR_OBS(on_grant(dl, now));
        --credits[static_cast<std::size_t>(id)];
        ring_time[static_cast<unsigned>(id) * pcap + ((rhead[static_cast<std::size_t>(id)] + rtotal[static_cast<std::size_t>(id)]) & pmask)] =
            now + latency;
        ring_ref[static_cast<unsigned>(id) * pcap + ((rhead[static_cast<std::size_t>(id)] + rtotal[static_cast<std::size_t>(id)]) & pmask)] = packet;
        ++rtotal[static_cast<std::size_t>(id)];
        schedule_wakeup(id);
        last_progress = now;
        progressed = true;
        granted = true;
      }
      if (!granted) unmark(dl);
    }

    if (steady_ok) {
      finder.push(cycle_sig);
      cycle_sig = 0;
    }
    if (progressed) {
      ++now;
      continue;
    }

    // Idle cycle: nothing can move until an in-flight landing, a token
    // recharge, or one of the abort deadlines. Jump there directly.
    long long target = LLONG_MAX;
    if (pending_events > 0) {
      for (int d = 1; d <= latency; ++d) {
        if (!wheel[static_cast<std::size_t>((now + d) & wmask)].empty()) {
          target = now + d;
          break;
        }
      }
    }
    if (recharge_offset != LLONG_MAX) {
      target = std::min(target, now + recharge_offset);
    }
    // Fault cycles are wake points: the jump may never skip a scheduled
    // event or a per-tree timeout expiry (both checked at cycle tops, so
    // the expiry cycle progress + timeout + 1 must be visited).
    if (faults_active && fault.next < fault.events.size()) {
      target = std::min(target, fault.events[fault.next].cycle);
    }
    if (timeout > 0) {
      for (int t = 0; t < num_trees; ++t) {
        if (!tree_canceled[static_cast<std::size_t>(t)] &&
            tree_remaining[static_cast<std::size_t>(t)] > 0) {
          target = std::min(
              target, tree_progress[static_cast<std::size_t>(t)] + timeout + 1);
        }
      }
    }
    target = std::min(target, last_progress + config.stall_limit + 1);
    target = std::min(target, config.max_cycles + 1);
    if (steady_ok) finder.push_idle(target - now - 1);
    now = target;
  }
  // Every link through the last simulated cycle: runs with down events
  // keep these per-up-cycle background counts.
  sync_all(now - 1);

  // Quiesce, mirrored from the reference loop onto the flat rings: empty
  // receive/in-flight rings, drained fork stages and root queues, and
  // credit conservation per VC (held + still returning == budget).
  for (std::size_t id = 0; id < rtotal.size(); ++id) {
    PFAR_ENSURE(rtotal[id] == 0, id, rtotal[id]);
    PFAR_ENSURE(credits[id] + static_cast<std::int32_t>(ccount[id]) ==
                    config.vc_credits,
                id, credits[id], ccount[id]);
  }
  for (std::size_t sid = 0; sid < fcount.size(); ++sid) {
    PFAR_ENSURE(fcount[sid] == 0, sid, fcount[sid]);
  }
  for (std::size_t t = 0; t < rq_count.size(); ++t) {
    PFAR_ENSURE(rq_count[t] == 0, t, rq_count[t]);
  }
  return now;
}

}  // namespace pfar::simnet::detail
