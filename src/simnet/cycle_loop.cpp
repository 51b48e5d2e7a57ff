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
// below (tests/oracle/reference_allreduce.cpp) — but it visits only what
// an event can have changed (docs/simulation_engine.md, "Event-horizon
// model"; the comment at each structure below says how):
//
//  * arrivals and credit returns come off a time wheel (`wheel`) instead
//    of a scan of every VC every cycle;
//  * broadcast visits only re-armed engines (`bcast_list`), and reduce
//    readiness is a waiting-children counter (`eng_waiting`);
//  * payloads live in a slab arena and every queue is a fixed-capacity
//    ring over flat arrays, so nothing allocates after setup;
//  * arbitration visits only links an event marked (`work`), in the
//    reference loop's ascending order, and each link's token bucket and
//    background accumulator catch up lazily (`sync`);
//  * a cycle in which nothing moved jumps straight to the next event or
//    deadline (`idle_target`), so even the throwing paths report the
//    reference loop's cycle numbers.
//
// On a quiet network it also skips the busy steady state, where the
// control state (everything that decides what moves next, times taken
// relative to `now`) repeats every P cycles while only counters and packet
// values advance: the grant signatures propose P (PeriodFinder), a full
// snapshot P cycles later confirms it, and the loop advances k whole
// periods in closed form, which is exact because values are linear in the
// element index (docs/simulation_engine.md, "Steady periods are skipped in
// one jump"). On a fault-free run the first verified period that qualifies
// is also exported as a PeriodCertificate (CycleLoop::certify_period).
//
// The loop is one CycleLoop object: the fabric, the run's counters and
// every ring are members, and each per-cycle step and each piece of the
// period machinery is a member function (docs/simulation_engine.md,
// "Source layout", lists them with the state each one touches).
// ---------------------------------------------------------------------------

namespace {

// Candidate steady periods from per-cycle grant signatures: the smallest
// P <= kMaxPeriod such that each of the last 2P + kSlack cycles matches the
// cycle P before it and the window saw a grant. A candidate is only a hint;
// CycleLoop confirms it on the full control state.
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

// Steady-period pacing, in cycles: how often the finder is asked for a
// candidate, and the back-off range after a candidate fails to confirm.
constexpr long long kSteadyProbeEvery = 8;
constexpr long long kSteadyMinBackoff = 16;
constexpr long long kSteadyMaxBackoff = 256;

// Background packets, in flits and in the ppm units of the drain rates.
constexpr long long kBgPacketFlits = BackgroundTraffic::packet_flits;
constexpr long long kBgPacketPpm = kBgPacketFlits * 1'000'000;

// A packet: its payload's slab in the arena and its element count.
struct Ref {
  std::int32_t slab;
  std::int32_t size;
};

class CycleLoop {
 public:
  CycleLoop(const Fabric& fabric, RunContext& ctx,
            std::optional<PeriodCertificate>* certificate)
      : f(fabric),
        config(ctx.config),
        result(ctx.result),
        tree_remaining(ctx.tree_remaining),
        fault(ctx.fault),
        bg_rates_ppm(ctx.bg_rates),
        obs(ctx.obs),
        cert(certificate),
        total_target(ctx.total_target) {
    const auto dlinks = static_cast<std::size_t>(f.num_dlinks);
    const auto vcs = static_cast<std::size_t>(num_vcs);
    const auto stages = static_cast<std::size_t>(f.child_base[num_states]);
    rr.assign(dlinks, 0);
    tokens.assign(dlinks, 0);
    bg_acc.assign(bg_active ? dlinks : 0, 0);
    synced.assign(dlinks, -1);
    work.assign((dlinks + 63) / 64, 0);
    for (const std::int32_t dl : f.active_dlinks) mark(dl);
    for (auto* v : {&ring_time, &credit_time}) v->resize(vcs * pcap);
    ring_ref.resize(vcs * pcap);
    for (auto* v : {&rhead, &rtotal, &rready, &chead, &ccount}) {
      v->assign(vcs, 0);
    }
    credits.assign(vcs, config.vc_credits);
    vc_poisoned.assign(vcs, 0);
    last_wake.assign(vcs, -1);
    tree_canceled.assign(ntrees, 0);
    tree_progress.assign(ntrees, 0);
    root_ring.resize(ntrees * pcap);
    for (auto* v : {&rq_head, &rq_count}) v->assign(ntrees, 0);
    for (auto* v : {&eng_injected, &eng_delivered, &eng_target}) {
      v->assign(num_states, 0);
    }
    eng_waiting.resize(num_states);
    for (auto* v : {&inj_next, &exp_next}) v->resize(num_states);
    bcast_active.assign(num_states, 0);
    for (std::size_t i = 0; i < num_states; ++i) {
      const int t = static_cast<int>(i / static_cast<std::size_t>(n));
      eng_waiting[i] = nchild(i);
      eng_target[i] = ctx.elements_per_tree[static_cast<std::size_t>(t)];
      inj_next[i] = local_value(static_cast<int>(i) % n, t, 0);
      exp_next[i] = sum_over_nodes(n, t, 0);
    }
    fork_ring.resize(stages * fcap);
    for (auto* v : {&fhead, &fcount}) v->assign(stages, 0);
    wheel.resize(wheel_size);
    sched_bucket = &wheel[static_cast<unsigned>(latency) & wmask];
  }
  CycleLoop(const CycleLoop&) = delete;  // sched_bucket points into wheel
  CycleLoop& operator=(const CycleLoop&) = delete;

  // Runs until every tree delivered or was canceled; returns that cycle.
  long long run() {
    while (delivered_total < total_target) {
      if (now > config.max_cycles) {
        throw std::runtime_error("AllreduceSimulator: cycle limit exceeded");
      }
      if (now - last_progress > config.stall_limit) {
        throw std::runtime_error(
            "AllreduceSimulator: deadlock detected at cycle " +
            std::to_string(now));
      }
      // Find a steady period, or confirm one and jump to a new cycle top.
      if (steady_ok && now >= next_try) {
        if (verify_at < 0) {
          find_period();
        } else if (confirm_period()) {
          continue;
        }
      }

      progressed = false;
      sched_bucket = &wheel[static_cast<std::size_t>((now + latency) & wmask)];
      faults_and_timeouts();
      arrivals();
      root_engines();
      broadcast();
      const long long recharge_offset = arbitrate();
      if (steady_ok) {
        finder.push(cycle_sig);
        cycle_sig = 0;
      }
      if (progressed) {
        ++now;
        continue;
      }
      const long long target = idle_target(recharge_offset);
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

 private:
  // --- Readiness, the one test of whether an engine can send (steps 2
  // and 4 and the credit-stall probe): a reduce engine has injection left
  // and every child input landed; a broadcast fork stage holds a packet.
  bool reduce_ready(std::size_t si) const {
    return eng_injected[si] < eng_target[si] && eng_waiting[si] == 0;
  }
  bool bcast_ready(std::size_t sid) const { return fcount[sid] > 0; }

  std::int32_t nchild(std::size_t si) const {
    return f.child_base[si + 1] - f.child_base[si];
  }

  // A tree that still owes deliveries and was not canceled.
  bool live(std::size_t t) const {
    return !tree_canceled[t] && tree_remaining[t] > 0;
  }
  // The cycle top at which step 0 cancels tree t for lack of progress (a
  // wake point of the idle jump); LLONG_MAX unless live with a timeout.
  long long expiry(std::size_t t) const {
    return timeout > 0 && live(t) ? tree_progress[t] + timeout + 1
                                  : LLONG_MAX;
  }

  // --- Slab arena. Every packet's payload occupies one fixed-stride slab;
  // a consumed packet's slab goes on the free list for immediate reuse.
  std::int32_t alloc_slab() {
    if (!free_slabs.empty()) {
      const std::int32_t s = free_slabs.back();
      free_slabs.pop_back();
      return s;
    }
    arena.resize(arena.size() + stride);
    return num_slabs++;
  }
  std::int64_t* payload(std::int32_t slab) {
    return &arena[static_cast<std::size_t>(slab) * stride];
  }

  // --- The work bitmap over directed links (see `work` below).
  void mark(std::int32_t dl) {
    work[static_cast<std::size_t>(dl) >> 6] |= std::uint64_t{1} << (dl & 63);
  }
  void unmark(int dl) {
    work[static_cast<std::size_t>(dl) >> 6] &= ~(std::uint64_t{1} << (dl & 63));
  }
  // The lowest marked link >= from, or -1.
  int next_marked(int from) const {
    std::size_t w = static_cast<std::size_t>(from) >> 6;
    if (w >= work.size()) return -1;
    std::uint64_t bits = work[w] & (~std::uint64_t{0} << (from & 63));
    while (bits == 0) {
      if (++w == work.size()) return -1;
      bits = work[w];
    }
    return static_cast<int>(w * 64) + std::countr_zero(bits);
  }

  // Applies the reference loop's per-cycle link update (recharge; on an up
  // link, accumulate and drain) to cycles synced[d] + 1 .. upto, composed
  // exactly: min(t + k, cap) between drains, each drain at its own cycle.
  // A link's up/down state is constant over the range, because every
  // fault event syncs the link before it flips it.
  void sync(std::size_t d, long long upto) {
    long long k = upto - synced[d];
    if (k <= 0) return;
    long long& tok = tokens[d];
    const long long rate = bg_active ? bg_rates_ppm[d] : 0;
    if (rate > 0 && !(faults_active && !fault.edge_ok(static_cast<int>(d)))) {
      long long& acc = bg_acc[d];
      while (acc + k * rate >= kBgPacketPpm) {
        // The next drain: the smallest j >= 1 with acc + j * rate >=
        // kBgPacketPpm (acc stays below kBgPacketPpm between drains).
        const long long j = (kBgPacketPpm - acc + rate - 1) / rate;
        k -= j;
        tok = std::min(tok + j, token_cap);
        acc += j * rate;
        const long long pkts = acc / kBgPacketPpm;
        acc -= pkts * kBgPacketPpm;
        tok -= pkts * kBgPacketFlits;
        result.link_bg_flits[d] += pkts * kBgPacketFlits;
        synced[d] += j;
        PFAR_OBS(on_grant(static_cast<int>(d), synced[d]));
      }
      acc += k * rate;
    }
    tok = std::min(tok + k, token_cap);
    synced[d] = upto;
  }
  void sync_all(long long upto) {
    for (const std::int32_t dl : f.active_dlinks) {
      sync(static_cast<std::size_t>(dl), upto);
    }
  }

  // At most one wheel entry per (VC, cycle), in this cycle's bucket.
  void schedule_wakeup(int vc_id) {
    if (last_wake[static_cast<std::size_t>(vc_id)] == now) return;
    last_wake[static_cast<std::size_t>(vc_id)] = now;
    sched_bucket->push_back(vc_id);
    ++pending_events;
  }

  void activate_bcast(std::int32_t state_idx) {
    if (!bcast_active[static_cast<std::size_t>(state_idx)]) {
      bcast_active[static_cast<std::size_t>(state_idx)] = 1;
      bcast_list.push_back(state_idx);
    }
  }

  // Stages a broadcast packet for one child; a stage that was empty makes
  // its broadcast VC grantable.
  void push_fork(std::int32_t stage, Ref packet) {
    const std::size_t sid = static_cast<std::size_t>(stage);
    fork_ring[sid * fcap + ((fhead[sid] + fcount[sid]) & fmask)] = packet;
    if (fcount[sid]++ == 0) mark(f.stage_dlink[sid]);
  }

  // Returns a consumed packet's credit to VC `id`'s sender — immediately if
  // the link is down (mirrors the reference loop's return_credit), else via
  // the credit-return ring after link_latency.
  void return_credit(int id) {
    const std::size_t i = static_cast<std::size_t>(id);
    if (faults_active && !fault.edge_ok(f.vc_dlink[i])) {
      ++credits[i];
    } else {
      credit_time[i * pcap + ((chead[i] + ccount[i]) & pmask)] =
          now + latency;
      ++ccount[i];
      schedule_wakeup(id);
    }
  }

  // Marks VC `id` poisoned, withdrawing it from its consumer's ready inputs
  // (the reference loop treats a poisoned VC as never ready).
  void poison_vc(int id) {
    const std::size_t i = static_cast<std::size_t>(id);
    if (vc_poisoned[i]) return;
    vc_poisoned[i] = 1;
    if (f.vc_is_reduce[i] && rready[i] > 0) {
      ++eng_waiting[static_cast<std::size_t>(f.vc_dst_state[i])];
    }
  }

  // Pops the ready head packet of VC `id` and returns its credit.
  Ref pop_ready(int id) {
    const std::size_t i = static_cast<std::size_t>(id);
    const Ref head = ring_ref[i * pcap + (rhead[i] & pmask)];
    rhead[i] = (rhead[i] + 1) & pmask;
    --rtotal[i];
    --rready[i];
    return_credit(id);
    return head;
  }

  // The engine's next chunk of local operands combined with one packet
  // from each child, as a fresh packet. Chunk sizes are aligned across
  // children because every stream chunks the same way.
  Ref make_reduce_packet(std::int32_t state_idx) {
    const std::size_t si = static_cast<std::size_t>(state_idx);
    const long long remaining = eng_target[si] - eng_injected[si];
    const Ref packet{alloc_slab(),
                     static_cast<std::int32_t>(std::min<long long>(
                         config.packet_payload, remaining))};
    std::int64_t* out = payload(packet.slab);
    std::int64_t value = inj_next[si];
    for (std::int32_t i = 0; i < packet.size; ++i) {
      out[i] = value;
      value += kElemStride;
    }
    inj_next[si] = value;
    eng_injected[si] += packet.size;
    const std::int32_t cb = f.child_base[si];
    for (std::int32_t c = 0; c < nchild(si); ++c) {
      const int cvc = f.child_vc[static_cast<std::size_t>(cb + c)];
      const Ref head = pop_ready(cvc);
      // The child's next input has not landed yet.
      if (rready[static_cast<std::size_t>(cvc)] == 0) ++eng_waiting[si];
      if (head.size != packet.size) {
        throw std::logic_error("reduce packet misalignment");
      }
      const std::int64_t* in = payload(head.slab);
      for (std::int32_t i = 0; i < packet.size; ++i) out[i] += in[i];
      free_slabs.push_back(head.slab);
    }
    PFAR_OBS(on_reduce_packet(
        state_idx / n,
        state_idx == f.root_state[static_cast<std::size_t>(state_idx / n)] &&
            eng_injected[si] >= eng_target[si],
        now));
    return packet;
  }

  void deliver(int tree, std::int32_t state_idx, Ref packet) {
    const std::size_t t = static_cast<std::size_t>(tree);
    const std::size_t si = static_cast<std::size_t>(state_idx);
    if (result.tree_first_delivery[t] < 0) result.tree_first_delivery[t] = now;
    const std::int64_t* p = payload(packet.slab);
    std::int64_t expected = exp_next[si];
    for (std::int32_t i = 0; i < packet.size; ++i) {
      if (p[i] != expected) result.values_correct = false;
      expected += exp_slope;
      ++delivered_total;
      if (--tree_remaining[t] == 0) result.tree_finish_cycle[t] = now;
    }
    exp_next[si] = expected;
    eng_delivered[si] += packet.size;
    last_progress = now;
    tree_progress[t] = now;
    progressed = true;
  }

  // Fault handlers, mirroring the reference loop's drop_edge/cancel_tree
  // onto the flat rings. Retraction counts are order-independent, so the
  // engine and the oracle account identical totals.
  void drop_edge(int eid) {
    for (const int dl : {2 * eid, 2 * eid + 1}) {
      const std::size_t d = static_cast<std::size_t>(dl);
      for (std::int32_t lk = f.link_base[d]; lk < f.link_base[d + 1]; ++lk) {
        const int id = f.link_vc[static_cast<std::size_t>(lk)];
        const std::size_t i = static_cast<std::size_t>(id);
        const std::size_t base = i * pcap;
        PFAR_ENSURE(credits[i] + static_cast<std::int32_t>(ccount[i]) +
                            static_cast<std::int32_t>(rtotal[i]) ==
                        config.vc_credits,
                    id, credits[i], ccount[i], rtotal[i]);
        const std::uint32_t inflight = rtotal[i] - rready[i];
        if (inflight > 0) {
          // Lost: the flits crossed (or were on) the wire, nothing lands.
          for (std::uint32_t k = rready[i]; k < rtotal[i]; ++k) {
            const Ref r = ring_ref[base + ((rhead[i] + k) & pmask)];
            ++result.dropped_packets;
            result.dropped_flits += r.size + header;
            result.link_dropped_flits[d] += r.size + header;
            free_slabs.push_back(r.slab);
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
  }

  void cancel_tree(int t) {
    const std::size_t ti = static_cast<std::size_t>(t);
    tree_canceled[ti] = 1;
    result.tree_failed[ti] = 1;
    result.tree_fail_cycle[ti] = now;
    result.tree_finish_cycle[ti] = -1;
    const auto first = eng_delivered.begin() + t * n;
    const long long prefix = *std::min_element(first, first + n);
    result.tree_completed[ti] = prefix;
    PFAR_OBS(on_cancel(t, now, prefix));
    const auto retract = [&](Ref r) {
      ++result.canceled_packets;
      result.canceled_flits += static_cast<long long>(r.size) + header;
      free_slabs.push_back(r.slab);
    };
    for (int id = 0; id < num_vcs; ++id) {
      const std::size_t i = static_cast<std::size_t>(id);
      if (f.vc_src_state[i] / n != t) continue;
      const std::size_t base = i * pcap;
      for (std::uint32_t k = 0; k < rtotal[i]; ++k) {
        retract(ring_ref[base + ((rhead[i] + k) & pmask)]);
      }
      // Withdraw from the consumer's ready inputs before clearing, exactly
      // once, matching the poisoned/ready bookkeeping.
      if (f.vc_is_reduce[i] && rready[i] > 0 && !vc_poisoned[i]) {
        ++eng_waiting[static_cast<std::size_t>(f.vc_dst_state[i])];
      }
      rtotal[i] = 0;
      rready[i] = 0;
      ccount[i] = 0;
      credits[i] = config.vc_credits;
      vc_poisoned[i] = 0;
    }
    // The tree's fork stages: its states are contiguous, so are their slots.
    const std::size_t nn = static_cast<std::size_t>(n);
    const auto stages_end = static_cast<std::size_t>(f.child_base[(ti + 1) * nn]);
    for (auto sid = static_cast<std::size_t>(f.child_base[ti * nn]);
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
  }

  // 0. Fault events and per-tree loss detection, in the same order and at
  // the same point in the cycle as the reference loop. Either one counts
  // as progress so the idle jump never skips its effects.
  void faults_and_timeouts() {
    while (faults_active && fault.next < fault.events.size() &&
           fault.events[fault.next].cycle <= now) {
      const PreparedFault& ev = fault.events[fault.next++];
      // Both halves reach the event's cycle in their old state.
      for (const int dl : {2 * ev.edge, 2 * ev.edge + 1}) {
        const std::size_t d = static_cast<std::size_t>(dl);
        if (f.link_base[d + 1] > f.link_base[d]) {
          sync(d, now - 1);
          mark(dl);
        }
      }
      const std::size_t e = static_cast<std::size_t>(ev.edge);
      if (!ev.down) {
        fault.edge_down[e] = 0;
      } else if (!fault.edge_down[e]) {
        fault.edge_down[e] = 1;
        drop_edge(ev.edge);
      }
      PFAR_OBS(on_fault(now, ev.edge, ev.down));
      progressed = true;
    }
    for (std::size_t t = 0; t < ntrees && timeout > 0; ++t) {
      if (expiry(t) <= now) cancel_tree(static_cast<int>(t));
    }
  }

  // 1. Arrivals: only VCs with a wake-up scheduled for this cycle. A
  // landing advances the ready boundary of the combined ring; a matured
  // credit return bumps the sender-side credit count.
  void arrivals() {
    auto& bucket = wheel[static_cast<std::size_t>(now & wmask)];
    if (bucket.empty()) return;
    pending_events -= static_cast<long long>(bucket.size());
    for (const std::int32_t id : bucket) {
      const std::size_t i = static_cast<std::size_t>(id);
      const std::size_t base = i * pcap;
      const std::uint32_t before = rready[i];
      while (rready[i] < rtotal[i] &&
             ring_time[base + ((rhead[i] + rready[i]) & pmask)] <= now) {
        ++rready[i];
      }
      if (rready[i] != before) {
        result.max_vc_occupancy =
            std::max(result.max_vc_occupancy, static_cast<int>(rready[i]));
        const std::size_t qd = static_cast<std::size_t>(f.vc_dlink[i]);
        result.link_queue_hwm[qd] = std::max(
            result.link_queue_hwm[qd], static_cast<long long>(rready[i]));
        last_progress = now;
        progressed = true;
        // A poisoned VC's landings still occupy the buffer (occupancy
        // above) but never make it ready (its consumer must not fire).
        if (f.vc_is_reduce[i]) {
          // The consumer's last missing input makes its uplink VC
          // grantable.
          const std::size_t ds = static_cast<std::size_t>(f.vc_dst_state[i]);
          if (before == 0 && !vc_poisoned[i] && --eng_waiting[ds] == 0 &&
              f.up_dlink[ds] >= 0) {
            mark(f.up_dlink[ds]);
          }
        } else if (!vc_poisoned[i]) {
          activate_bcast(f.vc_dst_state[i]);
        }
      }
      const bool dry = credits[i] == 0;
      while (ccount[i] > 0 && credit_time[base + (chead[i] & pmask)] <= now) {
        chead[i] = (chead[i] + 1) & pmask;
        --ccount[i];
        ++credits[i];
        progressed = true;
      }
      if (dry && credits[i] > 0) mark(f.vc_dlink[i]);
    }
    bucket.clear();
  }

  // 2. Root engines (O(num_trees), cheap enough to visit every cycle): a
  // root whose inputs are ready turns one final sum around per cycle.
  void root_engines() {
    for (std::size_t ti = 0; ti < ntrees; ++ti) {
      const std::int32_t root = f.root_state[ti];
      if (tree_canceled[ti] || !reduce_ready(static_cast<std::size_t>(root)) ||
          static_cast<int>(rq_count[ti]) >= config.vc_credits) {
        continue;
      }
      root_ring[ti * pcap + ((rq_head[ti] + rq_count[ti]) & pmask)] =
          make_reduce_packet(root);
      ++rq_count[ti];
      activate_bcast(root);
      last_progress = now;
      progressed = true;
    }
  }

  // 3. Broadcast replication, active engines only. Processing order
  // within a cycle does not affect any state the engines share, so the
  // activation order is as good as the reference loop's (t, v) order.
  void broadcast() {
    if (bcast_list.empty()) return;
    bcast_current.clear();
    bcast_current.swap(bcast_list);
    for (const std::int32_t idx : bcast_current) {
      bcast_active[static_cast<std::size_t>(idx)] = 0;
    }
    for (const std::int32_t idx : bcast_current) {
      const std::size_t si = static_cast<std::size_t>(idx);
      const int t = idx / n;
      const std::size_t ti = static_cast<std::size_t>(t);
      if (tree_canceled[ti]) continue;
      const std::int32_t sb = f.child_base[si];
      const std::int32_t forks = nchild(si);
      bool room = true;
      for (std::int32_t c = 0; c < forks; ++c) {
        if (static_cast<int>(fcount[static_cast<std::size_t>(sb + c)]) >=
            config.fork_buffer) {
          room = false;
          break;
        }
      }
      if (!room) continue;  // re-armed by a fork-slot drain in step 4
      Ref packet;
      if (idx == f.root_state[ti]) {
        if (rq_count[ti] == 0) continue;  // re-armed by the next root push
        packet = root_ring[ti * pcap + (rq_head[ti] & pmask)];
        rq_head[ti] = (rq_head[ti] + 1) & pmask;
        --rq_count[ti];
      } else {
        const int pvc = f.parent_bcast_vc[si];
        const std::size_t pi = static_cast<std::size_t>(pvc);
        if (vc_poisoned[pi] || rready[pi] == 0) continue;  // an arrival re-arms
        packet = pop_ready(pvc);
      }
      deliver(t, idx, packet);
      if (forks == 0) {
        free_slabs.push_back(packet.slab);
      } else {
        for (std::int32_t c = 0; c + 1 < forks; ++c) {
          const std::int32_t slab = alloc_slab();
          std::copy_n(payload(packet.slab), packet.size, payload(slab));
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
  // link drops its bit (its link_up event marks it again). A token-starved
  // link contributes its recharge time to the event horizon instead of
  // being probed. Returns the smallest such recharge offset, or LLONG_MAX.
  long long arbitrate() {
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
      const std::int32_t lb = f.link_base[d];
      const int count = static_cast<int>(f.link_base[d + 1] - lb);
      int slot = rr[d];
      for (int probe = 0; probe < count && tokens[d] > 0;
           ++probe, slot = slot + 1 == count ? 0 : slot + 1) {
        const int id = f.link_vc[static_cast<std::size_t>(lb + slot)];
        const std::size_t i = static_cast<std::size_t>(id);
        const std::int32_t src = f.vc_src_state[i];
        if (tree_canceled[static_cast<std::size_t>(src / n)]) continue;
        const bool reduce = f.vc_is_reduce[i] != 0;
        const auto ready = [&] {
          return reduce ? reduce_ready(static_cast<std::size_t>(src))
                        : bcast_ready(static_cast<std::size_t>(f.vc_stage[i]));
        };
        if (credits[i] <= 0) {
          // Credit stall, counted at the same probe point as the reference
          // loop. Stall totals are engine-relative: this engine never
          // probes the cycles it fast-forwards over or unmarked links.
          PFAR_OBS(on_credit_stall_if(ready()));
          continue;
        }
        if (!ready()) continue;
        rr[d] = slot + 1 == count ? 0 : slot + 1;
        Ref packet;
        if (reduce) {
          packet = make_reduce_packet(src);
        } else {
          const std::size_t sid = static_cast<std::size_t>(f.vc_stage[i]);
          packet = fork_ring[sid * fcap + (fhead[sid] & fmask)];
          fhead[sid] = (fhead[sid] + 1) & fmask;
          --fcount[sid];
          activate_bcast(src);  // fork slot drained
        }
        const long long flits = packet.size + header;
        tokens[d] -= flits;
        result.link_flits[d] += flits;
        cycle_sig = (cycle_sig ^ static_cast<std::uint64_t>(id + 1)) *
                    std::uint64_t{0x100000001b3};
        PFAR_OBS(on_grant(dl, now));
        --credits[i];
        const std::size_t at = i * pcap + ((rhead[i] + rtotal[i]) & pmask);
        ring_time[at] = now + latency;
        ring_ref[at] = packet;
        ++rtotal[i];
        schedule_wakeup(id);
        last_progress = now;
        progressed = true;
        granted = true;
      }
      if (!granted) unmark(dl);
    }
    return recharge_offset;
  }

  // After an idle cycle nothing can move until an in-flight landing, a
  // token recharge, or one of the abort deadlines: the cycle to jump to.
  long long idle_target(long long recharge_offset) const {
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
    // event or a per-tree timeout expiry (both applied at cycle tops).
    if (faults_active && fault.next < fault.events.size()) {
      target = std::min(target, fault.events[fault.next].cycle);
    }
    for (std::size_t t = 0; t < ntrees && timeout > 0; ++t) {
      target = std::min(target, expiry(t));
    }
    target = std::min(target, last_progress + config.stall_limit + 1);
    return std::min(target, config.max_cycles + 1);
  }

  // --- Steady-period jump (see the header comment). Only on a quiet
  // network: background drains follow absolute time, which the control
  // state does not hold. The snapshot holds occupied slots only.

  // Visits the loop state in one fixed order: `key` gets every control
  // value, `stamp` every absolute time the control state holds relative to
  // `now`, `count` every counter the jump translates, and `elem` every
  // in-flight element value with its stream's value slope and the index
  // of the count visit that measures how far the stream advanced. Counts
  // come first: state s owns count visits 4s..4s+3 (injected, delivered,
  // inj_next, exp_next), then tree t owns 4 * num_states + t (remaining).
  template <class Key, class Stamp, class Count, class Elem>
  void walk(Key&& key, Stamp&& stamp, Count&& count, Elem&& elem) {
    for (std::size_t s = 0; s < num_states; ++s) {
      count(eng_injected[s]);
      count(eng_delivered[s]);
      count(inj_next[s]);
      count(exp_next[s]);
      key(eng_waiting[s]);
    }
    for (std::size_t t = 0; t < ntrees; ++t) {
      const bool is_live = live(t);  // before `count` translates remaining
      count(tree_remaining[t]);
      key(tree_canceled[t]);
      key(is_live);
      if (is_live) stamp(tree_progress[t]);
    }
    count(delivered_total);
    stamp(last_progress);
    key(fault.next);
    for (const std::int32_t dl : f.active_dlinks) {
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
      std::int64_t* v = payload(r.slab);
      for (std::int32_t e = 0; e < r.size; ++e) elem(v[e], slope, advance);
    };
    for (std::size_t i = 0; i < static_cast<std::size_t>(num_vcs); ++i) {
      const std::size_t src = static_cast<std::size_t>(f.vc_src_state[i]);
      const bool reduce = f.vc_is_reduce[i] != 0;
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
      for (auto sid = static_cast<std::size_t>(f.child_base[s]);
           sid < static_cast<std::size_t>(f.child_base[s + 1]); ++sid) {
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
               4 * static_cast<std::size_t>(f.root_state[t]));
      }
    }
  }

  void snapshot() {
    sync_all(now - 1);
    if (reduce_slope.empty()) {
      // A reduce stream carries its sender's subtree sum, whose value
      // grows by (subtree size) * kElemStride per element.
      reduce_slope.assign(num_states, kElemStride);
      std::vector<std::int32_t> parent(num_states, -1);
      for (std::size_t i = 0; i < static_cast<std::size_t>(num_vcs); ++i) {
        if (f.vc_is_reduce[i]) {
          parent[static_cast<std::size_t>(f.vc_src_state[i])] =
              f.vc_dst_state[i];
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
  }

  // True iff the state is the snapshot's advanced by exactly one period:
  // the same control state, and every in-flight element moved by its
  // stream's slope times the elements that stream advanced. Fills `delta`
  // with every count and element's per-period change.
  bool verify() {
    sync_all(now - 1);
    std::size_t kp = 0, vp = 0;
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
  }

  // The certificate of the period just verified, read from `delta` (state
  // s owns 4s..4s+3, tree t owns 4 * num_states + t, then delivered_total,
  // then one link_flits count per active link). Empty unless no tree was
  // canceled, every engine of a tree advanced by the same element count
  // e_t, the tree's owed deliveries fell by e_t at each of the n nodes,
  // some tree moved, and the period can repeat at least once more
  // (docs/simulation_engine.md, "A verified period answers other vector
  // sizes").
  std::optional<PeriodCertificate> certify_period() const {
    const std::size_t nn = static_cast<std::size_t>(n);
    PeriodCertificate out;
    out.period = period;
    out.verify_cycle = now;
    out.elements_per_period.assign(ntrees, 0);
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
      out.elements_per_period[t] = e;
    }
    if (left == LLONG_MAX || left < 1) return std::nullopt;
    out.periods_left = left;
    const std::size_t links = 4 * num_states + ntrees + 1;
    for (std::size_t j = 0; j < f.active_dlinks.size(); ++j) {
      out.flits_per_period += delta[links + j];
    }
    return out;
  }

  // Whole periods the verified one may be repeated in closed form: the
  // jump stops at least one period before any engine's injection end, any
  // tree's last delivery, the next fault event and the max_cycles deadline.
  long long periods_to_skip() const {
    long long k = (config.max_cycles - now) / period - 1;
    if (faults_active && fault.next < fault.events.size()) {
      k = std::min(k, (fault.events[fault.next].cycle - now) / period - 1);
    }
    for (std::size_t s = 0; s < num_states; ++s) {
      const long long d = delta[4 * s];
      if (d > 0) k = std::min(k, (eng_target[s] - 1 - eng_injected[s]) / d - 1);
    }
    for (std::size_t t = 0; t < ntrees; ++t) {
      const long long d = -delta[4 * num_states + t];
      if (d > 0) k = std::min(k, (tree_remaining[t] - 1) / d - 1);
    }
    return k;
  }

  // Advances k periods: absolute times by k * period, counters and
  // in-flight values by k times their per-period delta, and the wheel's
  // buckets along with `now`. Tokens (synced by verify), round-robin
  // pointers and maxima are periodic and stay as they are; every link is
  // marked.
  void jump(long long k) {
    const long long shift = k * period;
    std::size_t i = 0;
    const auto translate = [&](auto& x) { x += k * delta[i++]; };
    walk([](auto) {}, [&](long long& t) { t += shift; }, translate,
         [&](std::int64_t& x, std::int64_t, std::size_t) { translate(x); });
    const std::uint32_t turn = static_cast<std::uint32_t>(shift) & wmask;
    std::rotate(wheel.begin(),
                wheel.begin() + ((wheel_size - turn) & wmask), wheel.end());
    now += shift;
    for (const std::int32_t dl : f.active_dlinks) {
      synced[static_cast<std::size_t>(dl)] = now - 1;
      mark(dl);
    }
  }

  // Find: asks the finder for a candidate period and, given one, snapshots
  // the state to confirm it a period later.
  void find_period() {
    period = finder.candidate();
    if (period == 0) {
      next_try = now + kSteadyProbeEvery;
      return;
    }
    snapshot();
    verify_at = next_try = now + period;
    PFAR_OBS(start_tape(now));
  }

  // Confirms the candidate and jumps (returns true), or backs off.
  bool confirm_period() {
    const bool hit = now == verify_at && result.values_correct && verify();
    verify_at = -1;
    if (hit && cert != nullptr && !cert->has_value()) *cert = certify_period();
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
  }

  // --- The run's inputs; it writes the result, the owed deliveries and
  // the fault state.
  const Fabric& f;
  const SimConfig& config;
  SimResult& result;
  std::vector<long long>& tree_remaining;
  FaultState& fault;
  const std::vector<long long>& bg_rates_ppm;  // empty: quiet network
  SimObserver* const obs;
  std::optional<PeriodCertificate>* const cert;

  const int n = f.n;
  const std::size_t ntrees = static_cast<std::size_t>(f.num_trees);
  const int num_vcs = f.num_vcs();
  const std::size_t num_states = static_cast<std::size_t>(n) * ntrees;
  const int header = config.packet_header_flits;
  const long long token_cap = config.packet_payload + header;
  const int latency = config.link_latency;
  const std::size_t stride =  // slab size
      static_cast<std::size_t>(config.packet_payload);
  const long long timeout = config.progress_timeout;
  const bool bg_active = !bg_rates_ppm.empty();
  const bool faults_active = !fault.events.empty();
  const bool steady_ok = !bg_active;
  // Operands and expected results (the sum over all nodes) are linear in
  // the element index, so each engine keeps its next value and bumps it by
  // a constant per element: kElemStride for operands, exp_slope for sums.
  const std::int64_t exp_slope = static_cast<std::int64_t>(n) * kElemStride;
  // Power-of-two ring capacities and their index masks.
  const std::uint32_t pcap =
      std::bit_ceil(static_cast<std::uint32_t>(config.vc_credits));
  const std::uint32_t pmask = pcap - 1;
  const std::uint32_t fcap =
      std::bit_ceil(static_cast<std::uint32_t>(config.fork_buffer));
  const std::uint32_t fmask = fcap - 1;
  const std::uint32_t wheel_size =
      std::bit_ceil(static_cast<std::uint32_t>(latency) + 1u);
  const std::uint32_t wmask = wheel_size - 1;

  // --- Counters. total_target is the run's own copy: canceling a tree
  // takes its undelivered remainder off.
  long long total_target;
  long long delivered_total = 0;
  long long now = 0;
  long long last_progress = 0;
  long long pending_events = 0;  // entries on the wheel
  // Whether this cycle changed any state besides what sync() replays
  // lazily (tokens, background accumulation); cleared at each cycle top.
  bool progressed = false;

  // --- Per directed link: round-robin pointer, token bucket, background
  // accumulator (bg_active only), and the cycle sync() has reached.
  std::vector<int> rr;
  std::vector<long long> tokens, bg_acc, synced;
  // Links that may grant, the only ones step 4 visits. Every event that
  // can make a VC grantable (a credit landing on an empty VC, a reduce
  // engine's last missing input, a fork-stage push, a fault event, a
  // steady-period jump) marks its link; a visit that finds nothing
  // grantable with tokens in hand, or the link down, clears the bit.
  std::vector<std::uint64_t> work;

  std::vector<std::int64_t> arena;  // the slab arena
  std::vector<std::int32_t> free_slabs;
  std::int32_t num_slabs = 0;

  // --- Per-VC rings. The receive buffer and the in-flight pipeline share
  // one FIFO ring: entries [0, ready) have landed (the reference loop's
  // `recv`), entries [ready, total) are on the wire until ring_time. Both
  // together never exceed vc_credits (a credit returns only after the
  // pop), so neither this ring nor the credit-return ring overflows.
  std::vector<long long> ring_time, credit_time;
  std::vector<Ref> ring_ref;
  std::vector<std::uint32_t> rhead, rtotal, rready, chead, ccount;
  std::vector<std::int32_t> credits;
  // A lost packet left a sequence gap in the stream, so the VC stops
  // presenting data.
  std::vector<char> vc_poisoned;
  std::vector<long long> last_wake;  // the cycle of its last wheel entry

  // --- Per tree: cancel/progress tracking and the root turnaround ring.
  std::vector<char> tree_canceled;
  std::vector<long long> tree_progress;
  std::vector<Ref> root_ring;
  std::vector<std::uint32_t> rq_head, rq_count;

  // --- Per (node, tree) engine: elements injected and delivered (the
  // latter for a canceled tree's complete prefix), the number of children
  // whose next reduce input has not landed (0 = inputs ready), the
  // element target, and the next operand and expected value. Per child
  // slot: one fork-stage ring.
  std::vector<long long> eng_injected, eng_delivered;
  std::vector<std::int32_t> eng_waiting;
  std::vector<long long> eng_target;
  std::vector<std::int64_t> inj_next, exp_next;
  std::vector<Ref> fork_ring;
  std::vector<std::uint32_t> fhead, fcount;
  // Active broadcast engines: (node, tree) pairs that an event may have
  // unblocked since they last ran.
  std::vector<char> bcast_active;
  std::vector<std::int32_t> bcast_list, bcast_current;

  // Event wheel: every landing and credit return is due at now + latency,
  // so wake-ups live in (now, now + latency] and indexing by time & wmask
  // is collision-free. A cycle schedules into one bucket (`sched_bucket`,
  // re-aimed at each cycle top); last_wake keeps one entry per (VC, cycle).
  std::vector<std::vector<std::int32_t>> wheel;
  std::vector<std::int32_t>* sched_bucket = nullptr;

  // --- Steady-period state.
  PeriodFinder finder;
  std::uint64_t cycle_sig = 0;  // this cycle's grants, rolled
  int period = 0;               // the candidate under verification
  long long verify_at = -1;     // its confirming cycle top; -1 = none
  long long next_try = 0;       // earliest cycle top for the next step
  long long backoff = kSteadyMinBackoff;
  std::vector<long long> snap_key, snap_val, delta;
  std::vector<std::int64_t> reduce_slope;  // per state, on first snapshot
};

}  // namespace

long long run_fast_loop(const Fabric& f, RunContext& run,
                        std::optional<PeriodCertificate>* cert) {
  return CycleLoop(f, run, cert).run();
}

}  // namespace pfar::simnet::detail
