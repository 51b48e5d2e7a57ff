// Internal to simnet: the pieces of a cycle-accurate run that live outside
// the cycle loop — operand/expected values, the fault state, the
// observability hooks and the run prologue/epilogue — and the declarations
// the product engine's files share (the fabric and the loop;
// docs/simulation_engine.md, "Source layout"). The product engine and the
// test-only reference oracle (tests/oracle) both run on the former, so the
// two differ only in their fabric and loop.
// Not installed API: nothing outside simnet and tests/oracle includes it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "obsv/recorder.hpp"
#include "simnet/allreduce_sim.hpp"
#include "simnet/config.hpp"

namespace pfar::simnet::detail {

// Deterministic per-operand values so every result is checkable exactly:
// node v's operand for element k of tree t.
constexpr std::int64_t kNodeStride = 1000003;
constexpr std::int64_t kTreeStride = 7919;
constexpr std::int64_t kElemStride = 31;

inline std::int64_t local_value(int node, int tree, long long k) {
  return static_cast<std::int64_t>(node + 1) * kNodeStride +
         static_cast<std::int64_t>(tree) * kTreeStride +
         static_cast<std::int64_t>(k) * kElemStride;
}

inline std::int64_t sum_over_nodes(int num_nodes, int tree, long long k) {
  const std::int64_t n = num_nodes;
  return n * (n + 1) / 2 * kNodeStride +
         n * (static_cast<std::int64_t>(tree) * kTreeStride +
              static_cast<std::int64_t>(k) * kElemStride);
}

// ---------------------------------------------------------------------------
// Fault injection. One FaultState instance drives a single run; the engine
// and the oracle consume it through the same entry points in the same
// per-cycle order, so a given script is honored bit-identically (the
// differential fault tests pin this). See docs/resilience.md for the model.
// ---------------------------------------------------------------------------

// A FaultEvent resolved against the topology: undirected edge id + kind.
struct PreparedFault {
  long long cycle = 0;
  int edge = 0;
  bool down = true;
};

struct FaultState {
  std::vector<PreparedFault> events;  // stable-sorted by cycle
  std::size_t next = 0;
  std::vector<char> edge_down;        // per undirected edge id

  bool edge_ok(int dlink) const {
    return edge_down[static_cast<std::size_t>(dlink >> 1)] == 0;
  }
};

FaultState prepare_faults(const graph::Graph& topology,
                          const FaultScript& script);

// ---------------------------------------------------------------------------
// Observability (PFAR_TRACE, see src/obsv and docs/observability.md). One
// SimObserver drives a single run when SimConfig::recorder is attached;
// the engine and the oracle call the same hooks at the same per-cycle
// points, so the virtual-time trace a run emits is a pure function of the
// (deterministic) simulation. The observer only reads simulation state —
// attaching it can never perturb results, which the determinism goldens
// pin under PFAR_TRACE=on. With PFAR_TRACE=off every hook call site is
// compiled out (obs is a constant nullptr).
//
// Trace vocabulary: per-directed-link "busy" complete-events (maximal runs
// of consecutive cycles with at least one grant, emitted at finalize in
// (last cycle, dlink) order, so the trace does not depend on when a loop
// reports a link's background drains), per-tree "reduce" /
// "broadcast" phase spans, and instant events on the sim track for fault
// down/up and tree cancellation. Metrics vocabulary: see the catalog in
// docs/observability.md; the drop/cancel counters and per-link queue high
// waters are read from the run's SimResult at finalize, so they cannot
// disagree with it.
// ---------------------------------------------------------------------------
struct SimObserver {
  obsv::Recorder* rec = nullptr;
  const graph::Graph* topo = nullptr;
  int num_trees = 0;
  int num_dlinks = 0;

  std::vector<long long> busy_start;   // open busy span start, -1 if none
  std::vector<long long> busy_last;    // last cycle with a grant, -1 if none
  std::vector<long long> busy_total;   // accumulated busy cycles per dlink
  struct BusySpan {
    long long last;
    int dlink;
    long long start;
  };
  std::vector<BusySpan> busy_spans;    // closed, emitted by finalize
  std::vector<long long> reduce_first; // first reduce packet per tree
  std::vector<long long> reduce_done;  // root consumed its last element
  long long credit_stalls = 0;
  long long skipped_cycles = 0;  // cycles the steady-period jump skipped
  long long fault_events = 0;

  std::uint32_t n_busy = 0, n_reduce = 0, n_bcast = 0;
  std::uint32_t n_fault_down = 0, n_fault_up = 0, n_canceled = 0;

  // The steady-period tape: while the loop verifies a candidate period it
  // records that period's grants (cycle, dlink) and stall count, and a
  // confirmed jump replays them once per skipped period.
  bool taping = false;
  long long tape_start = 0;
  long long tape_stalls = 0;
  std::vector<std::pair<long long, int>> tape;

  void init(obsv::Recorder* recorder, const graph::Graph& topology,
            int trees) {
    rec = recorder;
    topo = &topology;
    num_trees = trees;
    num_dlinks = 2 * topology.num_edges();
    busy_start.assign(static_cast<std::size_t>(num_dlinks), -1);
    busy_last.assign(static_cast<std::size_t>(num_dlinks), -1);
    busy_total.assign(static_cast<std::size_t>(num_dlinks), 0);
    reduce_first.assign(static_cast<std::size_t>(num_trees), -1);
    reduce_done.assign(static_cast<std::size_t>(num_trees), -1);
    n_busy = rec->trace.intern("busy");
    n_reduce = rec->trace.intern("reduce");
    n_bcast = rec->trace.intern("broadcast");
    n_fault_down = rec->trace.intern("link_down");
    n_fault_up = rec->trace.intern("link_up");
    n_canceled = rec->trace.intern("tree_canceled");
  }

  // "u->v" of a directed link (dlink 2e runs low->high endpoint).
  std::string dlink_name(int dlink) const {
    const graph::Edge e = topo->edges()[static_cast<std::size_t>(dlink / 2)];
    const int src = (dlink & 1) != 0 ? e.v : e.u;
    const int dst = (dlink & 1) != 0 ? e.u : e.v;
    return std::to_string(src) + "->" + std::to_string(dst);
  }

  void close_busy_span(int dlink) {
    const std::size_t d = static_cast<std::size_t>(dlink);
    if (busy_start[d] < 0) return;
    busy_total[d] += busy_last[d] - busy_start[d] + 1;
    busy_spans.push_back({busy_last[d], dlink, busy_start[d]});
    busy_start[d] = -1;
  }

  void on_grant(int dlink, long long now) {
    const std::size_t d = static_cast<std::size_t>(dlink);
    if (busy_last[d] == now) return;  // several grants in one cycle
    if (taping) tape.emplace_back(now, dlink);
    if (busy_start[d] >= 0 && now != busy_last[d] + 1) close_busy_span(dlink);
    if (busy_start[d] < 0) busy_start[d] = now;
    busy_last[d] = now;
  }

  void start_tape(long long now) {
    taping = true;
    tape_start = now;
    tape_stalls = credit_stalls;
    tape.clear();
  }

  void stop_tape() { taping = false; }

  // The loop skipped k periods of `period` cycles starting at cycle `from`,
  // each a copy of the taped one: replay its grants in order, so busy
  // spans and their emission order are exactly the simulated ones, and
  // add its stalls k times.
  void skip_periods(long long from, long long period, long long k) {
    taping = false;
    for (long long j = 0; j < k; ++j) {
      const long long shift = from + j * period - tape_start;
      for (const auto& [cycle, dlink] : tape) on_grant(dlink, cycle + shift);
    }
    credit_stalls += k * (credit_stalls - tape_stalls);
    skipped_cycles += k * period;
  }

  // The `ready` argument lets call sites evaluate readiness lazily inside
  // the hook expansion (only when an observer is attached).
  void on_credit_stall_if(bool ready) {
    if (ready) ++credit_stalls;
  }

  void on_reduce_packet(int tree, bool root_done, long long now) {
    const std::size_t t = static_cast<std::size_t>(tree);
    if (reduce_first[t] < 0) reduce_first[t] = now;
    if (root_done) reduce_done[t] = now;
  }

  void on_fault(long long now, int edge, bool down) {
    ++fault_events;
    const graph::Edge e = topo->edges()[static_cast<std::size_t>(edge)];
    rec->trace.instant(now, down ? n_fault_down : n_fault_up,
                       obsv::kTrackSim, {"u", e.u}, {"v", e.v});
  }

  void on_cancel(int tree, long long now, long long completed) {
    rec->trace.instant(now, n_canceled, obsv::kTrackSim, {"tree", tree},
                       {"completed", completed});
  }

  // Emits the deferred spans, track names and the metrics snapshot. Called
  // once per run; when one Recorder spans several runs (the resilient
  // driver's attempts), counters accumulate and gauges keep their maxima.
  void finalize(long long cycles, const SimResult& result);
};

// Hook call site: one null test when PFAR_TRACE=on, nothing at all when
// off (the expansion still names `obs` so the parameter stays used).
#if PFAR_TRACE_LEVEL
#define PFAR_OBS(call)             \
  do {                             \
    if (obs != nullptr) obs->call; \
  } while (0)
#else
#define PFAR_OBS(call) static_cast<void>(obs)
#endif

/// AllreduceSimulator's constructor-time contract: config ranges, the
/// fault script, and what a SpanningTree cannot know about the topology:
/// each tree's vertex count and that each parent edge is a link. Throws
/// std::invalid_argument. Returns the trees' parent links
/// (trees::tree_links: entry t * n + v, -1 at the root), which the edge
/// check resolves.
std::vector<int> validate_simulation(
    const graph::Graph& topology,
    const std::vector<trees::SpanningTree>& trees, const SimConfig& config);

/// A fresh result for `num_trees` trees on `num_dlinks` directed links:
/// every per-tree vector and link_flits sized and zeroed (first-delivery
/// and fail cycles -1), values_correct true until a delivery disproves it.
/// The other per-link vectors stay empty: the cycle tier (RunContext)
/// sizes all three, the flow tier only link_bg_flits under background.
void reset_result(SimResult& result, int num_trees, int num_dlinks);

/// Totals a run's background accounting: background_flits/_packets from
/// link_bg_flits. With closed_form_cycles >= 0 every link's count is first
/// overwritten by the closed form over [0, closed_form_cycles): a link of
/// rate r drains floor(c * r / (packet_flits * 1e6)) whole packets in c
/// cycles, which telescopes exactly over the loops' per-cycle accumulator
/// (acc += r; drain acc / pkt_ppm packets), so it is exact when every link
/// served the whole run. -1 keeps the counts the loop kept per up-cycle.
void settle_background(SimResult& result,
                       const std::vector<long long>& rates_ppm,
                       long long closed_form_cycles);

/// One cycle-accurate run's bookkeeping outside the loop. The constructor
/// is the prologue: it checks the split, sizes the result and counts the
/// deliveries each tree owes (total_target == 0 means there is nothing to
/// simulate and `result` is final); only then does it resolve the fault
/// script, the background drain rates and the observer. finish() is the
/// epilogue. The caller builds its fabric into `result` and runs its loop
/// in between.
struct RunContext {
  RunContext(const graph::Graph& topology, const SimConfig& config,
             const std::vector<long long>& elements_per_tree);
  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  /// Stamps cycles and bandwidth, completes healthy trees, lists the links
  /// still down, settles background accounting and finalizes the observer.
  SimResult finish(long long cycles);

  const graph::Graph& topology;
  const SimConfig& config;
  const std::vector<long long>& elements_per_tree;
  SimResult result;
  std::vector<long long> tree_remaining;
  long long total_target = 0;
  FaultState fault;
  std::vector<long long> bg_rates;  // empty: quiet network
  SimObserver observer;
  SimObserver* obs = nullptr;  // &observer iff a Recorder is attached
};

// ---------------------------------------------------------------------------
// The product engine's pieces, one file each: the fabric builder
// (fabric.cpp) and the cycle loop (cycle_loop.cpp). AllreduceSimulator
// (allreduce_sim.cpp) wires them up.
// ---------------------------------------------------------------------------

// The VC fabric, in the flat form the cycle loop runs on. A VC is the
// unidirectional, per-tree, per-phase logical datapath on a physical link
// with its own receiver buffer and credits (Section 5.1's "VCs have
// disjoint resources"). State index s = tree * n + node names one (node,
// tree) reduction/broadcast engine. Build order fixes every id: trees
// ascending, then nodes ascending, each non-root node adding its reduce VC
// (node -> parent) before its broadcast VC (parent -> node); a node's
// child slots follow child id order and each link lists its VCs by id.
// Every VC's directed link comes from the simulator's resolved tree links
// (trees::tree_links). Nothing here changes during a run.
struct Fabric {
  int n = 0;
  int num_trees = 0;
  int num_dlinks = 0;
  std::vector<std::int32_t> root_state;  // per tree: the root's state

  // Per VC.
  std::vector<char> vc_is_reduce;
  std::vector<std::int32_t> vc_src_state;  // sending engine
  std::vector<std::int32_t> vc_dst_state;  // receiving engine
  std::vector<std::int32_t> vc_dlink;
  std::vector<std::int32_t> vc_stage;  // broadcast: sender's fork stage; -1

  // Per state, CSR over child slots: state s owns slots
  // [child_base[s], child_base[s + 1]), one broadcast fork stage each.
  std::vector<std::int32_t> child_base;
  std::vector<std::int32_t> child_vc;         // per slot: reduce VC
  std::vector<std::int32_t> parent_bcast_vc;  // per state: inbound; -1 at root

  // Per directed link, CSR over VC ids, plus the links carrying any VC.
  std::vector<std::int32_t> link_base;
  std::vector<std::int32_t> link_vc;
  std::vector<std::int32_t> active_dlinks;

  // Inverse maps the loop uses to mark a link that may grant: per state,
  // the link of its uplink reduce VC (-1 at the root), and per fork stage,
  // the link of its broadcast VC.
  std::vector<std::int32_t> up_dlink;
  std::vector<std::int32_t> stage_dlink;

  int num_vcs() const { return static_cast<int>(vc_dlink.size()); }
};

// `trees` and `links` are the run's trees and parent-link table (entry
// t * n + v).
Fabric build_fabric(const graph::Graph& topology,
                    const std::vector<trees::SpanningTree>& trees,
                    const std::vector<int>& links, SimResult& result);

/// Runs the fast-forward cycle loop of `run` over `f` until every tree has
/// delivered or been canceled and returns the exit cycle. Throws
/// std::runtime_error on deadlock or a max_cycles overrun. `cert`, when
/// given, receives the first certified steady period
/// (CycleLoop::certify_period in cycle_loop.cpp).
long long run_fast_loop(const Fabric& f, RunContext& run,
                        std::optional<PeriodCertificate>* cert);

}  // namespace pfar::simnet::detail
