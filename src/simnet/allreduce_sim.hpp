#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "simnet/config.hpp"
#include "trees/spanning_tree.hpp"

namespace pfar::simnet {

/// Outcome of one simulated multi-tree in-network Allreduce.
struct SimResult {
  /// Cycle at which the last node received the last broadcast element.
  long long cycles = 0;
  /// Completion cycle per tree (last broadcast delivery of that tree).
  std::vector<long long> tree_finish_cycle;
  /// Cycle of the first delivered element per tree — the pipeline-fill
  /// latency, proportional to tree depth (the paper's latency metric).
  std::vector<long long> tree_first_delivery;
  /// Total elements reduced across all trees (sum of the per-tree counts).
  long long total_elements = 0;
  /// total_elements / cycles, in elements per cycle — directly comparable
  /// with Algorithm 1's aggregate bandwidth in units of one link's flit per
  /// cycle.
  double aggregate_bandwidth = 0.0;
  /// True iff every delivered element matched the exact expected
  /// reduction value at every node (integer arithmetic, no tolerance).
  bool values_correct = false;
  /// Peak receiver-buffer occupancy observed over all VCs — must stay
  /// within SimConfig::vc_credits (flow-control safety).
  int max_vc_occupancy = 0;
  /// Number of virtual channels instantiated (per-tree-per-direction link
  /// state, the hardware cost Section 5.1 discusses).
  int num_vcs = 0;
  /// Highest number of VCs on any single directed link (worst-case per-link
  /// state requirement; 1 for edge-disjoint trees).
  int max_vcs_per_link = 0;
  /// Highest number of distinct trees whose reduction consumes the same
  /// router input port. Lemma 7.8 implies this is 1 for the paper's
  /// low-depth trees: a single wide-radix arithmetic engine per router
  /// suffices.
  int max_reductions_per_input_port = 0;
  /// Flits moved per directed link (utilization diagnostics), including
  /// packet header flits.
  std::vector<long long> link_flits;
  /// Peak receiver-buffer occupancy (packets) per directed link — the max
  /// over the link's VCs of their buffer high-water marks. Maintained by
  /// the cycle engine unconditionally (empty on the flow tier, which has
  /// no buffers), so the congestion controller can read queue pressure
  /// without tracing.
  std::vector<long long> link_queue_hwm;

  // --- Background traffic accounting (all zero on a quiet network) --------

  /// Background flits drained per directed link while the collective ran
  /// (SimConfig::background). For fault-free runs this is the closed-form
  /// steady-state count over [0, cycles); with faults it counts only the
  /// cycles each link was up. Empty on a quiet flow-tier run.
  std::vector<long long> link_bg_flits;
  /// Totals of the above.
  long long background_packets = 0;
  long long background_flits = 0;

  // --- Fault / recovery observability (all zero on a healthy run) ---------

  /// Per tree: 1 iff the tree was declared failed by the per-tree progress
  /// timeout and canceled mid-collective.
  std::vector<char> tree_failed;
  /// Per tree: cycle at which the failure was detected, -1 if healthy.
  std::vector<long long> tree_fail_cycle;
  /// Per tree: the complete element prefix — elements delivered at every
  /// node. For healthy trees this equals the tree's element count; for
  /// failed trees it is the high-water mark recovery must replay beyond.
  std::vector<long long> tree_completed;
  /// Packets lost on the wire (in flight at a link_down) and their flits
  /// (payload + header), total and per directed link. These flits appear
  /// in link_flits (they did cross the link) but were never delivered.
  /// link_dropped_flits is empty on the flow tier, which rejects fault
  /// scripts.
  long long dropped_packets = 0;
  long long dropped_flits = 0;
  std::vector<long long> link_dropped_flits;
  /// Packets retracted when a failed tree was canceled (receiver buffers,
  /// fork stages, root queues and in-flight pipelines drained), and their
  /// flits. Together with dropped_*, every non-delivered packet is
  /// accounted — nothing vanishes silently.
  long long canceled_packets = 0;
  long long canceled_flits = 0;
  /// Links still down when the run ended (the set recovery must replan
  /// around), as topology edges.
  std::vector<graph::Edge> links_down;
};

/// A steady period the cycle engine verified on a quiet, fault-free run,
/// exported beside its SimResult: from cycle `verify_cycle` on, the run's
/// control state repeats every `period` cycles while tree t takes in
/// `elements_per_period[t]` elements and the links carry
/// `flits_per_period` flits. Every engine of a tree advanced by the same
/// count and could still repeat the period `periods_left` more times
/// before any injection end or last delivery. A run whose split differs
/// from this one's by k whole periods in every tree, with periods_left +
/// k >= 1, takes exactly k * period more cycles and k * flits_per_period
/// more flits (docs/simulation_engine.md, "A verified period answers other
/// vector sizes").
struct PeriodCertificate {
  long long period = 0;
  long long verify_cycle = 0;
  std::vector<long long> elements_per_period;  // per tree
  long long flits_per_period = 0;
  long long periods_left = 0;
};

/// Partition of `trees` into link-disjoint groups: trees sharing any
/// physical edge always land in the same group (union-find over edge
/// ownership), so two groups never place a VC on the same directed link and
/// exchange no packets, credits or arbitration grants. Groups are returned
/// in order of their lowest tree index; every tree appears exactly once.
/// This is the allocation unit of the multi-tenant service scheduler
/// (service::AllreduceService): runs on different groups are independent,
/// so their virtual timelines compose exactly. Throws
/// std::invalid_argument when a tree edge is not a link of `topology`
/// (trees::tree_links).
std::vector<std::vector<int>> link_disjoint_tree_groups(
    const graph::Graph& topology,
    const std::vector<trees::SpanningTree>& trees);

/// Cycle-accurate simulator of pipelined in-network Allreduce over a set
/// of concurrently active spanning trees sharing physical links. Each tree
/// edge must be a physical link; reduction traffic flows child -> parent,
/// broadcast traffic parent -> child (Section 4.3).
///
/// Model (Sections 4.4 / 5.1):
///  * every node contributes one operand per element per tree and receives
///    every broadcast element (global vector Allreduce, data-parallel over
///    trees);
///  * each router has a per-tree reduction engine: when one operand from
///    each child and the local operand are available, it emits their sum
///    toward the parent (streaming aggregation at link rate);
///  * the root turns the final sums around into a broadcast that forks to
///    all children and is delivered locally at every hop;
///  * each directed physical link moves one flit per cycle, shared
///    round-robin between the VCs of all trees crossing it — congested
///    links divide bandwidth exactly as the paper's congestion model
///    assumes;
///  * every VC has a private receiver buffer governed by credits, so
///    backpressure propagates hop-by-hop and no buffer ever overflows.
///
/// Values are int64 and the expected reductions are checked exactly.
///
/// The simulator borrows its topology and its trees: both must outlive it.
/// A SpanningTree is a valid rooted tree by construction, so the
/// constructor checks only what the tree cannot know: that it spans
/// exactly the topology's vertices and that each parent edge is a link
/// (docs/simulation_engine.md, "Validation and the tree type").
class AllreduceSimulator {
 public:
  AllreduceSimulator(const graph::Graph& topology,
                     const std::vector<trees::SpanningTree>& trees,
                     SimConfig config);
  // A temporary tree vector would dangle.
  AllreduceSimulator(const graph::Graph& topology,
                     std::vector<trees::SpanningTree>&& trees,
                     SimConfig config) = delete;

  /// Runs one Allreduce with `elements_per_tree[t]` vector elements
  /// assigned to tree t (the m_i of Theorem 5.1). Throws on deadlock or
  /// cycle-limit overrun. When `period` is given, it receives the run's
  /// first certified steady period, or stays empty: always on the flow
  /// tier, under background traffic or a fault script, and on runs too
  /// short to settle.
  SimResult run(const std::vector<long long>& elements_per_tree,
                std::optional<PeriodCertificate>* period = nullptr);

 private:
  const graph::Graph& topology_;
  const std::vector<trees::SpanningTree>& trees_;
  SimConfig config_;
  // Tree t's parent-edge link ids (trees::tree_links), resolved once by
  // the constructor's validation: entry t * n + v, -1 at the root.
  std::vector<int> links_;
};

}  // namespace pfar::simnet
