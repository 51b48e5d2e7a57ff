#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pfar::obsv {
struct Recorder;
}

namespace pfar::simnet {

/// Which execution engine drives the simulation (docs/simulation_engine.md,
/// "The engine tiers"). The fast-forward engine is the cycle-accurate
/// default; the differential tests hold it bit-identical to a test-only
/// reference loop (tests/oracle). The flow tier trades cycle accuracy for
/// two-orders-of-magnitude scale.
enum class SimEngine {
  /// Event-horizon engine: arrivals/credits land via a time-indexed wheel,
  /// broadcast engines run off active lists, link arbitration visits only
  /// links an event marked as possibly grantable (token buckets and
  /// background drains catch up lazily per link, in closed form), hot
  /// state lives in flat structure-of-arrays form, and provably idle cycle
  /// ranges are skipped in one jump. On a quiet network, a control state
  /// that repeats every P cycles is also skipped: whole periods advance in
  /// closed form.
  kFastForward,
  /// Flow-level fluid tier: per-tree max-min fair rates over the shared
  /// directed links, integrated through warmup (pipeline fill), measure
  /// (steady fluid timeline with trees retiring and freeing bandwidth) and
  /// drain phases, in the spirit of booksim's warmup/measure/drain
  /// methodology. Not cycle-accurate: sim_bw is validated against the
  /// cycle tiers on small q within a pinned tolerance
  /// (tests/flow_engine_test.cpp) and is the only tier that reaches
  /// q >= 243 (N ~ 59k routers). Per-link flit totals are exact (the same
  /// packets cross the same tree links); values_correct is vacuously true
  /// (no payloads are simulated); fault scripts are rejected.
  kFlow,
};

/// Canonical CLI/JSON names: "horizon" (kFastForward) and "flow".
const char* to_string(SimEngine engine);
/// Parses the to_string names; throws std::invalid_argument on anything
/// else.
SimEngine engine_from_string(const std::string& name);

/// Synthetic traffic patterns shared by the general-purpose router
/// simulator (TrafficSimulator) and the allreduce engines' background
/// traffic (BackgroundTraffic below). Lives here so SimConfig can name a
/// pattern without dragging in the packet simulator.
enum class TrafficPattern {
  kUniform,      // destination uniform over all other nodes
  kPermutation,  // fixed random permutation (seeded), each node one target
  kHotspot,      // a fraction of traffic targets one node, rest uniform
};

/// Deterministic background packet traffic the collective shares the
/// fabric with (ROADMAP open item 2 / docs/congestion_adaptation.md).
///
/// Instead of co-simulating a second packet world, the allreduce engines
/// drain link bandwidth at the *steady-state rate* the pattern would
/// impose on each directed link under deterministic minimal routing (the
/// same per-destination BFS next-hop choice TrafficSimulator uses). Rates
/// are exact rationals in parts-per-million of a flit per cycle, so the
/// cycle engine and its test oracle replay bit-identical drain
/// sequences. `load == 0` (the default) compiles down to the quiet
/// network: no background code path executes at all, which the zero-load
/// differential tests pin against the pre-background goldens.
struct BackgroundTraffic {
  TrafficPattern pattern = TrafficPattern::kUniform;
  /// Offered load per node in flits/cycle as a fraction of one link's
  /// bandwidth, in [0, 1). 0 disables background traffic entirely.
  double load = 0.0;
  /// Background packet length in flits (drains are packet-granular).
  /// Constant, like the hotspot target below: no program varies them.
  static constexpr int packet_flits = 4;
  /// Target of the concentrated fraction under kHotspot.
  static constexpr int hotspot_node = 0;
  /// Fraction of traffic aimed at hotspot_node under kHotspot.
  static constexpr double hotspot_fraction = 0.2;
  /// Seed of the permutation pattern (same construction as
  /// TrafficConfig::seed).
  std::uint64_t seed = 1;

  bool active() const { return load > 0.0; }
};

/// What a scripted fault does to a physical link.
enum class FaultType {
  kLinkDown,  // both directions of the link stop moving flits
  kLinkUp,    // the link resumes service
};

/// One scheduled fault event, applied at the top of `cycle` before any
/// arrival, engine or arbitration step of that cycle runs. `u`/`v` name
/// the endpoints of a physical link of the simulated topology.
struct FaultEvent {
  long long cycle = 0;
  int u = 0;
  int v = 0;
  FaultType type = FaultType::kLinkDown;
};

/// Deterministic fault-injection script for the Allreduce simulator.
///
/// Semantics (identical in the engine and the test oracle, see
/// docs/resilience.md):
///  * `kLinkDown` kills both directed halves of the link. Packets and
///    credits in flight on the link at that cycle are lost; lost packets
///    are counted in SimResult::dropped_* and the sender's credits are
///    reclaimed immediately, so credit conservation holds through the
///    failure. A loss leaves a sequence gap, so the receiving VC is
///    poisoned: it stops presenting data and its tree can only finish via
///    recovery. A down link moves no flits until a matching `kLinkUp`.
///  * `kLinkUp` restores the link. Traffic that merely stalled (nothing
///    was in flight at the down instant) resumes loss-free.
struct FaultScript {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }
};

/// Parameters of the cycle-level router/link model (Section 4.4) for one
/// Allreduce: a reduction up every tree pipelined into a broadcast down it
/// (Section 4.3). The defaults model a PIUMA/SHARP-like device: pipelined
/// reduction engines able to sustain link rate, credit-based flow control,
/// and one virtual channel per (tree, direction) crossing a link — the
/// per-tree state the paper's Section 5.1 discusses. Every directed link
/// moves one flit (one element) per cycle: the uniform bandwidth B that
/// Algorithm 1 takes as its unit.
struct SimConfig {
  /// Wire/pipeline latency of a link in cycles.
  int link_latency = 4;
  /// Receiver buffer slots (packets) per virtual channel. Must cover the
  /// credit round trip (2 * link_latency / packet duration) to sustain
  /// full rate.
  int vc_credits = 16;
  /// Per-child staging slots (packets) used when a broadcast packet forks
  /// to several children inside a router.
  int fork_buffer = 4;
  /// Vector elements carried per packet. Streams are chunked into packets
  /// of this size (plus a final partial packet).
  int packet_payload = 1;
  /// Header/control flits prepended to each packet; models protocol
  /// overhead: link efficiency = payload / (payload + header).
  int packet_header_flits = 0;
  /// Which engine to use: the cycle-accurate fast-forward engine or the
  /// approximate flow tier (see SimEngine).
  SimEngine engine = SimEngine::kFastForward;
  /// Ignored: every cycle-level run is one serial loop. Kept only because
  /// the frozen benchmark driver (perfbench/main.cpp) assigns it.
  int shard_threads = 1;
  /// Safety valve: abort if the collective has not completed by this cycle.
  long long max_cycles = 500'000'000;
  /// Cycles without any flit movement before declaring deadlock.
  long long stall_limit = 100'000;
  /// Scheduled faults (empty = healthy network, the default).
  FaultScript faults;
  /// Background packet traffic the collective contends with (quiet
  /// network by default). Honored exactly by the cycle engine; the flow
  /// tier approximates it by reducing per-link capacity.
  BackgroundTraffic background;
  /// Per-tree loss detection: if > 0, a tree that delivers nothing for
  /// this many cycles while work remains is declared failed and canceled —
  /// its undelivered suffix is retracted so the surviving trees finish and
  /// the caller (collectives::run_resilient_allreduce) can replay the lost
  /// chunks on a degraded plan. Must stay below stall_limit so per-tree
  /// detection fires before the global deadlock check. 0 disables
  /// detection: an unrecovered loss then ends in the deadlock exception.
  long long progress_timeout = 0;
  /// Observability sink (see src/obsv, docs/observability.md). Null (the
  /// default) records nothing; attaching a Recorder never perturbs the
  /// simulation — the determinism goldens pin this. In a PFAR_TRACE=off
  /// build the field is ignored entirely.
  obsv::Recorder* recorder = nullptr;
};

}  // namespace pfar::simnet
