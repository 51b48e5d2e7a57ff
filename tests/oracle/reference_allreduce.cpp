#include "oracle/reference_allreduce.hpp"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <deque>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "simnet/sim_internal.hpp"
#include "util/contracts.hpp"

namespace pfar::oracle {
namespace {

using namespace simnet;
using namespace simnet::detail;

enum class Phase { kReduce, kBcast };

// A packet: a contiguous chunk of one tree's element stream.
using Packet = std::vector<std::int64_t>;

// One virtual channel: the unidirectional, per-tree, per-phase logical
// datapath on a physical link, with its own receiver buffer and credits
// (Section 5.1's "VCs have disjoint resources").
struct VcState {
  int tree = -1;
  Phase phase = Phase::kReduce;
  int src = -1;
  int dst = -1;
  int dlink = -1;
  int fork_index = -1;  // bcast only: child slot at src feeding this VC

  std::deque<Packet> recv;  // receiver buffer, <= credits cap packets
  int credits = 0;
  std::deque<std::pair<long long, Packet>> data_inflight;
  std::deque<long long> credit_inflight;
  // A packet destined for this VC was lost, so its stream has a sequence
  // gap: the VC stops presenting data (consuming past the gap would feed
  // wrong operands into a reduction). Cleared only by tree cancellation.
  bool poisoned = false;
};

// Per-(router, tree) state: reduction engine inputs/outputs and the
// broadcast fork stage.
struct NodeTreeState {
  int parent = -1;
  std::vector<int> children;
  std::vector<int> child_reduce_vc;
  int parent_reduce_vc = -1;
  int parent_bcast_vc = -1;
  std::vector<int> child_bcast_vc;
  std::vector<std::deque<Packet>> fork_stage;
  std::deque<Packet> root_queue;  // root only: reduce -> bcast turnaround
  long long injected = 0;   // local elements consumed by the engine
  long long delivered = 0;  // elements delivered locally
};

// The struct-of-deques VC fabric and per-(node, tree) engine state the
// reference loop runs on, plus the tree roots. Built independently of the
// product's flat fabric, so the differential checks that builder too.
struct Fabric {
  int n = 0;
  int num_trees = 0;
  int num_dlinks = 0;
  std::vector<int> roots;
  std::vector<VcState> vcs;
  std::vector<std::vector<int>> link_vcs;
  std::vector<NodeTreeState> state;

  NodeTreeState& st(int node, int tree) {
    return state[static_cast<std::size_t>(tree) * static_cast<std::size_t>(n) + static_cast<std::size_t>(node)];
  }
};

Fabric build_fabric(const graph::Graph& topology,
                    const std::vector<trees::SpanningTree>& trees,
                    const SimConfig& config, SimResult& result) {
  Fabric f;
  f.n = topology.num_vertices();
  f.num_trees = static_cast<int>(trees.size());
  f.num_dlinks = 2 * topology.num_edges();
  f.roots.resize(static_cast<std::size_t>(f.num_trees));
  f.link_vcs.resize(static_cast<std::size_t>(f.num_dlinks));
  f.state.resize(static_cast<std::size_t>(f.n) * static_cast<std::size_t>(f.num_trees));

  const auto dlink_of = [&](int src, int dst) {
    const int eid = topology.edge_id(src, dst);
    return 2 * eid + (src > dst ? 1 : 0);
  };
  const auto new_vc = [&](int tree, Phase phase, int src, int dst) {
    VcState vc;
    vc.tree = tree;
    vc.phase = phase;
    vc.src = src;
    vc.dst = dst;
    vc.dlink = dlink_of(src, dst);
    vc.credits = config.vc_credits;
    f.vcs.push_back(std::move(vc));
    const int id = static_cast<int>(f.vcs.size()) - 1;
    f.link_vcs[static_cast<std::size_t>(f.vcs[static_cast<std::size_t>(id)].dlink)].push_back(id);
    return id;
  };

  for (int t = 0; t < f.num_trees; ++t) {
    const auto& tree = trees[static_cast<std::size_t>(t)];
    f.roots[static_cast<std::size_t>(t)] = tree.root();
    for (int v = 0; v < f.n; ++v) {
      f.st(v, t).parent = tree.parent(v);
      if (tree.parent(v) >= 0) f.st(tree.parent(v), t).children.push_back(v);
    }
    for (int v = 0; v < f.n; ++v) {
      NodeTreeState& s = f.st(v, t);
      if (s.parent >= 0) {
        s.parent_reduce_vc = new_vc(t, Phase::kReduce, v, s.parent);
        s.parent_bcast_vc = new_vc(t, Phase::kBcast, s.parent, v);
      }
      s.fork_stage.resize(s.children.size());
      s.child_bcast_vc.assign(s.children.size(), -1);
      s.child_reduce_vc.assign(s.children.size(), -1);
    }
    for (int v = 0; v < f.n; ++v) {
      NodeTreeState& s = f.st(v, t);
      for (std::size_t c = 0; c < s.children.size(); ++c) {
        const int child = s.children[c];
        s.child_reduce_vc[c] = f.st(child, t).parent_reduce_vc;
        s.child_bcast_vc[c] = f.st(child, t).parent_bcast_vc;
        f.vcs[static_cast<std::size_t>(s.child_bcast_vc[c])].fork_index =
            static_cast<int>(c);
      }
    }
  }

  result.num_vcs = static_cast<int>(f.vcs.size());
  for (const auto& lv : f.link_vcs) {
    result.max_vcs_per_link =
        std::max(result.max_vcs_per_link, static_cast<int>(lv.size()));
  }
  // Lemma 7.8 accounting: distinct trees consuming each input port as a
  // reduction input.
  std::vector<int> reductions_per_port(static_cast<std::size_t>(f.num_dlinks), 0);
  for (const auto& vc : f.vcs) {
    if (vc.phase == Phase::kReduce) ++reductions_per_port[static_cast<std::size_t>(vc.dlink)];
  }
  for (int c : reductions_per_port) {
    result.max_reductions_per_input_port =
        std::max(result.max_reductions_per_input_port, c);
  }
  return f;
}


// ---------------------------------------------------------------------------
// The original cycle-by-cycle loop. Every VC is scanned for arrivals,
// every (node, tree) broadcast engine is visited and every link arbitrated
// on every cycle. Kept as first written, less the settings the product
// dropped, as the oracle the product's fast-forward loop is tested against.
// ---------------------------------------------------------------------------
long long run_reference_loop(Fabric& f, const SimConfig& config,
                             const std::vector<long long>& elements_per_tree,
                             SimResult& result,
                             std::vector<long long>& tree_remaining,
                             long long total_target, FaultState& fault,
                             const std::vector<long long>& bg_rates_ppm,
                             SimObserver* obs) {
  const int n = f.n;
  const int num_trees = f.num_trees;
  auto& vcs = f.vcs;
  const bool faults_active = !fault.events.empty();
  const long long timeout = config.progress_timeout;
  std::vector<char> tree_canceled(static_cast<std::size_t>(num_trees), 0);
  std::vector<long long> tree_progress(static_cast<std::size_t>(num_trees), 0);


  long long delivered_total = 0;
  long long now = 0;
  long long last_progress = 0;
  std::vector<int> rr(static_cast<std::size_t>(f.num_dlinks), 0);
  // Token-bucket link occupancy: `tokens` flit-slots accumulate at one per
  // cycle (bounded burst); a packet consumes payload + header flits and may
  // borrow, modeling multi-cycle packets.
  std::vector<long long> tokens(static_cast<std::size_t>(f.num_dlinks), 0);
  const int header = config.packet_header_flits;

  // Background traffic (SimConfig::background): per VC-carrying directed
  // link, a ppm accumulator gains bg_rates_ppm[dl] per serviced (up)
  // cycle; each time it crosses a packet boundary the link drains one
  // whole background packet's flits from its token bucket. Zero load =
  // empty rate vector = none of this code runs (the quiet-network goldens
  // pin bit-identity).
  const bool bg_active = !bg_rates_ppm.empty();
  const long long bg_pkt_flits = config.background.packet_flits;
  const long long bg_pkt_ppm = bg_pkt_flits * 1'000'000;
  std::vector<long long> bg_acc(
      bg_active ? static_cast<std::size_t>(f.num_dlinks) : 0, 0);

  const auto vc_ready = [&](const VcState& vc) -> bool {
    const NodeTreeState& s = f.st(vc.src, vc.tree);
    if (vc.phase == Phase::kReduce) {
      if (s.injected >= elements_per_tree[static_cast<std::size_t>(vc.tree)]) return false;
      for (int cvc : s.child_reduce_vc) {
        const VcState& child = vcs[static_cast<std::size_t>(cvc)];
        if (child.poisoned || child.recv.empty()) return false;
      }
      return true;
    }
    return !s.fork_stage[static_cast<std::size_t>(vc.fork_index)].empty();
  };

  // Returns a consumed packet's credit to the child VC's sender. Normally
  // the credit travels back over the link (landing after link_latency);
  // while the link is down it cannot, so it is restored immediately —
  // conservation must hold through an outage, and a later drop_edge on
  // this link must not double-restore it.
  const auto return_credit = [&](VcState& child) {
    if (faults_active && !fault.edge_ok(child.dlink)) {
      ++child.credits;
    } else {
      child.credit_inflight.push_back(now + config.link_latency);
    }
  };

  // Assembles the next reduction packet at node `src` for tree `tree`:
  // local chunk combined with one packet from each child. Chunk sizes are
  // aligned across children because every stream chunks the same way.
  const auto make_reduce_packet = [&](int src, int tree) -> Packet {
    NodeTreeState& s = f.st(src, tree);
    const long long remaining = elements_per_tree[static_cast<std::size_t>(tree)] - s.injected;
    long long size = std::min<long long>(config.packet_payload, remaining);
    for (int cvc : s.child_reduce_vc) {
      if (static_cast<long long>(vcs[static_cast<std::size_t>(cvc)].recv.front().size()) != size) {
        throw std::logic_error("reduce packet misalignment");
      }
    }
    Packet packet(static_cast<std::size_t>(size));
    for (long long i = 0; i < size; ++i) {
      packet[static_cast<std::size_t>(i)] = local_value(src, tree, s.injected + i);
    }
    s.injected += size;
    for (int cvc : s.child_reduce_vc) {
      const Packet& head = vcs[static_cast<std::size_t>(cvc)].recv.front();
      for (long long i = 0; i < size; ++i) packet[static_cast<std::size_t>(i)] += head[static_cast<std::size_t>(i)];
      vcs[static_cast<std::size_t>(cvc)].recv.pop_front();
      return_credit(vcs[static_cast<std::size_t>(cvc)]);
    }
    PFAR_OBS(on_reduce_packet(
        tree,
        src == f.roots[static_cast<std::size_t>(tree)] &&
            s.injected >= elements_per_tree[static_cast<std::size_t>(tree)],
        now));
    return packet;
  };

  const auto deliver = [&](int node, int tree, const Packet& packet) {
    NodeTreeState& s = f.st(node, tree);
    if (result.tree_first_delivery[static_cast<std::size_t>(tree)] < 0) {
      result.tree_first_delivery[static_cast<std::size_t>(tree)] = now;
    }
    for (std::int64_t value : packet) {
      if (value != sum_over_nodes(n, tree, s.delivered)) {
        result.values_correct = false;
      }
      ++s.delivered;
      ++delivered_total;
      if (--tree_remaining[static_cast<std::size_t>(tree)] == 0) result.tree_finish_cycle[static_cast<std::size_t>(tree)] = now;
    }
    last_progress = now;
    tree_progress[static_cast<std::size_t>(tree)] = now;
  };

  // Kills an edge: every packet in flight on either directed half is lost
  // (counted in dropped_*, the sender's credit reclaimed immediately, the
  // receiving VC poisoned) and every credit in flight is restored. Credit
  // conservation is checked across the event.
  const auto drop_edge = [&](int eid) {
    for (int d : {2 * eid, 2 * eid + 1}) {
      for (int id : f.link_vcs[static_cast<std::size_t>(d)]) {
        VcState& vc = vcs[static_cast<std::size_t>(id)];
        PFAR_ENSURE(vc.credits +
                            static_cast<int>(vc.credit_inflight.size() +
                                             vc.data_inflight.size() +
                                             vc.recv.size()) ==
                        config.vc_credits,
                    vc.tree, vc.src, vc.dst, vc.credits);
        for (const auto& [when, packet] : vc.data_inflight) {
          static_cast<void>(when);
          ++result.dropped_packets;
          const long long flits =
              static_cast<long long>(packet.size()) + header;
          result.dropped_flits += flits;
          result.link_dropped_flits[static_cast<std::size_t>(d)] += flits;
          ++vc.credits;
          vc.poisoned = true;
        }
        vc.data_inflight.clear();
        vc.credits += static_cast<int>(vc.credit_inflight.size());
        vc.credit_inflight.clear();
        PFAR_ENSURE(vc.credits + static_cast<int>(vc.recv.size()) ==
                        config.vc_credits,
                    vc.tree, vc.src, vc.dst, vc.credits, vc.recv.size());
      }
    }
  };

  // Declares tree t failed: record the detection cycle and the complete
  // element prefix, then retract every queued/in-flight packet of the tree
  // (counted in canceled_*) and reset its VCs to empty-with-full-credits so
  // the quiesce contracts still hold for the surviving run.
  const auto cancel_tree = [&](int t) {
    tree_canceled[static_cast<std::size_t>(t)] = 1;
    result.tree_failed[static_cast<std::size_t>(t)] = 1;
    result.tree_fail_cycle[static_cast<std::size_t>(t)] = now;
    result.tree_finish_cycle[static_cast<std::size_t>(t)] = -1;
    long long prefix = LLONG_MAX;
    for (int v = 0; v < n; ++v) prefix = std::min(prefix, f.st(v, t).delivered);
    result.tree_completed[static_cast<std::size_t>(t)] = prefix;
    PFAR_OBS(on_cancel(t, now, prefix));
    const auto retract = [&](const Packet& p) {
      ++result.canceled_packets;
      result.canceled_flits += static_cast<long long>(p.size()) + header;
    };
    for (auto& vc : vcs) {
      if (vc.tree != t) continue;
      for (const auto& p : vc.recv) retract(p);
      for (const auto& [when, p] : vc.data_inflight) {
        static_cast<void>(when);
        retract(p);
      }
      vc.recv.clear();
      vc.data_inflight.clear();
      vc.credit_inflight.clear();
      vc.credits = config.vc_credits;
      vc.poisoned = false;
    }
    for (int v = 0; v < n; ++v) {
      NodeTreeState& s = f.st(v, t);
      for (const auto& p : s.root_queue) retract(p);
      s.root_queue.clear();
      for (auto& stage : s.fork_stage) {
        for (const auto& p : stage) retract(p);
        stage.clear();
      }
    }
    total_target -= tree_remaining[static_cast<std::size_t>(t)];
    tree_remaining[static_cast<std::size_t>(t)] = 0;
    last_progress = now;
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

    // 0a. Scripted fault events scheduled for this cycle, before anything
    // else moves (a packet landing this very cycle is still in flight at
    // the down instant and is lost).
    if (faults_active) {
      while (fault.next < fault.events.size() &&
             fault.events[fault.next].cycle <= now) {
        const PreparedFault& ev = fault.events[fault.next++];
        if (ev.down) {
          if (!fault.edge_down[static_cast<std::size_t>(ev.edge)]) {
            fault.edge_down[static_cast<std::size_t>(ev.edge)] = 1;
            drop_edge(ev.edge);
          }
        } else {
          fault.edge_down[static_cast<std::size_t>(ev.edge)] = 0;
        }
        PFAR_OBS(on_fault(now, ev.edge, ev.down));
      }
    }

    // 0b. Per-tree loss detection: a tree with work remaining that has
    // delivered nothing for more than `progress_timeout` cycles is failed
    // and canceled so the surviving trees can quiesce.
    if (timeout > 0) {
      for (int t = 0; t < num_trees; ++t) {
        if (!tree_canceled[static_cast<std::size_t>(t)] &&
            tree_remaining[static_cast<std::size_t>(t)] > 0 &&
            now - tree_progress[static_cast<std::size_t>(t)] > timeout) {
          cancel_tree(t);
        }
      }
    }

    // 1. Arrivals: land in-flight packets and returned credits.
    for (auto& vc : vcs) {
      while (!vc.data_inflight.empty() &&
             vc.data_inflight.front().first <= now) {
        vc.recv.push_back(std::move(vc.data_inflight.front().second));
        vc.data_inflight.pop_front();
        result.max_vc_occupancy = std::max(
            result.max_vc_occupancy, static_cast<int>(vc.recv.size()));
        result.link_queue_hwm[static_cast<std::size_t>(vc.dlink)] =
            std::max(result.link_queue_hwm[static_cast<std::size_t>(vc.dlink)],
                     static_cast<long long>(vc.recv.size()));
        last_progress = now;
      }
      while (!vc.credit_inflight.empty() &&
             vc.credit_inflight.front() <= now) {
        vc.credit_inflight.pop_front();
        ++vc.credits;
      }
    }

    // 2. Root engines: one final sum per cycle materializes at the root,
    // into the turnaround queue.
    for (int t = 0; t < num_trees; ++t) {
      if (tree_canceled[static_cast<std::size_t>(t)]) continue;
      NodeTreeState& s = f.st(f.roots[static_cast<std::size_t>(t)], t);
      if (s.injected >= elements_per_tree[static_cast<std::size_t>(t)]) continue;
      if (static_cast<int>(s.root_queue.size()) >= config.vc_credits) continue;
      bool inputs_ready = true;
      for (int cvc : s.child_reduce_vc) {
        const VcState& child = vcs[static_cast<std::size_t>(cvc)];
        if (child.poisoned || child.recv.empty()) {
          inputs_ready = false;
          break;
        }
      }
      if (!inputs_ready) continue;
      s.root_queue.push_back(
          make_reduce_packet(f.roots[static_cast<std::size_t>(t)], t));
      last_progress = now;
    }

    // 3. Broadcast replication: parent VC (or root queue) -> all fork
    // stages + local delivery, one packet per engine per cycle. Fork-stage
    // room is required for all children, which bounds buffering and stays
    // deadlock-free.
    for (int t = 0; t < num_trees; ++t) {
      if (tree_canceled[static_cast<std::size_t>(t)]) continue;
      for (int v = 0; v < n; ++v) {
        NodeTreeState& s = f.st(v, t);
        const bool is_root = (v == f.roots[static_cast<std::size_t>(t)]);
        bool room = true;
        for (const auto& stage : s.fork_stage) {
          if (static_cast<int>(stage.size()) >= config.fork_buffer) {
            room = false;
            break;
          }
        }
        if (!room) continue;
        Packet packet;
        if (is_root) {
          if (s.root_queue.empty()) continue;
          packet = std::move(s.root_queue.front());
          s.root_queue.pop_front();
        } else {
          VcState& pvc = vcs[static_cast<std::size_t>(s.parent_bcast_vc)];
          if (pvc.poisoned || pvc.recv.empty()) continue;
          packet = std::move(pvc.recv.front());
          pvc.recv.pop_front();
          return_credit(pvc);
        }
        deliver(v, t, packet);
        const std::size_t forks = s.fork_stage.size();
        for (std::size_t c = 0; c + 1 < forks; ++c) {
          s.fork_stage[c].push_back(packet);
        }
        if (forks > 0) {
          s.fork_stage[forks - 1].push_back(std::move(packet));
        }
      }
    }

    // 4. Link arbitration: round-robin over each directed link's VCs,
    // consuming token-bucket flit slots (payload + header per packet).
    for (int dl = 0; dl < f.num_dlinks; ++dl) {
      const auto& ids = f.link_vcs[static_cast<std::size_t>(dl)];
      if (ids.empty()) continue;
      tokens[static_cast<std::size_t>(dl)] = std::min<long long>(
          tokens[static_cast<std::size_t>(dl)] + 1,
          config.packet_payload + header);
      // Tokens accumulate on a down link (the bucket models the physical
      // pipe, which recharges regardless), but nothing is granted on it.
      // The background accumulator also freezes: a down link carries no
      // background packets, and service resumes at the same phase.
      if (faults_active && !fault.edge_ok(dl)) continue;
      if (bg_active) {
        long long& acc = bg_acc[static_cast<std::size_t>(dl)];
        acc += bg_rates_ppm[static_cast<std::size_t>(dl)];
        if (acc >= bg_pkt_ppm) {
          const long long pkts = acc / bg_pkt_ppm;
          acc -= pkts * bg_pkt_ppm;
          tokens[static_cast<std::size_t>(dl)] -= pkts * bg_pkt_flits;
          result.link_bg_flits[static_cast<std::size_t>(dl)] +=
              pkts * bg_pkt_flits;
          PFAR_OBS(on_grant(dl, now));
        }
      }
      const int count = static_cast<int>(ids.size());
      const int base = rr[static_cast<std::size_t>(dl)];
      for (int probe = 0; probe < count && tokens[static_cast<std::size_t>(dl)] > 0; ++probe) {
        const int slot = (base + probe) % count;
        VcState& vc = vcs[static_cast<std::size_t>(ids[static_cast<std::size_t>(slot)])];
        if (tree_canceled[static_cast<std::size_t>(vc.tree)]) continue;
        if (vc.credits <= 0) {
          // Credit stall: data is ready but flow control blocks the grant.
          // vc_ready is side-effect-free, so probing it here cannot change
          // the simulation.
          PFAR_OBS(on_credit_stall_if(vc_ready(vc)));
          continue;
        }
        if (!vc_ready(vc)) continue;
        // True round-robin: rotate past the granted VC so competing trees
        // alternate even when packets occupy the link for several cycles.
        rr[static_cast<std::size_t>(dl)] = (slot + 1) % count;
        Packet packet;
        if (vc.phase == Phase::kReduce) {
          packet = make_reduce_packet(vc.src, vc.tree);
        } else {
          NodeTreeState& s = f.st(vc.src, vc.tree);
          packet = std::move(s.fork_stage[static_cast<std::size_t>(vc.fork_index)].front());
          s.fork_stage[static_cast<std::size_t>(vc.fork_index)].pop_front();
        }
        const long long flits =
            static_cast<long long>(packet.size()) + header;
        tokens[static_cast<std::size_t>(dl)] -= flits;
        result.link_flits[static_cast<std::size_t>(dl)] += flits;
        PFAR_OBS(on_grant(dl, now));
        --vc.credits;
        vc.data_inflight.emplace_back(now + config.link_latency,
                                      std::move(packet));
        last_progress = now;
      }
    }

    ++now;
  }

  // Quiesce: once every element is delivered, no packet may remain queued
  // or on the wire, and each VC's credits (held + still returning) must
  // conserve the configured budget.
  for (const auto& vc : vcs) {
    PFAR_ENSURE(vc.recv.empty() && vc.data_inflight.empty(), vc.tree, vc.src,
                vc.dst, vc.recv.size(), vc.data_inflight.size());
    PFAR_ENSURE(vc.credits + static_cast<int>(vc.credit_inflight.size()) ==
                    config.vc_credits,
                vc.tree, vc.src, vc.dst, vc.credits,
                vc.credit_inflight.size());
  }
  for (const auto& s : f.state) {
    PFAR_ENSURE(s.root_queue.empty(), s.parent, s.root_queue.size());
    for (const auto& stage : s.fork_stage) {
      PFAR_ENSURE(stage.empty(), s.parent, stage.size());
    }
  }
  return now;
}

// Field values as printed in a difference line: numbers (chars and bools
// too) as numbers, links as "u-v".
template <typename T>
auto printable(const T& x) {
  return +x;
}
std::string printable(const graph::Edge& e) {
  return std::to_string(e.u) + "-" + std::to_string(e.v);
}

// "name: a vs b" for scalars; the first differing entry for vectors.
template <typename T>
void diff_field(std::vector<std::string>& out, const char* name, const T& a,
                const T& b) {
  if (a == b) return;
  std::ostringstream line;
  line.precision(17);
  line << name << ": " << printable(a) << " vs " << printable(b);
  out.push_back(line.str());
}

template <typename T>
void diff_field(std::vector<std::string>& out, const char* name,
                const std::vector<T>& a, const std::vector<T>& b) {
  if (a == b) return;
  std::ostringstream line;
  line << name << ": ";
  if (a.size() != b.size()) {
    line << "size " << a.size() << " vs " << b.size();
  } else {
    std::size_t i = 0;
    while (a[i] == b[i]) ++i;
    line << "[" << i << "] " << printable(a[i]) << " vs " << printable(b[i]);
  }
  out.push_back(line.str());
}

}  // namespace

SimResult run_reference_allreduce(
    const graph::Graph& topology, const std::vector<trees::SpanningTree>& trees,
    const SimConfig& config, const std::vector<long long>& elements_per_tree) {
  simnet::detail::validate_simulation(topology, trees, config);
  if (elements_per_tree.size() != trees.size()) {
    throw std::invalid_argument("run: elements_per_tree size mismatch");
  }
  simnet::detail::RunContext run(topology, config, elements_per_tree);
  Fabric fabric = build_fabric(topology, trees, config, run.result);
  if (run.total_target == 0) return std::move(run.result);
  const long long cycles = run_reference_loop(
      fabric, config, elements_per_tree, run.result, run.tree_remaining,
      run.total_target, run.fault, run.bg_rates, run.obs);
  return run.finish(cycles);
}

std::vector<std::string> result_differences(const SimResult& a,
                                            const SimResult& b) {
  std::vector<std::string> out;
#define PFAR_DIFF(field) diff_field(out, #field, a.field, b.field)
  PFAR_DIFF(cycles);
  PFAR_DIFF(tree_finish_cycle);
  PFAR_DIFF(tree_first_delivery);
  PFAR_DIFF(total_elements);
  PFAR_DIFF(aggregate_bandwidth);  // bitwise: both divide the same integers
  PFAR_DIFF(values_correct);
  PFAR_DIFF(max_vc_occupancy);
  PFAR_DIFF(num_vcs);
  PFAR_DIFF(max_vcs_per_link);
  PFAR_DIFF(max_reductions_per_input_port);
  PFAR_DIFF(link_flits);
  PFAR_DIFF(link_queue_hwm);
  PFAR_DIFF(link_bg_flits);
  PFAR_DIFF(background_packets);
  PFAR_DIFF(background_flits);
  PFAR_DIFF(tree_failed);
  PFAR_DIFF(tree_fail_cycle);
  PFAR_DIFF(tree_completed);
  PFAR_DIFF(dropped_packets);
  PFAR_DIFF(dropped_flits);
  PFAR_DIFF(link_dropped_flits);
  PFAR_DIFF(canceled_packets);
  PFAR_DIFF(canceled_flits);
  PFAR_DIFF(links_down);
#undef PFAR_DIFF
  return out;
}

}  // namespace pfar::oracle
