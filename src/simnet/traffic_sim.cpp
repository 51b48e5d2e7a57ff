#include "simnet/traffic_sim.hpp"

#include <algorithm>
#include <deque>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "obsv/metrics.hpp"
#include "util/contracts.hpp"

namespace pfar::simnet {
namespace {

struct Packet {
  int dst = 0;
  int via = -1;  // Valiant intermediate; -1 once (or if never) reached
  long long generated = 0;
  int hops = 0;
  bool measured = false;
};

// One input port: a FIFO of parked packets plus the in-flight pipeline of
// packets still traversing the upstream link.
struct Port {
  std::deque<Packet> fifo;
  std::deque<std::pair<long long, Packet>> inflight;
};

}  // namespace

std::vector<int> pattern_permutation(int n, util::Rng& rng) {
  PFAR_REQUIRE(n >= 2, n);
  std::vector<int> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  for (int i = n - 1; i > 0; --i) {
    std::swap(perm[static_cast<std::size_t>(i)],
              perm[static_cast<std::size_t>(
                  rng.next_below(static_cast<std::uint64_t>(i + 1)))]);
  }
  for (int i = 0; i < n; ++i) {
    if (perm[static_cast<std::size_t>(i)] == i) {
      perm[static_cast<std::size_t>(i)] = (i + 1) % n;
    }
  }
  return perm;
}

TrafficSimulator::TrafficSimulator(const graph::Graph& topology)
    : topology_(topology) {
  const int n = topology_.num_vertices();
  if (n < 2 || !topology_.is_connected()) {
    throw std::invalid_argument("TrafficSimulator: need a connected graph");
  }
  next_hop_.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  graph::BfsTree tree;
  for (int dst = 0; dst < n; ++dst) {
    topology_.bfs_tree(dst, tree);
    next_hop_.insert(next_hop_.end(), tree.parent.begin(), tree.parent.end());
  }
  // Connectivity (checked above) means every src != dst pair routed: the
  // only -1 entries left are the dst == src diagonal.
  for (std::size_t i = 0; i < next_hop_.size(); ++i) {
    PFAR_ENSURE(next_hop_[i] >= 0 ||
                    i % static_cast<std::size_t>(n) ==
                        i / static_cast<std::size_t>(n),
                i, n);
  }
}

// pfar-lint: allow(contract-coverage) the config is validated via the std::invalid_argument throw on entry; rate/size bounds are the API contract
TrafficResult TrafficSimulator::run(const TrafficConfig& config) const {
  if (config.injection_rate < 0.0 || config.injection_rate > 1.0 ||
      config.packet_flits < 1 || config.buffer_packets < 1 ||
      config.link_latency < 0) {
    throw std::invalid_argument("TrafficSimulator: bad config");
  }
  const int n = topology_.num_vertices();
  // The hotspot target must name a vertex; a wrapped or clamped id would
  // silently measure a different hotspot, so reject through the contract
  // layer (regression-tested in tests/traffic_test.cpp).
  if (config.pattern == TrafficPattern::kHotspot) {
    PFAR_REQUIRE(config.hotspot_node >= 0 && config.hotspot_node < n,
                 config.hotspot_node, n);
  }
  util::Rng rng(config.seed);

  const std::vector<int> perm = pattern_permutation(n, rng);

  const auto pick_destination = [&](int src) {
    switch (config.pattern) {
      case TrafficPattern::kPermutation:
        return perm[static_cast<std::size_t>(src)];
      case TrafficPattern::kHotspot:
        if (src != config.hotspot_node &&
            rng.next_double() < config.hotspot_fraction) {
          return config.hotspot_node;
        }
        [[fallthrough]];
      case TrafficPattern::kUniform: {
        int dst = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n - 1)));
        if (dst >= src) ++dst;  // uniform over others
        return dst;
      }
    }
    return (src + 1) % n;
  };

  // Ports: for each node, one input port per incoming neighbor link plus
  // one injection port (index = degree). Port lookup by (node, from).
  std::vector<std::vector<Port>> ports(static_cast<std::size_t>(n));
  std::vector<std::vector<int>> from_index(static_cast<std::size_t>(n));  // neighbor rank lookup
  // Flat port ids (port_base[v] + p) for the event wheel.
  std::vector<int> port_base(static_cast<std::size_t>(n + 1), 0);
  for (int v = 0; v < n; ++v) {
    ports[static_cast<std::size_t>(v)].resize(static_cast<std::size_t>(topology_.degree(v) + 1));
    port_base[static_cast<std::size_t>(v + 1)] = port_base[static_cast<std::size_t>(v)] + static_cast<int>(ports[static_cast<std::size_t>(v)].size());
    from_index[static_cast<std::size_t>(v)].assign(static_cast<std::size_t>(n), -1);
    const auto& nbrs = topology_.neighbors(v);
    for (int i = 0; i < static_cast<int>(nbrs.size()); ++i) {
      from_index[static_cast<std::size_t>(v)][static_cast<std::size_t>(nbrs[static_cast<std::size_t>(i)])] = i;
    }
  }
  std::vector<int> port_owner(static_cast<std::size_t>(port_base[static_cast<std::size_t>(n)]));
  for (int v = 0; v < n; ++v) {
    for (int p = port_base[static_cast<std::size_t>(v)]; p < port_base[static_cast<std::size_t>(v + 1)]; ++p) port_owner[static_cast<std::size_t>(p)] = v;
  }
  // Unbounded source queues (latency includes source queueing, the
  // standard open-loop measurement methodology).
  std::vector<std::deque<Packet>> source(static_cast<std::size_t>(n));
  // Credits toward each (node, input port).
  std::vector<std::vector<int>> credits(static_cast<std::size_t>(n));
  std::vector<std::vector<std::deque<long long>>> credit_return(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    credits[static_cast<std::size_t>(v)].assign(ports[static_cast<std::size_t>(v)].size(), config.buffer_packets);
    credit_return[static_cast<std::size_t>(v)].resize(ports[static_cast<std::size_t>(v)].size());
  }
  // Output-link occupancy token buckets and round-robin pointers. Token
  // accumulation for a router that sat idle (no parked packets) is caught
  // up lazily from last_tick when the router next does work — the closed
  // form min(t + delta, cap) equals delta per-cycle updates.
  std::vector<std::vector<long long>> tokens(static_cast<std::size_t>(n));
  std::vector<std::vector<int>> rr(static_cast<std::size_t>(n));
  std::vector<long long> last_tick(static_cast<std::size_t>(n), -1);
  for (int v = 0; v < n; ++v) {
    tokens[static_cast<std::size_t>(v)].assign(static_cast<std::size_t>(topology_.degree(v)), 0);
    rr[static_cast<std::size_t>(v)].assign(static_cast<std::size_t>(topology_.degree(v)), 0);
  }
  // Packets parked in any of node v's FIFOs: a router with zero parked
  // packets can neither eject nor forward, so step 3 skips it entirely.
  std::vector<long long> parked(static_cast<std::size_t>(n), 0);

  // Event wheel over flat port ids. Arrivals land at now + link_latency +
  // packet_flits, credit returns at now + link_latency; both deltas are
  // constant so pending wake-ups live within the next wheel_size cycles.
  const int wheel_size = config.link_latency + config.packet_flits + 1;
  std::vector<std::vector<int>> wheel(static_cast<std::size_t>(wheel_size));
  long long now = 0;
  // Clamp to now + 1: an event stamped `now` (zero link latency) is only
  // ever observed on the next cycle, and the current cycle's bucket has
  // already been drained.
  const auto schedule_wakeup = [&](int flat_port, long long t) {
    wheel[static_cast<std::size_t>(std::max(t, now + 1) % wheel_size)].push_back(flat_port);
  };

  TrafficResult result;
  std::vector<long long> latencies;
  latencies.reserve(static_cast<std::size_t>(config.measure_packets));
  long long total_hops = 0;
  long long measured_start = -1;

  while (static_cast<long long>(latencies.size()) < config.measure_packets) {
    if (now >= config.max_cycles) {
      result.saturated = true;
      break;
    }

    // 1. Arrivals and credit returns: only ports with due wake-ups.
    {
      auto& bucket = wheel[static_cast<std::size_t>(now % wheel_size)];
      for (int flat : bucket) {
        const int v = port_owner[static_cast<std::size_t>(flat)];
        const std::size_t p = static_cast<std::size_t>(flat - port_base[static_cast<std::size_t>(v)]);
        Port& port = ports[static_cast<std::size_t>(v)][p];
        while (!port.inflight.empty() &&
               port.inflight.front().first <= now) {
          port.fifo.push_back(port.inflight.front().second);
          port.inflight.pop_front();
          ++parked[static_cast<std::size_t>(v)];
        }
        auto& returns = credit_return[static_cast<std::size_t>(v)][p];
        while (!returns.empty() && returns.front() <= now) {
          returns.pop_front();
          ++credits[static_cast<std::size_t>(v)][p];
        }
      }
      bucket.clear();
    }

    // 2. Injection: generated packets enter the source queue; the source
    // queue feeds the injection port when it has buffer room. (Bernoulli
    // injection draws from the RNG for every node on every cycle, which is
    // why this loop — unlike the allreduce simulator's — cannot skip idle
    // cycle ranges without changing the random stream.)
    for (int v = 0; v < n; ++v) {
      if (rng.next_double() < config.injection_rate) {
        Packet pkt;
        pkt.dst = pick_destination(v);
        if (config.routing == Routing::kValiant) {
          const int via = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
          if (via != v && via != pkt.dst) pkt.via = via;
        }
        pkt.generated = now;
        pkt.measured = now >= config.warmup_cycles;
        source[static_cast<std::size_t>(v)].push_back(pkt);
      }
      const std::size_t inj = ports[static_cast<std::size_t>(v)].size() - 1;
      while (!source[static_cast<std::size_t>(v)].empty() &&
             static_cast<int>(ports[static_cast<std::size_t>(v)][inj].fifo.size()) <
                 config.buffer_packets) {
        ports[static_cast<std::size_t>(v)][inj].fifo.push_back(source[static_cast<std::size_t>(v)].front());
        source[static_cast<std::size_t>(v)].pop_front();
        ++parked[static_cast<std::size_t>(v)];
      }
    }

    // 3. Switch allocation + traversal: each output link grants one input
    // port per free slot (round-robin), consuming link occupancy tokens.
    for (int v = 0; v < n; ++v) {
      if (parked[static_cast<std::size_t>(v)] == 0) continue;
      const auto& nbrs = topology_.neighbors(v);
      const int num_ports = static_cast<int>(ports[static_cast<std::size_t>(v)].size());
      // Catch up token accumulation for the cycles this router sat idle.
      const long long delta = now - last_tick[static_cast<std::size_t>(v)];
      last_tick[static_cast<std::size_t>(v)] = now;
      for (int out = 0; out < static_cast<int>(nbrs.size()); ++out) {
        tokens[static_cast<std::size_t>(v)][static_cast<std::size_t>(out)] = std::min<long long>(tokens[static_cast<std::size_t>(v)][static_cast<std::size_t>(out)] + delta,
                                             config.packet_flits);
      }
      // Ejection first: heads destined here leave immediately. A head that
      // reached its Valiant intermediate sheds it and keeps routing.
      for (int p = 0; p < num_ports; ++p) {
        Port& port = ports[static_cast<std::size_t>(v)][static_cast<std::size_t>(p)];
        while (!port.fifo.empty()) {
          Packet& head = port.fifo.front();
          if (head.via == v) head.via = -1;
          if (head.dst != v || head.via >= 0) break;
          if (head.measured) {
            if (measured_start < 0) measured_start = now;
            latencies.push_back(now - head.generated);
            total_hops += head.hops;
          }
          port.fifo.pop_front();
          --parked[static_cast<std::size_t>(v)];
          if (p < num_ports - 1) {  // network port: return a credit upstream
            credit_return[static_cast<std::size_t>(v)][static_cast<std::size_t>(p)].push_back(now + config.link_latency);
            schedule_wakeup(port_base[static_cast<std::size_t>(v)] + p, now + config.link_latency);
          }
        }
      }
      for (int out = 0; out < static_cast<int>(nbrs.size()); ++out) {
        if (tokens[static_cast<std::size_t>(v)][static_cast<std::size_t>(out)] <= 0) continue;
        const int next = nbrs[static_cast<std::size_t>(out)];
        const int in_port_at_next = from_index[static_cast<std::size_t>(next)][static_cast<std::size_t>(v)];
        if (credits[static_cast<std::size_t>(next)][static_cast<std::size_t>(in_port_at_next)] <= 0) continue;
        // Round-robin over this router's input ports for this output.
        int granted = -1;
        for (int probe = 0; probe < num_ports; ++probe) {
          const int p = (rr[static_cast<std::size_t>(v)][static_cast<std::size_t>(out)] + probe) % num_ports;
          Port& port = ports[static_cast<std::size_t>(v)][static_cast<std::size_t>(p)];
          if (port.fifo.empty()) continue;
          const Packet& head = port.fifo.front();
          const int target = head.via >= 0 ? head.via : head.dst;
          if (target == v) continue;  // ejection handled above
          const int hop =
              next_hop_[static_cast<std::size_t>(target) * static_cast<std::size_t>(n) + static_cast<std::size_t>(v)];
          if (hop != next) continue;
          granted = p;
          break;
        }
        if (granted < 0) continue;
        rr[static_cast<std::size_t>(v)][static_cast<std::size_t>(out)] = (granted + 1) % num_ports;
        Port& port = ports[static_cast<std::size_t>(v)][static_cast<std::size_t>(granted)];
        Packet pkt = port.fifo.front();
        port.fifo.pop_front();
        --parked[static_cast<std::size_t>(v)];
        if (granted < num_ports - 1) {
          credit_return[static_cast<std::size_t>(v)][static_cast<std::size_t>(granted)].push_back(now + config.link_latency);
          schedule_wakeup(port_base[static_cast<std::size_t>(v)] + granted, now + config.link_latency);
        }
        ++pkt.hops;
        tokens[static_cast<std::size_t>(v)][static_cast<std::size_t>(out)] -= config.packet_flits;
        --credits[static_cast<std::size_t>(next)][static_cast<std::size_t>(in_port_at_next)];
        const long long arrival =
            now + config.link_latency + config.packet_flits;
        ports[static_cast<std::size_t>(next)][static_cast<std::size_t>(in_port_at_next)].inflight.emplace_back(arrival, pkt);
        schedule_wakeup(port_base[static_cast<std::size_t>(next)] + in_port_at_next, arrival);
      }
    }

    ++now;
  }

  result.delivered = static_cast<long long>(latencies.size());
  if (result.delivered > 0) {
    double sum = 0.0;
    for (long long l : latencies) sum += static_cast<double>(l);
    result.avg_latency = sum / static_cast<double>(result.delivered);
    result.avg_hops =
        static_cast<double>(total_hops) / static_cast<double>(result.delivered);
    result.p99_latency = obsv::nearest_rank(std::move(latencies), 99);
    const long long span = now - (measured_start < 0 ? now : measured_start);
    if (span > 0) {
      result.throughput = static_cast<double>(result.delivered) /
                          static_cast<double>(span) / n;
    }
  } else {
    result.saturated = true;
  }
  return result;
}

}  // namespace pfar::simnet
