// Test-only oracles for the simulator engines (library pfar_oracle).
//
// run_reference_allreduce is the original cycle-by-cycle loop on its own
// deque-based VC fabric: every VC is scanned for arrivals, every (node,
// tree) broadcast engine is visited and every link arbitrated on every
// cycle. It shares only the run prologue/epilogue, the fault state and the
// observer with the product engine (src/simnet/sim_internal.hpp), so a
// differential against simnet::AllreduceSimulator checks the product's
// fabric builder and fast-forward loop together. Never linked into the
// product libraries.
#pragma once

#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "simnet/allreduce_sim.hpp"
#include "simnet/config.hpp"
#include "trees/spanning_tree.hpp"

namespace pfar::oracle {

/// Runs one collective through the reference loop with the same contract
/// as AllreduceSimulator(topology, trees, config).run(elements_per_tree):
/// same validation, same exceptions, same SimResult. config.engine is
/// ignored (the oracle is one cycle loop).
simnet::SimResult run_reference_allreduce(
    const graph::Graph& topology,
    const std::vector<trees::SpanningTree>& trees,
    const simnet::SimConfig& config,
    const std::vector<long long>& elements_per_tree);

/// The flow tier (SimEngine::kFlow) as first written, with the contract of
/// simnet::run_flow_allreduce: same exceptions, and a SimResult the product
/// tier must reproduce bit for bit (reference_flow.cpp). The caller
/// validates the inputs first, as AllreduceSimulator's constructor does.
simnet::SimResult run_reference_flow(
    const graph::Graph& topology,
    const std::vector<trees::SpanningTree>& trees,
    const simnet::SimConfig& config,
    const std::vector<long long>& elements_per_tree);

/// Every SimResult field on which `a` and `b` differ, one human-readable
/// line each ("cycles: 412 vs 416"); empty iff the results are
/// bit-identical. The one field list every simulator differential checks.
std::vector<std::string> result_differences(const simnet::SimResult& a,
                                            const simnet::SimResult& b);

}  // namespace pfar::oracle
