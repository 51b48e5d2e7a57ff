// Test-only oracles (library pfar_oracle): textbook arithmetic the tests
// check the product against. Euler's totient counts the Hamiltonian
// alternating paths of Section 7.3, the common-neighbor count is Theorem
// 6.1's unique-2-path check, and field exponentiation by repeated squaring
// uses only gf::Field::mul, so it is independent of the field's exp/log
// tables. Never linked into the product libraries.
#pragma once

#include "gf/field.hpp"
#include "graph/graph.hpp"

namespace pfar::oracle {

/// Euler's totient function phi(n), n >= 1.
long long totient(long long n);

/// Number of common neighbors of distinct u, v of a finalized graph (the
/// number of 2-paths between them): a merge scan of the two sorted rows.
int common_neighbor_count(const graph::Graph& g, int u, int v);

/// x^e in `f` for e >= 0, by square-and-multiply over f.mul.
gf::Elem field_pow(const gf::Field& f, gf::Elem x, long long e);

}  // namespace pfar::oracle
