"""Shared fixtures and independent reference implementations.

The brute-force helpers here recompute correlations from first principles
(plain Python complex arithmetic, no numpy vectorization) so library bugs
cannot hide in shared code paths.
"""

import cmath
import itertools
import math

import numpy as np
import pytest

from zccs import GBF, CodeSet, Lemma1Params, Term, z


def brute_accs(u_vals, v_vals, tau):
    """Aperiodic cross-correlation sum from the definition.

    Takes plain value lists (complex or int), returns a complex number.
    Positive tau slides u forward; outside (-L, L) the sum is empty.
    """
    length = len(u_vals)
    total = 0j
    for t in range(length):
        if 0 <= t + tau < length:
            total += u_vals[t + tau] * complex(v_vals[t]).conjugate()
    return total


def brute_values(q, phases):
    """Values of a phase row through cmath.exp, not the package's value table."""
    return [cmath.exp(2j * cmath.pi * int(p) / q) for p in phases]


def brute_set_accs(q, code_u, code_v, tau):
    """Sum of brute_accs over the rows of two codes given as phase rows."""
    return sum(brute_accs(brute_values(q, u), brute_values(q, v), tau)
               for u, v in zip(code_u, code_v))


def brute_nonzero(q, code_u, code_v, tau, offset=0):
    """Whether the correlation sum of two codes at tau, minus offset, is nonzero.

    Exact, through every embedding zeta -> zeta^k with k <= q / 2 coprime to
    q, each a direct cmath sum.  A nonzero sum in Z[zeta_q] has a nonzero
    integer norm, the product of its embeddings' squared moduli, so one of
    them reaches modulus 1; a zero sum reads zero in all of them up to
    round-off.
    """
    ks = [k for k in range(1, max(q // 2, 1) + 1) if math.gcd(k, q) == 1]
    return any(
        abs(brute_set_accs(q, [[k * p for p in u] for u in code_u],
                           [[k * p for p in v] for v in code_v], tau) - offset) >= 0.5
        for k in ks
    )


def q8_counterexample():
    """(2, 1, 3363, 1) q = 8 set: u holds 1393 zeros, 985 fives and 985 threes,
    v is all zeros, so the shift-0 cross sum is 1393 - 985 * sqrt(2)."""
    u = [0] * 1393 + [5] * 985 + [3] * 985
    return CodeSet(8, 1, np.array([[u], [[0] * len(u)]]))


def brute_gbf(f, point):
    """f at one point of {0,1}^m, summed term by term over its literals."""
    total = 0
    for term in f.terms:
        value = term.coefficient
        for lit in term.literals:
            value *= 1 - point[lit.var_index] if lit.complemented else point[lit.var_index]
        total += value
    return total % f.q


def quadratic_gbf(nvars, edges, q=2, weight=1):
    """Quadratic form from an edge list; every edge gets the same weight."""
    return GBF(nvars, q, tuple(Term(weight, (z(i), z(j))) for i, j in edges))


def all_graphs(nvars):
    """Every simple graph on nvars labeled vertices, as edge tuples."""
    pairs = list(itertools.combinations(range(nvars), 2))
    for mask in range(1 << len(pairs)):
        yield tuple(p for idx, p in enumerate(pairs) if mask >> idx & 1)


def mutate_one_phase(code_set, ci, ri, pos, delta=1):
    """Copy of code_set with one phase bumped by delta mod q; no provenance."""
    phases = code_set.phases.copy()
    phases[ci, ri, pos] = (phases[ci, ri, pos] + delta) % code_set.q
    return CodeSet(code_set.q, code_set.zcz, phases)


EXAMPLE_EDGES = ((0, 1), (1, 2), (2, 3), (0, 3), (0, 2))


@pytest.fixture(scope="session")
def example_base():
    """The reference construction used throughout: m1=8, five-edge graph on
    four vertices, two deletions leaving the path 2-3."""
    return Lemma1Params(
        m1=8,
        quadratic=quadratic_gbf(4, EXAMPLE_EDGES),
        d_vec=(1, 1, 1, 1),
        d=0,
        deleted=(0, 1),
        beta1=2,
    )
