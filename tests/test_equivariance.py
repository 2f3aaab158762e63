"""Property tests: the optimal success probability does not depend on how the
states are labelled or on their global phases.

Relabelling the states conjugates the Gram matrix by a permutation,
P G P^T; rephasing them conjugates it by a diagonal unitary, Phi G Phi^dag.
Both map measurements of one problem onto measurements of the other with the
same success probability, so the optimum must not move.  The polished drag
and the direct search are checked separately; they share no code.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import medsolve as ms
from conftest import random_gram, solve_direct


def _settings(max_examples):
    return settings(
        max_examples=max_examples,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )


@st.composite
def problems(draw):
    """A Gram matrix with m <= 4 and spread <= 0.35, a relabelling and phases."""
    m = draw(st.integers(2, 4))
    gram = random_gram(
        m,
        seed=draw(st.integers(0, 10_000)),
        spread=draw(st.floats(0.05, 0.35)),
        real=draw(st.booleans()),
    )
    perm = draw(st.permutations(range(m)))
    phases = np.exp(1j * np.array(draw(st.lists(st.floats(-np.pi, np.pi),
                                                min_size=m, max_size=m))))
    return gram, perm, phases


def _relabelled(gram, perm):
    return ms.GramMatrix(gram.entries[np.ix_(perm, perm)])


def _rephased(gram, phases):
    return ms.GramMatrix(phases[:, None] * gram.entries * phases.conj())


def _drag_value(gram):
    report = solve_direct(gram, steps=200, h=5e-3, polish=True)
    assert report.certificate.is_optimal
    return float(np.sum(report.final_state.a**2))


@pytest.mark.slow
@_settings(12)
@given(problems())
def test_polished_drag_is_equivariant(problem):
    gram, perm, phases = problem
    value = _drag_value(gram)
    assert abs(_drag_value(_relabelled(gram, perm)) - value) <= 1e-9
    assert abs(_drag_value(_rephased(gram, phases)) - value) <= 1e-9


@_settings(40)
@given(problems(), st.integers(0, 2**16))
def test_direct_search_is_equivariant(problem, seed):
    gram, perm, phases = problem
    value = ms.search_optimum(gram, seed=seed).p_success
    assert abs(ms.search_optimum(_relabelled(gram, perm), seed=seed).p_success - value) <= 1e-7
    assert abs(ms.search_optimum(_rephased(gram, phases), seed=seed).p_success - value) <= 1e-7
