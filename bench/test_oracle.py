"""Tests for the benchmark's own oracles, pair streams and tracer.

Run with `python -m pytest bench/test_oracle.py`.
"""

import itertools
import random

import pytest

import corpus
from corpus import GF7, GF101, QQ
from orbitslp import compiler
from tracing import PATCHES, Tracer


def scaling_torus(field):
    return corpus.parse_action("torus", corpus.TORUS,
                               {"n": 2, "rho": [["z1", "0"], ["0", "z1"]]}, field)


def test_acceptance_verdicts_for_the_scaling_torus():
    # the acceptance suite's scaling action is the weight-1 torus
    assert corpus.weighted_torus_same_orbit(QQ, 1, [1, 2], [2, 4])
    assert not corpus.weighted_torus_same_orbit(QQ, 1, [1, 2], [1, 3])
    action = scaling_torus(QQ)
    sep = compiler.compile_separator(action.group, action.rep)
    assert compiler.separate(sep, [1, 2], [2, 4])
    assert not compiler.separate(sep, [1, 2], [1, 3])


def test_weight_two_verdicts():
    # t = 2 moves (1, 2) to (4, 4); (2, 4) would need t^2 = 2 and t = 2
    assert corpus.weighted_torus_same_orbit(QQ, 2, [1, 2], [4, 4])
    assert not corpus.weighted_torus_same_orbit(QQ, 2, [1, 2], [2, 4])
    assert corpus.weighted_torus_same_orbit(GF101, 2, [1, 2], [4, 4])


def test_oracle_refuses_points_outside_its_domain():
    with pytest.raises(ValueError):
        corpus.weighted_torus_same_orbit(QQ, 2, [1, 0], [1, 1])
    with pytest.raises(ValueError):
        corpus.weighted_torus_same_orbit(GF101, 2, [1, 1], [3, 0])


@pytest.mark.parametrize("seed", range(5))
def test_gf101_pairs_match_brute_force_orbits(seed):
    f = GF101
    for k, (p, q, same) in enumerate(
            itertools.islice(corpus.torus_pairs(random.Random(seed), f), 100)):
        assert p[1] != 0 and q[1] != 0
        orbit = {(f.mul(f.mul(t, t), p[0]), f.mul(t, p[1])) for t in range(1, f.p)}
        assert same == (tuple(q) in orbit)
        if k % 2 == 0:
            assert same, "pairs built from a sampled t must share an orbit"


@pytest.mark.parametrize("seed", range(5))
def test_qq_pairs_match_the_group_element_they_imply(seed):
    for k, (p, q, same) in enumerate(
            itertools.islice(corpus.torus_pairs(random.Random(seed), QQ), 100)):
        assert p[1] != 0 and q[1] != 0
        t = q[1] / p[1]
        assert same == (q[0] == t * t * p[0])
        assert same == corpus.weighted_torus_same_orbit(QQ, 2, q, p)
        if k % 2 == 0:
            assert same, "pairs built from a sampled t must share an orbit"


def test_pair_streams_repeat_per_seed():
    def head(seed, field):
        return list(itertools.islice(corpus.torus_pairs(random.Random(seed), field), 20))
    assert head(3, QQ) == head(3, QQ)
    assert head(3, GF101) == head(3, GF101)
    assert head(3, QQ) != head(4, QQ)


def test_cyclic3_grid_oracle_is_an_orbit_relation():
    assert corpus.roots_of_unity(GF7, 3) == [[1], [2], [4]]
    action = corpus.parse_corpus()[2]
    assert action.name == "cyclic3-gf7"
    points, expected = corpus.cyclic3_grid(random.Random(0), action)
    assert len(points) == 25
    for i, j in itertools.product(range(25), repeat=2):
        assert expected[i][j] == expected[j][i]
        x, y = points[i]
        moved = {((z * x) % 7, (z * y) % 7) for z in (1, 2, 4)}
        assert expected[i][j] == (tuple(points[j]) in moved)


def test_tracer_restores_the_library_and_changes_no_output():
    action = scaling_torus(GF7)
    before = [getattr(mod, attr) for mod, attr, _ in PATCHES]
    plain = compiler.compile_separator(action.group, action.rep).dumps()
    tracer = Tracer()
    with tracer.install():
        with tracer.span("bench.op"):
            sep = compiler.compile_separator(action.group, action.rep)
            sig = compiler.evaluate(sep, [1, 2])
    assert sep.dumps() == plain
    assert sig == compiler.evaluate(sep, [1, 2])
    assert [getattr(mod, attr) for mod, attr, _ in PATCHES] == before
    times = tracer.self_times()
    assert times[("bench.op", "compiler.compile")][0] == 1
    assert tracer.field_counts["evals"] == 1
    assert tracer.field_counts["calls"] == sum(
        1 for ins in sep.program.instructions if ins[0] <= 3)


def test_self_time_excludes_children_and_trace_spans():
    tracer = Tracer()
    tracer.spans = [["root", 0.0, 10.0, None],
                    ["a", 1.0, 5.0, 0],
                    ["b", 2.0, 3.0, 1],
                    ["trace.count", 3.0, 4.0, 1]]
    times = tracer.self_times()
    assert times[("root", "root")] == [1, 9.0, 6.0]
    assert times[("root", "a")] == [1, 3.0, 2.0]
    assert times[("root", "b")] == [1, 1.0, 1.0]
    assert ("root", "trace.count") not in times
