"""Self-time arithmetic of the span recorder, on a synthetic nest of spans.

    python3 -m pytest bench/test_spans.py
"""

import pytest

import spans


def span(i, parent, name, start, end, **attrs):
    return {"id": i, "parent": parent, "name": name, "start": start, "end": end, "attrs": attrs}


# cli.main [0, 10]
#   counting.count_mobius [1, 6]      (cold)
#     arith.build_tables [2, 4]
#   constants.density [6, 9]
#     constants.zeta [7, 8]
#       arith.build_tables [7.5, 7.75]
#   counting.count_mobius [9, 9.5]    (warm)
NEST = [
    span(0, None, "cli.main", 0.0, 10.0),
    span(1, 0, "counting.count_mobius", 1.0, 6.0, warm=False),
    span(2, 1, "arith.build_tables", 2.0, 4.0, entries=1025),
    span(3, 0, "constants.density", 6.0, 9.0),
    span(4, 3, "constants.zeta", 7.0, 8.0),
    span(5, 4, "arith.build_tables", 7.5, 7.75, entries=17),
    span(6, 0, "counting.count_mobius", 9.0, 9.5, warm=True),
]


def test_self_time_subtracts_direct_children_only():
    own = spans.self_times(NEST)
    assert own == pytest.approx({0: 1.5, 1: 3.0, 2: 2.0, 3: 2.0, 4: 0.75, 5: 0.25, 6: 0.5})
    # self times tile the root span exactly
    assert sum(own.values()) == pytest.approx(10.0)


def test_layer_metrics_of_the_nest():
    m = spans.layer_metrics(NEST)
    assert m["arith.build_tables_s"] == pytest.approx(2.25)
    assert m["arith.sieve_entries"] == 1042
    assert m["constants.density_s"] == pytest.approx(2.75)
    assert m["counting.mobius_cold_s"] == pytest.approx(3.0)
    assert m["counting.mobius_warm_s"] == pytest.approx(0.5)
    assert m["counting.mobius_calls"] == 2
    assert m["cli.other_s"] == pytest.approx(1.5)
    assert m["montecarlo.samples_per_s"] == 0.0


def test_overlapping_children_are_covered_once():
    # two threads' children overlap on [3, 4]; one child runs past the parent
    nest = [
        span(0, None, "counting.count_box_bruteforce", 0.0, 10.0),
        span(1, 0, "arith.build_tables", 2.0, 4.0, entries=1),
        span(2, 0, "arith.build_tables", 3.0, 5.0, entries=1),
        span(3, 0, "arith.build_tables", 9.0, 12.0, entries=1),
    ]
    assert spans.covered([(2.0, 4.0), (3.0, 5.0), (9.0, 12.0)], 0.0, 10.0) == 4.0
    assert spans.self_times(nest)[0] == pytest.approx(6.0)


def test_samples_per_second_uses_estimate_self_time():
    nest = [
        span(0, None, "montecarlo.estimate", 0.0, 2.0, samples=1000),
        span(1, 0, "arith.build_tables", 0.5, 1.5, entries=1),
    ]
    m = spans.layer_metrics(nest)
    assert m["montecarlo.estimate_s"] == pytest.approx(1.0)
    assert m["montecarlo.samples_per_s"] == pytest.approx(1000.0)
