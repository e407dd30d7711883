"""Property-based invariants of the measurement dynamics and bounds."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import partial
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from phaseamp import amplifier, encoding
from phaseamp.amplifier import (
    ClassState,
    MeasurementSequence,
    initial_state,
    run_sequence,
    sample_assignment,
    sequence_probability,
    step,
    tail_probability,
    unconditional_tail_probability,
)
from phaseamp.analytics import (
    TwoPeakModel,
    band_bound,
    bound_from_success_run,
    two_peak_stats,
)
from phaseamp.encoding import (
    PhaseHistogram,
    build_class_table,
    build_histogram,
    histogram_from_phases,
)
from phaseamp.errors import ImpossibleOutcomeError
from phaseamp.fullsim import run_sequence_fullsim
from phaseamp.graphs import Graph, ObjectiveKind, frontier_order

from .oracles import ref_band_mass, ref_level_counts, ref_objective, ref_tail_mass

# Angle spans stay configurable per property: some invariants need every
# branch probability strictly positive, which [eps, pi - eps] guarantees.


def histograms(
    max_levels: int = 8,
    min_theta: float = 0.0,
    max_theta: float = math.pi,
    max_count: int = 1000,
):
    @st.composite
    def build(draw):
        thetas = draw(
            st.lists(
                st.floats(min_value=min_theta, max_value=max_theta),
                min_size=1,
                max_size=max_levels,
                unique=True,
            )
        )
        counts = draw(
            st.lists(
                st.integers(min_value=1, max_value=max_count),
                min_size=len(thetas),
                max_size=len(thetas),
            )
        )
        return PhaseHistogram(np.array(sorted(thetas)), np.array(counts))

    return build()


interior_histograms = histograms(min_theta=1e-3, max_theta=math.pi - 1e-3)

sequences = st.lists(st.sampled_from((0, 1)), min_size=0, max_size=6).map(
    lambda bits: MeasurementSequence(tuple(bits))
)


def random_graphs(max_vertices: int = 8, max_edges: int | None = None):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=2, max_value=max_vertices))
        pairs = list(itertools.combinations(range(n), 2))
        size = len(pairs) if max_edges is None else min(len(pairs), max_edges)
        edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=size, unique=True))
        return Graph(n, tuple(edges))

    return build()


class TestBranchCompleteness:
    @given(h=interior_histograms, y=sequences)
    @settings(deadline=None)
    def test_branch_probabilities_sum_to_one_along_any_run(self, h, y):
        state = initial_state(h)
        for outcome in y.outcomes:
            (_, p0), (_, p1) = step(state, 0), step(state, 1)
            assert p0 + p1 == pytest.approx(1.0, abs=1e-12)
            state, _ = step(state, outcome)
        assert float(state.weights.sum()) == pytest.approx(1.0, abs=1e-12)

    @given(h=histograms(), m=st.integers(min_value=1, max_value=4))
    @settings(deadline=None)
    def test_all_sequences_of_a_length_cover_probability_one(self, h, m):
        total = math.fsum(
            math.exp(sequence_probability(h, MeasurementSequence(bits)))
            for bits in itertools.product((0, 1), repeat=m)
        )
        assert total == pytest.approx(1.0, abs=1e-12)


class TestOrderInvariance:
    @given(
        h=interior_histograms,
        bits=st.lists(st.sampled_from((0, 1)), min_size=1, max_size=6),
        data=st.data(),
    )
    @settings(deadline=None)
    def test_record_order_never_matters(self, h, bits, data):
        shuffled = data.draw(st.permutations(bits))
        y_a = MeasurementSequence(tuple(bits))
        y_b = MeasurementSequence(tuple(shuffled))
        # The closed form only sees (ones, length), so it is exactly equal.
        assert sequence_probability(h, y_a) == sequence_probability(h, y_b)
        _, p_a = run_sequence(h, y_a)
        _, p_b = run_sequence(h, y_b)
        assert p_a == pytest.approx(p_b, rel=1e-12)
        assert p_a == pytest.approx(math.exp(sequence_probability(h, y_a)), rel=1e-10)


class TestConcentration:
    @given(h=histograms())
    @settings(deadline=None)
    def test_success_runs_concentrate_the_top_level(self, h):
        assume(float(h.thetas[-1]) > 1e-6)  # otherwise a success is impossible
        state = initial_state(h)
        top = h.n_levels - 1
        previous = float(state.weights[top])
        for _ in range(5):
            state, _ = step(state, 1)
            current = float(state.weights[top])
            assert current >= previous - 1e-12
            previous = current


class TestBounds:
    @given(
        h=interior_histograms,
        m=st.integers(min_value=1, max_value=3),
        theta_ref=st.floats(min_value=0.05, max_value=math.pi - 0.05),
    )
    @settings(deadline=None)
    def test_run_bounds_bracket_the_tail(self, h, m, theta_ref):
        assume(float(np.min(np.abs(h.thetas - theta_ref))) > 1e-6)
        _, p_run = run_sequence(h, MeasurementSequence.successes(m))
        bounds = bound_from_success_run(p_run, m, theta_ref)
        tail = ref_tail_mass(h.thetas, h.counts, theta_ref)
        assert bounds.lower - 1e-9 <= tail <= bounds.upper + 1e-9

    @given(
        h=histograms(),
        half_width=st.floats(min_value=0.05, max_value=math.pi / 2 - 0.05),
    )
    @settings(deadline=None)
    def test_band_bound_stays_below_the_band_mass(self, h, half_width):
        p01 = math.exp(sequence_probability(h, MeasurementSequence((0, 1))))
        assert band_bound(p01, half_width) <= ref_band_mass(h.thetas, h.counts, half_width) + 1e-9

    @given(
        h=histograms(),
        m=st.integers(min_value=0, max_value=10),
        theta=st.floats(min_value=0.0, max_value=math.pi),
    )
    @settings(deadline=None)
    def test_amplified_hit_rate_never_beats_direct_sampling(self, h, m, theta):
        try:
            state, _ = run_sequence(h, MeasurementSequence.successes(m))
        except ImpossibleOutcomeError:
            return  # no run survives, so none lands in the tail
        p_amplified = unconditional_tail_probability(state, theta)
        assert p_amplified <= tail_probability(initial_state(h), theta) + 1e-15


class TestTwoPeakDualRoute:
    @given(
        q_num=st.integers(min_value=1, max_value=15),
        a_l_num=st.integers(min_value=0, max_value=15),
        a_u_num=st.integers(min_value=17, max_value=32),
        m=st.integers(min_value=0, max_value=200),
    )
    def test_float_gains_match_the_exact_fractions(self, q_num, a_l_num, a_u_num, m):
        shares_and_gains = (Fraction(q_num, 16), Fraction(a_l_num, 16), Fraction(a_u_num, 16))
        exact = two_peak_stats(TwoPeakModel.from_gains(*shares_and_gains), m)
        floats = two_peak_stats(
            TwoPeakModel.from_gains(*(float(v) for v in shares_and_gains)), m
        )
        for name in ("ratio", "p_upper", "run_probability", "run_probability_via_ratio"):
            want, got = getattr(exact, name), getattr(floats, name)
            assert isinstance(got, float) or got is None, name
            if want is None or want == math.inf:
                assert got == want, name
            else:
                assert got == pytest.approx(float(want), rel=1e-12, abs=0.0), name

    @given(
        n_support=st.integers(min_value=2, max_value=64),
        data=st.data(),
        a_l_num=st.integers(min_value=0, max_value=15),
        a_u_num=st.integers(min_value=17, max_value=32),
        m=st.integers(min_value=0, max_value=8),
    )
    @settings(deadline=None)
    def test_filter_algebra_matches_the_histogram_fold(
        self, n_support, data, a_l_num, a_u_num, m
    ):
        n_high = data.draw(
            st.integers(min_value=1, max_value=n_support - 1), label="n_high"
        )
        model = TwoPeakModel.from_gains(
            Fraction(n_high, n_support), Fraction(a_l_num, 16), Fraction(a_u_num, 16)
        )
        h = PhaseHistogram([model.alpha_l, model.alpha_u], [n_support - n_high, n_high])
        stats = two_peak_stats(model, m)
        if m == 0:
            assert stats.run_probability == 1
            return
        try:
            _, p_fold = run_sequence(h, MeasurementSequence.successes(m))
        except ImpossibleOutcomeError:
            assert float(stats.run_probability) == 0.0
            return
        assert p_fold == pytest.approx(float(stats.run_probability), rel=1e-9)


class TestGraphHistograms:
    @given(g=random_graphs())
    @settings(deadline=None, max_examples=60)
    def test_maxcut_level_parity(self, g):
        h = build_histogram(g, ObjectiveKind.MAXCUT)
        assert h.support == 2**g.n_vertices - 1
        # Complementing an assignment preserves its cut, so levels pair up;
        # only level 0 loses its partner (the dropped all-zeros assignment).
        assert int(h.counts[0]) % 2 == 1
        for count in h.counts[1:]:
            assert int(count) % 2 == 0

    @given(g=random_graphs())
    @settings(deadline=None, max_examples=60)
    def test_histograms_and_class_tables_agree(self, g):
        for objective in ObjectiveKind:
            h = build_histogram(g, objective, include_zero=True)
            table = build_class_table(g, objective)
            assert np.array_equal(table.class_sizes(), h.counts)

    @given(g=random_graphs(max_vertices=12, max_edges=30))
    @settings(deadline=None, max_examples=40)
    def test_frontier_counts_match_the_oracle(self, g):
        steps = frontier_order(g)
        for objective in ObjectiveKind:
            counts = encoding._frontier_counts(steps, objective is ObjectiveKind.MAXCUT)
            for include_zero in (False, True):
                ref = ref_level_counts(objective.value, g.n_vertices, g.edges, include_zero)
                expected = [ref.get(k, 0) for k in range(g.edge_count + 1)]
                dp = counts.tolist()
                dp[0] -= not include_zero  # the all-zeros assignment scores 0
                assert dp == expected
                h = build_histogram(g, objective, include_zero=include_zero)
                assert h.counts.tolist() == expected

    @given(g=random_graphs(), data=st.data())
    @settings(deadline=None, max_examples=60)
    def test_class_of_matches_the_objective(self, g, data):
        objective = data.draw(st.sampled_from(ObjectiveKind))
        table = build_class_table(g, objective)
        x = data.draw(st.integers(min_value=1, max_value=2**g.n_vertices - 1))
        assert table.levels[x] == ref_objective(objective.value, g.n_vertices, g.edges, x)


def _frontier_reader(g, objective):
    steps = frontier_order(g)
    is_cut = objective is ObjectiveKind.MAXCUT
    tables = list(encoding.frontier_tables(steps, is_cut))
    reader = partial(encoding.frontier_members, steps, tables, is_cut=is_cut)
    return encoding.level_totals(tables[-1]), reader


def _table_reader(g, objective):
    table = build_class_table(g, objective)
    return table.class_sizes(), table.members


# Each sampling route's level counts, the all-zeros assignment included, and
# its member reader: ``reader(levels, ranks)``.
MEMBER_READERS = {"frontier": _frontier_reader, "table": _table_reader}

# The sampler's two routes, forced whatever the cost rule would pick.
SAMPLING_ROUTES = {
    "frontier": lambda g, keep_tables: frontier_order(g),
    "enumeration": lambda g, keep_tables: None,
}


class TestFrontierSampling:
    """Sampling by rank on both routes, against the plain-Python scorer."""

    @pytest.mark.parametrize("reader", MEMBER_READERS)
    @given(g=random_graphs(max_vertices=12, max_edges=30))
    @settings(deadline=None, max_examples=40)
    def test_ranks_name_every_member_of_their_level_once(self, reader, g):
        for objective in ObjectiveKind:
            counts, members_of = MEMBER_READERS[reader](g, objective)
            levels = np.repeat(np.arange(counts.size), counts)
            ranks = np.concatenate([np.arange(c) for c in counts])
            members = members_of(levels, ranks)
            # Every assignment once, each at its own level; rank 0 of level 0 is 0.
            assert sorted(members.tolist()) == list(range(2**g.n_vertices))
            for x, level in zip(members.tolist(), levels.tolist()):
                assert ref_objective(objective.value, g.n_vertices, g.edges, x) == level
            assert members[0] == 0
            if reader == "table":
                # The table lists each level's members in increasing order.
                assert np.all(np.diff(members)[np.diff(levels) == 0] > 0)

    @given(g=random_graphs(max_vertices=12, max_edges=30), data=st.data())
    @settings(deadline=None, max_examples=40)
    def test_draws_lie_in_the_support_at_their_level(self, g, data):
        objective = data.draw(st.sampled_from(ObjectiveKind))
        include_zero = data.draw(st.booleans())
        h = build_histogram(g, objective, include_zero=include_zero)
        level = data.draw(st.sampled_from(np.flatnonzero(h.counts).tolist()))
        weights = (np.arange(h.n_levels) == level).astype(float)
        seed = data.draw(st.integers(0, 9))
        first = 0 if include_zero else 1
        for route in SAMPLING_ROUTES.values():
            with patch.object(amplifier, "frontier_route", route):
                draws = sample_assignment(ClassState(h, weights, 0.0), g, objective, 60, seed)
            for x in draws.tolist():
                assert first <= x < 2**g.n_vertices
                assert ref_objective(objective.value, g.n_vertices, g.edges, x) == level


class TestDenseOracle:
    @given(
        phases=st.lists(
            st.floats(min_value=0.01, max_value=math.pi - 0.01),
            min_size=1,
            max_size=12,
        ),
        bits=st.lists(st.sampled_from((0, 1)), min_size=0, max_size=3),
    )
    @settings(deadline=None, max_examples=40)
    def test_dense_simulator_agrees_with_the_fold(self, phases, bits):
        y = MeasurementSequence(tuple(bits))
        arr = np.sort(np.asarray(phases))
        h = histogram_from_phases(arr)
        p_dense, dist = run_sequence_fullsim(arr, y)
        state, p_fold = run_sequence(h, y)
        assert abs(p_dense - p_fold) < 1e-10
        level_of = np.searchsorted(h.thetas, arr)
        per_x = state.weights[level_of] / h.counts[level_of]
        assert float(np.max(np.abs(dist - per_x))) < 1e-10
