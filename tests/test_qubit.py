import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

import doubleslit as ds
from doubleslit.qubit import QubitBehavior, screen_state_weights
from reference import ALLOWED_COMBOS, is_allowed, mask_text


class TestTransitionMask:
    def test_none_counts_per_screen_row(self):
        table = ds.TransitionMask(QubitBehavior.NONE, 4).composite_table()
        # e=1 rows see every slit position through e'=1; e=2 rows see nothing
        assert (table[:4].sum(axis=1) == 4).all()
        assert (table[4:].sum(axis=1) == 0).all()

    def test_remembers_splits_slits_between_screen_states(self):
        n = 4
        table = ds.TransitionMask(QubitBehavior.REMEMBERS, n).composite_table()
        lower_cols_e2 = [n + i for i in range(n // 2)]          # (e'=2, lower i')
        upper_cols_e1 = list(range(n // 2, n))                  # (e'=1, upper i')
        for i in range(n):
            assert set(np.flatnonzero(table[i])) == set(upper_cols_e1)        # e=1 rows
            assert set(np.flatnonzero(table[n + i])) == set(lower_cols_e2)    # e=2 rows

    def test_forgets_feeds_everything_into_default_state(self):
        n = 4
        table = ds.TransitionMask(QubitBehavior.FORGETS, n).composite_table()
        expected_cols = set(range(n // 2, n)) | {n + i for i in range(n // 2)}
        for i in range(n):
            assert set(np.flatnonzero(table[i])) == expected_cols
        assert table[n:].sum() == 0

    @pytest.mark.parametrize("behavior", list(QubitBehavior))
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_table_matches_predicate_exhaustively(self, behavior, n):
        table = ds.TransitionMask(behavior, n).composite_table()
        expected = np.array([[is_allowed(behavior, n, i_prime, e_prime, e)
                              for e_prime in (1, 2) for i_prime in range(1, n + 1)]
                             for e in (1, 2) for _ in range(n)])
        np.testing.assert_array_equal(table, expected)

    @given(n_half=st.integers(1, 50), behavior=st.sampled_from(list(QubitBehavior)))
    def test_exactly_one_qubit_path_per_slit_position(self, n_half, behavior):
        # for every screen position i and slit position i', one (e', e) of the four
        n = 2 * n_half
        table = ds.TransitionMask(behavior, n).composite_table().reshape(2, n, 2, n)
        np.testing.assert_array_equal(table.sum(axis=(0, 2)), np.ones((n, n)))

    def test_reference_examples(self):
        # columns are (e', i') with e'=1 first; rows (e, i) with e=1 first
        n = 4
        none = ds.TransitionMask(QubitBehavior.NONE, n).composite_table()
        assert none[:n, :n].all()                       # (i', e'=1) -> e=1 for every i'
        remembers = ds.TransitionMask(QubitBehavior.REMEMBERS, n).composite_table()
        assert remembers[n:, n].all()                   # (i'=1, e'=2) -> e=2
        assert not remembers[n:, 2 * n - 1].any()       # (i'=n, e'=2) -> e=2
        forgets = ds.TransitionMask(QubitBehavior.FORGETS, n).composite_table()
        assert not forgets[n:, n].any()                 # (i'=1, e'=2) -> e=2

    @pytest.mark.parametrize("behavior", list(QubitBehavior))
    def test_exactly_two_of_eight_combos(self, behavior):
        n = 2
        table = ds.TransitionMask(behavior, n).composite_table()
        combos = {(half, e_prime, e)
                  for half, i_prime in (("lower", 1), ("upper", 2))
                  for e_prime in (1, 2) for e in (1, 2)
                  if table[(e - 1) * n, (e_prime - 1) * n + i_prime - 1]}
        assert len(combos) == 2
        assert combos == ALLOWED_COMBOS[behavior]

    @pytest.mark.parametrize("n", [0, 1, 3, 5, -2])
    def test_n_not_even_at_least_two_rejected(self, n):
        with pytest.raises(ValueError, match="n must be an even integer >= 2"):
            ds.TransitionMask(QubitBehavior.NONE, n)
        with pytest.raises(ValueError, match="n must be an even integer >= 2"):
            screen_state_weights(QubitBehavior.NONE, n)

    def test_total_allowed_cells(self):
        # one (e', e) combination per (i, i') pair regardless of behavior
        for behavior in QubitBehavior:
            table = ds.TransitionMask(behavior, 8).composite_table()
            assert table.sum() == 8 * 8

    def test_validation(self):
        with pytest.raises(ValueError):
            ds.TransitionMask(QubitBehavior.NONE, 3)
        with pytest.raises(TypeError):
            ds.TransitionMask("none", 4)

    def test_build_mask_is_transition_mask(self):
        assert ds.build_mask is ds.TransitionMask

    def test_bad_behavior_reported_before_bad_n(self):
        for construct in (ds.TransitionMask, screen_state_weights):
            with pytest.raises(TypeError):
                construct("none", 3)


class TestInterferencePossible:
    @pytest.mark.parametrize("n", [2, 4, 20])
    def test_expected_flags(self, n):
        # read off the mask: does one screen state collect cells of both slits?
        def both_slits_meet(behavior):
            table = ds.TransitionMask(behavior, n).composite_table().reshape(2, n, 2, n)
            reach = table[:, 0].any(axis=1)             # (e, i'): cell i' reaches state e
            return bool((reach[:, :n // 2].any(axis=1) & reach[:, n // 2:].any(axis=1)).any())

        assert both_slits_meet(QubitBehavior.NONE)
        assert both_slits_meet(QubitBehavior.FORGETS)
        assert not both_slits_meet(QubitBehavior.REMEMBERS)

    def test_both_slits_meet_in_one_screen_state(self):
        # interference needs one screen qubit state that collects amplitude from both slits
        meet = {b: len(set(ds.screen_states(b))) == 1 for b in QubitBehavior}
        assert meet == {QubitBehavior.NONE: True, QubitBehavior.REMEMBERS: False,
                        QubitBehavior.FORGETS: True}


class TestScreenStates:
    @pytest.mark.parametrize("behavior", list(QubitBehavior))
    def test_matches_oracle(self, behavior):
        e_of = {half: e for half, _, e in ALLOWED_COMBOS[behavior]}
        assert ds.screen_states(behavior) == (e_of["lower"], e_of["upper"])

    @pytest.mark.parametrize("behavior", ["none", None, 0])
    def test_behavior_type_checked(self, behavior):
        with pytest.raises(TypeError, match="behavior must be a QubitBehavior"):
            ds.screen_states(behavior)


class TestScreenStateWeights:
    @pytest.mark.parametrize("behavior", list(QubitBehavior))
    def test_rows_sum_to_one(self, behavior):
        w = screen_state_weights(behavior, 10)
        assert w.shape == (10, 2)
        np.testing.assert_array_equal(w.sum(axis=1), np.ones(10))
        assert set(np.unique(w)) <= {0.0, 1.0}

    @pytest.mark.parametrize("behavior", list(QubitBehavior))
    def test_matches_composite_table(self, behavior):
        # the weights propagation routes by reach the states the mask's table allows
        n = 6
        table = ds.TransitionMask(behavior, n).composite_table().reshape(2, n, 2, n)
        reach = table[:, 0].any(axis=1).T                # (i', e), over any e'
        np.testing.assert_array_equal(screen_state_weights(behavior, n), reach.astype(float))

    def test_none_and_forgets_identical(self):
        # the kernel ignores e', so identical weights force identical fields
        np.testing.assert_array_equal(screen_state_weights(QubitBehavior.NONE, 12),
                                      screen_state_weights(QubitBehavior.FORGETS, 12))


class TestRenderMask:
    def test_exact_small_rendering(self):
        text = ds.render_mask(ds.TransitionMask(QubitBehavior.NONE, 2))
        assert text == "behavior=none n=2\n##..\n##..\n....\n....\n"

    @pytest.mark.parametrize("behavior", list(QubitBehavior))
    @pytest.mark.parametrize("n", [2, 4, 8, 20])
    def test_matches_per_cell_reference(self, behavior, n):
        assert ds.render_mask(ds.TransitionMask(behavior, n)) == mask_text(behavior, n)

    @pytest.mark.parametrize("behavior", list(QubitBehavior))
    def test_shape_and_charset(self, behavior):
        n = 8
        lines = ds.render_mask(ds.TransitionMask(behavior, n)).splitlines()
        assert lines[0] == f"behavior={behavior.value} n={n}"
        assert len(lines) == 1 + 2 * n
        assert all(len(row) == 2 * n and set(row) <= {"#", "."} for row in lines[1:])


# n counts slit positions: like ExperimentConfig.n_positions it must be a Python int, not a
# bool, a float of integral value, a numpy integer or a string.
NON_INT_N = [4.0, True, np.int64(4), "4"]


def _rejects(n):
    return pytest.raises(ValueError, match=re.escape(f"got {n!r}"))


class TestNonIntegerN:
    @pytest.mark.parametrize("n", NON_INT_N)
    def test_screen_state_weights(self, n):
        with _rejects(n):
            screen_state_weights(QubitBehavior.NONE, n)

    @pytest.mark.parametrize("n", NON_INT_N)
    def test_transition_mask(self, n):
        with _rejects(n):
            ds.TransitionMask(QubitBehavior.NONE, n)
