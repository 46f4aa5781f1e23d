import numpy as np
import pytest
from hypothesis import given, strategies as st

import doubleslit as ds
from doubleslit.qubit import QubitBehavior, is_allowed, screen_state_weights

# Independent oracle: the allowed (slit half, e', e) combinations for each
# behavior, written down from the behavioral rules directly.  Exactly two
# combinations per behavior.
ALLOWED_COMBOS = {
    QubitBehavior.NONE: {("lower", 1, 1), ("upper", 1, 1)},
    QubitBehavior.REMEMBERS: {("lower", 2, 2), ("upper", 1, 1)},
    QubitBehavior.FORGETS: {("lower", 2, 1), ("upper", 1, 1)},
}


def oracle_allowed(behavior, n, i_prime, e_prime, e):
    half = "lower" if i_prime <= n // 2 else "upper"
    return (half, e_prime, e) in ALLOWED_COMBOS[behavior]


class TestIsAllowed:
    @pytest.mark.parametrize("behavior", list(QubitBehavior))
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_matches_oracle_exhaustively(self, behavior, n):
        for i_prime in range(1, n + 1):
            for e_prime in (1, 2):
                for e in (1, 2):
                    assert is_allowed(behavior, n, i_prime, e_prime, e) == \
                        oracle_allowed(behavior, n, i_prime, e_prime, e)

    def test_reference_examples(self):
        n = 4
        for i_prime in range(1, n + 1):
            assert is_allowed(QubitBehavior.NONE, n, i_prime, 1, 1)
        assert is_allowed(QubitBehavior.REMEMBERS, n, 1, 2, 2)
        assert not is_allowed(QubitBehavior.FORGETS, n, 1, 2, 2)
        assert not is_allowed(QubitBehavior.REMEMBERS, n, n, 2, 2)

    @pytest.mark.parametrize("behavior", list(QubitBehavior))
    def test_exactly_two_of_eight_combos(self, behavior):
        combos = {
            (half, ep, e)
            for half, i_prime in (("lower", 1), ("upper", 2))
            for ep in (1, 2) for e in (1, 2)
            if is_allowed(behavior, 2, i_prime, ep, e)
        }
        assert len(combos) == 2

    @given(n_half=st.integers(1, 50), i_prime=st.integers(1, 100),
           behavior=st.sampled_from(list(QubitBehavior)))
    def test_exactly_one_qubit_path_per_slit_position(self, n_half, i_prime, behavior):
        n = 2 * n_half
        i_prime = 1 + (i_prime - 1) % n
        count = sum(is_allowed(behavior, n, i_prime, ep, e)
                    for ep in (1, 2) for e in (1, 2))
        assert count == 1

    @pytest.mark.parametrize("kwargs", [
        {"i_prime": 0}, {"i_prime": 5}, {"e_prime": 3}, {"e_prime": 0}, {"e": 3},
    ])
    def test_out_of_range_indices(self, kwargs):
        args = {"i_prime": 1, "e_prime": 1, "e": 1}
        args.update(kwargs)
        with pytest.raises(IndexError):
            is_allowed(QubitBehavior.NONE, 4, **args)

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            is_allowed(QubitBehavior.NONE, 5, 1, 1, 1)


class TestTransitionMask:
    def test_none_counts_per_screen_row(self):
        table = ds.build_mask(QubitBehavior.NONE, 4).composite_table()
        # e=1 rows see every slit position through e'=1; e=2 rows see nothing
        assert (table[:4].sum(axis=1) == 4).all()
        assert (table[4:].sum(axis=1) == 0).all()

    def test_remembers_splits_slits_between_screen_states(self):
        n = 4
        table = ds.build_mask(QubitBehavior.REMEMBERS, n).composite_table()
        lower_cols_e2 = [n + i for i in range(n // 2)]          # (e'=2, lower i')
        upper_cols_e1 = list(range(n // 2, n))                  # (e'=1, upper i')
        for i in range(n):
            assert set(np.flatnonzero(table[i])) == set(upper_cols_e1)        # e=1 rows
            assert set(np.flatnonzero(table[n + i])) == set(lower_cols_e2)    # e=2 rows

    def test_forgets_feeds_everything_into_default_state(self):
        n = 4
        table = ds.build_mask(QubitBehavior.FORGETS, n).composite_table()
        expected_cols = set(range(n // 2, n)) | {n + i for i in range(n // 2)}
        for i in range(n):
            assert set(np.flatnonzero(table[i])) == expected_cols
        assert table[n:].sum() == 0

    @pytest.mark.parametrize("behavior", list(QubitBehavior))
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_table_matches_predicate_exhaustively(self, behavior, n):
        table = ds.build_mask(behavior, n).composite_table()
        expected = np.array([[is_allowed(behavior, n, i_prime, e_prime, e)
                              for e_prime in (1, 2) for i_prime in range(1, n + 1)]
                             for e in (1, 2) for _ in range(n)])
        np.testing.assert_array_equal(table, expected)

    def test_total_allowed_cells(self):
        # one (e', e) combination per (i, i') pair regardless of behavior
        for behavior in QubitBehavior:
            table = ds.build_mask(behavior, 8).composite_table()
            assert table.sum() == 8 * 8

    def test_build_mask_validation(self):
        with pytest.raises(ValueError):
            ds.build_mask(QubitBehavior.NONE, 3)
        with pytest.raises(TypeError):
            ds.build_mask("none", 4)
        with pytest.raises(ValueError):
            ds.TransitionMask(QubitBehavior.NONE, 3)
        with pytest.raises(TypeError):
            ds.TransitionMask("none", 4)


class TestInterferencePossible:
    @pytest.mark.parametrize("n", [2, 4, 20])
    def test_expected_flags(self, n):
        assert ds.interference_possible(ds.build_mask(QubitBehavior.NONE, n))
        assert ds.interference_possible(ds.build_mask(QubitBehavior.FORGETS, n))
        assert not ds.interference_possible(ds.build_mask(QubitBehavior.REMEMBERS, n))


class TestScreenState:
    @pytest.mark.parametrize("behavior", list(QubitBehavior))
    def test_matches_oracle(self, behavior):
        for half, _, e in ALLOWED_COMBOS[behavior]:
            assert ds.screen_state(behavior, half) == e

    def test_behavior_type_checked(self):
        with pytest.raises(TypeError):
            ds.screen_state("none", "lower")

    @pytest.mark.parametrize("half", ["Lower", "top", 0])
    def test_unknown_half_rejected(self, half):
        with pytest.raises(ValueError, match="half must be 'lower' or 'upper'"):
            ds.screen_state(QubitBehavior.NONE, half)


class TestScreenStateWeights:
    @pytest.mark.parametrize("behavior", list(QubitBehavior))
    def test_rows_sum_to_one(self, behavior):
        w = screen_state_weights(behavior, 10)
        assert w.shape == (10, 2)
        np.testing.assert_array_equal(w.sum(axis=1), np.ones(10))
        assert set(np.unique(w)) <= {0.0, 1.0}

    def test_none_and_forgets_identical(self):
        # the kernel ignores e', so identical weights force identical fields
        np.testing.assert_array_equal(screen_state_weights(QubitBehavior.NONE, 12),
                                      screen_state_weights(QubitBehavior.FORGETS, 12))


class TestRenderMask:
    def test_exact_small_rendering(self):
        text = ds.render_mask(ds.build_mask(QubitBehavior.NONE, 2))
        assert text == "behavior=none n=2\n##..\n##..\n....\n....\n"

    @pytest.mark.parametrize("behavior", list(QubitBehavior))
    def test_shape_and_charset(self, behavior):
        n = 8
        lines = ds.render_mask(ds.build_mask(behavior, n)).splitlines()
        assert lines[0] == f"behavior={behavior.value} n={n}"
        assert len(lines) == 1 + 2 * n
        assert all(len(row) == 2 * n and set(row) <= {"#", "."} for row in lines[1:])
