import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

from specvi.errors import (
    DimensionMismatchError,
    InvalidActionIndexError,
    InvalidDimensionError,
    InvalidParameterError,
    NegativeEntryError,
    NonSquareError,
    ParseError,
    RowSumViolationError,
)
from specvi.mdp import (
    _WALK_ROUNDS,
    InducedChain,
    Mdp,
    Policy,
    StochasticMatrix,
    _over_budget,
    _random_derangement,
    induce_chain,
    make_random_mdp,
    make_symmetric_walk,
    read_matrix,
    read_mdp,
    write_matrix,
    write_mdp,
)


class TestValidateStochastic:
    def test_identity_is_valid(self):
        sm = StochasticMatrix(np.eye(3))
        assert sm.n == 3
        assert_array_equal(sm.entries, np.eye(3))

    def test_explicit_rows_valid(self):
        sm = StochasticMatrix([[0.5, 0.5], [0.25, 0.75]])
        assert sm.n == 2

    def test_row_sum_violation(self):
        with pytest.raises(RowSumViolationError):
            StochasticMatrix([[0.5, 0.6], [0.25, 0.75]])

    def test_negative_entry(self):
        with pytest.raises(NegativeEntryError):
            StochasticMatrix([[1.1, -0.1], [0.5, 0.5]])

    def test_non_square(self):
        with pytest.raises(NonSquareError):
            StochasticMatrix(np.ones((2, 3)) / 3.0)

    def test_no_renormalization(self):
        # entries come back exactly as given, never silently fixed up
        M = np.array([[0.3, 0.7], [0.9, 0.1]])
        sm = StochasticMatrix(M)
        assert_array_equal(sm.entries, M)

    def test_entries_read_only(self):
        sm = StochasticMatrix(np.eye(2))
        with pytest.raises(ValueError):
            sm.entries[0, 0] = 0.5


class TestInduceChain:
    def test_single_action(self):
        mdp = make_random_mdp(4, 1, seed=0)
        chain = induce_chain(mdp, Policy(np.zeros(4, dtype=int)))
        assert_array_equal(chain.P.entries, mdp.transitions[0].entries)
        assert_array_equal(chain.c, mdp.costs[:, 0])

    def test_two_state_two_action(self):
        mdp = Mdp(
            transitions=(
                StochasticMatrix([[1.0, 0.0], [0.0, 1.0]]),
                StochasticMatrix([[0.0, 1.0], [1.0, 0.0]]),
            ),
            costs=[[1.0, 2.0], [3.0, 4.0]],
        )
        chain = induce_chain(mdp, Policy([0, 1]))
        assert_array_equal(chain.P.entries, [[1.0, 0.0], [1.0, 0.0]])
        assert_array_equal(chain.c, [1.0, 4.0])

    def test_matches_row_selection_oracle(self):
        # independent per-row selection loop, written against the raw arrays
        mdp = make_random_mdp(5, 3, seed=123)
        policy = Policy([2, 0, 1, 2, 1])
        chain = induce_chain(mdp, policy)
        for s in range(5):
            a = policy.actions[s]
            expected_row = mdp.transitions[a].entries[s]
            assert_array_equal(chain.P.entries[s], expected_row)
            assert chain.c[s] == mdp.costs[s, a]

    def test_rows_copied_bitwise(self):
        actions = [1, 0, 1, 0, 1, 0]
        mdp = make_random_mdp(6, 2, seed=5)
        chain = induce_chain(mdp, Policy(actions))
        for s in range(6):
            sel = mdp.transitions[actions[s]].entries[s]
            assert chain.P.entries[s].tobytes() == sel.tobytes()
            assert chain.c[s] == mdp.costs[s, actions[s]]

    def test_mixed_policy_has_the_bytes_of_a_per_state_loop(self):
        mdp = make_random_mdp(40, 3, seed=11)
        actions = np.random.default_rng(11).integers(0, 3, size=40)
        assert set(actions.tolist()) == {0, 1, 2}
        chain = induce_chain(mdp, Policy(actions))
        P, c = np.empty((40, 40)), np.empty(40)
        for s, a in enumerate(actions):
            P[s] = mdp.transitions[a].entries[s]
            c[s] = mdp.costs[s, a]
        assert chain.P.entries.tobytes() == P.tobytes()
        assert chain.c.tobytes() == c.tobytes()

    def test_policy_length_mismatch(self):
        mdp = make_random_mdp(4, 2, seed=0)
        with pytest.raises(DimensionMismatchError):
            induce_chain(mdp, Policy([0, 1]))

    def test_invalid_action_index(self):
        mdp = make_random_mdp(3, 2, seed=0)
        with pytest.raises(InvalidActionIndexError):
            induce_chain(mdp, Policy([0, 2, 1]))


class TestGenerators:
    def test_random_mdp_deterministic(self):
        a = make_random_mdp(3, 2, seed=7)
        b = make_random_mdp(3, 2, seed=7)
        assert a.provenance == b.provenance
        for ta, tb in zip(a.transitions, b.transitions):
            assert_array_equal(ta.entries, tb.entries)
        assert_array_equal(a.costs, b.costs)

    def test_random_mdp_rows_stochastic(self):
        mdp = make_random_mdp(50, 4, seed=1)
        for T in mdp.transitions:
            sums = T.entries.sum(axis=1)
            assert np.abs(sums - 1.0).max() <= 1e-12
            assert T.entries.min() >= 0.0

    def test_random_mdp_invalid_dims(self):
        with pytest.raises(InvalidDimensionError):
            make_random_mdp(0, 2, seed=0)
        with pytest.raises(InvalidDimensionError):
            make_random_mdp(3, 0, seed=0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: make_random_mdp(10**9, 1, seed=0),
            lambda: make_random_mdp(8, 10**9, seed=0),
            lambda: make_symmetric_walk(30000, 0.1, seed=0),
        ],
        ids=["n=1e9", "m=1e9", "walk-n=30000"],
    )
    def test_past_the_byte_budget_is_refused(self, make):
        with pytest.raises(InvalidDimensionError, match="documented scope is n <= 2000"):
            make()

    def test_byte_budget_holds_33_actions_at_n_2000(self):
        assert _over_budget(2000, 33) is None
        assert _over_budget(2000, 34) is not None

    def test_symmetric_walk_two_states(self):
        walk = make_symmetric_walk(2, 0.0, seed=9)
        assert_array_equal(walk.transitions[0].entries, [[0.0, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize("n,self_loop,seed", [(5, 0.0, 1), (17, 0.3, 2), (30, 0.2, 3)])
    def test_symmetric_walk_exact_symmetry(self, n, self_loop, seed):
        P = make_symmetric_walk(n, self_loop, seed).transitions[0].entries
        assert np.abs(P - P.T).max() == 0.0
        assert np.abs(P.sum(axis=1) - 1.0).max() <= 1e-12
        assert_allclose(np.diag(P), self_loop, atol=1e-15)

    def test_symmetric_walk_perron_root(self):
        # dense eigensolver oracle: any stochastic matrix has rho = 1
        P = make_symmetric_walk(30, 0.2, seed=3).transitions[0].entries
        rho = np.abs(np.linalg.eigvals(P)).max()
        assert abs(rho - 1.0) <= 1e-10

    def test_symmetric_walk_invalid_params(self):
        with pytest.raises(InvalidDimensionError):
            make_symmetric_walk(1, 0.0)
        with pytest.raises(InvalidParameterError):
            make_symmetric_walk(4, 1.0)
        with pytest.raises(InvalidParameterError):
            make_symmetric_walk(4, -0.1)

    @pytest.mark.parametrize("n", [2, 3, 4, 30, 300])
    def test_symmetric_walk_matches_dense_rounds(self, n):
        # reference: each round adds the dense w * (M + M^T) / 2
        for seed in range(30):
            rng = np.random.default_rng(seed)
            perms = [_random_derangement(n, rng) for _ in range(_WALK_ROUNDS)]
            weights = rng.random(_WALK_ROUNDS)
            weights /= weights.sum()
            mix = np.zeros((n, n))
            for perm, w in zip(perms, weights):
                M = np.zeros((n, n))
                M[np.arange(n), perm] = 1.0
                mix += w * ((M + M.T) / 2.0)
            P = (1.0 - 0.2) * mix
            P[np.arange(n), np.arange(n)] += 0.2
            got = make_symmetric_walk(n, 0.2, seed).transitions[0].entries
            assert got.tobytes() == P.tobytes()

    def test_symmetric_walk_deterministic(self):
        a = make_symmetric_walk(12, 0.25, seed=4).transitions[0].entries
        b = make_symmetric_walk(12, 0.25, seed=4).transitions[0].entries
        assert_array_equal(a, b)


class TestMatrixIo:
    def test_identity_round_trip(self, tmp_path):
        path = tmp_path / "eye.mat"
        write_matrix(np.eye(2), path)
        assert_array_equal(read_matrix(path), np.eye(2))

    def test_literal_parse(self, tmp_path):
        path = tmp_path / "lit.mat"
        path.write_text("2 2\n0.5 0.5\n0.25 0.75\n")
        assert_array_equal(read_matrix(path), [[0.5, 0.5], [0.25, 0.75]])

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "c.mat"
        path.write_text("# heading\n2 1\n# interior\n1.5\n-2.25\n")
        assert_array_equal(read_matrix(path), [[1.5], [-2.25]])

    def test_random_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(20)
        M = rng.standard_normal((20, 20)) * np.exp(rng.uniform(-30, 30, (20, 20)))
        path = tmp_path / "r.mat"
        write_matrix(M, path)
        back = read_matrix(path)
        assert np.abs(back - M).max() == 0.0

    def test_vector_round_trip(self, tmp_path):
        v = np.array([1.0, 2.5, -3.125])
        path = tmp_path / "v.mat"
        write_matrix(v, path)
        back = read_matrix(path)
        assert back.shape == (3, 1)
        assert_array_equal(back[:, 0], v)

    @pytest.mark.parametrize(
        "content",
        [
            "",
            "2\n1 2\n",
            "2 2\n0.5 0.5\n",
            "1 2\n0.5\n",
            "1 1\nabc\n",
            "x y\n1 2\n",
            # the header's 2 x 10^12 array would need 14.6 TiB
            "2 1000000000000\n0.5 0.5\n0.5 0.5\n",
        ],
    )
    def test_parse_errors(self, tmp_path, content):
        path = tmp_path / "bad.mat"
        path.write_text(content)
        with pytest.raises(ParseError):
            read_matrix(path)

    def test_non_utf8_file_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_bytes(b"\xff1 1\n1.0\n")
        with pytest.raises(ParseError, match="bad.mat: not UTF-8 text"):
            read_matrix(path)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            read_matrix(tmp_path / "nope.mat")

    @settings(max_examples=25, deadline=None)
    @given(
        M=arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(1, 6)),
            elements=st.floats(
                allow_nan=False, allow_infinity=False, width=64, min_value=-1e300, max_value=1e300
            ),
        )
    )
    def test_round_trip_is_identity(self, M, tmp_path_factory):
        path = tmp_path_factory.mktemp("io") / "m.mat"
        write_matrix(M, path)
        assert np.abs(read_matrix(path) - M).max() == 0.0


class TestMdpIo:
    def test_directory_round_trip(self, tmp_path):
        mdp = make_random_mdp(6, 3, seed=11)
        d = tmp_path / "mdp"
        write_mdp(mdp, d)
        back = read_mdp(d)
        assert back.n == mdp.n and back.m == mdp.m
        assert back.seed == mdp.seed
        assert back.provenance == mdp.provenance
        for Ta, Tb in zip(mdp.transitions, back.transitions):
            assert np.abs(Ta.entries - Tb.entries).max() == 0.0
        assert np.abs(mdp.costs - back.costs).max() == 0.0

    def test_bad_meta_raises(self, tmp_path):
        d = tmp_path / "mdp"
        write_mdp(make_random_mdp(3, 1, seed=0), d)
        (d / "meta.json").write_text("{not json")
        with pytest.raises(ParseError):
            read_mdp(d)

    def test_meta_integer_past_the_digit_limit_is_parse_error(self, tmp_path):
        d = tmp_path / "mdp"
        write_mdp(make_random_mdp(3, 1, seed=0), d)
        (d / "meta.json").write_text('{"n": 3, "m": 1, "seed": ' + "1" * 5000 + "}")
        with pytest.raises(ParseError, match="meta.json: invalid JSON"):
            read_mdp(d)

    @pytest.mark.parametrize("name", ["meta.json", "T0.mat"])
    def test_non_utf8_file_is_parse_error(self, tmp_path, name):
        d = tmp_path / "mdp"
        write_mdp(make_random_mdp(3, 1, seed=0), d)
        (d / name).write_bytes(b"\xff" + (d / name).read_bytes())
        with pytest.raises(ParseError, match=f"{name}: not UTF-8 text"):
            read_mdp(d)

    @pytest.mark.parametrize(
        "n, m",
        [(5.7, 1), (True, 1), ("3", 1), (3, 0), (None, 1), (10**9, 1), (8, 10**9), (30000, 1)],
    )
    def test_bad_meta_sizes_are_refused_before_any_matrix_is_read(self, tmp_path, n, m):
        d = tmp_path / "mdp"
        write_mdp(make_random_mdp(3, 1, seed=0), d)
        (d / "T0.mat").unlink()
        (d / "meta.json").write_text(json.dumps({"n": n, "m": m}))
        with pytest.raises(ParseError, match="meta.json"):
            read_mdp(d)

    @pytest.mark.parametrize("seed", ["abc", "3", 5.7, True, [1]])
    def test_bad_meta_seed_is_refused_before_any_matrix_is_read(self, tmp_path, seed):
        d = tmp_path / "mdp"
        write_mdp(make_random_mdp(3, 1, seed=0), d)
        (d / "T0.mat").unlink()
        (d / "meta.json").write_text(json.dumps({"n": 3, "m": 1, "seed": seed}))
        with pytest.raises(ParseError, match="meta.json's 'seed'"):
            read_mdp(d)

    @pytest.mark.parametrize("seed", [None, 0, -7, 2**70])
    def test_meta_seed_is_null_or_any_integer(self, tmp_path, seed):
        d = tmp_path / "mdp"
        write_mdp(make_random_mdp(3, 1, seed=0), d)
        (d / "meta.json").write_text(json.dumps({"n": 3, "m": 1, "seed": seed}))
        assert read_mdp(d).seed == seed


class TestTypes:
    def test_discount_factor_range(self):
        from specvi.mdp import as_discount

        assert as_discount(0.0) == 0.0
        assert as_discount(0.99) == 0.99
        with pytest.raises(InvalidParameterError, match=r"alpha must be in \[0, 1\), got 1.0"):
            as_discount(1.0)
        with pytest.raises(InvalidParameterError):
            as_discount(-0.01)

    def test_induced_chain_checks(self):
        P = StochasticMatrix(np.eye(2))
        with pytest.raises(DimensionMismatchError):
            InducedChain(P, np.zeros(3))
        with pytest.raises(InvalidParameterError):
            InducedChain(P, np.array([np.nan, 0.0]))

    def test_mdp_cost_shape(self):
        with pytest.raises(DimensionMismatchError):
            Mdp((StochasticMatrix(np.eye(2)),), costs=np.zeros((3, 1)))

    def test_policy_negative(self):
        with pytest.raises(InvalidActionIndexError):
            Policy([-1, 0])
