"""Tabular MDP model: validation, policy-induced chains, generators, file IO.

All containers are frozen dataclasses holding read-only numpy arrays, so
instances are immutable after construction and safe to share across
threads. Generators are pure functions of their parameters and seed;
randomness comes from numpy's PCG64 so traces reproduce anywhere the
same seed is used (draw order is documented per generator).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np
import numpy.random  # noqa: F401  (numpy 2 loads it lazily; import it here, not in a batch)

from .errors import (
    DimensionMismatchError,
    InvalidActionIndexError,
    InvalidDimensionError,
    InvalidParameterError,
    NegativeEntryError,
    NonSquareError,
    ParseError,
    RowSumViolationError,
)

DEFAULT_TOL = 1e-12

#: Most bytes of transition matrices (8 * m * n^2) an MDP may take: it
#: allows m = 33 actions at n = 2000, the documented scope.
MAX_TRANSITION_BYTES = 2**30

#: Rounds of derangement mixing in make_symmetric_walk.
_WALK_ROUNDS = 4


def _frozen_array(values, dtype=np.float64):
    # C order: the kernels' np.dot rounds a Fortran-order matrix differently
    out = np.array(values, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class StochasticMatrix:
    """Dense n x n row-stochastic matrix (infinity norm exactly 1).

    Construction validates: square, every entry >= -DEFAULT_TOL, every row
    sum within DEFAULT_TOL of 1. Entries are never renormalized; a matrix
    that fails the check is rejected so generator bugs cannot hide behind
    silent fixes.
    """

    entries: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.entries, dtype=np.float64)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise NonSquareError(f"expected a square matrix, got shape {M.shape}")
        if M.shape[0] < 1:
            raise NonSquareError("matrix must be at least 1x1")
        if not np.all(np.isfinite(M)):
            raise InvalidParameterError("matrix entries must be finite")
        low = M.min()
        if low < -DEFAULT_TOL:
            i, j = np.unravel_index(np.argmin(M), M.shape)
            raise NegativeEntryError(f"entry ({i},{j}) = {low} is below -tol")
        sums = M.sum(axis=1)
        dev = np.abs(sums - 1.0)
        if dev.max() > DEFAULT_TOL:
            r = int(np.argmax(dev))
            raise RowSumViolationError(
                f"row {r} sums to {sums[r]!r}, off by more than tol={DEFAULT_TOL}"
            )
        object.__setattr__(self, "entries", _frozen_array(M))

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class Mdp:
    """Tabular MDP: one transition matrix per action plus an n x m cost table."""

    transitions: tuple[StochasticMatrix, ...]
    costs: np.ndarray
    seed: int | None = None
    provenance: str = ""

    def __post_init__(self):
        if not self.transitions:
            raise InvalidDimensionError("need at least one action")
        trans = tuple(
            t if isinstance(t, StochasticMatrix) else StochasticMatrix(t)
            for t in self.transitions
        )
        n = trans[0].n
        if any(t.n != n for t in trans):
            raise DimensionMismatchError("all transition matrices must share n")
        costs = np.asarray(self.costs, dtype=np.float64)
        if costs.shape != (n, len(trans)):
            raise DimensionMismatchError(
                f"costs must have shape ({n}, {len(trans)}), got {costs.shape}"
            )
        if not np.all(np.isfinite(costs)):
            raise InvalidParameterError("costs must be finite")
        object.__setattr__(self, "transitions", trans)
        object.__setattr__(self, "costs", _frozen_array(costs))

    @property
    def n(self) -> int:
        return self.transitions[0].n

    @property
    def m(self) -> int:
        return len(self.transitions)


@dataclass(frozen=True)
class Policy:
    """Deterministic policy: one action index per state."""

    actions: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.actions)
        if a.ndim != 1 or a.size < 1:
            raise DimensionMismatchError("policy must be a nonempty 1-D array")
        if not np.issubdtype(a.dtype, np.integer):
            if not np.all(a == np.floor(a)):
                raise InvalidActionIndexError("action indices must be integers")
            a = a.astype(np.int64)
        if a.min() < 0:
            raise InvalidActionIndexError("action indices must be nonnegative")
        object.__setattr__(self, "actions", _frozen_array(a, dtype=np.int64))

    @property
    def n(self) -> int:
        return self.actions.shape[0]


@dataclass(frozen=True)
class InducedChain:
    """The (P, c) pair a policy induces: P rows and cost entries selected per state."""

    P: StochasticMatrix
    c: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=np.float64)
        if c.shape != (self.P.n,):
            raise DimensionMismatchError(
                f"cost vector must have shape ({self.P.n},), got {c.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise InvalidParameterError("cost vector must be finite")
        object.__setattr__(self, "c", _frozen_array(c))

    @property
    def n(self) -> int:
        return self.P.n


def _over_budget(n: int, m: int) -> str | None:
    """Why n states and m actions are refused, or None if they fit MAX_TRANSITION_BYTES."""
    size = 8 * int(m) * int(n) ** 2
    if size <= MAX_TRANSITION_BYTES:
        return None
    return (
        f"n={n}, m={m} needs {size} bytes of transition matrices, more than the "
        f"{MAX_TRANSITION_BYTES} allowed; the documented scope is n <= 2000"
    )


def as_discount(alpha) -> float:
    """alpha as a float, validated to lie in [0, 1) (strict)."""
    a = float(alpha)
    if not (0.0 <= a < 1.0):
        raise InvalidParameterError(f"alpha must be in [0, 1), got {a}")
    return a


def induce_chain(mdp: Mdp, policy: Policy) -> InducedChain:
    """Select per-state rows and costs: P[s] = T_{policy[s]}[s], c[s] = costs[s, policy[s]].

    Row selection copies bits; no arithmetic touches the entries.
    """
    if policy.n != mdp.n:
        raise DimensionMismatchError(
            f"policy length {policy.n} does not match state count {mdp.n}"
        )
    acts = policy.actions
    if acts.max() >= mdp.m:
        s = int(np.argmax(acts))
        raise InvalidActionIndexError(
            f"state {s} uses action {acts[s]} but the MDP has m={mdp.m}"
        )
    P = np.empty((mdp.n, mdp.n))
    for a, T in enumerate(mdp.transitions):
        rows = acts == a
        P[rows] = T.entries[rows]
    c = mdp.costs[np.arange(mdp.n), acts]
    return InducedChain(StochasticMatrix(P), c)


def make_random_mdp(n: int, m: int, seed: int) -> Mdp:
    """Random dense MDP: rows are normalized uniforms, costs uniform in [0,1].

    Draw order: for each action, one n x n uniform block (rows then
    normalized); afterwards the n x m cost table.
    """
    if n < 1 or m < 1:
        raise InvalidDimensionError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    if refusal := _over_budget(n, m):
        raise InvalidDimensionError(refusal)
    rng = np.random.default_rng(seed)
    transitions = []
    for _ in range(m):
        T = rng.random((n, n))
        T /= T.sum(axis=1, keepdims=True)
        transitions.append(StochasticMatrix(T))
    costs = rng.random((n, m))
    return Mdp(
        tuple(transitions),
        costs,
        seed=seed,
        provenance=f"make_random_mdp(n={n}, m={m}, seed={seed})",
    )


def _random_derangement(n: int, rng) -> np.ndarray:
    # rejection sampling; expected ~e tries
    while True:
        perm = rng.permutation(n)
        if not np.any(perm == np.arange(n)):
            return perm


def make_symmetric_walk(n: int, self_loop: float, seed: int = 0) -> Mdp:
    """Single-action MDP whose transition matrix is exactly symmetric.

    The off-diagonal mass is a weighted mixture of symmetrized random
    derangement matrices (M + M^T)/2, which are symmetric and doubly
    stochastic with zero diagonal, so P = self_loop*I + (1-self_loop)*mix
    satisfies P = P^T entrywise. Draw order: _WALK_ROUNDS derangements
    (rejection-sampled permutations), then the round weights, then the
    n x 1 cost column.
    """
    if n < 2:
        raise InvalidDimensionError(f"need n >= 2, got n={n}")
    if not (0.0 <= self_loop < 1.0):
        raise InvalidParameterError(f"self_loop must be in [0, 1), got {self_loop}")
    if refusal := _over_budget(n, 1):
        raise InvalidDimensionError(refusal)
    rng = np.random.default_rng(seed)
    mix = np.zeros((n, n))
    perms = [_random_derangement(n, rng) for _ in range(_WALK_ROUNDS)]
    weights = rng.random(_WALK_ROUNDS)
    weights /= weights.sum()
    rows = np.arange(n)
    for perm, w in zip(perms, weights):
        # The nonzeros of w * (M + M^T) / 2 for M[i, perm[i]] = 1: w at
        # (i, perm[i]) and (perm[i], i) where perm swaps i and perm[i],
        # w / 2 at both where it does not. They are distinct entries.
        two_cycle = perm[perm] == rows
        value = w * ((1.0 + two_cycle) / 2.0)
        mix[rows, perm] += value
        one_way = ~two_cycle
        mix[perm[one_way], rows[one_way]] += value[one_way]
    P = (1.0 - self_loop) * mix
    P[np.arange(n), np.arange(n)] += self_loop
    costs = rng.random((n, 1))
    return Mdp(
        (StochasticMatrix(P),),
        costs,
        seed=seed,
        provenance=f"make_symmetric_walk(n={n}, self_loop={self_loop}, seed={seed})",
    )


# --- text matrix format -----------------------------------------------------
#
# UTF-8; '#' lines are comments; first non-comment line is "<rows> <cols>";
# each following non-comment line is one row of <cols> reals, single-space
# separated, printed with 17 significant digits (lossless for float64).


def format_real(x: float) -> str:
    return f"{float(x):.17g}"


def write_matrix(matrix, path) -> None:
    """Write a matrix (or n-vector, stored as n x 1) in the text format."""
    M = np.asarray(matrix, dtype=np.float64)
    if M.ndim == 1:
        M = M.reshape(-1, 1)
    if M.ndim != 2:
        raise DimensionMismatchError(f"can only write 1-D or 2-D arrays, got ndim={M.ndim}")
    rows, cols = M.shape
    lines = [f"{rows} {cols}"]
    for r in range(rows):
        lines.append(" ".join(format_real(x) for x in M[r]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_matrix(path) -> np.ndarray:
    """Read a matrix written by write_matrix. Returns a raw (rows, cols) array."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw_lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text") from exc
    lines = [ln.strip() for ln in raw_lines]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError(f"{path}: empty matrix file")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"{path}: header must be '<rows> <cols>', got {lines[0]!r}")
    try:
        rows, cols = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ParseError(f"{path}: non-integer header {lines[0]!r}") from exc
    if rows < 0 or cols < 0:
        raise ParseError(f"{path}: negative dimensions in header")
    if len(lines) - 1 != rows:
        raise ParseError(f"{path}: expected {rows} data rows, found {len(lines) - 1}")
    # rows are parsed one by one, so the header alone never sizes an array
    out = []
    for r, ln in enumerate(lines[1:]):
        parts = ln.split()
        if len(parts) != cols:
            raise ParseError(f"{path}: row {r} has {len(parts)} entries, expected {cols}")
        try:
            out.append(np.array([float(p) for p in parts]))
        except ValueError as exc:
            raise ParseError(f"{path}: row {r} holds a non-numeric token") from exc
    return np.array(out, dtype=np.float64).reshape(rows, cols)


# --- MDP container format ----------------------------------------------------
#
# A directory with meta.json ({"n", "m", "seed", "provenance"}), one
# T<a>.mat per action a, and costs.mat (n x m).


def write_mdp(mdp: Mdp, directory) -> None:
    os.makedirs(directory, exist_ok=True)
    meta = {"n": mdp.n, "m": mdp.m, "seed": mdp.seed, "provenance": mdp.provenance}
    with open(os.path.join(directory, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for a, T in enumerate(mdp.transitions):
        write_matrix(T.entries, os.path.join(directory, f"T{a}.mat"))
    write_matrix(mdp.costs, os.path.join(directory, "costs.mat"))


def read_mdp(directory) -> Mdp:
    meta_path = os.path.join(directory, "meta.json")
    try:
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{meta_path}: not UTF-8 text") from exc
    except ValueError as exc:  # bad JSON, or an integer past Python's digit limit
        raise ParseError(f"{meta_path}: invalid JSON") from exc
    if not isinstance(meta, dict):
        raise ParseError(f"{meta_path}: meta.json must hold a JSON object")
    n, m = meta.get("n"), meta.get("m")
    if any(isinstance(v, bool) or not isinstance(v, int) or v < 1 for v in (n, m)):
        raise ParseError(f"{meta_path}: meta.json must carry integers 'n' and 'm' >= 1")
    if refusal := _over_budget(n, m):
        raise ParseError(f"{meta_path}: {refusal}")
    seed = meta.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise ParseError(f"{meta_path}: meta.json's 'seed' must be null or an integer")
    transitions = []
    for a in range(m):
        T = read_matrix(os.path.join(directory, f"T{a}.mat"))
        if T.shape != (n, n):
            raise ParseError(f"T{a}.mat: expected shape ({n}, {n}), got {T.shape}")
        transitions.append(StochasticMatrix(T))
    costs = read_matrix(os.path.join(directory, "costs.mat"))
    if costs.shape != (n, m):
        raise ParseError(f"costs.mat: expected shape ({n}, {m}), got {costs.shape}")
    return Mdp(
        tuple(transitions),
        costs,
        seed=seed,
        provenance=str(meta.get("provenance", "")),
    )
