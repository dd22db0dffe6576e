"""Exact 3D subspace dynamics of global/local Grover operators.

Every state reachable from the uniform superposition lives in the span of

    |t>      the marked item,
    |bt~>    uniform superposition of the other b-1 items in its block,
    |b~>     uniform superposition of the N-b items outside the block,

so one search instance reduces to real orthogonal 3x3 matrices acting on a
real 3-vector. Sequences are stored in application order; rendering uses
product notation where the rightmost factor acts first.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from functools import cache
from typing import Iterable

import numpy as np

from .errors import NumericalError, ParameterError
from .space import Angles, SearchSpace, angles, grover_angle

# amplitudes may leave [0,1] by accumulated rounding; anything worse than
# this is a real bug, not noise
PROB_CLAMP_TOL = 1e-9

# a run count must be exact as a double: the run loop forms 2.0 * count * theta
_MAX_RUN_COUNT = 1 << 53


def _echo(text: str) -> str:
    """repr of text for an error message, cut to its first 40 characters
    and marked with '...', so a huge argument stays a one-line error."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}..."


class Kind(enum.Enum):
    GLOBAL = "g"
    LOCAL = "l"


@dataclass(frozen=True)
class State3:
    """Real amplitudes on (|t>, |bt~>, |b~>). Unit norm throughout."""

    amp_t: float
    amp_bt: float
    amp_bbar: float

    def as_array(self) -> np.ndarray:
        return np.array([self.amp_t, self.amp_bt, self.amp_bbar])

    def probabilities(self) -> tuple[float, float]:
        """(block, target): 1 - amp_bbar^2 and amp_t^2, each clamped to [0, 1]."""
        return _clamp_probability(1.0 - self.amp_bbar**2), _clamp_probability(self.amp_t**2)


class OperatorSequence:
    """Ordered runs of global/local Grover applications.

    runs: tuple of (Kind, count) in application order, first run acts
    first on the initial state. Adjacent runs always differ in kind and
    counts are positive (canonical run-length form; the constructor
    normalizes). A count, merged or not, is at most 2^53.
    """

    __slots__ = ("runs",)

    def __init__(self, runs: Iterable[tuple[Kind, int]]):
        merged: list[tuple[Kind, int]] = []
        for kind, count in runs:
            if not isinstance(kind, Kind):
                raise ParameterError(f"bad operator kind: {kind!r}")
            if count < 0:
                raise ParameterError("run counts must be non-negative")
            if count == 0:
                continue
            if merged and merged[-1][0] is kind:
                count += merged.pop()[1]
            if count > _MAX_RUN_COUNT:
                raise ParameterError(f"run count {count} exceeds 2^53")
            merged.append((kind, count))
        self.runs: tuple[tuple[Kind, int], ...] = tuple(merged)

    @property
    def total_queries(self) -> int:
        return sum(c for _, c in self.runs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, OperatorSequence) and self.runs == other.runs

    def __hash__(self) -> int:
        return hash(self.runs)

    def __repr__(self) -> str:
        return f"OperatorSequence({self.token_spec()!r})"

    # -- text forms ----------------------------------------------------

    @classmethod
    def from_kinds(cls, kinds: Iterable[Kind]) -> "OperatorSequence":
        return cls((k, 1) for k in kinds)

    @classmethod
    def from_token_spec(cls, spec: str) -> "OperatorSequence":
        """Parse 'g:1,l:2,g:4' (application order, g=global, l=local)."""
        if spec.strip() == "":
            return cls(())
        runs = []
        for token in spec.split(","):
            token = token.strip()
            # at most 16 significant digits: 2^53 has 16, and int() of a
            # digit string thousands long raises ValueError
            mobj = re.fullmatch(r"([gl])\s*:\s*0*(\d{1,16})", token)
            if not mobj:
                raise ParameterError(
                    f"bad sequence token {_echo(token)}, expected g:<count> or "
                    "l:<count> with count <= 2^53"
                )
            runs.append((Kind(mobj.group(1)), int(mobj.group(2))))
        return cls(runs)

    def token_spec(self) -> str:
        return ",".join(f"{kind.value}:{count}" for kind, count in self.runs)

    def product_string(self, space: SearchSpace) -> str:
        """Right-to-left product notation, e.g. 'G_8G_2G_8^6'.

        The rightmost factor is applied first, so runs are emitted in
        reverse application order. Subscript n marks global, m local.
        """
        parts = []
        for kind, count in reversed(self.runs):
            sub = space.n if kind is Kind.GLOBAL else space.m
            parts.append(f"G_{sub}" + (f"^{count}" if count > 1 else ""))
        return "".join(parts) if parts else "I"


# -- operators ---------------------------------------------------------


@cache
def initial_state(space: SearchSpace) -> State3:
    """Uniform superposition projected on the 3D basis. Computed once per
    geometry, as angles() is: SearchSpace and State3 are frozen."""
    a = angles(space)
    sg, cg = math.sin(a.gamma), math.cos(a.gamma)
    s2, c2 = math.sin(a.theta2), math.cos(a.theta2)
    return State3(sg * s2, sg * c2, cg)


def global_grover_matrix(space: SearchSpace) -> np.ndarray:
    """Oracle followed by diffusion over the whole space, in the 3D basis.

    Orthogonal with determinant -1.
    """
    a = angles(space)
    s2, c2 = math.sin(a.theta2), math.cos(a.theta2)
    sg, cg = math.sin(a.gamma), math.cos(a.gamma)
    return np.array(
        [
            [1 - 2 * sg * sg * s2 * s2, 2 * sg * sg * s2 * c2, 2 * sg * cg * s2],
            [-2 * sg * sg * s2 * c2, 2 * sg * sg * c2 * c2 - 1, 2 * sg * cg * c2],
            [-2 * sg * cg * s2, 2 * sg * cg * c2, 2 * cg * cg - 1],
        ]
    )


def local_grover_matrix(space: SearchSpace) -> np.ndarray:
    """Oracle followed by per-block diffusion: a rotation by 2*theta2 in
    the (|t>, |bt~>) plane, identity on |b~>. Determinant +1."""
    a = angles(space)
    c, s = math.cos(2 * a.theta2), math.sin(2 * a.theta2)
    return np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])


def _uniform_complement(space: SearchSpace) -> tuple[float, float]:
    """(|bt~>, |b~>) components of |u>, the unit part of the uniform state
    orthogonal to |t>; |w> = (0, u_bbar, -u_bt) completes the basis."""
    rest = space.N - 1
    return math.sqrt((space.b - 1) / rest), math.sqrt((space.N - space.b) / rest)


def _rotation(a: Angles, is_local: bool, count: int) -> tuple[bool, float, float, float]:
    """(is_local, cos, sin, sign) of a run of count queries of one kind:
    its rotation angle is 2*count*theta2 (local) or 2*count*theta1
    (global), and sign = (-1)^count scales the |w> part of a global run."""
    angle = 2.0 * count * (a.theta2 if is_local else a.theta1)
    return is_local, math.cos(angle), math.sin(angle), -1.0 if count % 2 else 1.0


def _apply_runs(
    space: SearchSpace,
    runs: list[tuple[bool, float, float, float]],
    row_ends: Iterable[int],
) -> list[tuple[float, float, float]]:
    """Apply runs, each a _rotation, to the initial state, each run in
    O(1). Row r is the runs from where row r - 1 ended up to row_ends[r];
    returns the final (amp_t, amp_bt, amp_bbar) of each row.

    A local run of j queries rotates (|t>, |bt~>) by 2*j*theta2. G_n
    rotates (|t>, |u>) by 2*theta1 and negates |w>, so a global run of j
    rotates that plane by 2*j*theta1 and scales the |w> part by (-1)^j.
    """
    u_bt, u_bb = _uniform_complement(space)
    st = initial_state(space)
    out, begin = [], 0
    for end in row_ends:
        t, bt, bb = st.amp_t, st.amp_bt, st.amp_bbar
        for is_local, c, s, sign in runs[begin:end]:
            if is_local:
                t, bt = c * t + s * bt, -s * t + c * bt
            else:
                u = u_bt * bt + u_bb * bb
                d = (u_bb * bt - u_bt * bb) * sign
                x = -s * t + c * u
                t, bt, bb = c * t + s * u, u_bt * x + u_bb * d, u_bb * x - u_bt * d
        out.append((t, bt, bb))
        begin = end
    return out


def apply_sequence(space: SearchSpace, seq: OperatorSequence) -> State3:
    """Apply the runs in order to the initial state: _apply_runs on one row."""
    a = angles(space)
    runs = [_rotation(a, kind is Kind.LOCAL, count) for kind, count in seq.runs]
    return State3(*_apply_runs(space, runs, [len(runs)])[0])


def _apply_sequences(
    space: SearchSpace, local: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """apply_sequence for many sequences at once, bit for bit.

    Sequence r is the next lengths[r] queries of the flat bool array local
    (True: a local query), in application order; the lengths sum to
    len(local). Returns the final (amp_t, amp_bt, amp_bbar) of every
    sequence as a (rows, 3) array.

    numpy cuts every sequence into runs, each distinct run's _rotation is
    taken once, and one _apply_runs call applies every row, a repeated
    sequence as often as it is drawn.
    """
    lengths = lengths.astype(np.int64, copy=False)
    ends = np.cumsum(lengths)
    # a run starts at each change of kind and at each row's first query
    is_start = np.ones(len(local), dtype=bool)
    np.not_equal(local[1:], local[:-1], out=is_start[1:])
    is_start[(ends - lengths)[lengths > 0]] = True
    starts = np.flatnonzero(is_start)
    counts = np.diff(starts, append=len(local))
    row_ends = np.searchsorted(starts, ends).tolist()
    # runs keyed by 2 * count + is_local, one _rotation per distinct key
    run_keys, run_of = np.unique(2 * counts + local[starts], return_inverse=True)
    a = angles(space)
    rotations = [_rotation(a, bool(key & 1), key >> 1) for key in run_keys.tolist()]
    runs = [rotations[i] for i in run_of.tolist()]
    return np.array(_apply_runs(space, runs, row_ends)).reshape(len(row_ends), 3)


def _clamp_probability(p: float) -> float:
    if p < -PROB_CLAMP_TOL or p > 1.0 + PROB_CLAMP_TOL:
        raise NumericalError(f"probability {p} outside [0,1] beyond tolerance")
    return min(1.0, max(0.0, p))


def block_success_probability(space: SearchSpace, seq: OperatorSequence) -> float:
    """Chance a measurement lands anywhere in the marked item's block:
    1 - amp_bbar^2 after the sequence."""
    return apply_sequence(space, seq).probabilities()[0]


def grover_full_search_probability(n: int, k: int) -> float:
    """Closed form sin^2((2k+1) theta1) for k global queries on 2^n items."""
    if k < 0:
        raise ParameterError("k must be >= 0")
    theta1 = grover_angle(1 << n)
    return _clamp_probability(math.sin((2 * k + 1) * theta1) ** 2)
