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
from typing import Iterable

import numpy as np

from .errors import NumericalError, ParameterError
from .space import SearchSpace, angles, grover_angle

# amplitudes may leave [0,1] by accumulated rounding; anything worse than
# this is a real bug, not noise
PROB_CLAMP_TOL = 1e-9


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

    def norm_sq(self) -> float:
        return self.amp_t**2 + self.amp_bt**2 + self.amp_bbar**2


class OperatorSequence:
    """Ordered runs of global/local Grover applications.

    runs: tuple of (Kind, count) in application order, first run acts
    first on the initial state. Adjacent runs always differ in kind and
    counts are positive (canonical run-length form; the constructor
    normalizes).
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
                merged[-1] = (kind, merged[-1][1] + count)
            else:
                merged.append((kind, count))
        self.runs: tuple[tuple[Kind, int], ...] = tuple(merged)

    @property
    def total_queries(self) -> int:
        return sum(c for _, c in self.runs)

    def kinds(self) -> list[Kind]:
        """Flat application-order list, one entry per oracle query."""
        out: list[Kind] = []
        for kind, count in self.runs:
            out.extend([kind] * count)
        return out

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
            mobj = re.fullmatch(r"([gl])\s*:\s*(\d+)", token)
            if not mobj:
                raise ParameterError(
                    f"bad sequence token {token!r}, expected g:<count> or l:<count>"
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

    @classmethod
    def from_product_string(cls, text: str, space: SearchSpace) -> "OperatorSequence":
        """Inverse of product_string for flat products (no parentheses)."""
        text = text.strip()
        if text in ("", "I"):
            return cls(())
        runs = []
        pos = 0
        pat = re.compile(r"G_(\d+)(?:\^(\d+))?")
        while pos < len(text):
            mobj = pat.match(text, pos)
            if not mobj:
                raise ParameterError(f"cannot parse product string at {text[pos:]!r}")
            sub = int(mobj.group(1))
            count = int(mobj.group(2) or 1)
            if sub == space.n:
                kind = Kind.GLOBAL
            elif sub == space.m:
                kind = Kind.LOCAL
            else:
                raise ParameterError(
                    f"subscript {sub} is neither n={space.n} nor m={space.m}"
                )
            runs.append((kind, count))
            pos = mobj.end()
        runs.reverse()  # product order -> application order
        return cls(runs)


# -- operators ---------------------------------------------------------


def initial_state(space: SearchSpace) -> State3:
    """Uniform superposition projected on the 3D basis."""
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


def _rotate(x: float, y: float, angle: float) -> tuple[float, float]:
    c, s = math.cos(angle), math.sin(angle)
    return c * x + s * y, -s * x + c * y


def _uniform_complement(space: SearchSpace) -> tuple[float, float]:
    """(|bt~>, |b~>) components of |u>, the unit part of the uniform state
    orthogonal to |t>; |w> = (0, u_bbar, -u_bt) completes the basis."""
    rest = space.N - 1
    return math.sqrt((space.b - 1) / rest), math.sqrt((space.N - space.b) / rest)


def uniform_after_globals(space: SearchSpace, k: np.ndarray) -> np.ndarray:
    """G_n^k applied to the initial state for every k in the array, as
    rows of 3-vectors: sin((2k+1) theta1)|t> + cos((2k+1) theta1)|u>."""
    u_bt, u_bb = _uniform_complement(space)
    phase = (2.0 * k + 1.0) * angles(space).theta1
    c = np.cos(phase)
    return np.stack([np.sin(phase), u_bt * c, u_bb * c], axis=-1)


def apply_sequence(space: SearchSpace, seq: OperatorSequence) -> State3:
    """Apply the runs in order to the initial state, each run in O(1).

    A local run of j queries rotates (|t>, |bt~>) by 2*j*theta2. G_n
    rotates (|t>, |u>) by 2*theta1 and negates |w>, so a global run of j
    rotates that plane by 2*j*theta1 and scales the |w> part by (-1)^j.
    """
    a = angles(space)
    u_bt, u_bb = _uniform_complement(space)
    st = initial_state(space)
    t, bt, bb = st.amp_t, st.amp_bt, st.amp_bbar
    for kind, count in seq.runs:
        if kind is Kind.LOCAL:
            t, bt = _rotate(t, bt, 2.0 * count * a.theta2)
        else:
            t, c = _rotate(t, u_bt * bt + u_bb * bb, 2.0 * count * a.theta1)
            d = (u_bb * bt - u_bt * bb) * (-1.0 if count % 2 else 1.0)
            bt, bb = u_bt * c + u_bb * d, u_bb * c - u_bt * d
    return State3(t, bt, bb)


def _clamp_probability(p: float) -> float:
    if p < -PROB_CLAMP_TOL or p > 1.0 + PROB_CLAMP_TOL:
        raise NumericalError(f"probability {p} outside [0,1] beyond tolerance")
    return min(1.0, max(0.0, p))


def block_success_probability(space: SearchSpace, seq: OperatorSequence) -> float:
    """Chance a measurement lands anywhere in the marked item's block:
    1 - amp_bbar^2 after the sequence."""
    st = apply_sequence(space, seq)
    return _clamp_probability(1.0 - st.amp_bbar**2)


def full_target_probability(space: SearchSpace, seq: OperatorSequence) -> float:
    """Chance a measurement hits the marked item itself: amp_t^2."""
    st = apply_sequence(space, seq)
    return _clamp_probability(st.amp_t**2)


def grover_full_search_probability(n: int, k: int) -> float:
    """Closed form sin^2((2k+1) theta1) for k global queries on 2^n items."""
    if k < 0:
        raise ParameterError("k must be >= 0")
    theta1 = grover_angle(1 << n)
    return _clamp_probability(math.sin((2 * k + 1) * theta1) ** 2)


def grover_only_block_probability(space: SearchSpace, k: int) -> float:
    """Block success after k purely global queries.

    sin^2((2k+1)theta1) + (b-1)/(N-1) * cos^2((2k+1)theta1): the target
    amplitude plus the uniform remainder falling inside the block.
    """
    if k < 0:
        raise ParameterError("k must be >= 0")
    a = angles(space)
    u = (2 * k + 1) * a.theta1
    s2 = math.sin(u) ** 2
    frac = (space.b - 1) / (space.N - 1)
    return _clamp_probability(s2 + frac * (1.0 - s2))
