"""Inequality systems for the relay broadcast channel bound catalog.

Twelve bounds are exposed, grouped by message configuration:

    T1-T4   config A: two confidential messages + one common message
    T5-T8   config B: two confidential messages, no common message
    T9-T12  config C: one confidential message + one common message

Within each group: an outer bound (T1/T5/T9), a decode-forward inner bound
(T2/T6/T10), a noise-forward inner bound (T3/T7/T11, two branches selected by
a less-noisy comparison between the relay links) and a compress-forward inner
bound (T4/T8/T12, same branching plus a quantizer Yh = compressed relay
observation and a pure-noise rate budget R*).

Each bound is stored as structured data: a coupling factorization, branch
conditions, and inequality lists whose right-hand sides are affine
combinations of conditional mutual informations (optionally inside a min{}).
Everything downstream (membership, branch reports, vertex enumeration,
brute-force search) evaluates these tables.

Every row is written once.  A branch's perfect-secrecy corollary (the
Re = R slice) is derived from its own rows: each row marked `on_slice` is
read with Re1 folded into R1 and Re2 into R2, and rows the slice leaves
implied carry `on_slice=False`.  The config-B inner bounds T6-T8 are T2-T4
at R0 = 0: rows on R0 alone drop out and R0 leaves the others.  T5 stays
written out because U survives inside its equivocation caps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .dmc import CANONICAL_VARS, DMCModel, RateTuple
from .errors import UsageError, ValidationError
from .pmf import (
    FACTORIZATION_TOL,
    FactorizationPattern,
    JointPMF,
    check_factorization,
    cond_mutual_info,
)

RATE_COMPONENTS = ("R0", "R1", "R2", "Re1", "Re2")
DEFAULT_TOL = 1e-9

# ---------------------------------------------------------------------------
# Symbolic bound expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MITerm:
    """One conditional mutual information I(A;B|C) over named variables."""

    a: tuple[str, ...]
    b: tuple[str, ...]
    c: tuple[str, ...] = ()

    @property
    def name(self) -> str:
        cond = f"|{','.join(self.c)}" if self.c else ""
        return f"I({','.join(self.a)};{','.join(self.b)}{cond})"


@dataclass(frozen=True)
class Lin:
    """Affine combination of MI terms plus an optional R* contribution."""

    terms: tuple[tuple[float, MITerm], ...] = ()
    rstar: float = 0.0

    def __add__(self, other: "Lin") -> "Lin":
        return Lin(self.terms + other.terms, self.rstar + other.rstar)

    def __sub__(self, other: "Lin") -> "Lin":
        negated = tuple((-c, t) for c, t in other.terms)
        return Lin(self.terms + negated, self.rstar - other.rstar)

    def value(self, mi_values: Mapping[MITerm, float], rstar: float = 0.0) -> float:
        total = self.rstar * rstar
        for coef, term in self.terms:
            total += coef * mi_values[term]
        return total

    def render(self) -> str:
        parts: list[str] = []
        if self.rstar:
            parts.append("R*" if self.rstar == 1.0 else f"{self.rstar:g}*R*")
        for coef, term in self.terms:
            if coef == 1.0:
                parts.append(f"+ {term.name}" if parts else term.name)
            elif coef == -1.0:
                parts.append(f"- {term.name}")
            else:
                parts.append(f"{coef:+g}*{term.name}")
        return " ".join(parts) if parts else "0"


RSTAR = Lin(rstar=1.0)


def mi(expr: str) -> Lin:
    """Parse a compact "A;B|C" description into a single-term combination."""
    head, _, cond = expr.partition("|")
    a_part, sep, b_part = head.partition(";")
    if not sep:
        raise UsageError(f"mi(): expected 'A;B' or 'A;B|C', got {expr!r}")
    a = tuple(s.strip() for s in a_part.split(",") if s.strip())
    b = tuple(s.strip() for s in b_part.split(",") if s.strip())
    c = tuple(s.strip() for s in cond.split(",") if s.strip())
    return Lin(((1.0, MITerm(a, b, c)),))


@dataclass(frozen=True)
class Bound:
    """min over alternatives, plus a tail added outside the min."""

    alternatives: tuple[Lin, ...]
    tail: Lin = Lin()

    def __add__(self, other: Lin) -> "Bound":
        return Bound(self.alternatives, self.tail + other)

    def __sub__(self, other: Lin) -> "Bound":
        return Bound(self.alternatives, self.tail - other)

    def value(self, mi_values: Mapping[MITerm, float], rstar: float = 0.0) -> float:
        inner = min(l.value(mi_values, rstar) for l in self.alternatives)
        return inner + self.tail.value(mi_values, rstar)

    def render(self) -> str:
        if len(self.alternatives) == 1:
            head = self.alternatives[0].render()
        else:
            head = "min{" + ", ".join(l.render() for l in self.alternatives) + "}"
        tail = self.tail.render()
        if tail == "0":
            return head
        joiner = " + " if not tail.startswith("-") else " "
        return head + joiner + tail

    def terms(self) -> Iterable[MITerm]:
        for lin in self.alternatives + (self.tail,):
            for _, term in lin.terms:
                yield term


def Min(*alternatives: Lin) -> Bound:
    return Bound(tuple(alternatives))


def as_bound(expr: Lin | Bound) -> Bound:
    return expr if isinstance(expr, Bound) else Bound((expr,))


RateVec = tuple[float, float, float, float, float]

R0: RateVec = (1.0, 0.0, 0.0, 0.0, 0.0)
R1: RateVec = (0.0, 1.0, 0.0, 0.0, 0.0)
R2: RateVec = (0.0, 0.0, 1.0, 0.0, 0.0)
RE1: RateVec = (0.0, 0.0, 0.0, 1.0, 0.0)
RE2: RateVec = (0.0, 0.0, 0.0, 0.0, 1.0)


def rsum(*vecs: RateVec) -> RateVec:
    out = [0.0] * 5
    for v in vecs:
        for i, c in enumerate(v):
            out[i] += c
    return tuple(out)  # type: ignore[return-value]


def _rates_label(vec: RateVec) -> str:
    parts = []
    for coef, name in zip(vec, RATE_COMPONENTS):
        if coef == 1.0:
            parts.append(name)
        elif coef:
            parts.append(f"{coef:g}*{name}")
    return "+".join(parts) if parts else "0"


@dataclass(frozen=True)
class Ineq:
    """One inequality: <rate combination> <= <bound>."""

    rates: RateVec
    bound: Bound
    equivocation: bool = False  # True when the cap is an equivocation difference
    on_slice: bool = True  # False when the Re = R slice leaves the row implied

    @property
    def name(self) -> str:
        return f"{_rates_label(self.rates)} <= {self.bound.render()}"

    def sliced(self) -> "Ineq":
        """This row on the perfect-secrecy slice: Re1 reads as R1, Re2 as R2."""
        r0, r1, r2, re1, re2 = self.rates
        return replace(self, rates=(r0, r1 + re1, r2 + re2, 0.0, 0.0))


def _ineq(
    rates: RateVec, bound: Lin | Bound, equivocation: bool = False, on_slice: bool = True
) -> Ineq:
    return Ineq(rates, as_bound(bound), equivocation, on_slice)


@dataclass(frozen=True)
class Condition:
    """Branch qualifier lhs >= rhs between two MI expressions."""

    lhs: Lin
    rhs: Lin

    @property
    def name(self) -> str:
        return f"{self.lhs.render()} >= {self.rhs.render()}"


@dataclass(frozen=True)
class BranchSpec:
    branch_id: str
    inequalities: tuple[Ineq, ...]
    condition: Condition | None = None
    # When set, branch admits a pure-noise rate R* with
    #   0 <= R* <= value(rstar_budget) - I(Y1;Yh|X1).
    rstar_budget: Bound | None = None

    @cached_property
    def corollary(self) -> tuple[Ineq, ...]:
        """The perfect-secrecy (Re = R) system: the on-slice rows, read there."""
        return tuple(ineq.sliced() for ineq in self.inequalities if ineq.on_slice)


@dataclass(frozen=True)
class TheoremSpec:
    theorem_id: str
    config: str  # message configuration: "A", "B" or "C"
    role: str  # "outer", "decode-forward", "noise-forward", "compress-forward"
    coupling_vars: tuple[str, ...]
    pattern: FactorizationPattern
    branches: tuple[BranchSpec, ...]

    @property
    def uses_compressor(self) -> bool:
        return "Yh" in self.coupling_vars

    @property
    def branched(self) -> bool:
        return len(self.branches) > 1

    def all_terms(self) -> tuple[MITerm, ...]:
        seen: dict[MITerm, None] = {}
        for br in self.branches:
            if br.condition is not None:
                for lin in (br.condition.lhs, br.condition.rhs):
                    for _, t in lin.terms:
                        seen.setdefault(t)
            if br.rstar_budget is not None:
                for t in br.rstar_budget.terms():
                    seen.setdefault(t)
                for _, t in _COMPRESS_COST.terms:
                    seen.setdefault(t)
            for ineq in br.inequalities:
                for t in ineq.bound.terms():
                    seen.setdefault(t)
        return tuple(seen)

    def rate_dims(self) -> tuple[int, ...]:
        """Active (R0,R1,R2) coordinates of this message configuration."""
        return {"A": (0, 1, 2), "B": (1, 2), "C": (0, 1)}[self.config]


_COMPRESS_COST = mi("Y1;Yh|X1")  # rate spent describing the quantized observation


# ---------------------------------------------------------------------------
# The bound catalog
# ---------------------------------------------------------------------------


def _chain_pattern(aux: tuple[str, ...]) -> FactorizationPattern:
    # U -> aux -> (X, X1): the outer bounds constrain couplings to this chain.
    return FactorizationPattern(
        ((("U",), ()), (aux, ("U",)), (("X", "X1"), aux))
    )


def _df_pattern(aux: tuple[str, ...]) -> FactorizationPattern:
    # Tautological split p(aux) p(x,x1|aux): decode-forward puts no constraint.
    return FactorizationPattern(((aux, ()), (("X", "X1"), aux)))


def _nf_pattern(aux: tuple[str, ...]) -> FactorizationPattern:
    # Relay input independent of everything the transmitter knows.
    return FactorizationPattern(((aux, ()), (("X",), aux), (("X1",), ())))


def _cf_pattern(aux: tuple[str, ...]) -> FactorizationPattern:
    return FactorizationPattern(
        (
            (aux, ()),
            (("X",), aux),
            (("X1",), ()),
            (("Y1",), ("X", "X1")),
            (("Yh",), ("Y1", "X1")),
        )
    )


def _outer_two_messages(theorem_id: str, config: str) -> TheoremSpec:
    re1_cap = Min(
        mi("V1;Y|U,V2") - mi("V1;Z|U,V2"),
        mi("V1;Y|U") - mi("V1;Z|U"),
    )
    re2_cap = Min(
        mi("V2;Z|U,V1") - mi("V2;Y|U,V1"),
        mi("V2;Z|U") - mi("V2;Y|U"),
    )
    if config == "A":
        rate_ineqs = (
            _ineq(R0, Min(mi("U,U1;Y"), mi("U;Y,Y1|U1"))),
            _ineq(R0, Min(mi("U,U2;Z"), mi("U;Z,Y1|U2"))),
            _ineq(rsum(R0, R1), Min(mi("U,U1,V1;Y"), mi("U,V1;Y,Y1|U1"))),
            _ineq(rsum(R0, R2), Min(mi("U,U2,V2;Z"), mi("U,V2;Z,Y1|U2"))),
            _ineq(rsum(R0, R1, R2), mi("U,U2,V1;Y,Y1|U1") + mi("V2;Z,Y1|U,U1,U2,V1")),
            _ineq(rsum(R0, R1, R2), mi("U,U1,V2;Z,Y1|U2") + mi("V1;Y,Y1|U,U1,U2,V2")),
        )
    else:
        # No common message: U survives only inside the equivocation caps.
        re1_cap = Min(
            mi("V1;Y|V2") - mi("V1;Z|V2"),
            mi("V1;Y|U") - mi("V1;Z|U"),
        )
        re2_cap = Min(
            mi("V2;Z|V1") - mi("V2;Y|V1"),
            mi("V2;Z|U") - mi("V2;Y|U"),
        )
        rate_ineqs = (
            _ineq(R1, Min(mi("U1,V1;Y"), mi("V1;Y,Y1|U1"))),
            _ineq(R2, Min(mi("U2,V2;Z"), mi("V2;Z,Y1|U2"))),
            _ineq(rsum(R1, R2), mi("U2,V1;Y,Y1|U1") + mi("V2;Z,Y1|U1,U2,V1")),
            _ineq(rsum(R1, R2), mi("U1,V2;Z,Y1|U2") + mi("V1;Y,Y1|U1,U2,V2")),
        )
    ineqs = rate_ineqs + (
        _ineq(RE1, re1_cap, equivocation=True),
        _ineq(RE2, re2_cap, equivocation=True),
    )
    return TheoremSpec(
        theorem_id,
        config,
        "outer",
        ("U", "U1", "U2", "V1", "V2", "X", "X1"),
        _chain_pattern(("U1", "U2", "V1", "V2")),
        (BranchSpec("n/a", ineqs),),
    )


def _df_two_messages() -> TheoremSpec:
    m = Min(mi("U;Y1|X1"), mi("U,X1;Y"), mi("U,X1;Z"))
    ineqs = (
        _ineq(R0, m),
        _ineq(rsum(R0, R1), m + mi("V1;Y|U,X1"), on_slice=False),
        _ineq(rsum(R0, R2), m + mi("V2;Z|U,X1"), on_slice=False),
        _ineq(
            rsum(R0, R1, R2),
            m + mi("V1;Y|U,X1") + mi("V2;Z|U,X1") - mi("V1;V2|U,X1"),
            on_slice=False,
        ),
        _ineq(RE1, mi("V1;Y|U,X1") - mi("V1;V2|U,X1") - mi("V1;Z|U,X1,V2"), equivocation=True),
        _ineq(RE2, mi("V2;Z|U,X1") - mi("V1;V2|U,X1") - mi("V2;Y|U,X1,V1"), equivocation=True),
    )
    return TheoremSpec(
        "T2",
        "A",
        "decode-forward",
        ("U", "V1", "V2", "X", "X1"),
        _df_pattern(("U", "V1", "V2")),
        (BranchSpec("n/a", ineqs),),
    )


def _nf_two_messages() -> TheoremSpec:
    # Branch 1: relay-to-receiver-1 link less noisy; receiver 1 decodes X1.
    m1 = Min(mi("U;Y|X1"), mi("U;Z"))
    ineqs1 = (
        _ineq(R0, m1),
        _ineq(rsum(R0, R1), m1 + mi("V1;Y|U,X1")),
        _ineq(rsum(R0, R2), m1 + mi("V2;Z|U"), on_slice=False),
        _ineq(
            rsum(R0, R1, R2),
            m1 + mi("V1;Y|U,X1") + mi("V2;Z|U") - mi("V1;V2|U"),
            on_slice=False,
        ),
        _ineq(
            RE1,
            Min(mi("X1;Z|U,V1,V2"), mi("X1;Y"))
            + mi("V1;Y|U,X1")
            - mi("V1;V2|U")
            - mi("X1,V1;Z|U,V2"),
            equivocation=True,
        ),
        _ineq(RE2, mi("V2;Z|U") - mi("V1;V2|U") - mi("V2;Y|U,X1,V1"), equivocation=True),
    )

    # Branch 2: mirror image, receiver 2 decodes X1.
    m2 = Min(mi("U;Z|X1"), mi("U;Y"))
    ineqs2 = (
        _ineq(R0, m2),
        _ineq(rsum(R0, R1), m2 + mi("V1;Y|U"), on_slice=False),
        _ineq(rsum(R0, R2), m2 + mi("V2;Z|U,X1")),
        _ineq(
            rsum(R0, R1, R2),
            m2 + mi("V1;Y|U") + mi("V2;Z|U,X1") - mi("V1;V2|U"),
            on_slice=False,
        ),
        _ineq(RE1, mi("V1;Y|U") - mi("V1;V2|U") - mi("V1;Z|U,V2,X1"), equivocation=True),
        _ineq(
            RE2,
            Min(mi("X1;Y|U,V1,V2"), mi("X1;Z"))
            + mi("V2;Z|U,X1")
            - mi("V1;V2|U")
            - mi("X1,V2;Y|U,V1"),
            equivocation=True,
        ),
    )

    branches = (
        BranchSpec("T3.L1", ineqs1, Condition(mi("X1;Y"), mi("X1;Z|U,V2"))),
        BranchSpec("T3.L2", ineqs2, Condition(mi("X1;Z"), mi("X1;Y|U,V1"))),
    )
    return TheoremSpec(
        "T3",
        "A",
        "noise-forward",
        ("U", "V1", "V2", "X", "X1"),
        _nf_pattern(("U", "V1", "V2")),
        branches,
    )


def _cf_two_messages() -> TheoremSpec:
    m1 = Min(mi("U;Y,Yh|X1"), mi("U;Z"))
    ineqs1 = (
        _ineq(R0, m1),
        _ineq(rsum(R0, R1), m1 + mi("V1;Y,Yh|U,X1")),
        _ineq(rsum(R0, R2), m1 + mi("V2;Z|U"), on_slice=False),
        _ineq(
            rsum(R0, R1, R2),
            m1 + mi("V1;Y,Yh|U,X1") + mi("V2;Z|U") - mi("V1;V2|U"),
            on_slice=False,
        ),
        _ineq(
            RE1,
            RSTAR + mi("V1;Y,Yh|U,X1") - mi("V1;V2|U") - mi("X1,V1;Z|U,V2"),
            equivocation=True,
        ),
        _ineq(RE2, mi("V2;Z|U") - mi("V1;V2|U") - mi("V2;Y|U,X1,V1"), equivocation=True),
    )

    m2 = Min(mi("U;Z,Yh|X1"), mi("U;Y"))
    ineqs2 = (
        _ineq(R0, m2),
        _ineq(rsum(R0, R1), m2 + mi("V1;Y|U"), on_slice=False),
        _ineq(rsum(R0, R2), m2 + mi("V2;Z,Yh|U,X1")),
        _ineq(
            rsum(R0, R1, R2),
            m2 + mi("V1;Y|U") + mi("V2;Z,Yh|U,X1") - mi("V1;V2|U"),
            on_slice=False,
        ),
        _ineq(RE1, mi("V1;Y|U") - mi("V1;V2|U") - mi("V1;Z|U,V2,X1"), equivocation=True),
        _ineq(
            RE2,
            RSTAR + mi("V2;Z,Yh|U,X1") - mi("V1;V2|U") - mi("X1,V2;Y|U,V1"),
            equivocation=True,
        ),
    )

    branches = (
        BranchSpec(
            "T4.L3",
            ineqs1,
            Condition(mi("X1;Y"), mi("X1;Z|U,V2")),
            rstar_budget=Min(mi("X1;Z|U,V1,V2"), mi("X1;Y")),
        ),
        BranchSpec(
            "T4.L4",
            ineqs2,
            Condition(mi("X1;Z"), mi("X1;Y|U,V1")),
            rstar_budget=Min(mi("X1;Y|U,V1,V2"), mi("X1;Z")),
        ),
    )
    return TheoremSpec(
        "T4",
        "A",
        "compress-forward",
        ("U", "V1", "V2", "X", "X1", "Y1", "Yh"),
        _cf_pattern(("U", "V1", "V2")),
        branches,
    )


def _without_common(parent: TheoremSpec, theorem_id: str, l_first: int = 0) -> TheoremSpec:
    """A config-A inner bound at R0 = 0, as its config-B twin.

    Rows on R0 alone drop out and R0 leaves the others; conditions, R*
    budgets, coupling variables and factorization stay the parent's.  A
    branched parent's branches are renumbered from L{l_first}.
    """
    branches = tuple(
        replace(
            br,
            branch_id=f"{theorem_id}.L{l_first + k}" if parent.branched else br.branch_id,
            inequalities=tuple(
                replace(ineq, rates=(0.0,) + ineq.rates[1:])
                for ineq in br.inequalities
                if ineq.rates != R0
            ),
        )
        for k, br in enumerate(parent.branches)
    )
    return replace(parent, theorem_id=theorem_id, config="B", branches=branches)


def _outer_one_message() -> TheoremSpec:
    ineqs = (
        _ineq(R0, Min(mi("U,U1;Y"), mi("U;Y,Y1|U1"))),
        _ineq(R0, Min(mi("U,U2;Z"), mi("U;Z,Y1|U2"))),
        _ineq(rsum(R0, R1), Min(mi("U,U1,V;Y"), mi("U,V;Y,Y1|U1"))),
        _ineq(rsum(R0, R1), mi("U,U1;Z,Y1|U2") + mi("V;Y,Y1|U,U1,U2")),
        _ineq(RE1, mi("V;Y|U") - mi("V;Z|U"), equivocation=True),
    )
    return TheoremSpec(
        "T9",
        "C",
        "outer",
        ("U", "U1", "U2", "V", "X", "X1"),
        _chain_pattern(("U1", "U2", "V")),
        (BranchSpec("n/a", ineqs),),
    )


def _df_one_message() -> TheoremSpec:
    m = Min(mi("U;Y1|X1"), mi("U,X1;Y"), mi("U,X1;Z"))
    ineqs = (
        _ineq(R0, m),
        _ineq(rsum(R0, R1), m + mi("V;Y|U,X1"), on_slice=False),
        _ineq(RE1, mi("V;Y|U,X1") - mi("V;Z|U,X1"), equivocation=True),
    )
    return TheoremSpec(
        "T10",
        "C",
        "decode-forward",
        ("U", "V", "X", "X1"),
        _df_pattern(("U", "V")),
        (BranchSpec("n/a", ineqs),),
    )


def _nf_one_message() -> TheoremSpec:
    # Branch 1: receiver 1 decodes the relay codeword, receiver 2 sees noise.
    m1 = Min(mi("U;Y|X1"), mi("U;Z"))
    ineqs1 = (
        _ineq(R0, m1),
        _ineq(rsum(R0, R1), m1 + mi("V;Y|U,X1")),
        _ineq(
            RE1,
            Min(mi("X1;Z|U,V"), mi("X1;Y")) + mi("V;Y|U,X1") - mi("X1,V;Z|U"),
            equivocation=True,
        ),
    )
    # Branch 2: both receivers decode it; the relay adds no confusion.
    m2 = Min(mi("U;Y|X1"), mi("U;Z|X1"))
    ineqs2 = (
        _ineq(R0, m2),
        _ineq(rsum(R0, R1), m2 + mi("V;Y|U,X1"), on_slice=False),
        _ineq(RE1, mi("V;Y|U,X1") - mi("V;Z|U,X1"), equivocation=True),
    )
    branches = (
        BranchSpec("T11.L9", ineqs1, Condition(mi("X1;Y"), mi("X1;Z|U"))),
        BranchSpec("T11.L10", ineqs2, Condition(mi("X1;Z"), mi("X1;Y"))),
    )
    return TheoremSpec(
        "T11",
        "C",
        "noise-forward",
        ("U", "V", "X", "X1"),
        _nf_pattern(("U", "V")),
        branches,
    )


def _cf_one_message() -> TheoremSpec:
    m1 = Min(mi("U;Y,Yh|X1"), mi("U;Z"))
    ineqs1 = (
        _ineq(R0, m1),
        _ineq(rsum(R0, R1), m1 + mi("V;Y,Yh|U,X1")),
        _ineq(RE1, RSTAR + mi("V;Y,Yh|U,X1") - mi("X1,V;Z|U"), equivocation=True),
    )
    m2 = Min(mi("U;Y,Yh|X1"), mi("U;Z,Yh|X1"))
    ineqs2 = (
        _ineq(R0, m2),
        _ineq(rsum(R0, R1), m2 + mi("V;Y,Yh|U,X1"), on_slice=False),
        _ineq(RE1, mi("V;Y,Yh|U,X1") - mi("V;Z|U,X1"), equivocation=True),
    )
    branches = (
        BranchSpec(
            "T12.L11",
            ineqs1,
            Condition(mi("X1;Y"), mi("X1;Z|U")),
            rstar_budget=Min(mi("X1;Z|U,V"), mi("X1;Y")),
        ),
        BranchSpec(
            "T12.L12",
            ineqs2,
            Condition(mi("X1;Z"), mi("X1;Y")),
            rstar_budget=Min(mi("X1;Y")),
        ),
    )
    return TheoremSpec(
        "T12",
        "C",
        "compress-forward",
        ("U", "V", "X", "X1", "Y1", "Yh"),
        _cf_pattern(("U", "V")),
        branches,
    )


def _catalog() -> dict[str, TheoremSpec]:
    t2, t3, t4 = _df_two_messages(), _nf_two_messages(), _cf_two_messages()
    specs = (
        _outer_two_messages("T1", "A"),
        t2,
        t3,
        t4,
        _outer_two_messages("T5", "B"),
        _without_common(t2, "T6"),
        _without_common(t3, "T7", 5),
        _without_common(t4, "T8", 7),
        _outer_one_message(),
        _df_one_message(),
        _nf_one_message(),
        _cf_one_message(),
    )
    return {spec.theorem_id: spec for spec in specs}


THEOREMS: dict[str, TheoremSpec] = _catalog()


def theorem_spec(theorem_id: str) -> TheoremSpec:
    try:
        return THEOREMS[theorem_id]
    except KeyError:
        raise UsageError(
            f"unknown theorem id {theorem_id!r}; known: {', '.join(THEOREMS)}"
        ) from None


# ---------------------------------------------------------------------------
# Couplings and composition with the channel
# ---------------------------------------------------------------------------


def _canonical_order(names: Iterable[str]) -> tuple[str, ...]:
    return tuple(v for v in CANONICAL_VARS if v in set(names))


@dataclass(frozen=True)
class AuxiliaryCoupling:
    """A joint law over the auxiliary and input variables a bound quantifies over.

    Compress-forward bounds additionally carry the Y1 and Yh axes so that the
    quantizer factor p(yh | y1, x1) travels with the coupling.
    """

    joint: JointPMF
    theorem_id: str

    def __post_init__(self) -> None:
        spec = theorem_spec(self.theorem_id)
        have = set(self.joint.axis_names)
        need = set(spec.coupling_vars)
        if have != need:
            raise ValidationError(
                f"coupling for {self.theorem_id} must carry axes {sorted(need)}, got {sorted(have)}"
            )
        ordered = self.joint.reordered(_canonical_order(spec.coupling_vars))
        object.__setattr__(self, "joint", ordered)
        report = check_factorization(ordered, spec.pattern, FACTORIZATION_TOL)
        if not report.passed:
            raise ValidationError(
                f"coupling violates the {self.theorem_id} factorization "
                f"{spec.pattern.describe()}: max deviation {report.max_abs_deviation:.3e}"
            )

    def to_json(self) -> str:
        import json as _json

        payload = _json.loads(self.joint.to_json())
        payload["theorem"] = self.theorem_id
        return _json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "AuxiliaryCoupling":
        import json as _json

        try:
            payload = _json.loads(text)
        except _json.JSONDecodeError as exc:
            raise ValidationError(
                f"coupling JSON: parse failure at line {exc.lineno}: {exc.msg}"
            ) from exc
        try:
            theorem_id = str(payload.pop("theorem"))
        except KeyError:
            raise ValidationError("coupling JSON: missing 'theorem' field") from None
        return cls(JointPMF.from_json_dict(payload), theorem_id)


def build_cf_coupling(
    theorem_id: str,
    base: JointPMF,
    model: DMCModel,
    compressor: np.ndarray,
) -> AuxiliaryCoupling:
    """Assemble a compress-forward coupling from its free ingredients.

    `base` is the joint over the auxiliaries and (X, X1); `compressor` is the
    quantizer p(yh | y1, x1) indexed [x1, y1, yh].  The Y1 leg is pinned to the
    channel's own p(y1 | x, x1).
    """
    spec = theorem_spec(theorem_id)
    if not spec.uses_compressor:
        raise UsageError(f"{theorem_id} does not use a compressed observation")
    q = np.asarray(compressor, dtype=np.float64)
    if q.shape[:2] != (model.x1_size, model.y1_size):
        raise ValidationError(
            f"compressor must be indexed [x1,y1,yh] with x1 size {model.x1_size} "
            f"and y1 size {model.y1_size}; got shape {q.shape}"
        )
    if np.any(q < 0.0) or np.max(np.abs(q.sum(axis=2) - 1.0)) > 1e-9:
        raise ValidationError("compressor rows must be distributions over yh")
    base_vars = tuple(v for v in spec.coupling_vars if v not in ("Y1", "Yh"))
    ordered = base.reordered(_canonical_order(base_vars))
    y1c = model.y1_conditional()  # (x, x1, y1)
    probs = (
        ordered.probs[..., None, None]
        * y1c[:, :, :, None]
        * q[None, :, :, :]
    )
    joint = JointPMF(ordered.axis_names + ("Y1", "Yh"), probs)
    return AuxiliaryCoupling(joint, theorem_id)


def compose_full_joint(
    model: DMCModel, coupling: AuxiliaryCoupling, theorem_id: str | None = None
) -> JointPMF:
    """Coupling and channel law combined into the joint over every variable."""
    spec = theorem_spec(theorem_id or coupling.theorem_id)
    if theorem_id is not None and theorem_id != coupling.theorem_id:
        # Cross-use is allowed when the variable sets and factorization agree
        # (the reduced-configuration bounds share their parents' structure).
        reval = AuxiliaryCoupling(coupling.joint, theorem_id)
        coupling = reval
    j = coupling.joint
    sizes = dict(zip(j.axis_names, j.axis_sizes))
    if sizes["X"] != model.x_size or sizes["X1"] != model.x1_size:
        raise UsageError(
            f"coupling alphabet (X={sizes['X']}, X1={sizes['X1']}) does not match "
            f"the channel (X={model.x_size}, X1={model.x1_size})"
        )

    # AuxiliaryCoupling keeps its axes in canonical order: auxiliaries, X, X1[, Y1, Yh].
    if not spec.uses_compressor:
        aux_names = j.axis_names[:-2]
        probs = j.probs[..., None, None, None] * model.transition
        return JointPMF(aux_names + ("X", "X1", "Y", "Y1", "Z"), probs)

    if sizes["Y1"] != model.y1_size:
        raise UsageError(
            f"coupling Y1 alphabet ({sizes['Y1']}) does not match the channel ({model.y1_size})"
        )
    aux_names = j.axis_names[:-4]
    aux_xx1 = j.probs.sum(axis=(-2, -1))
    y1c = model.y1_conditional()
    implied_y1 = aux_xx1[..., None] * y1c
    actual_y1 = j.probs.sum(axis=-1)
    dev = float(np.max(np.abs(implied_y1 - actual_y1)))
    if dev > DEFAULT_TOL:
        raise ValidationError(
            f"coupling's Y1 leg is inconsistent with the channel's p(y1|x,x1): "
            f"max deviation {dev:.3e}"
        )
    # Quantizer p(yh | y1, x1); unreachable (y1, x1) cells get a uniform row.
    m = j.probs.sum(axis=tuple(range(j.probs.ndim - 4)))  # (X, X1, Y1, Yh)
    m_x1y1yh = m.sum(axis=0)  # (X1, Y1, Yh)
    denom = m_x1y1yh.sum(axis=2, keepdims=True)
    nyh = m_x1y1yh.shape[2]
    q = np.where(denom > 0.0, np.divide(m_x1y1yh, np.where(denom > 0.0, denom, 1.0)), 1.0 / nyh)
    probs = (
        aux_xx1[..., None, None, None, None]
        * model.transition[..., None]
        * q[:, None, :, None, :]
    )
    return JointPMF(aux_names + ("X", "X1", "Y", "Y1", "Z", "Yh"), probs)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def mi_values(
    model: DMCModel, coupling: AuxiliaryCoupling, theorem_id: str | None = None
) -> dict[MITerm, float]:
    spec = theorem_spec(theorem_id or coupling.theorem_id)
    full = compose_full_joint(model, coupling, spec.theorem_id)
    return {
        term: cond_mutual_info(full, term.a, term.b, term.c)
        for term in spec.all_terms()
    }


def mi_terms(
    model: DMCModel, coupling: AuxiliaryCoupling, theorem_id: str | None = None
) -> dict[str, float]:
    """Every distinct MI term of the bound, keyed and ordered by term name."""
    values = mi_values(model, coupling, theorem_id)
    return {t.name: v for t, v in sorted(values.items(), key=lambda kv: kv[0].name)}


@dataclass(frozen=True)
class ConditionRecord:
    name: str
    lhs: float
    rhs: float
    satisfied: bool


@dataclass(frozen=True)
class BranchState:
    branch_id: str
    applicable: bool
    conditions: tuple[ConditionRecord, ...]
    rstar_max: float | None = None
    rstar_used: float | None = None


@dataclass(frozen=True)
class BranchReport:
    theorem_id: str
    branches: tuple[BranchState, ...]

    def qualifying(self) -> tuple[str, ...]:
        return tuple(b.branch_id for b in self.branches if b.applicable)


def _branch_state(
    spec: TheoremSpec,
    branch: BranchSpec,
    values: Mapping[MITerm, float],
    rstar: float | None,
    tol: float,
) -> BranchState:
    conditions = []
    applicable = True
    if branch.condition is not None:
        lhs = branch.condition.lhs.value(values)
        rhs = branch.condition.rhs.value(values)
        ok = lhs >= rhs - tol
        conditions.append(ConditionRecord(branch.condition.name, lhs, rhs, ok))
        applicable = applicable and ok
    rstar_max = None
    rstar_used = None
    if branch.rstar_budget is not None:
        rstar_max = branch.rstar_budget.value(values) - _COMPRESS_COST.value(values)
        name = (
            f"{branch.rstar_budget.render()} - {_COMPRESS_COST.render()} >= R* >= 0"
        )
        if rstar is None:
            rstar_used = max(rstar_max, 0.0)
            ok = rstar_max >= -tol
        else:
            rstar_used = rstar
            ok = (-tol <= rstar) and (rstar <= rstar_max + tol)
        conditions.append(ConditionRecord(name, rstar_max, rstar_used, ok))
        applicable = applicable and ok
    elif rstar is not None:
        raise UsageError(
            f"{spec.theorem_id} has no pure-noise rate parameter; rstar must be omitted"
        )
    return BranchState(branch.branch_id, applicable, tuple(conditions), rstar_max, rstar_used)


def branch_condition(
    theorem_id: str,
    model: DMCModel,
    coupling: AuxiliaryCoupling,
    *,
    rstar: float | None = None,
    tol: float = DEFAULT_TOL,
) -> BranchReport:
    """Which condition sets the coupling qualifies for, with both sides' values."""
    spec = theorem_spec(theorem_id)
    values = mi_values(model, coupling, theorem_id)
    states = tuple(_branch_state(spec, b, values, rstar, tol) for b in spec.branches)
    return BranchReport(theorem_id, states)


@dataclass(frozen=True)
class IneqRecord:
    name: str
    expression: float  # value of the rate combination
    bound: float
    satisfied: bool

    @property
    def slack(self) -> float:
        return self.bound - self.expression


@dataclass(frozen=True)
class BranchEvaluation:
    state: BranchState
    inequalities: tuple[IneqRecord, ...]
    member: bool


@dataclass(frozen=True)
class BoundEvaluation:
    theorem_id: str
    rates: RateTuple
    branch_taken: str
    member: bool
    branches: tuple[BranchEvaluation, ...]

    @property
    def records(self) -> tuple[IneqRecord, ...]:
        for b in self.branches:
            if b.state.branch_id == self.branch_taken:
                return b.inequalities
        return ()


def _check_rates_config(spec: TheoremSpec, rates: RateTuple) -> None:
    if spec.config == "B":
        rates.require_zero("r0")
    elif spec.config == "C":
        rates.require_zero("r2", "re2")


def _eval_inequalities(
    ineqs: Sequence[Ineq],
    values: Mapping[MITerm, float],
    rates: RateTuple,
    rstar: float,
    tol: float,
    clamp_equivocation: bool,
) -> tuple[IneqRecord, ...]:
    out = []
    rt = rates.as_tuple()
    for ineq in ineqs:
        bound = ineq.bound.value(values, rstar)
        if clamp_equivocation and ineq.equivocation and bound < 0.0:
            bound = 0.0
        expr = sum(c * r for c, r in zip(ineq.rates, rt))
        out.append(IneqRecord(ineq.name, expr, bound, bound - expr >= -tol))
    return tuple(out)


def evaluate_membership(
    theorem_id: str,
    model: DMCModel,
    coupling: AuxiliaryCoupling,
    rates: RateTuple,
    tol: float = DEFAULT_TOL,
    *,
    rstar: float | None = None,
    clamp_equivocation: bool = False,
) -> BoundEvaluation:
    """Instantiate the bound's inequality list and test the rate point.

    Union bounds are members when at least one qualifying branch accepts the
    point.  For compress-forward bounds, `rstar=None` uses the largest
    feasible pure-noise rate (membership in the union over R*).
    """
    spec = theorem_spec(theorem_id)
    _check_rates_config(spec, rates)
    values = mi_values(model, coupling, theorem_id)
    evaluations = []
    for branch in spec.branches:
        state = _branch_state(spec, branch, values, rstar, tol)
        recs = _eval_inequalities(
            branch.inequalities,
            values,
            rates,
            state.rstar_used if state.rstar_used is not None else 0.0,
            tol,
            clamp_equivocation,
        )
        member = state.applicable and all(r.satisfied for r in recs)
        evaluations.append(BranchEvaluation(state, recs, member))
    member = any(b.member for b in evaluations)
    taken = "none"
    for b in evaluations:
        if b.member:
            taken = b.state.branch_id
            break
    else:
        for b in evaluations:
            if b.state.applicable:
                taken = b.state.branch_id
                break
    return BoundEvaluation(theorem_id, rates, taken, member, tuple(evaluations))


@dataclass(frozen=True)
class LinearConstraint:
    """coefs . (R0, R1, R2) <= bound, from a corollary inequality."""

    name: str
    coefs: tuple[float, float, float]
    bound: float
    equivocation: bool


@dataclass(frozen=True)
class CorollaryBranch:
    branch_id: str
    applicable: bool
    constraints: tuple[LinearConstraint, ...]
    rstar_used: float | None


def corollary_constraints(
    theorem_id: str,
    model: DMCModel,
    coupling: AuxiliaryCoupling,
    *,
    rstar: float | None = None,
    tol: float = DEFAULT_TOL,
    clamp_equivocation: bool = False,
) -> tuple[CorollaryBranch, ...]:
    """Numeric constraint systems of the perfect-secrecy (Re = R) slice."""
    spec = theorem_spec(theorem_id)
    values = mi_values(model, coupling, theorem_id)
    out = []
    for branch in spec.branches:
        state = _branch_state(spec, branch, values, rstar, tol)
        rs = state.rstar_used if state.rstar_used is not None else 0.0
        constraints = []
        for ineq in branch.corollary:
            bound = ineq.bound.value(values, rs)
            if clamp_equivocation and ineq.equivocation and bound < 0.0:
                bound = 0.0
            constraints.append(
                LinearConstraint(ineq.name, tuple(ineq.rates[:3]), bound, ineq.equivocation)
            )
        out.append(
            CorollaryBranch(branch.branch_id, state.applicable, tuple(constraints), state.rstar_used)
        )
    return tuple(out)


def corollary_member(
    theorem_id: str,
    model: DMCModel,
    coupling: AuxiliaryCoupling,
    point: Sequence[float],
    *,
    rstar: float | None = None,
    tol: float = DEFAULT_TOL,
    clamp_equivocation: bool = False,
) -> bool:
    """Direct membership of an (R0, R1, R2) point in the Re = R slice."""
    p = tuple(float(v) for v in point)
    if len(p) != 3:
        raise UsageError("corollary_member expects an (R0, R1, R2) triple")
    branches = corollary_constraints(
        theorem_id,
        model,
        coupling,
        rstar=rstar,
        tol=tol,
        clamp_equivocation=clamp_equivocation,
    )
    for br in branches:
        if not br.applicable:
            continue
        if all(
            sum(c * v for c, v in zip(lc.coefs, p)) <= lc.bound + tol
            for lc in br.constraints
        ):
            return True
    return False
