"""Inequality systems for the relay broadcast channel bound catalog.

Twelve bounds are exposed, grouped by message configuration:

    T1-T4   config A: two confidential messages + one common message
    T5-T8   config B: two confidential messages, no common message
    T9-T12  config C: one confidential message + one common message

Within each group: an outer bound (T1/T5/T9), a decode-forward inner bound
(T2/T6/T10), a noise-forward inner bound (T3/T7/T11, two branches selected by
a less-noisy comparison between the relay links) and a compress-forward inner
bound (T4/T8/T12, same branching plus a quantizer Yh = compressed relay
observation and a pure-noise rate budget R*).  The ids come from that order
alone: `_catalog` lists the twelve, names the k-th Tk and numbers the branches
of the branched ones L1-L12 in turn; no builder or term map names its own.

Each bound is stored as structured data: a coupling factorization, branch
conditions, and inequality lists whose right-hand sides are affine
combinations of conditional mutual informations (optionally inside a min{}).
On first use a theorem compiles to numeric maps (`CompiledTheorem`): subset
entropies and MI terms as +-1 sums of them (`pmf.information_plan`), and bounds
as matrix products (one per term slot) with a segmented min.  `evaluate_stack`
runs them on N stacked couplings at once, and `stack_membership` decides every
membership, of a theorem or of its Re = R slice, against that stack; branch
reports are one coupling's view.  A coupling's axes are its theorem's
`coupling_vars`, read off its factorization (the targets, factor by factor),
and every product with the channel finds its axes by name (`pmf.placement`).

Every row is written once.  A branch's perfect-secrecy corollary (the
Re = R slice) is derived from its own rows: each row marked `on_slice` is
read with Re1 folded into R1 and Re2 into R2, and rows the slice leaves
implied carry `on_slice=False`.  The fold is made once, in the compiled form:
`CompiledTheorem.slice_rates` holds every row's (R0, R1 + Re1, R2 + Re2)
coefficients and `CompiledBranch.corollary` a branch's on-slice rows.  The
config-B inner bounds T6-T8 are T2-T4 at R0 = 0: rows on R0 alone drop out
and R0 leaves the others.  The outer bounds T1 and T5 are one body of
receiver 1's rows, each followed by its mirror image (`_outer_two_messages`);
without a common message R0 and U drop out, except in the Re1 cap's second
alternative, so T5 is not T1 at R0 = 0.

Noise-forward and compress-forward share their rows: T4.L3 is T3.L1 with
receiver 1 decoding from Y,Yh instead of Y, and with R* in place of the
relay's confusion rate Min(I(X1;Z|U,V1,V2), I(X1;Y)) in the Re1 cap, that Min
becoming R*'s budget (`_forward_two_messages`); CF's coupling adds the Y1 and
Yh factors.  Likewise T12.L12 is T11.L10 with Yh added to both receivers' U
terms and to receiver 1's V term, and budget I(X1;Y) (`_forward_one_message`).

Two term maps (`_TermMap`) derive the rest.  `_MIRROR` swaps the receivers
Y/Z and what is theirs, U1/U2, V1/V2 and their rates: receiver 2's rows of
T1, T5 and T9 are receiver 1's mirrored, and T3.L2 and T4.L4 are T3.L1 and
T4.L3 mirrored.  `_ONE_MESSAGE` holds V2 constant and reads V1 as V: T10,
T11.L9 and T12.L11 are T2, T3.L1 and T4.L3 in config C.  Written out stay
T9's rows but its second R0 row, because T1 with V2 constant keeps an implied
extra R0+R1 row and a repeated min alternative; and the branch where both
receivers decode X1 (T11.L10, T12.L12), a decoder config A does not have.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .dmc import CANONICAL_VARS, CHANNEL_VARS, DMCModel, RateTuple
from .errors import UsageError, ValidationError, parse_json
from .pmf import (
    FACTORIZATION_TOL,
    FactorizationPattern,
    JointPMF,
    check_masses,
    factorization_deviation,
    information,
    information_plan,
    placement,
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
    on_slice: bool = True  # False when the Re = R slice leaves the row implied

    @property
    def equivocation(self) -> bool:
        """An equivocation cap: a row on Re1 or Re2 alone."""
        return self.rates in (RE1, RE2)

    @cached_property
    def name(self) -> str:
        return f"{_rates_label(self.rates)} <= {self.bound.render()}"


def _ineq(rates: RateVec, bound: Lin | Bound, on_slice: bool = True) -> Ineq:
    return Ineq(rates, as_bound(bound), on_slice)


@dataclass(frozen=True)
class Condition:
    """Branch qualifier lhs >= rhs between two MI expressions."""

    lhs: Lin
    rhs: Lin

    @cached_property
    def name(self) -> str:
        return f"{self.lhs.render()} >= {self.rhs.render()}"


@dataclass(frozen=True)
class BranchSpec:
    inequalities: tuple[Ineq, ...]
    condition: Condition | None = None
    # When set, branch admits a pure-noise rate R* with
    #   0 <= R* <= value(rstar_budget) - I(Y1;Yh|X1).
    rstar_budget: Bound | None = None
    branch_id: str = "n/a"  # Tk.Ln in a branched theorem, numbered by `_catalog`

    @cached_property
    def budget_name(self) -> str:
        return f"{self.rstar_budget.render()} - {_COMPRESS_COST.render()} >= R* >= 0"


@dataclass(frozen=True)
class TheoremSpec:
    config: str  # message configuration: "A", "B" or "C"
    role: str  # "outer", "decode-forward", "noise-forward", "compress-forward"
    pattern: FactorizationPattern  # the coupling's factorization, which lays out its axes
    branches: tuple[BranchSpec, ...]
    theorem_id: str = ""  # numbered by `_catalog`

    @cached_property
    def coupling_vars(self) -> tuple[str, ...]:
        """A coupling's axes: its factorization's targets, factor by factor."""
        return self.pattern.variables

    @cached_property
    def uses_compressor(self) -> bool:
        return "Yh" in self.coupling_vars

    @property
    def branched(self) -> bool:
        return len(self.branches) > 1

    def all_terms(self) -> tuple[MITerm, ...]:
        return self.compiled.terms

    def rate_dims(self) -> tuple[int, ...]:
        """Active (R0,R1,R2) coordinates of this message configuration."""
        return {"A": (0, 1, 2), "B": (1, 2), "C": (0, 1)}[self.config]

    @cached_property
    def full_vars(self) -> tuple[str, ...]:
        """Axes of the coupling composed with the channel: auxiliaries (in coupling order),
        CHANNEL_VARS, any Yh, wherever the factorization lists X and X1."""
        aux = tuple(v for v in self.coupling_vars if v not in (*CHANNEL_VARS, "Yh"))
        return aux + CHANNEL_VARS + ("Yh",) * self.uses_compressor

    @cached_property
    def channel_layout(self) -> tuple:
        """The `placement`s over `full_vars` of a coupling stack and of its channel table."""
        full = self.full_vars
        return placement(self.coupling_vars, full, 1), placement(CHANNEL_VARS, full)

    @cached_property
    def compiled(self) -> "CompiledTheorem":
        return CompiledTheorem(self)


_COMPRESS_COST = mi("Y1;Yh|X1")  # rate spent describing the quantized observation


class _BoundTable:
    """Bounds over MI-term columns, a min over Lin alternatives plus a tail.  Each slot
    is a (terms, lins) coefficient matrix and its magnitude: slot 0 holds each Lin's
    first two terms, slot k >= 1 its (k + 2)-th.  Every entry of a slot's product then
    sums at most two nonzero products, which round once in any order BLAS takes, so a
    Lin's terms add in written order at every stack size."""

    def __init__(self, bounds: Sequence[Bound], column: Mapping[MITerm, int]) -> None:
        lins = [lin for b in bounds for lin in b.alternatives] + [b.tail for b in bounds]
        width = max((len(lin.terms) for lin in lins), default=0)
        matrix = np.zeros((max(width - 1, 1), 2, len(column), len(lins)))
        for i, lin in enumerate(lins):
            for k, (coef, term) in enumerate(lin.terms):
                matrix[max(k - 1, 0), :, column[term], i] += (coef, abs(coef))
        self.slots = tuple(map(tuple, matrix))
        self.rstar = np.array([lin.rstar for lin in lins])
        owner = [k for k, b in enumerate(bounds) for _ in b.alternatives] + list(range(len(bounds)))
        self.owner = np.array(owner, dtype=int)
        self.starts = np.cumsum([0] + [len(b.alternatives) for b in bounds])[:-1]
        self.count = len(bounds)

    def __call__(self, mi: np.ndarray, residue: np.ndarray, rstar=None) -> np.ndarray:
        """(N, bounds) values from MI columns and their rounding scales (N, terms), plus each
        Lin's share of its bound's R* (N, bounds) if given.  Each Lin adds its terms in
        written order, then its R* share; a bound within its terms' summed scale is 0."""
        (signed, magnitude), *later = self.slots
        total, scale = mi @ signed, residue @ magnitude
        for signed, magnitude in later:
            total, scale = total + mi @ signed, scale + residue @ magnitude
        if rstar is not None:
            total = total + self.rstar * rstar[:, self.owner]
        n_alt = len(self.owner) - self.count
        value = np.minimum.reduceat(total[:, :n_alt], self.starts, axis=1) + total[:, n_alt:]
        scale = np.maximum.reduceat(scale[:, :n_alt], self.starts, axis=1) + scale[:, n_alt:]
        return np.where(np.abs(value) <= scale, 0.0, value)


@dataclass(frozen=True)
class CompiledBranch:
    spec: BranchSpec
    condition_col: int  # the condition's sides are pre columns condition_col, +1 (-1: none)
    budget_col: int  # R* budget and compress cost are pre columns budget_col, +1 (-1: none)
    rows: slice  # the branch's inequalities among the theorem's rows
    corollary: tuple[int, ...]  # the on-slice rows, its Re = R system (see slice_rates)


class CompiledTheorem:
    """One theorem as numeric maps, built on first use: every term I(A;B|C) is
    H(AC) + H(BC) - H(ABC) - H(C) over the subsets of `pmf.information_plan`,
    and every bound a min over term sums plus a tail (`_BoundTable`)."""

    def __init__(self, spec: TheoremSpec) -> None:
        pre: list[Bound] = []
        rows: list[Ineq] = []
        branches = []
        for br in spec.branches:
            condition_col = budget_col = -1
            if br.condition is not None:
                condition_col = len(pre)
                pre += [Bound((br.condition.lhs,)), Bound((br.condition.rhs,))]
            if br.rstar_budget is not None:
                budget_col = len(pre)
                pre += [br.rstar_budget, Bound((_COMPRESS_COST,))]
            first = len(rows)
            rows += br.inequalities
            kept = tuple(first + k for k, ineq in enumerate(br.inequalities) if ineq.on_slice)
            rows_slice = slice(first, len(rows))
            branches.append(CompiledBranch(br, condition_col, budget_col, rows_slice, kept))
        lins = [lin for b in pre + [r.bound for r in rows] for lin in b.alternatives + (b.tail,)]
        self.terms = tuple(dict.fromkeys(t for lin in lins for _, t in lin.terms))
        triples = [(t.a, t.b, t.c) for t in self.terms]
        self.entropies, self.term_index = information_plan(spec.full_vars, triples)
        term_column = {t: i for i, t in enumerate(self.terms)}
        self.branches = tuple(branches)
        self.pre = _BoundTable(pre, term_column)
        self.rows = _BoundTable([ineq.bound for ineq in rows], term_column)
        self.rates = np.array([ineq.rates for ineq in rows])  # (rows, 5) rate coefficients
        # (rows, 3): each row read on the Re = R slice, (R0, R1 + Re1, R2 + Re2).
        self.slice_rates = self.rates[:, :3] + np.pad(self.rates[:, 3:], ((0, 0), (1, 0)))
        # (2, rows, branches): the rows each branch tests, [0] all of them, [1] its Re = R rows.
        self.tested = np.zeros((2, len(rows), len(branches)), dtype=bool)
        for k, br in enumerate(branches):
            self.tested[0, br.rows, k] = self.tested[1, br.corollary, k] = True
        self.equivocation = np.array([ineq.equivocation for ineq in rows])

    def mi(self, full: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(N, terms) MI values of stacked full joints, in `terms` order, and
        their rounding scales (see `information`)."""
        return information(self.entropies(full), self.term_index)


# ---------------------------------------------------------------------------
# The bound catalog
# ---------------------------------------------------------------------------


def _indices(names: Iterable[str]) -> list[int]:
    return sorted(map(CANONICAL_VARS.index, names))


class _TermMap:
    """A renaming of variables and rates ("" holds a variable constant or zeroes
    a rate), lifted to every catalog object.  Terms come out canonical: C in
    `CANONICAL_VARS` order, A and B swapped when B's indices sort first, a term
    with an empty side dropped, and each Lin's + terms before its - terms, each
    group in canonical order."""

    def __init__(self, rename: Mapping[str, str]) -> None:
        self.rename = rename

    def names(self, names: Iterable[str]) -> tuple[str, ...]:
        return tuple(n for n in (self.rename.get(v, v) for v in names) if n)

    def term(self, t: MITerm) -> MITerm | None:
        a, b = sorted((self.names(t.a), self.names(t.b)), key=_indices)
        return MITerm(a, b, tuple(sorted(self.names(t.c), key=CANONICAL_VARS.index))) if a else None

    def lin(self, lin: Lin) -> Lin:
        terms = [(coef, t) for coef, t in ((c, self.term(t)) for c, t in lin.terms) if t]
        terms.sort(key=lambda ct: (ct[0] < 0, *map(_indices, (ct[1].a, ct[1].b, ct[1].c))))
        return Lin(tuple(terms), lin.rstar)

    def bound(self, b: Bound) -> Bound:
        return Bound(tuple(map(self.lin, b.alternatives)), self.lin(b.tail))

    def rates(self, vec: RateVec) -> RateVec:
        out = [0.0] * 5
        for name, coef in zip(RATE_COMPONENTS, vec):
            if to := self.rename.get(name, name):
                out[RATE_COMPONENTS.index(to)] += coef
        return tuple(out)  # type: ignore[return-value]

    def ineq(self, row: Ineq) -> Ineq:
        return replace(row, rates=self.rates(row.rates), bound=self.bound(row.bound))

    def branch(self, br: BranchSpec) -> BranchSpec:
        """The mapped branch: rows left as 0 <= 0 dropped, a repeated (rates, bound)
        row kept at its first occurrence, rows in the source's rate order."""
        rows: dict[tuple[RateVec, Bound], Ineq] = {}
        for row in map(self.ineq, br.inequalities):
            if any(row.rates) or row.bound != as_bound(Lin()):
                rows.setdefault((row.rates, row.bound), row)
        order = [ineq.rates for ineq in br.inequalities]
        cond = br.condition and Condition(self.lin(br.condition.lhs), self.lin(br.condition.rhs))
        budget = br.rstar_budget and self.bound(br.rstar_budget)
        ineqs = tuple(sorted(rows.values(), key=lambda r: order.index(r.rates)))
        return BranchSpec(ineqs, cond, budget)

    def theorem(self, spec: TheoremSpec, branches: Iterable[BranchSpec]) -> TheoremSpec:
        """`spec` as config C: mapped coupling and factorization, the given branches."""
        factors = tuple((self.names(t), self.names(g)) for t, g in spec.pattern.factors)
        return replace(spec, config="C", branches=tuple(branches), pattern=FactorizationPattern(factors))


# Receivers swapped with all that is theirs, Y/Z, U1/U2, V1/V2 and the rates: receiver
# 2's rows of T1, T5 and T9 from receiver 1's, and the second NF/CF branch from the first.
_MIRROR = _TermMap({"Y": "Z", "Z": "Y", "U1": "U2", "U2": "U1", "V1": "V2", "V2": "V1",
                    "R1": "R2", "R2": "R1", "Re1": "Re2", "Re2": "Re1"})
# One confidential message: V2 held constant, V1 read as V, R2 = Re2 = 0.
_ONE_MESSAGE = _TermMap({"V1": "V", "V2": "", "R2": "", "Re2": ""})


def _chain_pattern(aux: tuple[str, ...]) -> FactorizationPattern:
    # U -> aux -> (X, X1): the outer bounds constrain couplings to this chain.
    return FactorizationPattern(
        ((("U",), ()), (aux, ("U",)), (("X", "X1"), aux))
    )


def _df_pattern(aux: tuple[str, ...]) -> FactorizationPattern:
    # Tautological split p(aux) p(x,x1|aux): decode-forward puts no constraint.
    return FactorizationPattern(((aux, ()), (("X", "X1"), aux)))


def _outer_two_messages(config: str) -> TheoremSpec:
    """T1 (config A) or T5 (config B): receiver 1's rows, each followed by its
    mirror image.  Without a common message U survives only in the Re1 cap's
    second alternative."""
    u, r0 = ("U,", R0) if config == "A" else ("", rsum())
    written = (_ineq(R0, Min(mi("U,U1;Y"), mi("U;Y,Y1|U1"))),) if config == "A" else ()
    written += (
        _ineq(rsum(r0, R1), Min(mi(f"{u}U1,V1;Y"), mi(f"{u}V1;Y,Y1|U1"))),
        _ineq(rsum(r0, R1, R2), mi(f"{u}U2,V1;Y,Y1|U1") + mi(f"V2;Z,Y1|{u}U1,U2,V1")),
        _ineq(RE1, Min(mi(f"V1;Y|{u}V2") - mi(f"V1;Z|{u}V2"), mi("V1;Y|U") - mi("V1;Z|U"))),
    )
    rows = tuple(i for row in written for i in (row, _MIRROR.ineq(row)))
    return TheoremSpec(config, "outer", _chain_pattern(("U1", "U2", "V1", "V2")), (BranchSpec(rows),))


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
        _ineq(RE1, mi("V1;Y|U,X1") - mi("V1;V2|U,X1") - mi("V1;Z|U,X1,V2")),
        _ineq(RE2, mi("V2;Z|U,X1") - mi("V1;V2|U,X1") - mi("V2;Y|U,X1,V1")),
    )
    return TheoremSpec("A", "decode-forward", _df_pattern(("U", "V1", "V2")), (BranchSpec(ineqs),))


def _forward_two_messages(cf: bool) -> TheoremSpec:
    """T3 (NF) or T4 (CF), whose rows differ as the module docstring says.  The
    relay input is independent of everything the transmitter knows; CF adds the
    channel's Y1 leg and the quantizer p(yh | y1, x1).  In branch 1 receiver 1
    decodes X1; branch 2 is its mirror image."""
    y = "Y,Yh" if cf else "Y"
    budget = Min(mi("X1;Z|U,V1,V2"), mi("X1;Y"))
    m1 = Min(mi(f"U;{y}|X1"), mi("U;Z"))
    ineqs = (
        _ineq(R0, m1),
        _ineq(rsum(R0, R1), m1 + mi(f"V1;{y}|U,X1")),
        _ineq(rsum(R0, R2), m1 + mi("V2;Z|U"), on_slice=False),
        _ineq(
            rsum(R0, R1, R2),
            m1 + mi(f"V1;{y}|U,X1") + mi("V2;Z|U") - mi("V1;V2|U"),
            on_slice=False,
        ),
        _ineq(RE1, (RSTAR if cf else budget) + mi(f"V1;{y}|U,X1") - mi("V1;V2|U") - mi("X1,V1;Z|U,V2")),
        _ineq(RE2, mi("V2;Z|U") - mi("V1;V2|U") - mi("V2;Y|U,X1,V1")),
    )
    l1 = BranchSpec(ineqs, Condition(mi("X1;Y"), mi("X1;Z|U,V2")), budget if cf else None)
    aux = ("U", "V1", "V2")
    factors = ((aux, ()), (("X",), aux), (("X1",), ()))
    compressor = (("Y1",), ("X", "X1")), (("Yh",), ("Y1", "X1"))
    pattern = FactorizationPattern(factors + (compressor if cf else ()))
    role = "compress-forward" if cf else "noise-forward"
    return TheoremSpec("A", role, pattern, (l1, _MIRROR.branch(l1)))


def _without_common(parent: TheoremSpec) -> TheoremSpec:
    """A config-A inner bound at R0 = 0, as its config-B twin.

    Rows on R0 alone drop out and R0 leaves the others; conditions, R*
    budgets, coupling variables and factorization stay the parent's.
    """
    branches = tuple(
        replace(
            br,
            inequalities=tuple(
                replace(ineq, rates=(0.0,) + ineq.rates[1:])
                for ineq in br.inequalities
                if ineq.rates != R0
            ),
        )
        for br in parent.branches
    )
    return replace(parent, config="B", branches=branches)


def _outer_one_message() -> TheoremSpec:
    r0 = _ineq(R0, Min(mi("U,U1;Y"), mi("U;Y,Y1|U1")))
    ineqs = (r0, _MIRROR.ineq(r0)) + (
        _ineq(rsum(R0, R1), Min(mi("U,U1,V;Y"), mi("U,V;Y,Y1|U1"))),
        _ineq(rsum(R0, R1), mi("U,U1;Z,Y1|U2") + mi("V;Y,Y1|U,U1,U2")),
        _ineq(RE1, mi("V;Y|U") - mi("V;Z|U")),
    )
    return TheoremSpec("C", "outer", _chain_pattern(("U1", "U2", "V")), (BranchSpec(ineqs),))


def _forward_one_message(parent: TheoremSpec) -> TheoremSpec:
    """T11 from T3, T12 from T4.  Branch 1 is the parent's first branch with V2
    constant.  In branch 2 both receivers decode the relay codeword, so the relay
    adds no confusion."""
    cf = parent.uses_compressor
    yh = ",Yh" if cf else ""
    m = Min(mi(f"U;Y{yh}|X1"), mi(f"U;Z{yh}|X1"))
    ineqs = (
        _ineq(R0, m),
        _ineq(rsum(R0, R1), m + mi(f"V;Y{yh}|U,X1"), on_slice=False),
        _ineq(RE1, mi(f"V;Y{yh}|U,X1") - mi("V;Z|U,X1")),
    )
    both = BranchSpec(ineqs, Condition(mi("X1;Z"), mi("X1;Y")), Min(mi("X1;Y")) if cf else None)
    return _ONE_MESSAGE.theorem(parent, (_ONE_MESSAGE.branch(parent.branches[0]), both))


def _catalog() -> dict[str, TheoremSpec]:
    """The twelve theorems by configuration (A, B, C), each group outer, DF, NF, CF,
    numbered by position: the k-th is Tk, and the branches of the branched ones are
    L1, L2, ... in the same order."""
    t2, t3, t4 = _df_two_messages(), _forward_two_messages(False), _forward_two_messages(True)
    specs = (
        _outer_two_messages("A"), t2, t3, t4,
        _outer_two_messages("B"), *map(_without_common, (t2, t3, t4)),
        _outer_one_message(), _ONE_MESSAGE.theorem(t2, (_ONE_MESSAGE.branch(t2.branches[0]),)),
        *map(_forward_one_message, (t3, t4)),
    )
    catalog, branch_no = {}, itertools.count(1)
    for k, spec in enumerate(specs, 1):
        branches = spec.branches
        if spec.branched:
            branches = tuple(replace(br, branch_id=f"T{k}.L{next(branch_no)}") for br in branches)
        catalog[f"T{k}"] = replace(spec, theorem_id=f"T{k}", branches=branches)
    return catalog


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


def require_factorization(spec: TheoremSpec, probs: np.ndarray) -> None:
    """Raise unless every stacked coupling (N, coupling_vars axes) meets spec's factorization."""
    deviation = factorization_deviation(probs, spec.coupling_vars, spec.pattern)
    bad = np.flatnonzero(~(deviation <= FACTORIZATION_TOL))
    if bad.size:
        raise ValidationError(
            f"coupling violates the {spec.theorem_id} factorization "
            f"{spec.pattern.describe()}: max deviation {deviation[bad[0]]:.3e}"
        )


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
        ordered = self.joint.reordered(spec.coupling_vars)
        object.__setattr__(self, "joint", ordered)
        require_factorization(spec, ordered.probs[None])

    def to_json(self) -> str:
        import json as _json

        return _json.dumps({**self.joint.to_json_dict(), "theorem": self.theorem_id}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "AuxiliaryCoupling":
        payload = parse_json(text, "coupling JSON")
        if not isinstance(payload, dict):
            raise ValidationError("coupling JSON: top level must be an object")
        if "theorem" not in payload:
            raise ValidationError("coupling JSON: missing 'theorem' field")
        try:
            spec = theorem_spec(str(payload.pop("theorem")))
        except UsageError as exc:
            raise ValidationError(f"coupling JSON: {exc}") from exc
        return cls(JointPMF.from_json_dict(payload), spec.theorem_id)


def build_cf_coupling(
    theorem_id: str,
    base: JointPMF,
    model: DMCModel,
    compressor: np.ndarray,
) -> AuxiliaryCoupling:
    """Assemble a compress-forward coupling from its free ingredients.

    `base` is the joint over the auxiliaries and (X, X1); `compressor` is the
    quantizer p(yh | y1, x1) indexed [x1, y1, yh], whose (x1, y1) rows go through
    `pmf.check_masses` as one stack, x1-major, so a refusal names the bad row by
    its position x1 * y1_size + y1.  The Y1 leg is pinned to the channel's own
    p(y1 | x, x1).
    """
    spec = theorem_spec(theorem_id)
    if not spec.uses_compressor:
        raise UsageError(f"{theorem_id} does not use a compressed observation")
    q, x1, y1 = np.asarray(compressor, dtype=np.float64), model.sizes["X1"], model.sizes["Y1"]
    if q.ndim != 3 or q.shape[:2] != (x1, y1):
        raise ValidationError(
            f"compressor must be indexed [x1,y1,yh] with x1 size {x1} "
            f"and y1 size {y1}; got shape {q.shape}"
        )
    rows = q.reshape(x1 * y1, -1)
    check_masses(rows, "compressor rows p(yh|y1,x1) in x1-major order")
    # The base, the channel's p(y1|x,x1) and q, multiplied by name in the base's order.
    legs = FactorizationPattern(((base.axis_names, ()), (("Y1",), ("X", "X1")), (("Yh",), ("X1", "Y1"))))
    probs = legs.product_stack([base.probs[None], model.y1_conditional[None], q[None]])
    return AuxiliaryCoupling(JointPMF(legs.variables, probs[0]), theorem_id)


def _grid_coupling(spec: TheoremSpec, probs: np.ndarray) -> AuxiliaryCoupling:
    """A search-grid coupling (`spec.coupling_vars` axes), of unit mass and factorized
    by construction, as an AuxiliaryCoupling without re-running those checks."""
    probs.setflags(write=False)
    joint = object.__new__(JointPMF)
    joint.__dict__.update(axis_names=spec.coupling_vars, probs=probs)
    coupling = object.__new__(AuxiliaryCoupling)
    coupling.__dict__.update(joint=joint, theorem_id=spec.theorem_id)
    return coupling


def compose_stack(spec: TheoremSpec, model: DMCModel, probs: np.ndarray) -> np.ndarray:
    """Stacked couplings (N, `spec.coupling_vars` axes) and the channel: stacked joints over
    `spec.full_vars`, each table laid out by name (`spec.channel_layout`).  A
    compress-forward coupling already carries the channel's Y1 leg, so it is
    multiplied by p(y, z | x, x1, y1) alone.  Checks nothing: the
    couplings' alphabets and any Y1 leg must already match the channel, as the
    search grid's do by construction and a single coupling's do once
    `coupling_stack` has checked them."""
    coupling, channel = spec.channel_layout
    table = model.yz_given_y1 if spec.uses_compressor else model.transition
    return coupling(probs) * channel(table)


def coupling_stack(spec: TheoremSpec, model: DMCModel, coupling: AuxiliaryCoupling) -> np.ndarray:
    """One coupling composed with the channel, as a stack of one over
    `spec.full_vars`; the coupling's axes are `spec.coupling_vars`.  Every single
    coupling enters here, so here it is checked against the channel, as invalid
    input: its X, X1 (and Y1) alphabets, and a compress-forward coupling's Y1 leg
    p(aux, x, x1)·p(y1|x, x1), its axes found by name, within FACTORIZATION_TOL like
    the rest of its factorization.  Cross-use by another theorem is allowed when its
    variables and factorization agree."""
    if spec.theorem_id != coupling.theorem_id:
        coupling = AuxiliaryCoupling(coupling.joint, spec.theorem_id)
    probs, channel = coupling.joint.probs, model.sizes
    have = {v: n for v, n in zip(spec.coupling_vars, probs.shape) if v in channel}
    if any(n != channel[v] for v, n in have.items()):
        ours, theirs = (", ".join(f"{v}={sizes[v]}" for v in have) for sizes in (have, channel))
        raise ValidationError(f"coupling alphabet ({ours}) does not match the channel ({theirs})")
    if spec.uses_compressor:
        y1, yh = map(spec.coupling_vars.index, ("Y1", "Yh"))
        leg = placement(("X", "X1", "Y1"), spec.coupling_vars)(model.y1_conditional)
        implied_y1 = probs.sum(axis=(y1, yh), keepdims=True) * leg
        dev = float(np.max(np.abs(implied_y1 - probs.sum(axis=yh, keepdims=True))))
        if not dev <= FACTORIZATION_TOL:
            raise ValidationError(
                f"coupling's Y1 leg is inconsistent with the channel's p(y1|x,x1): "
                f"max deviation {dev:.3e}"
            )
    return compose_stack(spec, model, probs[None])


def compose_full_joint(
    model: DMCModel, coupling: AuxiliaryCoupling, theorem_id: str | None = None
) -> JointPMF:
    """Coupling and channel law combined into the joint over every variable."""
    spec = theorem_spec(theorem_id or coupling.theorem_id)
    return JointPMF(spec.full_vars, coupling_stack(spec, model, coupling)[0])


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def mi_terms(
    model: DMCModel, coupling: AuxiliaryCoupling, theorem_id: str | None = None
) -> dict[str, float]:
    """Every distinct MI term of the bound, keyed and ordered by term name."""
    spec = theorem_spec(theorem_id or coupling.theorem_id)
    values = spec.compiled.mi(coupling_stack(spec, model, coupling))[0][0].tolist()
    return dict(sorted((t.name, v) for t, v in zip(spec.compiled.terms, values)))


@dataclass(frozen=True)
class StackEvaluation:
    """A theorem on N stacked couplings: (N, branches) arrays (R* NaN where a branch
    has none) and every row's bound (N, rows), floored if asked."""

    pre: np.ndarray  # condition sides, R* budgets and compress costs (CompiledTheorem.pre)
    condition_ok: np.ndarray
    rstar_max: np.ndarray
    rstar_used: np.ndarray
    budget_ok: np.ndarray
    applicable: np.ndarray
    bounds: np.ndarray


def evaluate_stack(
    spec: TheoremSpec,
    full: np.ndarray,
    *,
    rstar: float | None = None,
    tol: float = DEFAULT_TOL,
    clamp_equivocation: bool = False,
) -> StackEvaluation:
    """Branch conditions, R* budgets and inequality bounds of stacked full joints;
    `rstar=None` takes each coupling's largest feasible pure-noise rate."""
    c = spec.compiled
    if rstar is not None and any(br.budget_col < 0 for br in c.branches):
        raise UsageError(
            f"{spec.theorem_id} has no pure-noise rate parameter; rstar must be omitted"
        )
    if rstar is not None and not (math.isfinite(rstar) and rstar >= 0.0):
        raise UsageError(f"rstar must be a finite number >= 0, got {rstar!r}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise UsageError(f"tol must be a positive finite number, got {tol!r}")
    n, shape = len(full), (len(full), len(c.branches))
    mi, residue = c.mi(full)
    # Only T3, T4, T7, T8, T11 and T12 have pre columns, and only T4, T8 and T12 give rows an R*
    # share; adding no share instead of a 0 one can leave a -0 sum, which the table maps to 0.
    pre = c.pre(mi, residue) if c.pre.count else np.empty((n, 0))
    condition_ok, budget_ok = np.ones(shape, dtype=bool), np.ones(shape, dtype=bool)
    top, used = np.full(shape, np.nan), np.full(shape, np.nan)
    row_rstar = np.zeros((n, c.rows.count)) if any(br.budget_col >= 0 for br in c.branches) else None
    for k, br in enumerate(c.branches):
        if br.condition_col >= 0:
            condition_ok[:, k] = pre[:, br.condition_col] >= pre[:, br.condition_col + 1] - tol
        if br.budget_col >= 0:
            top[:, k] = pre[:, br.budget_col] - pre[:, br.budget_col + 1]
            free = rstar is None  # the largest feasible R*, or the one asked for
            used[:, k] = np.where(0.0 > top[:, k], 0.0, top[:, k]) if free else rstar
            ok = top[:, k] >= -tol if free else (-tol <= used[:, k]) & (used[:, k] <= top[:, k] + tol)
            budget_ok[:, k] = ok
            row_rstar[:, br.rows] = used[:, k, None]
    bounds = c.rows(mi, residue, row_rstar)
    if clamp_equivocation:
        bounds = np.where(c.equivocation & (bounds < 0.0), 0.0, bounds)
    return StackEvaluation(pre, condition_ok, top, used, budget_ok, condition_ok & budget_ok, bounds)


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


def stack_membership(
    spec: TheoremSpec,
    ev: StackEvaluation,
    points: np.ndarray,
    tol: float = DEFAULT_TOL,
    *,
    corollary: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rate points (N, 5) against a stack's rows, one point per coupling: each row's
    expression (N, rows), its rate coefficients times the point summed left to right
    from 0; each row's bound - expression >= -tol (N, rows); and each branch's verdict
    (N, branches), applicable with every tested row passing.  The tested rows are a
    branch's rows or, with `corollary`, its Re = R rows, read at points
    (r0, r1, r2, r1, r2)."""
    c = spec.compiled
    # ((0 + term 0) + term 1) ... + term 4: a scan is sequential, and 0 + its sum keeps
    # the sign of a zero as starting from 0 would.
    expression = 0.0 + np.add.accumulate(c.rates.T[:, None, :] * points.T[:, :, None])[-1]
    satisfied = ev.bounds - expression >= -tol
    return expression, satisfied, ev.applicable & ~(~satisfied @ c.tested[int(corollary)])


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
    branch_taken: str
    member: bool
    branches: tuple[BranchEvaluation, ...]


def _check_rates_config(spec: TheoremSpec, rates: Sequence[float]) -> None:
    """Refuse an (R0, R1, R2[, Re1, Re2]) point that is nonzero off `spec.rate_dims()`."""
    dims = spec.rate_dims()
    for name, dim, v in zip(("r0", "r1", "r2", "re1", "re2"), (0, 1, 2, 1, 2), rates):
        if v != 0.0 and dim not in dims:
            raise UsageError(f"rate {name} must be 0 in message configuration {spec.config}")


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
    feasible pure-noise rate (membership in the union over R*).  The records
    are one coupling's view of `evaluate_stack` and `stack_membership`.
    """
    spec = theorem_spec(theorem_id)
    _check_rates_config(spec, rates.as_tuple())
    full = coupling_stack(spec, model, coupling)
    ev = evaluate_stack(spec, full, rstar=rstar, tol=tol, clamp_equivocation=clamp_equivocation)
    expression, satisfied, verdict = stack_membership(spec, ev, np.array([rates.as_tuple()]), tol)
    exprs, bounds, oks = expression[0].tolist(), ev.bounds[0].tolist(), satisfied[0].tolist()
    applicable, accepted = ev.applicable[0].tolist(), verdict[0].tolist()
    evaluations = []
    for k, br in enumerate(spec.compiled.branches):
        records, top, used = [], None, None
        if br.condition_col >= 0:
            lhs, rhs = ev.pre[0, br.condition_col : br.condition_col + 2].tolist()
            ok = bool(ev.condition_ok[0, k])
            records.append(ConditionRecord(br.spec.condition.name, lhs, rhs, ok))
        if br.budget_col >= 0:
            top, used = float(ev.rstar_max[0, k]), float(ev.rstar_used[0, k])
            records.append(ConditionRecord(br.spec.budget_name, top, used, bool(ev.budget_ok[0, k])))
        state = BranchState(br.spec.branch_id, applicable[k], tuple(records), top, used)
        names = [ineq.name for ineq in br.spec.inequalities]
        recs = tuple(map(IneqRecord, names, exprs[br.rows], bounds[br.rows], oks[br.rows]))
        evaluations.append(BranchEvaluation(state, recs, accepted[k]))
    member = any(b.member for b in evaluations)
    # The first accepting branch, else the first qualifying one.
    first = [b for b in evaluations if b.member] + [b for b in evaluations if b.state.applicable]
    taken = first[0].state.branch_id if first else "none"
    return BoundEvaluation(taken, member, tuple(evaluations))


def corollary_member(
    theorem_id: str,
    model: DMCModel,
    coupling: AuxiliaryCoupling,
    point: Sequence[float],
) -> bool:
    """Direct membership of an (R0, R1, R2) point in the Re = R slice, at each
    branch's largest feasible R* and within DEFAULT_TOL.  The point is the
    RateTuple (R0, R1, R2, Re1 = R1, Re2 = R2), so negative and non-finite
    rates are refused as there."""
    p = tuple(float(v) for v in point)
    if len(p) != 3:
        raise UsageError("corollary_member expects an (R0, R1, R2) triple")
    rates = RateTuple(*p, re1=p[1], re2=p[2])
    spec = theorem_spec(theorem_id)
    _check_rates_config(spec, p)
    ev = evaluate_stack(spec, coupling_stack(spec, model, coupling))
    return bool(stack_membership(spec, ev, np.array([rates.as_tuple()]), corollary=True)[2].any())
