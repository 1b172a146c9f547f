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
On first use a theorem compiles to numeric maps (`CompiledTheorem`): subset
entropies, MI terms as +-1 sums of them, and bounds as gathered sums with a
segmented min.  `evaluate_stack` runs them on N stacked couplings at once;
membership, branch reports and corollary systems are one coupling's view.

Every row is written once.  A branch's perfect-secrecy corollary (the
Re = R slice) is derived from its own rows: each row marked `on_slice` is
read with Re1 folded into R1 and Re2 into R2, and rows the slice leaves
implied carry `on_slice=False`.  The config-B inner bounds T6-T8 are T2-T4
at R0 = 0: rows on R0 alone drop out and R0 leaves the others.  T5 stays
written out because U survives inside its equivocation caps.

Noise-forward and compress-forward share their rows: T4.L3 is T3.L1 with
receiver 1 decoding from Y,Yh instead of Y, and with R* in place of the
relay's confusion rate Min(I(X1;Z|U,V1,V2), I(X1;Y)) in the Re1 cap, that Min
becoming R*'s budget (`_forward_two_messages`); CF's coupling adds the Y1 and
Yh factors.  Likewise T12.L12 is T11.L10 with Yh added to both receivers' U
terms and to receiver 1's V term, and budget I(X1;Y) (`_forward_one_message`).

Two term maps (`_TermMap`) derive five more branches.  `_MIRROR` swaps the
receivers Y/Z, the messages V1/V2 and their rates: T3.L2 and T4.L4 are
T3.L1 and T4.L3 mirrored.  `_ONE_MESSAGE` holds V2 constant and reads V1 as
V: T10, T11.L9 and T12.L11 are T2, T3.L1 and T4.L3 in config C.  Written out
stay T1; T9, because T1 with V2 constant keeps an implied extra R0+R1 row and
a repeated min alternative; and the branch where both receivers decode X1
(T11.L10, T12.L12), a decoder config A does not have.
"""

from __future__ import annotations

import math
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
    SubsetEntropies,
    factorization_deviation,
    information,
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
    equivocation: bool = False  # True when the cap is an equivocation difference
    on_slice: bool = True  # False when the Re = R slice leaves the row implied

    @cached_property
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

    @cached_property
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

    @cached_property
    def budget_name(self) -> str:
        return f"{self.rstar_budget.render()} - {_COMPRESS_COST.render()} >= R* >= 0"


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
        return self.compiled.terms

    def rate_dims(self) -> tuple[int, ...]:
        """Active (R0,R1,R2) coordinates of this message configuration."""
        return {"A": (0, 1, 2), "B": (1, 2), "C": (0, 1)}[self.config]

    @property
    def full_vars(self) -> tuple[str, ...]:
        """Axes of the coupling composed with the channel."""
        aux = tuple(v for v in self.coupling_vars if v not in ("X", "X1", "Y1", "Yh"))
        return aux + ("X", "X1", "Y", "Y1", "Z") + ("Yh",) * self.uses_compressor

    @cached_property
    def compiled(self) -> "CompiledTheorem":
        return CompiledTheorem(self)


_COMPRESS_COST = mi("Y1;Yh|X1")  # rate spent describing the quantized observation


class _BoundTable:
    """Bounds as gather tables over MI-term columns: min over Lin alternatives, plus a tail."""

    def __init__(self, bounds: Sequence[Bound], column: Mapping[MITerm, int]) -> None:
        lins = [lin for b in bounds for lin in b.alternatives] + [b.tail for b in bounds]
        width = max((len(lin.terms) for lin in lins), default=0)
        # Padding points at the all-zero column past the last term.
        self.index = np.full((len(lins), width), len(column))
        self.coef = np.zeros((len(lins), width))
        for i, lin in enumerate(lins):
            for k, (coef, term) in enumerate(lin.terms):
                self.index[i, k], self.coef[i, k] = column[term], coef
        self.rstar = np.array([lin.rstar for lin in lins])
        owner = [k for k, b in enumerate(bounds) for _ in b.alternatives] + list(range(len(bounds)))
        self.owner = np.array(owner, dtype=int)
        self.starts = np.cumsum([0] + [len(b.alternatives) for b in bounds])[:-1]
        self.count = len(bounds)

    def __call__(self, mi: np.ndarray, residue: np.ndarray, rstar: np.ndarray) -> np.ndarray:
        """(N, bounds) values from MI columns and their rounding scales (N, terms + 1)
        and each bound's R* (N, bounds).  Each Lin adds its terms to its R* share
        in written order; a bound within its terms' summed rounding scale is 0."""
        total = self.rstar * rstar[:, self.owner]
        scale = np.zeros_like(total)
        for k in range(self.index.shape[1]):
            total = total + self.coef[:, k] * mi[:, self.index[:, k]]
            scale = scale + np.abs(self.coef[:, k]) * residue[:, self.index[:, k]]
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
    corollary: tuple[int, ...]  # the rows of spec.corollary


class CompiledTheorem:
    """One theorem as numeric maps, built on first use: every term I(A;B|C) is
    H(AC) + H(BC) - H(ABC) - H(C) over a fixed list of variable subsets, and
    every bound a min over gathered term sums plus a tail."""

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
        groups = [[frozenset(g) for g in (t.a + t.c, t.b + t.c, t.a + t.b + t.c, t.c)]
                  for t in self.terms]
        subsets = sorted(dict.fromkeys(g for grp in groups for g in grp if g), key=len, reverse=True)
        column = {s: k for k, s in enumerate(subsets)}  # the empty subset is the last column
        self.term_index = np.array([[column.get(g, len(subsets)) for g in grp] for grp in groups])
        self.entropies = SubsetEntropies(spec.full_vars, subsets)
        term_column = {t: i for i, t in enumerate(self.terms)}
        self.branches = tuple(branches)
        self.pre = _BoundTable(pre, term_column)
        self.rows = _BoundTable([ineq.bound for ineq in rows], term_column)
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
    a rate), lifted to every catalog object.  Terms come out canonical: C in `CANONICAL_VARS` order, A and
    B swapped when B's indices sort first, a term with an empty side dropped, and
    each Lin's + terms before its - terms, each group in canonical order."""

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

    def branch(self, br: BranchSpec, branch_id: str) -> BranchSpec:
        """The mapped branch: rows left as 0 <= 0 dropped, a repeated (rates, bound)
        row kept at its first occurrence, rows in the source's rate order."""
        rows: dict[tuple[RateVec, Bound], Ineq] = {}
        for ineq in br.inequalities:
            row = replace(ineq, rates=self.rates(ineq.rates), bound=self.bound(ineq.bound))
            if any(row.rates) or row.bound != as_bound(Lin()):
                rows.setdefault((row.rates, row.bound), row)
        order = [ineq.rates for ineq in br.inequalities]
        cond = br.condition and Condition(self.lin(br.condition.lhs), self.lin(br.condition.rhs))
        budget = br.rstar_budget and self.bound(br.rstar_budget)
        ineqs = tuple(sorted(rows.values(), key=lambda r: order.index(r.rates)))
        return BranchSpec(branch_id, ineqs, cond, budget)

    def theorem(
        self, spec: TheoremSpec, theorem_id: str, branches: Iterable[BranchSpec]
    ) -> TheoremSpec:
        """`spec` as config C: mapped coupling and factorization, the given branches."""
        factors = tuple((self.names(t), self.names(g)) for t, g in spec.pattern.factors)
        return replace(spec, theorem_id=theorem_id, config="C", branches=tuple(branches),
                       coupling_vars=self.names(spec.coupling_vars),
                       pattern=FactorizationPattern(factors))


# Receivers, confidential messages and their rates swapped: the second NF/CF branch.
_MIRROR = _TermMap({"Y": "Z", "Z": "Y", "V1": "V2", "V2": "V1",
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


def _forward_two_messages(cf: bool) -> TheoremSpec:
    """T3 (NF) or T4 (CF), whose rows differ as the module docstring says.  The
    relay input is independent of everything the transmitter knows; CF adds the
    channel's Y1 leg and the quantizer p(yh | y1, x1).  In branch 1 receiver 1
    decodes X1; branch 2 is its mirror image."""
    theorem_id, l_first = ("T4", 3) if cf else ("T3", 1)
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
        _ineq(
            RE1,
            (RSTAR if cf else budget) + mi(f"V1;{y}|U,X1") - mi("V1;V2|U") - mi("X1,V1;Z|U,V2"),
            equivocation=True,
        ),
        _ineq(RE2, mi("V2;Z|U") - mi("V1;V2|U") - mi("V2;Y|U,X1,V1"), equivocation=True),
    )
    l1 = BranchSpec(f"{theorem_id}.L{l_first}", ineqs, Condition(mi("X1;Y"), mi("X1;Z|U,V2")),
                    budget if cf else None)
    aux = ("U", "V1", "V2")
    factors = ((aux, ()), (("X",), aux), (("X1",), ()))
    compressor = (("Y1",), ("X", "X1")), (("Yh",), ("Y1", "X1"))
    return TheoremSpec(
        theorem_id,
        "A",
        "compress-forward" if cf else "noise-forward",
        aux + ("X", "X1") + (("Y1", "Yh") if cf else ()),
        FactorizationPattern(factors + (compressor if cf else ())),
        (l1, _MIRROR.branch(l1, f"{theorem_id}.L{l_first + 1}")),
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


def _forward_one_message(parent: TheoremSpec, theorem_id: str, l_first: int) -> TheoremSpec:
    """T11 from T3, T12 from T4.  Branch 1 is the parent's first branch with V2
    constant.  In branch 2 both receivers decode the relay codeword, so the relay
    adds no confusion."""
    cf = parent.uses_compressor
    yh = ",Yh" if cf else ""
    m = Min(mi(f"U;Y{yh}|X1"), mi(f"U;Z{yh}|X1"))
    ineqs = (
        _ineq(R0, m),
        _ineq(rsum(R0, R1), m + mi(f"V;Y{yh}|U,X1"), on_slice=False),
        _ineq(RE1, mi(f"V;Y{yh}|U,X1") - mi("V;Z|U,X1"), equivocation=True),
    )
    both = BranchSpec(f"{theorem_id}.L{l_first + 1}", ineqs, Condition(mi("X1;Z"), mi("X1;Y")),
                      Min(mi("X1;Y")) if cf else None)
    first = _ONE_MESSAGE.branch(parent.branches[0], f"{theorem_id}.L{l_first}")
    return _ONE_MESSAGE.theorem(parent, theorem_id, (first, both))


def _catalog() -> dict[str, TheoremSpec]:
    t2, t3, t4 = _df_two_messages(), _forward_two_messages(False), _forward_two_messages(True)
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
        _ONE_MESSAGE.theorem(t2, "T10", (_ONE_MESSAGE.branch(t2.branches[0], "n/a"),)),
        _forward_one_message(t3, "T11", 9),
        _forward_one_message(t4, "T12", 11),
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


def require_factorization(spec: TheoremSpec, probs: np.ndarray) -> None:
    """Raise unless every stacked coupling (N, canonical axes) meets the spec's factorization."""
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
        ordered = self.joint.reordered(_canonical_order(spec.coupling_vars))
        object.__setattr__(self, "joint", ordered)
        require_factorization(spec, ordered.probs[None])

    def to_json(self) -> str:
        import json as _json

        return _json.dumps({**self.joint.to_json_dict(), "theorem": self.theorem_id}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "AuxiliaryCoupling":
        import json as _json

        try:
            payload = _json.loads(text)
        except _json.JSONDecodeError as exc:
            raise ValidationError(
                f"coupling JSON: parse failure at line {exc.lineno}: {exc.msg}"
            ) from exc
        if not isinstance(payload, dict):
            raise ValidationError("coupling JSON: top level must be an object")
        try:
            theorem_id = str(payload.pop("theorem"))
        except KeyError:
            raise ValidationError("coupling JSON: missing 'theorem' field") from None
        if theorem_id not in THEOREMS:
            raise ValidationError(f"coupling JSON: unknown theorem id {theorem_id!r}")
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


def compose_stack(spec: TheoremSpec, model: DMCModel, probs: np.ndarray) -> np.ndarray:
    """Stacked couplings (N, canonical axes) and the channel: stacked joints over
    `spec.full_vars`.  Compress-forward couplings must carry the channel's Y1 leg."""
    sizes = dict(zip(spec.coupling_vars, probs.shape[1:]))
    if sizes["X"] != model.x_size or sizes["X1"] != model.x1_size:
        raise UsageError(
            f"coupling alphabet (X={sizes['X']}, X1={sizes['X1']}) does not match "
            f"the channel (X={model.x_size}, X1={model.x1_size})"
        )
    if not spec.uses_compressor:
        return probs[..., None, None, None] * model.transition

    if sizes["Y1"] != model.y1_size:
        raise UsageError(
            f"coupling Y1 alphabet ({sizes['Y1']}) does not match the channel ({model.y1_size})"
        )
    n = len(probs)
    aux_xx1 = probs.sum(axis=(-2, -1))
    implied_y1 = aux_xx1[..., None] * model.y1_conditional()
    dev = np.max(np.abs(implied_y1 - probs.sum(axis=-1)).reshape(n, -1), axis=1)
    bad = np.flatnonzero(dev > DEFAULT_TOL)
    if bad.size:
        raise ValidationError(
            f"coupling's Y1 leg is inconsistent with the channel's p(y1|x,x1): "
            f"max deviation {dev[bad[0]]:.3e}"
        )
    # Quantizer p(yh | y1, x1); unreachable (y1, x1) cells get a uniform row.
    m = probs.sum(axis=tuple(range(1, probs.ndim - 4)))  # (N, X, X1, Y1, Yh)
    m_x1y1yh = m.sum(axis=1)  # (N, X1, Y1, Yh)
    denom = m_x1y1yh.sum(axis=3, keepdims=True)
    nx1, ny1, nyh = m_x1y1yh.shape[1:]
    q = np.where(denom > 0.0, np.divide(m_x1y1yh, np.where(denom > 0.0, denom, 1.0)), 1.0 / nyh)
    q = q.reshape((n,) + (1,) * (probs.ndim - 4) + (nx1, 1, ny1, 1, nyh))
    return aux_xx1[..., None, None, None, None] * model.transition[..., None] * q


def coupling_stack(spec: TheoremSpec, model: DMCModel, coupling: AuxiliaryCoupling) -> np.ndarray:
    """One coupling composed with the channel, as a stack of one.  Cross-use by
    another theorem is allowed when its variables and factorization agree."""
    if spec.theorem_id != coupling.theorem_id:
        coupling = AuxiliaryCoupling(coupling.joint, spec.theorem_id)
    return compose_stack(spec, model, coupling.joint.probs[None])


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
    mi, residue = (np.concatenate([a, np.zeros((n, 1))], axis=1) for a in c.mi(full))
    pre = c.pre(mi, residue, np.zeros((n, c.pre.count)))
    condition_ok, budget_ok = np.ones(shape, dtype=bool), np.ones(shape, dtype=bool)
    top, used = np.full(shape, np.nan), np.full(shape, np.nan)
    row_rstar = np.zeros((n, c.rows.count))
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


def _evaluate_one(
    theorem_id: str, model: DMCModel, coupling: AuxiliaryCoupling, rstar, tol, clamp
) -> tuple[CompiledTheorem, StackEvaluation, tuple[BranchState, ...]]:
    """One coupling through `evaluate_stack`, with its branch states as records."""
    spec = theorem_spec(theorem_id)
    full = coupling_stack(spec, model, coupling)
    ev = evaluate_stack(spec, full, rstar=rstar, tol=tol, clamp_equivocation=clamp)
    states = []
    for k, br in enumerate(spec.compiled.branches):
        records, top, used = [], None, None
        if br.condition_col >= 0:
            lhs, rhs = ev.pre[0, br.condition_col : br.condition_col + 2].tolist()
            ok = bool(ev.condition_ok[0, k])
            records.append(ConditionRecord(br.spec.condition.name, lhs, rhs, ok))
        if br.budget_col >= 0:
            top, used = float(ev.rstar_max[0, k]), float(ev.rstar_used[0, k])
            records.append(ConditionRecord(br.spec.budget_name, top, used, bool(ev.budget_ok[0, k])))
        applicable = bool(ev.applicable[0, k])
        states.append(BranchState(br.spec.branch_id, applicable, tuple(records), top, used))
    return spec.compiled, ev, tuple(states)


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


def _check_rates_config(spec: TheoremSpec, rates: Sequence[float]) -> None:
    """Refuse an (R0, R1, R2[, Re1, Re2]) point that is nonzero off `spec.rate_dims()`."""
    for name, dim, v in zip(("r0", "r1", "r2", "re1", "re2"), (0, 1, 2, 1, 2), rates):
        if v != 0.0 and dim not in spec.rate_dims():
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
    feasible pure-noise rate (membership in the union over R*).
    """
    _check_rates_config(theorem_spec(theorem_id), rates.as_tuple())
    c, ev, states = _evaluate_one(theorem_id, model, coupling, rstar, tol, clamp_equivocation)
    rt = rates.as_tuple()
    bounds = ev.bounds[0].tolist()
    evaluations = []
    for br, state in zip(c.branches, states):
        recs = []
        for r, ineq in zip(range(br.rows.start, br.rows.stop), br.spec.inequalities):
            expr = sum(coef * rate for coef, rate in zip(ineq.rates, rt))
            recs.append(IneqRecord(ineq.name, expr, bounds[r], bounds[r] - expr >= -tol))
        member = state.applicable and all(r.satisfied for r in recs)
        evaluations.append(BranchEvaluation(state, tuple(recs), member))
    member = any(b.member for b in evaluations)
    # The first accepting branch, else the first qualifying one.
    first = [b for b in evaluations if b.member] + [b for b in evaluations if b.state.applicable]
    taken = first[0].state.branch_id if first else "none"
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
    c, ev, states = _evaluate_one(theorem_id, model, coupling, rstar, tol, clamp_equivocation)
    bounds = ev.bounds[0].tolist()
    return tuple(
        CorollaryBranch(state.branch_id, state.applicable, tuple(
            LinearConstraint(row.name, row.rates[:3], bounds[r], row.equivocation)
            for r, row in zip(br.corollary, br.spec.corollary)
        ), state.rstar_used)
        for br, state in zip(c.branches, states)
    )


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
    _check_rates_config(theorem_spec(theorem_id), p)
    branches = corollary_constraints(
        theorem_id, model, coupling, rstar=rstar, tol=tol, clamp_equivocation=clamp_equivocation
    )
    return any(
        br.applicable
        and all(sum(c * v for c, v in zip(lc.coefs, p)) <= lc.bound + tol for lc in br.constraints)
        for br in branches
    )
