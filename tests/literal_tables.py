"""Test-only oracle: the twelve inequality systems transcribed literally, flat.

Kept deliberately independent of relaysec.bounds' structured tables: each
branch below is a plain function from an MI-lookup to explicit
(rate-coefficients, bound) rows.  MI values are produced by the naive
summation oracle, not the production implementation.  Every row's bound, both
sides of each branch condition, each R* budget and the membership computed
here are compared against evaluate_membership on random draws.
"""

from __future__ import annotations

from relaysec.acceptance import naive_cond_mutual_info
from relaysec.bounds import compose_full_joint

TOL = 1e-9

# rate-coefficient rows are (r0, r1, r2, re1, re2)
R0 = (1, 0, 0, 0, 0)
R1 = (0, 1, 0, 0, 0)
R2 = (0, 0, 1, 0, 0)
R0R1 = (1, 1, 0, 0, 0)
R0R2 = (1, 0, 1, 0, 0)
R1R2 = (0, 1, 1, 0, 0)
SUM3 = (1, 1, 1, 0, 0)
RE1 = (0, 0, 0, 1, 0)
RE2 = (0, 0, 0, 0, 1)


def make_lookup(model, coupling, theorem_id):
    """MI lookup over the composed joint, via the naive summation oracle."""
    full = compose_full_joint(model, coupling, theorem_id)
    cache = {}

    def val(expr: str) -> float:
        if expr not in cache:
            head, _, cond = expr.partition("|")
            a, _, b = head.partition(";")
            cache[expr] = naive_cond_mutual_info(
                full.probs,
                full.axis_names,
                tuple(s for s in a.split(",") if s),
                tuple(s for s in b.split(",") if s),
                tuple(s for s in cond.split(",") if s),
            )
        return cache[expr]

    return val


# Each branch: (condition (lhs, rhs) read lhs >= rhs, or None for unconditioned,
#               rstar_budget_fn(val) -> float or None,
#               rows_fn(val, rstar) -> [(coefs, bound), ...])


def _t1_rows(v, rs):
    return [
        (R0, min(v("U,U1;Y"), v("U;Y,Y1|U1"))),
        (R0, min(v("U,U2;Z"), v("U;Z,Y1|U2"))),
        (R0R1, min(v("U,U1,V1;Y"), v("U,V1;Y,Y1|U1"))),
        (R0R2, min(v("U,U2,V2;Z"), v("U,V2;Z,Y1|U2"))),
        (SUM3, v("U,U2,V1;Y,Y1|U1") + v("V2;Z,Y1|U,U1,U2,V1")),
        (SUM3, v("U,U1,V2;Z,Y1|U2") + v("V1;Y,Y1|U,U1,U2,V2")),
        (RE1, min(v("V1;Y|U,V2") - v("V1;Z|U,V2"), v("V1;Y|U") - v("V1;Z|U"))),
        (RE2, min(v("V2;Z|U,V1") - v("V2;Y|U,V1"), v("V2;Z|U") - v("V2;Y|U"))),
    ]


def _t2_rows(v, rs):
    m = min(v("U;Y1|X1"), v("U,X1;Y"), v("U,X1;Z"))
    return [
        (R0, m),
        (R0R1, m + v("V1;Y|U,X1")),
        (R0R2, m + v("V2;Z|U,X1")),
        (SUM3, m + v("V1;Y|U,X1") + v("V2;Z|U,X1") - v("V1;V2|U,X1")),
        (RE1, v("V1;Y|U,X1") - v("V1;V2|U,X1") - v("V1;Z|U,X1,V2")),
        (RE2, v("V2;Z|U,X1") - v("V1;V2|U,X1") - v("V2;Y|U,X1,V1")),
    ]


def _t3_l1_rows(v, rs):
    m = min(v("U;Y|X1"), v("U;Z"))
    return [
        (R0, m),
        (R0R1, m + v("V1;Y|U,X1")),
        (R0R2, m + v("V2;Z|U")),
        (SUM3, m + v("V1;Y|U,X1") + v("V2;Z|U") - v("V1;V2|U")),
        (
            RE1,
            min(v("X1;Z|U,V1,V2"), v("X1;Y"))
            + v("V1;Y|U,X1")
            - v("V1;V2|U")
            - v("X1,V1;Z|U,V2"),
        ),
        (RE2, v("V2;Z|U") - v("V1;V2|U") - v("V2;Y|U,X1,V1")),
    ]


def _t3_l2_rows(v, rs):
    m = min(v("U;Z|X1"), v("U;Y"))
    return [
        (R0, m),
        (R0R1, m + v("V1;Y|U")),
        (R0R2, m + v("V2;Z|U,X1")),
        (SUM3, m + v("V1;Y|U") + v("V2;Z|U,X1") - v("V1;V2|U")),
        (RE1, v("V1;Y|U") - v("V1;V2|U") - v("V1;Z|U,V2,X1")),
        (
            RE2,
            min(v("X1;Y|U,V1,V2"), v("X1;Z"))
            + v("V2;Z|U,X1")
            - v("V1;V2|U")
            - v("X1,V2;Y|U,V1"),
        ),
    ]


def _t4_l3_rows(v, rs):
    m = min(v("U;Y,Yh|X1"), v("U;Z"))
    return [
        (R0, m),
        (R0R1, m + v("V1;Y,Yh|U,X1")),
        (R0R2, m + v("V2;Z|U")),
        (SUM3, m + v("V1;Y,Yh|U,X1") + v("V2;Z|U") - v("V1;V2|U")),
        (RE1, rs + v("V1;Y,Yh|U,X1") - v("V1;V2|U") - v("X1,V1;Z|U,V2")),
        (RE2, v("V2;Z|U") - v("V1;V2|U") - v("V2;Y|U,X1,V1")),
    ]


def _t4_l4_rows(v, rs):
    m = min(v("U;Z,Yh|X1"), v("U;Y"))
    return [
        (R0, m),
        (R0R1, m + v("V1;Y|U")),
        (R0R2, m + v("V2;Z,Yh|U,X1")),
        (SUM3, m + v("V1;Y|U") + v("V2;Z,Yh|U,X1") - v("V1;V2|U")),
        (RE1, v("V1;Y|U") - v("V1;V2|U") - v("V1;Z|U,V2,X1")),
        (RE2, rs + v("V2;Z,Yh|U,X1") - v("V1;V2|U") - v("X1,V2;Y|U,V1")),
    ]


def _t5_rows(v, rs):
    return [
        (R1, min(v("U1,V1;Y"), v("V1;Y,Y1|U1"))),
        (R2, min(v("U2,V2;Z"), v("V2;Z,Y1|U2"))),
        (R1R2, v("U2,V1;Y,Y1|U1") + v("V2;Z,Y1|U1,U2,V1")),
        (R1R2, v("U1,V2;Z,Y1|U2") + v("V1;Y,Y1|U1,U2,V2")),
        (RE1, min(v("V1;Y|V2") - v("V1;Z|V2"), v("V1;Y|U") - v("V1;Z|U"))),
        (RE2, min(v("V2;Z|V1") - v("V2;Y|V1"), v("V2;Z|U") - v("V2;Y|U"))),
    ]


def _t6_rows(v, rs):
    m = min(v("U;Y1|X1"), v("U,X1;Y"), v("U,X1;Z"))
    return [
        (R1, m + v("V1;Y|U,X1")),
        (R2, m + v("V2;Z|U,X1")),
        (R1R2, m + v("V1;Y|U,X1") + v("V2;Z|U,X1") - v("V1;V2|U,X1")),
        (RE1, v("V1;Y|U,X1") - v("V1;V2|U,X1") - v("V1;Z|U,X1,V2")),
        (RE2, v("V2;Z|U,X1") - v("V1;V2|U,X1") - v("V2;Y|U,X1,V1")),
    ]


def _t7_l5_rows(v, rs):
    m = min(v("U;Y|X1"), v("U;Z"))
    return [
        (R1, m + v("V1;Y|U,X1")),
        (R2, m + v("V2;Z|U")),
        (R1R2, m + v("V1;Y|U,X1") + v("V2;Z|U") - v("V1;V2|U")),
        (
            RE1,
            min(v("X1;Z|U,V1,V2"), v("X1;Y"))
            + v("V1;Y|U,X1")
            - v("V1;V2|U")
            - v("X1,V1;Z|U,V2"),
        ),
        (RE2, v("V2;Z|U") - v("V1;V2|U") - v("V2;Y|U,X1,V1")),
    ]


def _t7_l6_rows(v, rs):
    m = min(v("U;Z|X1"), v("U;Y"))
    return [
        (R1, m + v("V1;Y|U")),
        (R2, m + v("V2;Z|U,X1")),
        (R1R2, m + v("V1;Y|U") + v("V2;Z|U,X1") - v("V1;V2|U")),
        (RE1, v("V1;Y|U") - v("V1;V2|U") - v("V1;Z|U,V2,X1")),
        (
            RE2,
            min(v("X1;Y|U,V1,V2"), v("X1;Z"))
            + v("V2;Z|U,X1")
            - v("V1;V2|U")
            - v("X1,V2;Y|U,V1"),
        ),
    ]


def _t8_l7_rows(v, rs):
    m = min(v("U;Y,Yh|X1"), v("U;Z"))
    return [
        (R1, m + v("V1;Y,Yh|U,X1")),
        (R2, m + v("V2;Z|U")),
        (R1R2, m + v("V1;Y,Yh|U,X1") + v("V2;Z|U") - v("V1;V2|U")),
        (RE1, rs + v("V1;Y,Yh|U,X1") - v("V1;V2|U") - v("X1,V1;Z|U,V2")),
        (RE2, v("V2;Z|U") - v("V1;V2|U") - v("V2;Y|U,X1,V1")),
    ]


def _t8_l8_rows(v, rs):
    m = min(v("U;Z,Yh|X1"), v("U;Y"))
    return [
        (R1, m + v("V1;Y|U")),
        (R2, m + v("V2;Z,Yh|U,X1")),
        (R1R2, m + v("V1;Y|U") + v("V2;Z,Yh|U,X1") - v("V1;V2|U")),
        (RE1, v("V1;Y|U") - v("V1;V2|U") - v("V1;Z|U,V2,X1")),
        (RE2, rs + v("V2;Z,Yh|U,X1") - v("V1;V2|U") - v("X1,V2;Y|U,V1")),
    ]


def _t9_rows(v, rs):
    return [
        (R0, min(v("U,U1;Y"), v("U;Y,Y1|U1"))),
        (R0, min(v("U,U2;Z"), v("U;Z,Y1|U2"))),
        (R0R1, min(v("U,U1,V;Y"), v("U,V;Y,Y1|U1"))),
        (R0R1, v("U,U1;Z,Y1|U2") + v("V;Y,Y1|U,U1,U2")),
        (RE1, v("V;Y|U") - v("V;Z|U")),
    ]


def _t10_rows(v, rs):
    m = min(v("U;Y1|X1"), v("U,X1;Y"), v("U,X1;Z"))
    return [
        (R0, m),
        (R0R1, m + v("V;Y|U,X1")),
        (RE1, v("V;Y|U,X1") - v("V;Z|U,X1")),
    ]


def _t11_l9_rows(v, rs):
    m = min(v("U;Y|X1"), v("U;Z"))
    return [
        (R0, m),
        (R0R1, m + v("V;Y|U,X1")),
        (RE1, min(v("X1;Z|U,V"), v("X1;Y")) + v("V;Y|U,X1") - v("X1,V;Z|U")),
    ]


def _t11_l10_rows(v, rs):
    m = min(v("U;Y|X1"), v("U;Z|X1"))
    return [
        (R0, m),
        (R0R1, m + v("V;Y|U,X1")),
        (RE1, v("V;Y|U,X1") - v("V;Z|U,X1")),
    ]


def _t12_l11_rows(v, rs):
    m = min(v("U;Y,Yh|X1"), v("U;Z"))
    return [
        (R0, m),
        (R0R1, m + v("V;Y,Yh|U,X1")),
        (RE1, rs + v("V;Y,Yh|U,X1") - v("X1,V;Z|U")),
    ]


def _t12_l12_rows(v, rs):
    m = min(v("U;Y,Yh|X1"), v("U;Z,Yh|X1"))
    return [
        (R0, m),
        (R0R1, m + v("V;Y,Yh|U,X1")),
        (RE1, v("V;Y,Yh|U,X1") - v("V;Z|U,X1")),
    ]


# theorem -> list of branches; each branch is
# ((lhs, rhs) or None, rstar_budget(v) or None, rows_fn)
LITERAL = {
    "T1": [(None, None, _t1_rows)],
    "T2": [(None, None, _t2_rows)],
    "T3": [
        (("X1;Y", "X1;Z|U,V2"), None, _t3_l1_rows),
        (("X1;Z", "X1;Y|U,V1"), None, _t3_l2_rows),
    ],
    "T4": [
        (
            ("X1;Y", "X1;Z|U,V2"),
            lambda v: min(v("X1;Z|U,V1,V2"), v("X1;Y")) - v("Y1;Yh|X1"),
            _t4_l3_rows,
        ),
        (
            ("X1;Z", "X1;Y|U,V1"),
            lambda v: min(v("X1;Y|U,V1,V2"), v("X1;Z")) - v("Y1;Yh|X1"),
            _t4_l4_rows,
        ),
    ],
    "T5": [(None, None, _t5_rows)],
    "T6": [(None, None, _t6_rows)],
    "T7": [
        (("X1;Y", "X1;Z|U,V2"), None, _t7_l5_rows),
        (("X1;Z", "X1;Y|U,V1"), None, _t7_l6_rows),
    ],
    "T8": [
        (
            ("X1;Y", "X1;Z|U,V2"),
            lambda v: min(v("X1;Z|U,V1,V2"), v("X1;Y")) - v("Y1;Yh|X1"),
            _t8_l7_rows,
        ),
        (
            ("X1;Z", "X1;Y|U,V1"),
            lambda v: min(v("X1;Y|U,V1,V2"), v("X1;Z")) - v("Y1;Yh|X1"),
            _t8_l8_rows,
        ),
    ],
    "T9": [(None, None, _t9_rows)],
    "T10": [(None, None, _t10_rows)],
    "T11": [
        (("X1;Y", "X1;Z|U"), None, _t11_l9_rows),
        (("X1;Z", "X1;Y"), None, _t11_l10_rows),
    ],
    "T12": [
        (
            ("X1;Y", "X1;Z|U"),
            lambda v: min(v("X1;Z|U,V"), v("X1;Y")) - v("Y1;Yh|X1"),
            _t12_l11_rows,
        ),
        (
            ("X1;Z", "X1;Y"),
            lambda v: v("X1;Y") - v("Y1;Yh|X1"),
            _t12_l12_rows,
        ),
    ],
}


def literal_branches(theorem_id, model, coupling):
    """Per branch: its condition's two sides (None if unconditioned), its R* budget
    (None if it has none) and its rows [(coefs, bound)] at R* = max(0, budget)."""
    v = make_lookup(model, coupling, theorem_id)
    out = []
    for condition, budget, rows_fn in LITERAL[theorem_id]:
        sides = None if condition is None else (v(condition[0]), v(condition[1]))
        top = None if budget is None else budget(v)
        out.append((sides, top, rows_fn(v, 0.0 if top is None else max(0.0, top))))
    return out


def oracle_member(branches, rates, tol=TOL) -> bool:
    """Literal-transcription membership of `literal_branches`: union over qualifying branches."""
    rt = rates.as_tuple()
    if rt[3] > rt[1] + tol or rt[4] > rt[2] + tol:
        return False
    for sides, top, rows in branches:
        if sides is not None and not sides[0] >= sides[1] - tol:
            continue
        if top is not None and top < -tol:
            continue
        if all(
            sum(c * r for c, r in zip(coefs, rt)) <= bound + tol for coefs, bound in rows
        ):
            return True
    return False
