"""Search maxima pinned to textbook closed forms on hand-built binary channels.

Every value is the largest confidential rate R1 (objective (0, 1, 0)) that
`brute_force_best` finds at grid steps 3, compared to 1e-12 absolute.  Write h
for the binary entropy and BSC(p)(X) for X through a binary symmetric channel.

- Useless relay: Y = BSC(py)(X), Y1 = BSC(py1)(X), Z = BSC(pz)(X), none of
  them depending on X1.  The secrecy capacity is h(pz) - h(py) (Wyner 1975;
  Csiszar and Korner 1978), and every configuration-C inner bound reaches it.
- Jamming relay: Y = (BSC(py)(X), X1), Z = BSC(pz)(X xor X1), Y1 = BSC(py1)(X).
  Noise-forward's rate I(X;Y|X1) + min(I(X1;Y), I(X1;Z|X)) - I(X,X1;Z) (Lai
  and El Gamal) is 1 - h(py) at uniform independent X and X1, so T11 and T12
  reach it; decode-forward (T10) stays at the no-relay value h(pz) - h(py).
- Jamming relay whose receiver 1 does not see X1: the min term is 0, so
  noise-forward also stays at h(pz) - h(py).
- Configurations A and B on a pure-noise eavesdropper (Z independent of every
  input): the confidential rate is the capacity 1 - h(py) of receiver 1's BSC.

The outer bound T9 is asserted only to lie above every inner bound: its
tightness on these channels has not been derived.
"""

import functools
import math

import numpy as np
import pytest

from channels import bsc, product_channel
from relaysec.dmc import DMCModel
from relaysec.regionsearch import brute_force_best

TOL = 1e-12
STEPS = 3
# (py, pz, py1): receiver 1's, receiver 2's and the relay's crossover probabilities.
POINTS = [(0.1, 0.3, 0.25), (0.1, 0.3, 0.5), (0.05, 0.2, 0.25)]
INNER = {"T10": {"U": 1, "V": 2}, "T11": {"U": 1, "V": 2}, "T12": {"U": 1, "V": 2, "Yh": 2}}
OUTER = ("T9", {"U": 1, "U1": 1, "U2": 1, "V": 2})


def h(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def useless_relay(py, pz, py1):
    return product_channel(py, py1, pz)


def jamming_relay(py, pz, py1, y_sees_x1=True):
    t = np.zeros((2, 2, 4 if y_sees_x1 else 2, 2, 2))
    for x in range(2):
        for x1 in range(2):
            for y in range(2):
                for y1 in range(2):
                    for z in range(2):
                        out = 2 * y + x1 if y_sees_x1 else y
                        t[x, x1, out, y1, z] = bsc(py)[x, y] * bsc(py1)[x, y1] * bsc(pz)[x ^ x1, z]
    return DMCModel(t)


def noise_eavesdropper(py):
    t = np.einsum("xy,xw,z->xywz", bsc(py), bsc(0.2), np.full(2, 0.5))
    return DMCModel(np.repeat(t[:, None], 2, axis=1))


CHANNELS = {
    "useless-relay": useless_relay,
    "jamming-relay": jamming_relay,
    "y-blind-to-x1": functools.partial(jamming_relay, y_sees_x1=False),
}


def expected(channel, theorem_id, py, pz):
    if channel == "jamming-relay" and theorem_id != "T10":
        return 1 - h(py)
    return h(pz) - h(py)


@functools.cache
def best(channel, point, theorem_id, sizes):
    model = CHANNELS[channel](*point)
    return brute_force_best(model, dict(sizes), STEPS, theorem_id, (0, 1, 0)).best.objective_value


@pytest.mark.parametrize("point", POINTS)
@pytest.mark.parametrize("theorem_id", list(INNER))
@pytest.mark.parametrize("channel", list(CHANNELS))
def test_inner_bound_maximum(channel, theorem_id, point):
    got = best(channel, point, theorem_id, tuple(INNER[theorem_id].items()))
    assert abs(got - expected(channel, theorem_id, *point[:2])) <= TOL


@pytest.mark.parametrize("point", POINTS)
@pytest.mark.parametrize("channel", list(CHANNELS))
def test_outer_bound_lies_above_every_inner_bound(channel, point):
    outer = best(channel, point, OUTER[0], tuple(OUTER[1].items()))
    for theorem_id, sizes in INNER.items():
        assert best(channel, point, theorem_id, tuple(sizes.items())) <= outer + TOL


@pytest.mark.parametrize("theorem_id", ["T2", "T3", "T4", "T6", "T7", "T8"])
def test_confidential_rate_against_a_noise_eavesdropper(theorem_id):
    sizes = {"U": 1, "V1": 2, "V2": 1, **({"Yh": 2} if theorem_id in ("T4", "T8") else {})}
    res = brute_force_best(noise_eavesdropper(0.1), sizes, STEPS, theorem_id, (0, 1, 0))
    assert abs(res.best.objective_value - (1 - h(0.1))) <= TOL
