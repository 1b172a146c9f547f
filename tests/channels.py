"""Test-only channels and couplings on binary alphabets, shared by the bound
and search tests."""

import numpy as np

from relaysec.bounds import AuxiliaryCoupling
from relaysec.dmc import DMCModel
from relaysec.pmf import JointPMF


def bsc(p):
    return np.array([[1 - p, p], [p, 1 - p]])


def product_channel(py=0.1, py1=0.2, pz=0.3):
    """x drives three independent binary symmetric legs; x1 is ignored."""
    t = np.einsum("xy,xw,xz->xywz", bsc(py), bsc(py1), bsc(pz))
    return DMCModel(np.repeat(t[:, None, :, :, :], 2, axis=1))


def z_copies_y_channel(py=0.15):
    """z is the identical observation to y; no secrecy is possible."""
    t = np.zeros((2, 2, 2, 2, 2))
    for x in range(2):
        for x1 in range(2):
            for y in range(2):
                for y1 in range(2):
                    t[x, x1, y, y1, y] = bsc(py)[x, y] * bsc(0.2)[x, y1]
    return DMCModel(t)


def v1_copies_x_coupling(theorem_id="T3"):
    probs = np.zeros((1, 2, 1, 2, 2))
    for i in range(2):
        for k in range(2):
            probs[0, i, 0, i, k] = 0.25
    return AuxiliaryCoupling(JointPMF(("U", "V1", "V2", "X", "X1"), probs), theorem_id)
