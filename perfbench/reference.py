"""A fixed numpy computation that measures how fast the host runs right now.

On a shared host the same round of lfsynth work can take 1.5 to 2 times as
long from one minute to the next, with process CPU time tracking wall time.
The benchmark times this reference just before and just after every round and
divides the round's time by the mean of the two: the host's slow spells
lengthen both, so their ratio is far steadier than the round's wall time.
The reference depends on numpy alone, never on lfsynth, so a change to the
program moves the ratio in the same proportion as the round's time.

Its work resembles the rounds': small dense eigenvalue problems, complex
solves and products of the order of the building loops, and eigenvalue
problems and complex solves at the sizes of the 60-state beam loops.  Its
inputs are fixed and do not depend on ``--seed``.
"""

import time

import numpy as np

_rng = np.random.default_rng(20240601)
_SMALL = _rng.standard_normal((24, 24))
_SMALL_C = _rng.standard_normal((12, 12)) + 1j * _rng.standard_normal((12, 12))
_SMALL_B = _rng.standard_normal(12)
_LARGE = _rng.standard_normal((124, 124))
_LARGE_C = _rng.standard_normal((62, 62)) + 1j * _rng.standard_normal((62, 62))
_LARGE_B = _rng.standard_normal((62, 4))


def run():
    for _ in range(200):
        np.linalg.eigvals(_SMALL)
        np.linalg.solve(_SMALL_C, _SMALL_B)
        _SMALL @ _SMALL
    for _ in range(6):
        np.linalg.eigvals(_LARGE)
    for _ in range(60):
        np.linalg.solve(_LARGE_C, _LARGE_B)


def seconds():
    """Wall time of one pass of the reference computation."""
    t0 = time.perf_counter()
    run()
    return time.perf_counter() - t0
