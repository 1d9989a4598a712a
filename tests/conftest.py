"""Hypothesis settings shared by the property tests, and the tests' one finite-difference oracle.

Fixed examples and no example database.  Hypothesis also caches the
constants it scans from local modules under .hypothesis/, at collection
time and whatever the settings; its caches are best effort, so a home
directory that cannot hold files turns them off.

Every analytic derivative is checked against ``loop_fd_gradient``, which
test modules import from here.
"""

import os

import numpy as np
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from maniflow.manifold import GRAD_STEP

settings.register_profile("maniflow", derandomize=True, database=None, max_examples=50, deadline=None)
settings.load_profile("maniflow")
set_hypothesis_home_dir(os.devnull)


def loop_fd_gradient(f, x, base_step=GRAD_STEP):
    """Central differences one coordinate at a time, each shifted point built by hand.

    The step is base_step (1 + |x|), the engine's stencil step by default.
    A scalar f gives its gradient, shape (n,); a vector f its Jacobian,
    one column per coordinate of x.
    """
    step = base_step * (1.0 + float(np.linalg.norm(x)))
    cols = []
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = step
        cols.append((f(x + e) - f(x - e)) / (2.0 * step))
    return np.array(cols, dtype=float).T
