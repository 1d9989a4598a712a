"""Hypothesis settings shared by the property tests.

Fixed examples and no example database.  Hypothesis also caches the
constants it scans from local modules under .hypothesis/, at collection
time and whatever the settings; its caches are best effort, so a home
directory that cannot hold files turns them off.
"""

import os

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("maniflow", derandomize=True, database=None, max_examples=50, deadline=None)
settings.load_profile("maniflow")
set_hypothesis_home_dir(os.devnull)
