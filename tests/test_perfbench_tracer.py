"""perfbench's tracer wraps autopl's functions from outside, by the
module attributes through which autopl calls them; installing it fails
when one of those names is gone.  Runs in a fresh interpreter, as the
wrappers stay for the life of the process."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_INSTALL = """
import sys
sys.path[:0] = sys.argv[1:]
import tracer
tracer.install(tracer.Tracer())
print("installed")
"""


def test_tracer_finds_every_name_it_wraps():
    done = subprocess.run(
        [sys.executable, "-c", _INSTALL, os.path.join(ROOT, "src"),
         os.path.join(ROOT, "perfbench")],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["installed"]


_SAMPLE = """
import sys
sys.path[:0] = sys.argv[1:]
import numpy as np
import tracer
t = tracer.Tracer()
tracer.install(t)
from autopl.dsr import PolicyNetwork, sample_batch
from autopl.expr.constraints import ConstraintSet
from autopl.expr.tokens import Vocabulary
policy = PolicyNetwork(Vocabulary.default(["x0"]), seed=0)
sample_batch(policy, 20, ConstraintSet(), np.random.default_rng(0))
print(t.calls["expr.mask"])
"""


def test_tracer_times_the_samplers_masks():
    # the expr.mask span times the masks the sampler itself computes
    done = subprocess.run(
        [sys.executable, "-c", _SAMPLE, os.path.join(ROOT, "src"),
         os.path.join(ROOT, "perfbench")],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout.split()[-1]) > 0
