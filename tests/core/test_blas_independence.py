"""Stream bytes must not depend on how many threads the host's BLAS has.

``RunningStats.add_values`` / ``remove_values`` used to end in
``np.dot(centred, centred)``; OpenBLAS splits a dot over its threads
above 10,000 elements, so the last bit of every ``mean`` / ``std``
estimate past that size depended on the thread count (and each call
stalled when the second CPU was taken).  They now reduce with NumPy's
own pairwise sum.  The thread count is fixed when BLAS loads, so the
two settings run in two subprocesses.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: One solo ``mean`` and one solo ``std`` session whose batches all
#: exceed 10k items: first sample 12k rows, then 24k, 48k (sigma is out
#: of reach on purpose).  One JSON line per session.
SCRIPT = """
import json
import numpy as np
from repro.core import EarlConfig, EarlSession

data = np.random.default_rng(11).lognormal(0.0, 1.0, 100_000)
cfg = EarlConfig(sigma=1e-4, seed=2, B_override=6, n_override=12_000,
                 max_iterations=3)
for statistic in ("mean", "std"):
    stream = [snap.to_dict() for snap in
              EarlSession(data, statistic, config=cfg).stream()]
    assert stream[-1]["sample_size"] == 48_000, stream[-1]
    print(json.dumps(stream, sort_keys=True))
"""


def _stream_lines(blas_threads: int) -> list:
    env = dict(os.environ, PYTHONPATH=str(SRC),
               OPENBLAS_NUM_THREADS=str(blas_threads),
               OMP_NUM_THREADS=str(blas_threads),
               MKL_NUM_THREADS=str(blas_threads))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout.splitlines()


def test_stream_bytes_equal_under_one_and_two_blas_threads():
    one, two = _stream_lines(1), _stream_lines(2)
    assert len(one) == 2 and all(len(line) > 500 for line in one)
    assert one == two
