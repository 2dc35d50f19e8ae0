"""The seeded training stream and the gradient figures, pinned at one BLAS thread.

A subprocess with OpenBLAS and OpenMP held to one thread runs 8 ops of the
benchmark's train_toy and train_wide workloads at seed 11, after their
warm-up, and prints the two metrics-stream digests (wall time excluded) and
the figures of run_gradcheck(trials=3, seed=0).  They must equal the values
recorded here, so a change that is meant to keep output bit-identical shows
it by passing.  A change that moves them on purpose updates the pins and
records old -> new in CHANGES.md.

Only one thread count is pinned: two backward products whose inner
dimension is the row count round differently at 2 BLAS threads, so
train_wide's digest differs there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DIGESTS = {"train_toy": "51fe70825a8d56bc", "train_wide": "a4153ed297c4d071"}
GRADCHECK = {
    "clustering_ce": 1.506855428204085e-09,
    "laplacian_pairwise": 4.243121060986475e-10,
    "laplacian_huber_residual": 1.7609959647902619e-09,
    "consistency": 3.8658545216072356e-10,
    "encoder": 9.958856552769156e-10,
    "step": 2.086598185601787e-10,
    "tolerance": 1e-4,
    "passed": True,
}

SCRIPT = """
import json
import workloads
from pointssl.gradcheck import run_gradcheck

out = {"digests": {}}
for name in ("train_toy", "train_wide"):
    workload = workloads.WORKLOADS[name]()
    workload.setup(11, None)
    for _ in range(8):
        assert workload.check(workload.op())
    out["digests"][name] = workload.digest(8)
out["gradcheck"] = run_gradcheck(trials=3, seed=0)
print(json.dumps(out))
"""


def test_one_thread_stream_digests_and_gradcheck_figures_are_pinned():
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]),
    )
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert out["digests"] == DIGESTS
    assert out["gradcheck"] == GRADCHECK
