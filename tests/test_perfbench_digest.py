"""perfbench's seed-1 ``sweep-2k`` output keeps its bytes.

Records and sweep tables must be byte-identical across changes that claim
only speed. This runs what one ``perfbench/run.py --workload sweep-2k
--seed 1`` unit runs (the inputs from the seed, one set-up, one unit) and
compares the sha256 of the sweep table it writes with the digest the
benchmark has reported since it was added.
"""

import importlib
from pathlib import Path

import gandr
import gandr.data_io
import gandr.evaluation
import gandr.generator

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SWEEP_2K_SEED_1 = \
    "6877c3290bd26fa28ad8e7482a38e02ab7ecf56924ad6ae0e265ec362b4f0071"


def test_sweep_2k_seed_1_output_keeps_its_digest(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    corpus = importlib.import_module("corpus")
    sweep = workloads.Sweep(gandr, corpus.Grammar())
    sweep.prepare(1, tmp_path)
    out = sweep.unit(sweep.setup(), tmp_path / sweep.output_name)
    assert workloads.sha256(out) == SWEEP_2K_SEED_1
