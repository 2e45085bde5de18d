"""perfbench's seed-1 ``sweep-2k`` and ``emit-train-30k`` outputs keep
their bytes.

Records, sweep tables and training pairs must be byte-identical across
changes that claim only speed. Each test runs what one ``perfbench/run.py
--workload NAME --seed 1`` unit runs (the inputs from the seed, one
set-up, one unit) and compares the sha256 of the file it writes with the
digest the benchmark has reported since it was added. ``emit-train-30k``
pins the self-exclusion and sampled-depth selection path.
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
EMIT_TRAIN_30K_SEED_1 = \
    "8dfc88a09b30c830c887fe53bd55125ac3f8646c5d378e0f52ca5a9cb0459562"


def seed_1_unit_digest(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    corpus = importlib.import_module("corpus")
    workload = workloads.WORKLOADS[name](gandr, corpus.Grammar())
    workload.prepare(1, tmp_path)
    out = tmp_path / workload.output_name
    workload.unit(workload.setup(), out)
    return workloads.sha256(out)


def test_sweep_2k_seed_1_output_keeps_its_digest(tmp_path, monkeypatch):
    assert seed_1_unit_digest("sweep-2k", tmp_path, monkeypatch) == \
        SWEEP_2K_SEED_1


def test_emit_train_30k_seed_1_output_keeps_its_digest(tmp_path,
                                                       monkeypatch):
    assert seed_1_unit_digest("emit-train-30k", tmp_path, monkeypatch) == \
        EMIT_TRAIN_30K_SEED_1
