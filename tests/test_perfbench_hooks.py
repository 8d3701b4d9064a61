"""The benchmark's per-layer tracer still finds and wraps what recover calls.

``perfbench/layers.py`` patches module-level names of ``recovery`` and
``sampler`` by name and positional signature; a renamed function or a
changed signature would only show in a traced benchmark run, so one traced
recovery runs here. A wrapped name that ``recover`` stopped calling would
leave its layer reading 0, so each layer must record a call.
"""

import importlib.util
from pathlib import Path

import numpy as np

from msfourier import RecoveryConfig, recover, recovery, sampler
from msfourier.cli import random_spectrum

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_layer():
    truth = random_spectrum(20, 10, 16, 3)
    cfg = RecoveryConfig(N=20, d=10, d1=5, s=16, sigma=0.512, seed=7)
    plain = recover(cfg, truth)
    layers = load_layers()
    tracer = layers.Tracer({"recovery": recovery, "sampler": sampler})
    assert tracer.absent == set()
    with tracer.patched():
        traced, _ = tracer.run(0, recover, cfg, truth)
    assert traced == plain
    summary = tracer.summary(0)
    # the plan lengths of the gather calls add up to the sample count, every
    # sample draws noise (a block drawing noise for only some of its rows
    # fails here), and every gather call synthesizes once
    assert summary["sampler.gather"]["work"] == traced.samples_used
    assert summary["sampler.noise"]["work"] == traced.samples_used
    assert summary["sampler.synth"]["calls"] == summary["sampler.gather"]["calls"]
    # every wrapped name is called: the FFT layer is numpy's own transform,
    # bound under the name the tracer wraps
    assert recovery.dft_forward is np.fft.fft
    for _, _, name, *_ in layers.SPANS + layers.COUNTERS:
        assert summary.get(name, {"calls": 0})["calls"] >= 1, name
