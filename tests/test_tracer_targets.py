"""The benchmark's traced run (`perfbench/run.py --trace 1`) wraps gapfuse
functions and methods by name.  Every name it lists must still exist, or
the traced run crashes at install time, and the spans its per-layer numbers
read must still nest where it looks for them."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from gapfuse import SfArchitecture, SynthConfig, TrainConfig, assemble_training_set, sfmodel, synth_dataset

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in _tracer().TARGETS])
def test_traced_name_resolves(module, attr):
    mod = importlib.import_module(f"gapfuse.{module}")
    if "." in attr:
        # the tracer wraps a method as found in its class body
        cls_name, method = attr.split(".")
        assert callable(vars(getattr(mod, cls_name)).get(method)), attr
    else:
        assert callable(getattr(mod, attr, None)), attr


def test_traced_modules_import():
    for module in _tracer().MODULES:
        importlib.import_module(f"gapfuse.{module}")


def test_loss_and_adam_spans_sit_under_train():
    """The benchmark's per-layer loss and Adam numbers come from spans of the
    loss gradient and the Adam step inside `sfmodel.train`."""
    synth = synth_dataset(SynthConfig(n_parcels=12, pixels_per_parcel=3, n_regions=2, seed=5))
    training = assemble_training_set(synth.dataset, dict(synth.pools), np.random.default_rng(7))
    arch = SfArchitecture(channels=("ndvi", "coh_vv"), conv_filters=(2, 2), branch_dense=(2, 2), lstm_hidden=2)
    tracer = _tracer().Tracer("guard")
    tracer.install()
    try:
        sfmodel.train(training, TrainConfig(max_epochs=1, batch_size=16), arch)
    finally:
        tracer.uninstall()
    spans = tracer.spans

    def under_train(i):
        p = spans[i][3]
        while p >= 0 and spans[p][0] != "sfmodel.train":
            p = spans[p][3]
        return p >= 0

    for name in ("neural.weighted_mse_grad", "neural.AdamState.step"):
        found = [i for i, s in enumerate(spans) if s[0] == name]
        assert found, name
        assert all(under_train(i) for i in found), name
