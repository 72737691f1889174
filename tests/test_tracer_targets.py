"""The benchmark's traced run (`perfbench/run.py --trace 1`) wraps gapfuse
functions and methods by name.  Every name it lists must still exist, or
the traced run crashes at install time, and the spans its per-layer numbers
read must still nest where it looks for them."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from gapfuse import SfArchitecture, SynthConfig, TrainConfig, assemble_training_set, neural, sfmodel, synth_dataset

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


def _expected_flops(kind, phase, layer, arg, out):
    """Matmul FLOPs of one layer call from the shapes of its input and
    output alone; a backward pass counts twice its forward."""
    factor = 2 if phase == "forward" else 4
    rows = int(np.prod(arg.shape[:-1]))
    c_a, c_b = arg.shape[-1], out.shape[-1]  # (C_in, C_out) forward, (C_out, C_in) backward
    if kind == "Conv1D":
        return factor * rows * layer.kernel * c_a * c_b
    if kind == "Dense":
        return factor * rows * c_a * c_b
    h = c_b if phase == "forward" else c_a
    return factor * rows * (c_a + c_b) * 4 * h


def test_layer_flop_counts_follow_the_shapes():
    """The traced per-layer FLOPs read layer internals (`Conv1D.w` as (K,
    C_in, C_out), `Conv1D._xshape`, `Dense.w`, `LstmCell.w` as (H + C, 4H))
    and use an argument's leading axes only through their product, so the
    count is the same for the time-major (T, B, .) arguments the layers
    take.  Every Conv1D, Dense and LstmCell span of a traced training run
    must carry the FLOPs that the call's input and output shapes give."""
    synth = synth_dataset(SynthConfig(n_parcels=12, pixels_per_parcel=3, n_regions=2, seed=5))
    training = assemble_training_set(synth.dataset, dict(synth.pools), np.random.default_rng(7))
    arch = SfArchitecture(channels=("ndvi", "coh_vv", "sigma0_vv_db"), conv_filters=(2, 3), branch_dense=(4, 2),
                          lstm_hidden=3)
    tracer = _tracer().Tracer("guard")
    tracer.install()
    expected: dict[str, list[int]] = {}
    patches = []

    def recorder(kind, phase, traced):
        def call(layer, arg):
            out = traced(layer, arg)
            expected.setdefault(f"neural.{kind}.{phase}", []).append(
                _expected_flops(kind, phase, layer, arg, out))
            return out
        return call

    try:
        for kind in ("Conv1D", "Dense", "LstmCell"):
            cls = getattr(neural, kind)
            for phase in ("forward", "backward"):
                patches.append((cls, phase, vars(cls)[phase]))
                setattr(cls, phase, recorder(kind, phase, vars(cls)[phase]))
        sfmodel.train(training, TrainConfig(max_epochs=1, batch_size=16), arch)
    finally:
        for cls, phase, traced in patches:
            setattr(cls, phase, traced)
        tracer.uninstall()
    assert len(expected) == 6
    for name, flops in expected.items():
        # independent layers run on two threads, so spans and expected counts
        # of one layer kind may be appended in different orders
        counted = [(s[5] or {}).get("flops") for s in tracer.spans if s[0] == name]
        assert Counter(counted) == Counter(flops), name
