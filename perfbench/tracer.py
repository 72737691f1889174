"""In-memory span tracer for the benchmark's traced run.

Spans are recorded by wrappers installed around the public functions and
layer methods of every gapfuse module.  A module-level function is replaced
in every gapfuse namespace that binds it (``cli`` imports ``read_dataset``,
``predict_batch`` and the others by name), including the tuples of the
``cli._INTERP`` fill table; a method is replaced on its class.  Each span
holds a name, start, end, parent span index, the run id, and a few counts
taken from the call's arguments and result.  Spans stay in memory and are
written out once, after the run; `layer_metrics` turns them into the
per-layer numbers, using self time (a span's duration minus the part of
it covered by its child spans).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np


def _shape_rows(shape) -> int:
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _file_bytes(*paths) -> int:
    total = 0
    for p in paths:
        p = Path(p)
        if p.is_file():
            total += p.stat().st_size
        elif p.is_dir():
            total += sum(f.stat().st_size for f in p.iterdir() if f.is_file())
    return total


# Counts attached to a span once its call returns.  Each takes
# (args, kwargs, result) and returns a small dict.  Matmul FLOPs are
# computed from the tensor shapes; a backward pass is counted as twice the
# forward pass of the same layer.

def _conv_fwd(a, kw, out):
    b, t, c = a[1].shape
    k, _, c_out = a[0].w.shape
    return {"flops": 2 * b * t * k * c * c_out}


def _conv_bwd(a, kw, out):
    b, t, c = a[0]._xshape
    k, _, c_out = a[0].w.shape
    return {"flops": 4 * b * t * k * c * c_out}


def _dense_fwd(a, kw, out):
    c_in, c_out = a[0].w.shape
    return {"flops": 2 * _shape_rows(a[1].shape) * c_in * c_out, "head": a[0].name == "head"}


def _dense_bwd(a, kw, out):
    c_in, c_out = a[0].w.shape
    return {"flops": 4 * _shape_rows(a[1].shape) * c_in * c_out, "head": a[0].name == "head"}


def _lstm_fwd(a, kw, out):
    b, t, _ = a[1].shape
    rows, cols = a[0].w.shape
    return {"flops": 2 * b * t * rows * cols}


def _lstm_bwd(a, kw, out):
    b, t, _ = a[1].shape
    rows, cols = a[0].w.shape
    return {"flops": 4 * b * t * rows * cols}


def _rows_arg1(a, kw, out):
    return {"rows": int(a[1].shape[0])}


def _train_counts(a, kw, out):
    config = a[1] if len(a) > 1 else kw.get("config")
    batch = config.batch_size if config is not None else 256
    report = out[1]
    epochs = len(report.train_losses)
    return {"epochs": epochs, "expected_batches": epochs * math.ceil(report.n_train / batch)}


def _outliers(a, kw, out):
    return {"removed": int(np.sum(~np.isnan(np.asarray(a[0], dtype=float))) - np.sum(~np.isnan(out)))}


def _density(a, kw, out):
    return {"noncompliant": int(not out)}


def _fill(a, kw, out):
    finite = out[~np.isnan(out)]
    return {"out_of_range": int(finite.size > 0 and (finite.min() < -1.0 or finite.max() > 1.0))}


def _events(a, kw, out):
    return {"events": len(out.events)}


def _read_dataset(a, kw, out):
    p = Path(a[0])
    return {"rows": len(out.pixels) * out.grid.length,
            "bytes": _file_bytes(p / "dataset.csv", p / "labels.csv")}


def _write_dataset(a, kw, out):
    p = Path(a[1])
    return {"rows": len(a[0].pixels) * a[0].grid.length,
            "bytes": _file_bytes(p / "dataset.csv", p / "labels.csv")}


def _bytes_arg0(a, kw, out):
    return {"bytes": _file_bytes(a[0])}


def _bytes_arg1(a, kw, out):
    return {"bytes": _file_bytes(a[1])}


def _cli_command(a, kw, out):
    argv = a[0] if a else kw.get("argv")
    return {"command": argv[0] if argv else "?", "exit": out}


# (module, attribute or Class.method, counts)
TARGETS = [
    ("cli", "main", _cli_command),
    ("cli", "_Run.finish", None),
    ("cli", "_Run.record_input", None),
    ("fileio", "read_dataset", _read_dataset),
    ("fileio", "write_dataset", _write_dataset),
    ("fileio", "read_labels", _bytes_arg0),
    ("fileio", "read_events", _bytes_arg0),
    ("fileio", "write_events", _bytes_arg1),
    ("fileio", "read_mask_pools", _bytes_arg0),
    ("fileio", "write_mask_pools", _bytes_arg1),
    ("fileio", "load_model", _bytes_arg0),
    ("fileio", "save_model", _bytes_arg1),
    ("fileio", "read_manifest", _bytes_arg0),
    ("fileio", "write_manifest", _bytes_arg0),
    ("fileio", "write_json", _bytes_arg0),
    ("fileio", "write_table_csv", _bytes_arg0),
    ("fileio", "load_config", None),
    ("fileio", "sha256_file", _bytes_arg0),
    ("fileio", "hash_tree", None),
    ("core", "parcel_series", None),
    ("core", "Dataset.parcel_pixels", None),
    ("core", "Dataset.__post_init__", None),
    ("core", "PixelSeries.__post_init__", None),
    ("features", "derive_channels", None),
    ("cloudsim", "synth_dataset", None),
    ("cloudsim", "synth_mask_pool", None),
    ("cloudsim", "bootstrap_mask", None),
    ("preprocess", "remove_outliers", _outliers),
    ("preprocess", "passes_density", _density),
    ("preprocess", "build_target", None),
    ("interp", "fill_akima", _fill),
    ("interp", "fill_linear", _fill),
    ("interp", "fill_quadratic", _fill),
    ("neural", "Conv1D.forward", _conv_fwd),
    ("neural", "Conv1D.backward", _conv_bwd),
    ("neural", "MaxPool1D.forward", None),
    ("neural", "MaxPool1D.backward", None),
    ("neural", "ReLU.forward", None),
    ("neural", "ReLU.backward", None),
    ("neural", "Dense.forward", _dense_fwd),
    ("neural", "Dense.backward", _dense_bwd),
    ("neural", "LstmCell.forward", _lstm_fwd),
    ("neural", "LstmCell.backward", _lstm_bwd),
    ("neural", "BiLstm.forward", None),
    ("neural", "BiLstm.backward", None),
    ("neural", "Clamp.forward", None),
    ("neural", "Clamp.backward", None),
    ("neural", "Sigmoid.forward", None),
    ("neural", "Sigmoid.backward", None),
    ("neural", "AdamState.step", None),
    ("neural", "weighted_mse", None),
    ("neural", "weighted_mse_grad", None),
    ("sfmodel", "SfNet.forward", _rows_arg1),
    ("sfmodel", "SfNet.backward", None),
    ("sfmodel", "assemble_training_set", None),
    ("sfmodel", "encode_arrays", None),
    ("sfmodel", "train", _train_counts),
    ("sfmodel", "predict_batch", None),
    ("sfmodel", "gapfill_sf", None),
    ("sfmodel", "cloud_filter", None),
    ("detect", "detect_parcel", _events),
    ("detect", "parcel_fill_batch", None),
    ("detect", "mda1", None),
    ("detect", "mda2", None),
    ("evalx", "match_events", None),
    ("evalx", "binned_report", None),
    ("evalx", "gapfill_eval", None),
    ("evalx", "split_parcels", None),
    ("evalx", "subset_dataset", None),
]

MODULES = ("cli", "fileio", "core", "features", "cloudsim", "preprocess",
           "interp", "neural", "sfmodel", "detect", "evalx")


class Tracer:
    """Records spans while installed; `uninstall` restores every original."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # [name, start, end, parent index, run id, counts]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, counts):
        spans = self.spans
        stack = self._stack
        run_id = self.run_id
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, run_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counts is not None:
                rec[5] = counts(args, kwargs, out)
            return out

        return traced

    def _patch(self, owner, attr, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

    def install(self) -> None:
        for module in MODULES:
            importlib.import_module(f"gapfuse.{module}")
        mods = [m for n, m in sorted(sys.modules.items()) if n == "gapfuse" or n.startswith("gapfuse.")]
        for module, attr, counts in TARGETS:
            mod = sys.modules[f"gapfuse.{module}"]
            name = f"{module}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, meth, self._wrap(cls.__dict__[meth], name, counts))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(original, name, counts)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if isinstance(v, tuple) and any(x is original for x in v):
                                self._patch(value, k, tuple(wrapper if x is original else x for x in v))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Write the spans as gzipped JSON lines (name, start, end, parent,
        run id, counts)."""
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, run_id, counts in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "run": run_id, "counts": counts}) + "\n")


def tail_percentile(values: list[float]) -> tuple[float | None, float | None]:
    """(percentile, value): the highest percentile with at least ten samples
    beyond it, or (None, None) when there are fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None, None
    # the (n-10)-th smallest value has exactly ten samples above it
    return round(100.0 * (n - 10) / n, 2), sorted(values)[n - 11]


def layer_metrics(spans: list[list]) -> dict:
    """Per-layer numbers from one traced run's spans (self times unless a
    metric name says otherwise)."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    self_t = [dur[i] - child[i] for i in range(n)]

    def ancestor(i: int, names: set[str]) -> int:
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] in names:
                return p
            p = spans[p][3]
        return -1

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def self_sum(*names):
        return sum(self_t[i] for nm in names for i in idx(nm))

    def incl_sum(*names):
        return sum(dur[i] for nm in names for i in idx(nm))

    def calls(*names):
        return sum(len(idx(nm)) for nm in names)

    def count(name, key):
        return sum((spans[i][5] or {}).get(key, 0) for i in idx(name))

    m: dict[str, float | None] = {}
    absent: dict[str, str] = {}

    # neural: per kind, summed over instances, per SfNet forward/backward call
    n_fwd = calls("sfmodel.SfNet.forward")
    n_bwd = calls("sfmodel.SfNet.backward")
    kinds = {
        "conv1d": ["neural.Conv1D"],
        "maxpool1d": ["neural.MaxPool1D"],
        "relu": ["neural.ReLU"],
        "dense": ["neural.Dense"],
        "lstm": ["neural.LstmCell", "neural.BiLstm"],
        "head": ["neural.Dense", "neural.Clamp", "neural.Sigmoid"],
    }
    flops = 0
    flop_time = 0.0
    for kind, prefixes in kinds.items():
        for phase, n_calls in (("forward", n_fwd), ("backward", n_bwd)):
            total = 0.0
            for prefix in prefixes:
                for i in idx(f"{prefix}.{phase}"):
                    counts = spans[i][5] or {}
                    if prefix == "neural.Dense" and counts.get("head", False) != (kind == "head"):
                        continue
                    total += self_t[i]
                    if "flops" in counts:
                        flops += counts["flops"]
                        flop_time += self_t[i]
            key = f"neural.{kind}.{'fwd' if phase == 'forward' else 'bwd'}_ms"
            if n_calls:
                m[key] = 1000.0 * total / n_calls
            else:
                absent[key] = f"no SfNet {phase} call in this workload"
    adam_calls = calls("neural.AdamState.step")
    m["neural.adam.step_ms"] = 1000.0 * self_sum("neural.AdamState.step") / adam_calls if adam_calls else None
    loss_calls = calls("neural.weighted_mse", "neural.weighted_mse_grad")
    m["neural.loss_ms"] = 1000.0 * self_sum("neural.weighted_mse", "neural.weighted_mse_grad") / loss_calls \
        if loss_calls else None
    m["neural.gflop_per_batch"] = flops / n_fwd / 1e9 if n_fwd else 0.0
    m["neural.gflops_achieved"] = flops / flop_time / 1e9 if flop_time > 0 else None

    # sfmodel
    train_spans = idx("sfmodel.train")
    epochs = sum((spans[i][5] or {}).get("epochs", 0) for i in train_spans)
    expected = sum((spans[i][5] or {}).get("expected_batches", 0) for i in train_spans)
    net_calls = sorted(idx("sfmodel.SfNet.forward") + idx("sfmodel.SfNet.backward"))
    train_names = {"sfmodel.train"}
    val_time = 0.0
    batches = 0
    for pos, i in enumerate(net_calls):
        if ancestor(i, train_names) < 0:
            continue
        if spans[i][0] == "sfmodel.SfNet.backward":
            batches += 1
        elif pos + 1 >= len(net_calls) or spans[net_calls[pos + 1]][0] != "sfmodel.SfNet.backward":
            val_time += dur[i]
    m["sfmodel.assemble_s"] = self_sum("sfmodel.assemble_training_set")
    m["sfmodel.encode_s"] = self_sum("sfmodel.encode_arrays")
    m["sfmodel.epoch_s"] = incl_sum("sfmodel.train") / epochs if epochs else None
    m["sfmodel.val_pass_s"] = val_time / epochs if epochs else None
    m["sfmodel.batches"] = batches
    m["sfmodel.batches_skipped"] = expected - batches
    m["sfmodel.predict_batch_s"] = self_sum("sfmodel.predict_batch")
    m["sfmodel.predict_calls"] = calls("sfmodel.predict_batch")
    fill_names = {"sfmodel.gapfill_sf"}
    rows_in_fill = sum((spans[i][5] or {}).get("rows", 0) for i in idx("sfmodel.SfNet.forward")
                       if ancestor(i, fill_names) >= 0)
    n_fill = calls("sfmodel.gapfill_sf")
    m["sfmodel.rows_forwarded_per_row_filled"] = rows_in_fill / n_fill if n_fill else None

    # fileio: bytes counted on calls not nested in another fileio call
    def top_fileio(i):
        p = spans[i][3]
        return p < 0 or not spans[p][0].startswith("fileio.")

    read_names = ("fileio.read_dataset", "fileio.read_labels", "fileio.read_events",
                  "fileio.read_mask_pools", "fileio.load_model", "fileio.read_manifest")
    write_names = ("fileio.write_dataset", "fileio.write_events", "fileio.write_mask_pools",
                   "fileio.save_model", "fileio.write_manifest", "fileio.write_json",
                   "fileio.write_table_csv")
    m["fileio.read_dataset_s"] = self_sum("fileio.read_dataset")
    rd = incl_sum("fileio.read_dataset")
    m["fileio.read_rows_per_s"] = count("fileio.read_dataset", "rows") / rd if rd else None
    m["fileio.write_dataset_s"] = self_sum("fileio.write_dataset")
    wd = incl_sum("fileio.write_dataset")
    m["fileio.write_rows_per_s"] = count("fileio.write_dataset", "rows") / wd if wd else None
    m["fileio.bytes_read"] = sum((spans[i][5] or {}).get("bytes", 0)
                                 for nm in read_names for i in idx(nm) if top_fileio(i))
    m["fileio.bytes_written"] = sum((spans[i][5] or {}).get("bytes", 0)
                                    for nm in write_names for i in idx(nm) if top_fileio(i))
    m["fileio.hash_s"] = self_sum("fileio.sha256_file", "fileio.hash_tree")
    hs = self_sum("fileio.sha256_file")
    m["fileio.hash_mb_per_s"] = count("fileio.sha256_file", "bytes") / hs / 1e6 if hs else None
    m["fileio.load_model_s"] = self_sum("fileio.load_model")

    # core, features
    m["core.parcel_series_s"] = self_sum("core.parcel_series")
    m["core.parcel_series_calls"] = calls("core.parcel_series")
    m["features.derive_channels_s"] = self_sum("features.derive_channels")
    m["features.derive_channels_calls"] = calls("features.derive_channels")

    # preprocess, interp
    m["preprocess.remove_outliers_s"] = self_sum("preprocess.remove_outliers")
    m["preprocess.passes_density_s"] = self_sum("preprocess.passes_density")
    m["preprocess.build_target_s"] = self_sum("preprocess.build_target")
    m["preprocess.outliers_removed"] = count("preprocess.remove_outliers", "removed")
    m["preprocess.pixels_noncompliant"] = count("preprocess.passes_density", "noncompliant")
    for method in ("akima", "linear", "quadratic"):
        m[f"interp.fill_s.{method}"] = self_sum(f"interp.fill_{method}")
    fills = ("interp.fill_akima", "interp.fill_linear", "interp.fill_quadratic")
    m["interp.fill_calls"] = calls(*fills)
    m["interp.out_of_range_fills"] = sum(count(nm, "out_of_range") for nm in fills)

    # detect, evalx
    det = [dur[i] * 1000.0 for i in idx("detect.detect_parcel")]
    if det:
        m["detect.detect_parcel_ms.p50"] = float(np.median(det))
        pct, val = tail_percentile(det)
        m["detect.detect_parcel_ms.tail"] = val
        m["detect.detect_parcel_ms.tail_pct"] = pct
        m["detect.detect_parcel_ms.n"] = len(det)
    else:
        absent["detect.detect_parcel_ms"] = "no detect_parcel call in this workload"
    m["detect.rule_s"] = self_sum("detect.mda1", "detect.mda2")
    m["detect.events_found"] = count("detect.detect_parcel", "events")
    m["evalx.match_events_s"] = self_sum("evalx.match_events")
    m["evalx.binned_report_s"] = self_sum("evalx.binned_report")
    m["evalx.gapfill_eval_s"] = self_sum("evalx.gapfill_eval")

    # cloudsim, cli
    m["cloudsim.synth_s"] = self_sum("cloudsim.synth_dataset")
    m["cloudsim.bootstrap_mask_calls"] = calls("cloudsim.bootstrap_mask")
    for i in idx("cli.main"):
        cmd = (spans[i][5] or {}).get("command", "?")
        key = f"cli.command_s.{cmd}"
        m[key] = m.get(key, 0.0) + dur[i]
    m["cli.manifest_s"] = incl_sum("cli._Run.finish", "cli._Run.record_input")

    # self time per module, the benchmark's own code excluded
    per_module = dict.fromkeys(MODULES, 0.0)
    for i, s in enumerate(spans):
        per_module[s[0].split(".", 1)[0]] += self_t[i]
    for module, total in per_module.items():
        m[f"{module}.self_s"] = total

    for key, value in list(m.items()):
        if value is None:
            absent.setdefault(key, "the layer is not exercised by this workload")
            del m[key]
    return {"metrics": m, "absent": absent, "n_spans": n}


