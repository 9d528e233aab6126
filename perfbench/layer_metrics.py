"""Per-layer metrics derived from recorded spans.

Layers are named after skillseq's modules.  A span's self time is its
duration minus the time its child spans cover.  Metric kinds:

- ``*.calls`` and ``training.optimizer_steps``: calls per unit of work.
- ``*_us`` on tensor ops, ``backward`` and ``topo_order``: mean self time
  per call.  ``*.bwd_us`` times the ``bwd`` closures of that op's nodes.
- other ``*_us``/``*_ms`` on a function: mean inclusive time per call;
  ``*_ms``/``*_s`` that name a whole activity (``load_manifest_ms``,
  ``train_dae_s``...) are inclusive time per unit of work.
- ``*_share``: a share of the traced units' wall time.

A unit of work is one traced ``bench.op`` span: one study, one batch or
one trial's feedback.
"""

from __future__ import annotations

import numpy as np

from spans import TENSOR_OPS

__all__ = ["LAYERS", "layer_metrics", "PER_LAYER"]

LAYERS = ("tensor", "optim", "training", "layers", "model", "explain", "data",
          "overlay", "bundle", "records", "trust", "crossval", "cli")


def _ratio(a, b):
    return float(a) / float(b) if b else 0.0


def _catalog():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for op in TENSOR_OPS:
        out += [(f"tensor.{op}.calls", "count"), (f"tensor.{op}.fwd_us", "us"),
                (f"tensor.{op}.bwd_us", "us")]
    out += [("tensor.backward_us", "us"), ("tensor.topo_order_us", "us"),
            ("tensor.tape_share", "ratio"),
            ("optim.adam_step_us", "us"), ("optim.adam_step.calls", "count"),
            ("training.train_dae_s", "s"), ("training.train_supervised_s", "s"),
            ("training.dae_step_us", "us"), ("training.head_step_us", "us"),
            ("training.optimizer_steps", "count"), ("training.feature_precompute_s", "s"),
            ("layers.forward_stack_train_us", "us"), ("layers.forward_stack_eval_us", "us"),
            ("layers.forward_stack.calls", "count"),
            ("model.predict_us", "us"), ("model.encode_values_us", "us"),
            ("model.head_forward_us", "us"),
            ("explain.compute_cam_us", "us"), ("explain.write_cams_csv_ms", "ms"),
            ("explain.read_cams_csv_ms", "ms"), ("explain.mask_with_cams_ms", "ms"),
            ("data.load_manifest_ms", "ms"), ("data.parse_us_per_frame", "us"),
            ("data.prepare_stage2_us", "us"), ("data.fit_minmax_us", "us"),
            ("data.apply_minmax_us", "us"), ("data.dataset_fingerprint_ms", "ms"),
            ("overlay.render_ms", "ms"), ("overlay.render_us_per_frame", "us"),
            ("bundle.save_ms", "ms"), ("bundle.load_ms", "ms"),
            ("records.write_ms", "ms"), ("records.read_ms", "ms"),
            ("trust.build_report_ms", "ms"),
            ("crossval.run_cv_s", "s"), ("crossval.run_cv_self_s", "s"),
            ("cli.dispatch_self_ms", "ms"),
            ("synth.write_s", "s")]
    out += [(f"{layer}.self_share", "ratio") for layer in LAYERS]
    out += [("trace.self_time_coverage", "ratio"), ("trace.overhead_share", "ratio")]
    return out


# With optable.OPTABLE_METRICS this is BENCHMARK.json's per_layer list.
# trace.overhead_share is filled in by run.py, which also times the
# untraced units.
PER_LAYER = _catalog()


class _Aggregate:
    """Calls, inclusive time, self time and work per span name."""

    def __init__(self, names, name, dur, self_t, work, mask):
        k = len(names)
        self._ids = {n: i for i, n in enumerate(names)}
        sel = name[mask]
        self.calls = np.bincount(sel, minlength=k)
        self.total = np.bincount(sel, weights=dur[mask], minlength=k)
        self.self_t = np.bincount(sel, weights=self_t[mask], minlength=k)
        self.work = np.bincount(sel, weights=work[mask], minlength=k)

    def get(self, field, span):
        i = self._ids.get(span)
        return 0.0 if i is None else float(getattr(self, field)[i])

    def per_call(self, field, span, scale):
        return _ratio(self.get(field, span) * scale, self.get("calls", span))


def _nearest(stop, parent):
    """Index of each span's nearest ancestor-or-self where ``stop`` holds
    (or its root when none does), by pointer jumping."""
    idx = np.arange(len(parent))
    r = np.where(stop | (parent < 0), idx, parent)
    while True:
        nxt = r[r]
        if np.array_equal(nxt, r):
            return r
        r = nxt


def layer_metrics(rec, op_roots, setup_roots):
    """Per-layer metrics from a SpanRecorder; op_roots/setup_roots are the
    indices of the ``bench.op`` and ``bench.setup`` spans."""
    names = rec.names
    ids = {n: i for i, n in enumerate(names)}
    n = len(rec)
    name = np.frombuffer(rec.name_id, dtype=np.int64)[:n]
    parent = np.frombuffer(rec.parent, dtype=np.int64)[:n]
    start = np.frombuffer(rec.start, dtype=np.float64)[:n]
    end = np.frombuffer(rec.end, dtype=np.float64)[:n]
    work = np.frombuffer(rec.work, dtype=np.float64)[:n]
    dur = end - start
    child = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_t = dur - child

    root = _nearest(np.zeros(n, dtype=bool), parent)
    in_ops = np.isin(root, np.asarray(op_roots, dtype=np.int64))
    in_setup = np.isin(root, np.asarray(setup_roots, dtype=np.int64))
    ops = _Aggregate(names, name, dur, self_t, work, in_ops)
    setup = _Aggregate(names, name, dur, self_t, work, in_setup)
    n_ops = len(op_roots)
    wall = float(dur[np.asarray(op_roots, dtype=np.int64)].sum()) if n_ops else 0.0

    def per_op(field, span, scale=1.0):
        return _ratio(ops.get(field, span) * scale, n_ops)

    m = {}
    for op in TENSOR_OPS:
        span = f"tensor.{op}"
        m[f"{span}.calls"] = per_op("calls", span)
        m[f"{span}.fwd_us"] = ops.per_call("self_t", span, 1e6)
        m[f"{span}.bwd_us"] = ops.per_call("self_t", span + ".bwd", 1e6)
    m["tensor.backward_us"] = ops.per_call("self_t", "tensor.backward", 1e6)
    m["tensor.topo_order_us"] = ops.per_call("self_t", "tensor.topo_order", 1e6)

    # A training step runs from the first train-mode forward_stack after the
    # previous optimizer step to the end of the next adam_step_masked.
    train_ids = [ids[s] for s in ("training.train_dae", "training.train_supervised") if s in ids]
    trainer = _nearest(np.isin(name, train_ids), parent)
    fs_train = ids.get("layers.forward_stack.train", -1)
    adam = ids.get("optim.adam_step_masked", -1)
    dae = ids.get("training.train_dae", -1)
    steps = {"dae": [], "head": []}
    step_start = None
    for i in np.flatnonzero(in_ops & ((name == fs_train) | (name == adam))).tolist():
        if name[i] == fs_train:
            if step_start is None:
                step_start = start[i]
        elif step_start is not None:
            steps["dae" if name[trainer[i]] == dae else "head"].append(end[i] - step_start)
            step_start = None
    step_total = sum(steps["dae"]) + sum(steps["head"])
    m["tensor.tape_share"] = _ratio(ops.get("self_t", "tensor.backward"), step_total)

    m["optim.adam_step_us"] = ops.per_call("self_t", "optim.adam_step_masked", 1e6)
    m["optim.adam_step.calls"] = per_op("calls", "optim.adam_step_masked")

    m["training.train_dae_s"] = per_op("total", "training.train_dae")
    m["training.train_supervised_s"] = per_op("total", "training.train_supervised")
    m["training.dae_step_us"] = _ratio(sum(steps["dae"]) * 1e6, len(steps["dae"]))
    m["training.head_step_us"] = _ratio(sum(steps["head"]) * 1e6, len(steps["head"]))
    m["training.optimizer_steps"] = per_op("calls", "optim.adam_step_masked")
    sup = ids.get("training.train_supervised", -1)
    enc = ids.get("model.encode_values", -1)
    pre = in_ops & (name == enc) & has_parent & (name[np.maximum(parent, 0)] == sup)
    m["training.feature_precompute_s"] = _ratio(dur[pre].sum(), n_ops)

    fs_eval = "layers.forward_stack.eval"
    m["layers.forward_stack_train_us"] = ops.per_call("total", "layers.forward_stack.train", 1e6)
    m["layers.forward_stack_eval_us"] = ops.per_call("total", fs_eval, 1e6)
    m["layers.forward_stack.calls"] = (per_op("calls", "layers.forward_stack.train")
                                       + per_op("calls", fs_eval))

    m["model.predict_us"] = ops.per_call("total", "model.predict", 1e6)
    m["model.encode_values_us"] = ops.per_call("total", "model.encode_values", 1e6)
    m["model.head_forward_us"] = ops.per_call("total", "model.head_forward", 1e6)

    m["explain.compute_cam_us"] = ops.per_call("total", "explain.compute_cam", 1e6)
    m["explain.write_cams_csv_ms"] = per_op("total", "explain.write_cams_csv", 1e3)
    m["explain.read_cams_csv_ms"] = per_op("total", "explain.read_cams_csv", 1e3)
    m["explain.mask_with_cams_ms"] = per_op("total", "explain.mask_with_cams", 1e3)

    m["data.load_manifest_ms"] = per_op("total", "data.load_manifest", 1e3)
    m["data.parse_us_per_frame"] = _ratio(ops.get("total", "data.parse_trial_csv") * 1e6,
                                          ops.get("work", "data.parse_trial_csv"))
    m["data.prepare_stage2_us"] = ops.per_call("total", "data.prepare_stage2", 1e6)
    m["data.fit_minmax_us"] = ops.per_call("total", "data.fit_minmax", 1e6)
    m["data.apply_minmax_us"] = ops.per_call("total", "data.apply_minmax", 1e6)
    m["data.dataset_fingerprint_ms"] = per_op("total", "data.dataset_fingerprint", 1e3)

    m["overlay.render_ms"] = ops.per_call("total", "overlay.render_cam_overlay", 1e3)
    m["overlay.render_us_per_frame"] = _ratio(
        ops.get("total", "overlay.render_cam_overlay") * 1e6,
        ops.get("work", "overlay.render_cam_overlay"))

    m["bundle.save_ms"] = ops.per_call("total", "bundle.save_bundle", 1e3)
    m["bundle.load_ms"] = ops.per_call("total", "bundle.load_bundle", 1e3)
    m["records.write_ms"] = ops.per_call("total", "records.write_records_csv", 1e3)
    m["records.read_ms"] = ops.per_call("total", "records.read_records_csv", 1e3)
    m["trust.build_report_ms"] = ops.per_call("total", "trust.build_trust_report", 1e3)
    m["crossval.run_cv_s"] = per_op("total", "crossval.run_cv")
    m["crossval.run_cv_self_s"] = per_op("self_t", "crossval.run_cv")
    m["cli.dispatch_self_ms"] = ops.per_call("self_t", "cli.dispatch", 1e3)
    m["synth.write_s"] = setup.per_call("total", "synth.write_synth_dataset", 1.0)

    layer_self = {}
    for i, span in enumerate(names):
        layer = span.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + float(ops.self_t[i])
    for layer in LAYERS:
        m[f"{layer}.self_share"] = _ratio(layer_self.get(layer, 0.0), wall)
    covered = sum(v for k, v in layer_self.items() if k != "bench")
    m["trace.self_time_coverage"] = _ratio(covered, wall)
    return m
