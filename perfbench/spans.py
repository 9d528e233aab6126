"""Span recording around skillseq's public functions, installed from outside.

A ``SpanRecorder`` keeps every span in flat in-memory arrays: name id,
parent span, start, end (``time.perf_counter`` seconds) and a work count
(frames parsed or rendered, where a target says how to count them).
Spans nest by call order on one thread, so a span's parent is whichever
span was open when it started.

``install`` replaces each target function with a recording wrapper at
every ``skillseq`` module that holds it, including modules that imported
it by name (``cli.load_manifest``, ``training.adam_step_masked``...).
Wrappers pass ``*args, **kwargs`` through untouched, so signature changes
in the program break nothing.  A target that no longer exists is listed
in ``missing`` instead of raising.  ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array
from dataclasses import dataclass

__all__ = ["Target", "SpanRecorder", "TARGETS", "TENSOR_OPS"]


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``skillseq.<module>.<attr>``.

    The span is named ``<module>.<attr>``.  ``bwd`` also wraps the ``bwd``
    closure of the returned tape node (span ``<name>.bwd``).
    ``split_mode`` splits the span into
    ``<name>.train`` and ``<name>.eval`` by the ``train`` flag of the
    first argument that has one (a ForwardContext).  ``work`` counts
    frames: ``"result"`` from the returned trial, ``"arg0"`` from the
    first argument's trial.
    """

    module: str
    attr: str
    bwd: bool = False
    split_mode: bool = False
    work: str | None = None

    @property
    def span(self):
        return f"{self.module}.{self.attr}"


TENSOR_OPS = ("conv1d", "selu", "sigmoid", "softmax", "scse_op", "gap", "dense",
              "add", "add_n", "add_noise", "activity_penalty", "loss_eval")

TARGETS = (
    *(Target("tensor", op, bwd=True) for op in TENSOR_OPS),
    Target("tensor", "backward"),
    Target("tensor", "topo_order"),
    Target("optim", "adam_step_masked"),
    Target("training", "train_dae"),
    Target("training", "train_supervised"),
    Target("training", "train_classifier"),
    Target("layers", "forward_stack", split_mode=True),
    Target("model", "predict"),
    Target("model", "embed"),
    Target("model", "encode_values"),
    Target("model", "head_forward"),
    Target("model", "build_classifier"),
    Target("explain", "compute_cam"),
    Target("explain", "write_cams_csv"),
    Target("explain", "read_cams_csv"),
    Target("explain", "mask_with_cams"),
    Target("data", "load_manifest"),
    Target("data", "parse_trial_csv", work="result"),
    Target("data", "prepare_stage2"),
    Target("data", "fit_minmax"),
    Target("data", "apply_minmax"),
    Target("data", "dataset_fingerprint"),
    Target("overlay", "render_cam_overlay", work="arg0"),
    Target("bundle", "save_bundle"),
    Target("bundle", "load_bundle"),
    Target("records", "write_records_csv"),
    Target("records", "read_records_csv"),
    Target("trust", "build_trust_report"),
    Target("crossval", "run_cv"),
    Target("crossval", "validate_cams"),
    Target("cli", "dispatch"),
    Target("synth", "write_synth_dataset"),
)


def _frames(trial):
    """Rows of a trial's values; 0 for anything else."""
    shape = getattr(getattr(trial, "values", None), "shape", None)
    return float(shape[0]) if shape else 0.0


def _train_flag(args, kwargs):
    for arg in (*args, *kwargs.values()):
        flag = getattr(arg, "train", None)
        if isinstance(flag, bool):
            return flag
    return False


class SpanRecorder:
    """Flat span store plus the wrappers that fill it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._open_spans = []
        self._patches = []
        self.missing = []

    def __len__(self):
        return len(self.start)

    def name_of(self, name):
        """Stable integer id of a span name."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open_spans[-1] if self._open_spans else -1)
        self.work.append(0.0)
        self.end.append(0.0)
        self._open_spans.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._open_spans.pop()

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block; yields the span's index."""
        idx = self.open(self.name_of(name))
        try:
            yield idx
        finally:
            self.close(idx)

    # -- wrappers ---------------------------------------------------------

    def _wrap_bwd(self, nid, bwd):
        def traced_bwd(g):
            idx = self.open(nid)
            try:
                return bwd(g)
            finally:
                self.close(idx)
        return traced_bwd

    def _wrapper(self, target, fn):
        rec = self
        nid = self.name_of(target.span)
        bwd_nid = self.name_of(target.span + ".bwd") if target.bwd else None
        mode_ids = None
        if target.split_mode:
            mode_ids = (self.name_of(target.span + ".eval"),
                        self.name_of(target.span + ".train"))
        work = target.work

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = nid if mode_ids is None else mode_ids[_train_flag(args, kwargs)]
            idx = rec.open(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if work == "result":
                rec.work[idx] = _frames(result)
            elif work == "arg0":
                rec.work[idx] = _frames(args[0] if args else None)
            if bwd_nid is not None and getattr(result, "bwd", None) is not None:
                result.bwd = rec._wrap_bwd(bwd_nid, result.bwd)
            return result

        return traced

    def install(self, targets=TARGETS):
        """Wrap every target wherever a skillseq module holds it."""
        homes = {}
        for module in sorted({t.module for t in targets}):
            try:
                homes[module] = importlib.import_module(f"skillseq.{module}")
            except ImportError:
                pass
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "skillseq" or name.startswith("skillseq."))]
        holders = {}
        for mod in modules:
            for attr, value in vars(mod).items():
                if callable(value):
                    holders.setdefault(id(value), []).append((mod, attr))
        self.missing = []
        for target in targets:
            fn = getattr(homes.get(target.module), target.attr, None)
            if fn is None or not callable(fn):
                self.missing.append(target.span)
                continue
            wrapper = self._wrapper(target, fn)
            for mod, attr in holders.get(id(fn), ()):
                self._patches.append((mod, attr, fn))
                setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches = []
