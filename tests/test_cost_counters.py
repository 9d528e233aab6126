"""Deterministic cost counters: what one training step, one packed
forward, one trial-file parse and one overlay cost, counted rather than
timed.

Timing cannot resolve a change of a few percent on a small shared host;
call counts can, because they repeat exactly.  Each case runs
``WARM_UP`` times to warm up (lazy imports, first-call caches, bytecode
specialization) and is then counted with the interpreter's profiler hook
and the garbage collector off, so a collection cannot run finalizers
inside the count:

- ``numpy_c``: calls of numpy's C functions and methods that the profiler
  sees (``np.zeros``, ``np.add.reduce``, ``ndarray`` methods, generator
  draws).  Ufunc calls such as ``np.exp`` or ``np.matmul`` and array
  operators raise no profiler event, so they are not in any count;
- ``py``: Python function calls, numpy's own Python wrappers included;
- ``peak_kb``: the ``tracemalloc`` peak of one call above the memory
  traced at its start, in whole KB (numpy reports its array buffers to
  ``tracemalloc``), measured in a call of its own, without the profiler
  hook.

The cases reuse the benchmark's span names: ``training.dae_step`` and
``training.head_step`` are one optimizer step of each stage on a
T=104 trial with the default architecture and recipe, the steps the
training loop runs; ``layers.forward_packed`` is one eval forward of the
skill model over a fixed 40-trial batch (three packed chunks), with the
pre-GAP activations captured, as ``predict_with_cams`` runs it;
``data.parse_trial_text`` parses a fixed 818-frame 10 Hz trial file with
two tools and a few missing detections, ``layers.forward_packed.one_trial``
is the skill model's forward over that trial as ``predict`` scores it
(gap-filled, at 10 Hz, one chunk, nothing captured), and
``overlay.render_cam_overlay`` draws the trial under a fixed 818-entry
map into ``os.devnull``;
``bundle.load_bundle`` loads the skill model's bundle (40 arrays).

Counts depend on the numpy version, so they are pinned per
``perfbench/envinfo.platform_key`` like the output goldens, and an
unrecorded platform skips the pinned check.  A change that moves a count
states the old and the new value where it updates ``COUNTS``.
"""

import gc
import os
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import skillseq.layers as layers
import skillseq.training as training
import tape
from skillseq.bundle import load_bundle, save_bundle
from skillseq.data import DOWNSAMPLED, MinMaxStats, Trial, parse_trial_text, prepare_stage2
from skillseq.explain import CamMap
from skillseq.layers import forward_packed, init_stack_params
from skillseq.model import (ArchConfig, ModelBundle, build_classifier, decoder_specs,
                            encoder_specs, normalize_for_model)
from skillseq.optim import AdamState, adam_step_masked
from skillseq.overlay import render_cam_overlay

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")

COUNTS = {
    "numpy 2.4.6; scipy 1.17.1; openblas SkylakeX; simd X86_V3,X86_V4,AVX512_ICL,AVX512_SPR": {
        # The nodes and accumulate columns (Tensor objects made and
        # Tensor.accumulate calls) went when they read 0 on every case: no
        # training step or eval forward builds a Tensor any more.
        # nodes 25 -> 0 and 18 -> 0, accumulate 44 -> 0 and 35 -> 0, numpy_c
        # 125 -> 80 and 79 -> 45, py 216 -> 149 and 152 -> 108 when a
        # training step stopped building a tape and runs each stack's
        # backward over recorded arrays: numpy_c loses each node's
        # np.asarray (25 and 18, plus the input's tz.constant), each first
        # gradient's np.array copy in accumulate (18 and 14) and the root's
        # np.array(1.0); py loses the Tensor inits, _node, the closures,
        # topo_order and accumulate, and gains one call per recorded op
        # and its array function.
        # py 149 -> 155 and 108 -> 111 when the tape, recorded and packed
        # forwards started sharing the conv input check (one call per
        # convolution: 4 in the DAE, 1 in the head) and _scse_params (one
        # call per sCSE op: 2 in each)
        # py 155 -> 157 and 111 -> 113 when the recorded ops took arrays in
        # place of Tensor leaves: each trained sCSE op (2 in each step)
        # lists its gradient views with _scse_params and its list
        # comprehension (+2) and no longer lists its leaves' data (-1).
        # py 157 -> 155 and 113 -> 115 when one walker composed every layer
        # kind for training and eval, with the recorder as its mode: each
        # stack loses the dispatch to _forward_recorded (-2 and -1), each
        # step its ForwardContext (-1) and each conv1d layer the call of
        # the inlined input check (-4 and -1); the noise, sigmoid, softmax
        # and gap layers become method calls (+2 and +2), and the residual
        # block becomes fork and join (+1) which record _join and _split
        # through add (+2).  peak_kb (added then) is unchanged: 630 and
        # 396 at the parent code.
        # py 155 -> 154 and 115 -> 114 when the training loop took each
        # stage's data and _FlatParams lost its one-line methods: the step
        # zeroes the gradient buffer in place of calling zero_grads (-1);
        # the forward runs in the module-level _step in place of each
        # stage's closure (0).  numpy_c and peak_kb are unchanged.
        # peak_kb 630 -> 593 and 396 -> 348 when Recorder.backward started
        # popping each recorded op before running it, so the taps,
        # activations and masks of the ops already passed are freed while
        # the rest of the backward runs.  numpy_c and py are unchanged.
        # py 154 -> 164 and 114 -> 120 when forward_stack looked each layer's
        # step up in layers.KINDS in place of its chain of kinds: one step
        # call per layer (10 in the DAE, 6 in the head).  numpy_c and
        # peak_kb are unchanged.
        # numpy_c 80 -> 78 and py 164 -> 156 in the DAE step when the
        # binary cross-entropy stopped checking that its targets lie in
        # [0, 1] (min-max scaling clamps them there): two np.any calls of
        # four Python calls and one numpy C call each.
        # numpy_c 78 -> 72 and 45 -> 43, py 156 -> 162 and 120 -> 122 when
        # one tap builder (_taps) wrote every convolution's zero padding:
        # each convolution with K > 1 (6 in the DAE, 2 in the head) no
        # longer makes a zero-padded copy of its input (-1 np.zeros) and
        # calls _taps (+1 py).  peak_kb is unchanged.
        "training.dae_step": {"numpy_c": 72, "py": 162, "peak_kb": 593},
        "training.head_step": {"numpy_c": 43, "py": 122, "peak_kb": 348},
        # numpy_c 520 -> 506 and py 452 -> 474 when eval forwards stopped
        # making throwaway large arrays: the 21 SELUs run in place and no
        # longer call np.where (-21 py); the 21 packed convolutions run in
        # _conv_packed (+21 py), and the 18 with K > 1 no longer make a
        # padded copy (-18 np.zeros) but take one view of the call's
        # TapBuffer (+18 py, +18 reshape, -18 np.empty), which is made once
        # and grown three times (+1 py, +4 np.empty); each of the 3 layouts
        # lists its halo rows with one more list comprehension (+3 py).
        # py 474 -> 495 when each formula moved into one array function
        # that the tape and the training step share: the 21 packed
        # convolutions build their kernel matrix in _conv_matrix (+21 py).
        # nodes 72 -> 0, numpy_c 506 -> 431 and py 495 -> 309 when eval
        # forwards stopped building Tensor nodes and run over plain arrays:
        # numpy_c loses each node's np.asarray (72) and each chunk's
        # tz.constant copy (3); py loses the 72 Tensor inits, the op
        # functions (conv1d 21, conv1d_selu 21, scse_op 12, add 6, gap 3,
        # dense 3, softmax 3), _packed_node 42, _node 6, constant 3 and the
        # context's _conv_selu 21 and _scse_forward 12 (-225), and gains the
        # array mode (_forward_segments 6), _scse_params with its list
        # comprehension (12 + 12) and the shared conv input check (9).
        # py 309 -> 372 and 98 -> 119 when one walker composed every layer
        # kind for training and eval, with PackedEval as the eval mode:
        # +21 a chunk (3 in the batch, 1 for the long trial), since every
        # op of the two stacks is a method call (13 each, the residual
        # block's fork and join included: +26), each stack loses the
        # dispatch to _forward_segments (-2) and each conv1d layer the
        # call of the inlined input check (-3).
        # peak_kb (added then) is unchanged: 1,595 and 1,063 at the parent.
        # py 372 -> 403 and 119 -> 126 when forward_stack looked each layer's
        # step up in layers.KINDS: one step call per layer of a chunk (+36
        # and +12), and _reach takes each stack's reaches in one list
        # comprehension in place of a generator that resumed once per
        # convolution and once to end (7 -> 2 calls: -5).  numpy_c and
        # peak_kb are unchanged.
        # numpy_c 431 -> 425, py 403 -> 630 and peak_kb 1,595 -> 1,579 when
        # the packed layout dropped its zero halo rows and _taps wrote every
        # convolution's zero padding: py gains one _taps call per trial and
        # convolution with K > 1 (40 x 6 = +240) and numpy's Python
        # dispatcher of the np.concatenate that packs each chunk (+3), and
        # loses _reach with its generator and list comprehensions (-7) and
        # the three list comprehensions of each layout's halos (-9);
        # numpy_c loses each chunk's np.zeros in pack and its halo-row
        # np.array (-6); the chunks' arrays no longer hold halo rows.
        # numpy_c 425 -> 422 and py 630 -> 600 when PackedEval took over the
        # row layout and the tap storage: the call makes one flat tap array,
        # sized up front, where the buffer was made empty and grown three
        # times (-3 np.empty); each of the 18 convolutions with K > 1 slices
        # it inline, not through a method (-18); the call lists the widest
        # tap row in place of making the buffer (0); and each of the 3
        # chunks loses Segments.__init__, its list comprehension of lengths,
        # pack and unpack with its list comprehension, and keeps one list
        # comprehension for the pre-GAP rows (-4 each).
        "layers.forward_packed": {"numpy_c": 422, "py": 600, "peak_kb": 1579},
        # measured on the parent code, where a one-trial chunk ran on the
        # tape, as nodes 24, numpy_c 57, py 132; it now takes the packed
        # array path like every chunk (Segments and pack: +2 numpy_c)
        # numpy_c 59 -> 57, py 126 -> 123 and peak_kb 1,063 -> 1,058 when
        # the halos went: py +6 _taps, +1 the np.concatenate dispatcher, -7
        # _reach and -3 the halo list comprehensions; numpy_c -1 np.zeros
        # and -1 np.array; the 8 halo rows are no longer allocated.
        # numpy_c 57 -> 55 and py 123 -> 114 with the merged layout: one
        # np.empty for the taps where the buffer was made and grown twice
        # (-2); the 6 convolutions with K > 1 slice it inline (-6 py); the
        # call's TapBuffer, Segments, their length list comprehension and
        # pack go, and the widest tap row's list comprehension comes (-3).
        "layers.forward_packed.one_trial": {"numpy_c": 55, "py": 114, "peak_kb": 1058},
        # py 8 -> 17 when the headers were read by data.read_pairs under the
        # header table: the read_pairs call (+1) and the header parsers' own
        # calls (+8): subject's parse and check, trial's integer and its
        # check, rate_hz's finite, score's NA test, and class's NA test and
        # parse.  numpy_c and peak_kb are unchanged.
        "data.parse_trial_text": {"numpy_c": 4, "py": 17, "peak_kb": 463},
        # numpy_c 55 -> 65 and py 4,204 -> 120 when coordinates were written
        # from integer hundredths: _fmt ran once per coordinate and strip
        # cell (4,095 calls: 2 x 818 per tool, 818 strip cells and 5
        # constants); now only the 5 constants call it, and each of the 5
        # columns costs one _fmt_column call and its list comprehension
        # (+10 py, less the 4 comprehensions that called _fmt per
        # coordinate) and one astype and one tolist (+10 numpy_c)
        # numpy_c 65 -> 63 and py 120 -> 119 when the overlay stopped
        # checking a gap-filled trial for missing samples (a trial holds
        # NaN only while raw): one ndarray.any call, its Python _any and
        # the C reduction it runs.
        "overlay.render_cam_overlay": {"numpy_c": 63, "py": 119, "peak_kb": 793},
        # py 570 (measured on the parent code) -> 93 when the array loop
        # stopped calling a reader's take/u per field (477 calls: about a
        # dozen per array) and bounds-checks and unpacks each field inline
        # py 93 -> 118 when load_bundle started checking the metadata's
        # keys and types: one call per object checked (the metadata, the
        # groups, the trainable flags, the minmax statistics and the 12
        # layer specs: +16), per layer spec (+12), per list (+5) and per
        # scalar field (+3), the checker and _bundle (+2) and two list
        # comprehensions (+2), less the dict comprehension and the 14
        # generator steps that built the layer tuples (-15).
        # py 118 -> 120 when ModelBundle started checking that the layer
        # specs chain: one _chain call per group
        # py 120 -> 108 when the metadata check built each of the 12 layer
        # specs with LayerSpec(**d) rather than through LayerSpec.from_dict
        # py 108 -> 127 and peak_kb 203 -> 202 when the mode fixed the
        # trainable flags and class names: the file's two fields are
        # compared as canonical JSON with what _mode_fixed derives (+23:
        # _mode_fixed, the class_names property and a dict comprehension,
        # and four json.dumps calls of four Python calls each), and are no
        # longer type-checked (-4: one obj, two typed and one items call)
        # py 127 -> 139 when the layer kinds moved into layers.KINDS:
        # param_shapes calls the kind's shape function of each of the 6
        # layers with parameters (3 conv1d, 2 residual blocks, 1 dense),
        # once in load_bundle's shape check and once in ModelBundle's (+12).
        # LayerSpec's check of the fields a kind does not read calls
        # nothing.  numpy_c and peak_kb are unchanged.
        # numpy_c 126 -> 206 and py 139 -> 179 when load_bundle started
        # refusing an array that holds NaN or an infinity: per array (40
        # of them) one ndarray.all and its reduction (+80 numpy_c) and
        # numpy's Python _all wrapper (+40 py).
        "bundle.load_bundle": {"numpy_c": 206, "py": 179, "peak_kb": 202},
    },
}

# CPython specializes a bytecode site after it has run a few dozen times,
# and a specialized site allocates fewer objects, so peak_kb settles only
# after up to 62 calls of a case; the call counts settle after one
WARM_UP = 80

CHANNELS = ("sx", "sy", "gx", "gy")
T_STEP = 104
T_LONG = 818
BATCH_LENGTHS = tuple(60 + (37 * i) % 91 for i in range(40))


def _numpy_owned(fn):
    owner = getattr(fn, "__self__", None)
    module = getattr(fn, "__module__", None) or type(owner).__module__
    return module.startswith("numpy")


def count_calls(fn):
    """The counts of one ``fn()`` call, and the ``peak_kb`` of another
    (see the module docstring)."""
    counts = {"numpy_c": 0, "py": 0}

    def hook(frame, event, arg):
        if event == "call":
            counts["py"] += 1
        elif event == "c_call" and _numpy_owned(arg):
            counts["numpy_c"] += 1

    enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    counts["py"] -= 1  # the call of fn itself
    counts["peak_kb"] = peak_kb(fn)
    return counts


def peak_kb(fn):
    """The ``tracemalloc`` peak of one ``fn()`` call above the memory
    traced at its start, in whole KB."""
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    return (peak - start) // 1024


def _trials(rng, lengths):
    return [Trial(subject_id="S1", trial_index=i, sample_rate_hz=1.0, channels=CHANNELS,
                  values=rng.random((T, len(CHANNELS))), score=None,
                  class_label=("pass", "fail")[i % 2], stage=DOWNSAMPLED)
            for i, T in enumerate(lengths)]


def _autoencoder(rng):
    arch, n = ArchConfig(), len(CHANNELS)
    groups = {"encoder": encoder_specs(arch, n), "decoder": decoder_specs(n, arch)}
    weights = {f"{g}/{k}": v for g, specs in groups.items()
               for k, v in init_stack_params(specs, rng).items()}
    return ModelBundle(mode="autoencoder", groups=groups, weights=weights,
                       minmax=MinMaxStats(CHANNELS, np.zeros(n), np.ones(n), ()))


def _skill_stacks(skill):
    return [(skill.groups[g], skill.group_params(g)) for g in ("encoder", "head")]


def _long_trial_text(rng):
    """A 10 Hz trial file of two tools in the 640x480 frame; every 37th
    frame misses its second tool."""
    xy = rng.random((T_LONG, len(CHANNELS))) * np.array([640.0, 480.0, 640.0, 480.0])
    rows = [f"{t}," + ",".join(map(repr, row)) for t, row in enumerate(xy.tolist())]
    for t in range(0, T_LONG, 37):
        rows[t] = rows[t].rsplit(",", 2)[0] + ",,"
    header = ["# subject=S1", "# trial=3", "# rate_hz=10.0", "# score=NA", "# class=fail",
              "t," + ",".join(CHANNELS)]
    return "\n".join(header + rows) + "\n"


def _first_step(train, *args):
    """One optimizer step of the loop ``train`` would run, on its first
    training trial: the production step function (``training._step``)
    over the loop's data as ``tape.TrainingLoop`` sets it up, its
    backward, then Adam, as ``_run_training``'s inner loop runs them."""
    loop = tape.TrainingLoop(train, *args)
    flat, config = loop.flat, loop.config
    opt = AdamState(learning_rate=config.learning_rate, l2=config.l2)
    args = loop.step_args(loop.train_indices[0])

    def step():
        flat.grad[:] = 0.0
        training._step(*args).backward()
        adam_step_masked(opt, flat.theta, flat.grad, flat.decay_mask)

    return step


def _cases(workdir):
    rng = np.random.default_rng(0)
    trials = _trials(rng, [T_STEP] * 6)
    dae = _autoencoder(rng)
    batch = [t.values for t in _trials(rng, BATCH_LENGTHS)]
    skill = build_classifier(dae, "classification", seed=0)
    stacks = _skill_stacks(skill)
    text = _long_trial_text(rng)
    long_trial = parse_trial_text(text, "long.csv")
    long_input = normalize_for_model(skill, prepare_stage2(long_trial, 10.0)).values
    bundle_path = os.path.join(workdir, "skill.skq")
    save_bundle(skill, bundle_path)
    intensity = rng.random(T_LONG)
    cam = CamMap(trial_id=long_trial.trial_id, class_index=1, raw=intensity * 2.0 - 1.0,
                 intensity=intensity)
    return {
        "training.dae_step": _first_step(training.train_dae, trials, training.DaeConfig(), 0),
        "training.head_step": _first_step(training.train_classifier, dae, trials,
                                          training.HeadConfig(), 0, ArchConfig(),
                                          "classification"),
        "layers.forward_packed": lambda: forward_packed(stacks, batch, capture=True),
        "data.parse_trial_text": lambda: parse_trial_text(text, "long.csv"),
        "layers.forward_packed.one_trial": lambda: forward_packed(stacks, [long_input]),
        "overlay.render_cam_overlay": lambda: render_cam_overlay(long_trial, cam, os.devnull),
        "bundle.load_bundle": lambda: load_bundle(bundle_path),
    }


@pytest.fixture(scope="module")
def counted(tmp_path_factory):
    """Each case's counts, twice, after ``WARM_UP`` calls."""
    out = {}
    for name, fn in _cases(tmp_path_factory.mktemp("counted")).items():
        for _ in range(WARM_UP):
            fn()
        out[name] = (count_calls(fn), count_calls(fn))
    return out


def test_counts_repeat_exactly(counted):
    for name, (first, second) in counted.items():
        assert first == second, name
        assert first["py"] > 0 and first["numpy_c"] > 0, name


def test_the_batch_runs_in_three_packed_chunks():
    rng = np.random.default_rng(0)
    batch = [rng.random((T, len(CHANNELS))) for T in BATCH_LENGTHS]
    with mock.patch.object(layers, "PackedEval", side_effect=layers.PackedEval) as layouts:
        skill = build_classifier(_autoencoder(rng), "classification", seed=0)
        forward_packed(_skill_stacks(skill), batch, capture=True)
    assert layouts.call_count == 3


def test_counts_match_the_recorded_counts(counted, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import envinfo
    pinned = COUNTS.get(envinfo.platform_key())
    if pinned is None:
        pytest.skip("no counts recorded for this platform")
    assert {name: first for name, (first, _) in counted.items()} == pinned
