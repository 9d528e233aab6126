"""Every exported name exists, every benchmark span still has a target,
every definition in the package is used, only the tensor module names
or imports the tape, one walker composes every kind of the one table of
layer kinds for both modes, only that table and the model compare a
kind, one training loop takes each stage's data, not callbacks, a bundle and
Adam carry no field that the design fixes, only the model and training
modules normalize trials for a model, only the layers, config, modes
and gradcheck modules spell a loss kind, only the modes table (and
the mode setting of config) spells a skill mode, only the cell
vocabulary turns text into numbers under a ``ValueError`` handler, and
only the folds module reads a scheme token.

The benchmark wraps functions by name from outside the package; a
deleted or renamed target would only show up there as a missing span.
"""

import ast
import dataclasses
import glob
import importlib
import inspect
import os
import pkgutil

import numpy as np
import pytest

import skillseq
from skillseq import layers, model, optim, training

MODULES = sorted(m.name for m in pkgutil.iter_modules(skillseq.__path__)
                 if m.name != "__main__")
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"skillseq.{name}")
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"skillseq.{name}.__all__ lists missing {attr}"


def test_every_benchmark_span_target_is_callable(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    spans = importlib.import_module("spans")
    assert spans.TARGETS
    for target in spans.TARGETS:
        module = importlib.import_module(f"skillseq.{target.module}")
        assert callable(getattr(module, target.attr, None)), target.span


# definitions that nothing in src/skillseq names, each kept for a reason
UNREFERENCED_ALLOWED = {
    ("cli", "_Parser.error"): "argparse calls it on a parse error",
    ("tensor", "parameter"): "perfbench/optable.py builds the op table's inputs with it",
}


def _definitions(tree):
    """Module-level functions and classes, and the non-dunder methods of
    those classes, as ``(qualified name, name, is_method)``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item.name, True


def _trees():
    """Each module of src/skillseq, parsed: ``{module name: ast}``."""
    trees = {}
    for path in sorted(glob.glob(os.path.join(os.path.dirname(skillseq.__file__), "*.py"))):
        with open(path, encoding="utf-8") as fh:
            trees[os.path.basename(path)[:-3]] = ast.parse(fh.read(), path)
    return trees


def test_every_definition_is_referenced(monkeypatch):
    """Each function, class and method in src/skillseq is named somewhere
    in the package: functions and classes by name or attribute, methods
    by attribute.  Benchmark span targets and the allow-list are exempt."""
    monkeypatch.syspath_prepend(PERFBENCH)
    spans = importlib.import_module("spans")
    exempt = {(t.module, t.attr) for t in spans.TARGETS} | set(UNREFERENCED_ALLOWED)
    trees = _trees()
    names, attrs = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    unused = [f"{module}.{qualname}"
              for module, tree in trees.items()
              for qualname, name, is_method in _definitions(tree)
              if (module, qualname) not in exempt
              and name not in attrs and (is_method or name not in names)]
    assert not unused, f"defined but never referenced: {unused}"


def test_only_the_tensor_module_names_the_tape():
    """The package trains and evaluates on plain arrays (``layers``); the
    tape of ``tensor.py`` is the benchmark's op table and the tests'
    reference.  No other module may import ``skillseq.tensor``, in any
    spelling, or name ``Tensor`` or ``wrap_params``.
    ``test_cost_counters.py`` counts the nodes a step or a forward builds
    at run time, which also sees indirect use."""
    banned = {"Tensor", "wrap_params"}
    named = set()
    for module, tree in _trees().items():
        if module == "tensor":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                found = {node.id} & banned
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found = {node.name} & banned
            elif isinstance(node, ast.Attribute):
                found = {node.attr} & banned
            elif isinstance(node, ast.Import):
                found = {a.name for a in node.names} & {"skillseq.tensor"}
            elif isinstance(node, ast.ImportFrom):
                found = ({f"import of {node.module}"}
                         if (node.module or "").rsplit(".", 1)[-1] == "tensor"
                         else {a.name for a in node.names} & {"tensor"})
            else:
                continue
            named |= {f"{module}: {name}" for name in found}
    assert not named, f"the tape is named or imported outside tensor.py: {sorted(named)}"


class _Ops:
    """A ``forward_stack`` mode that records the name of each op called
    on it and hands the layer's input on."""

    def __init__(self):
        self.called = set()

    def __getattr__(self, op):
        def run(x, *args):
            self.called.add(op)
            return x
        return run


# a valid value of each field a kind may read
_VALID = {"in_channels": 2, "out_channels": 2, "kernel_size": 3, "dilation": 2,
          "reduction": 2, "sigma": 0.1}


def test_one_walker_composes_every_kind_for_both_modes():
    """Every kind of ``layers.KINDS`` has a step, and ``Recorder``
    (training) and ``PackedEval`` (eval) both implement every ``mode.<op>``
    the steps call.  The benchmark splits the walker's span by the mode's
    class-level ``train`` flag."""
    ops = set()
    for name, kind in layers.KINDS.items():
        spec = layers.LayerSpec(name, **{f: _VALID[f] for f in kind.fields})
        mode = _Ops()
        x = np.zeros((4, 2))
        assert kind.step(mode, x, spec, {}, None, "0.") is x, name
        assert mode.called, f"{name}'s step calls no op"
        ops |= mode.called
    assert {"conv", "fork", "join"} <= ops
    for mode, train in ((layers.Recorder, True), (layers.PackedEval, False)):
        missing = sorted(op for op in ops if not callable(getattr(mode, op, None)))
        assert not missing, f"{mode.__name__} lacks {missing}"
        assert mode.train is train


def test_only_the_layers_and_model_modules_compare_a_layer_kind():
    """``layers.KINDS`` is the one catalog of layer kinds: no module of
    src/skillseq but ``layers`` (the table) and ``model`` (the head rule
    of a bundle) compares a ``.kind`` attribute."""
    found = []
    for module, tree in _trees().items():
        if module in ("layers", "model"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and any(
                    isinstance(side, ast.Attribute) and side.attr == "kind"
                    for side in (node.left, *node.comparators)):
                found.append(f"{module}:{node.lineno}")
    assert not found, f"a layer kind is compared outside layers and model: {found}"


def test_one_training_loop_takes_data_not_callbacks():
    """``_run_training`` and its step function call none of their
    parameters, the stages hand them data through no nested function or
    lambda, and ``_FlatParams`` takes only the parameter groups."""
    for fn in (training._run_training, training._step):
        tree = ast.parse(inspect.getsource(fn))
        params = {a.arg for a in tree.body[0].args.args}
        called = {node.func.id for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        assert not params & called, f"{fn.__name__} calls {sorted(params & called)}"
    for fn in (training.train_dae, training.train_supervised):
        body = ast.parse(inspect.getsource(fn)).body[0]
        nested = [type(node).__name__ for node in ast.walk(body) if node is not body
                  and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
        assert not nested, f"{fn.__name__} defines {nested}"
    init = inspect.signature(training._FlatParams.__init__)
    assert list(init.parameters) == ["self", "groups"]


def test_the_mode_fixes_what_a_bundle_and_adam_do_not_carry():
    """A bundle's mode fixes which group trains and its class names, so
    ``ModelBundle`` carries neither, and its min-max statistics have no
    default; Adam's betas and eps are module constants, not state."""
    fields = {f.name: f for f in dataclasses.fields(model.ModelBundle)}
    assert list(fields) == ["mode", "groups", "weights", "minmax", "score_stats"]
    assert fields["minmax"].default is dataclasses.MISSING
    knobs = [f.name for f in dataclasses.fields(optim.AdamState)
             if f.name.startswith(("beta", "eps"))]
    assert not knobs, f"AdamState carries {knobs}"


def test_only_the_model_and_training_normalize_trials():
    """Training and scoring take downsampled trials and apply min-max
    statistics themselves, so no module but ``data`` (which defines them),
    ``model`` and ``training`` names ``fit_minmax``, ``apply_minmax`` or
    ``normalize_for_model``, whether by name, by attribute or in an
    import."""
    banned = {"fit_minmax", "apply_minmax", "normalize_for_model"}
    named = set()
    for module, tree in _trees().items():
        if module in ("data", "model", "training"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                found = {node.id}
            elif isinstance(node, ast.Attribute):
                found = {node.attr}
            elif isinstance(node, ast.alias):
                found = {node.name, node.asname}
            else:
                continue
            named |= {f"{module}: {name}" for name in found & banned}
    assert not named, f"min-max statistics handled outside the model: {sorted(named)}"


def test_only_layers_config_gradcheck_and_modes_spell_a_loss_kind():
    """The mode fixes the head's loss and the recipe the autoencoder's, so
    no module but ``layers`` (which defines the losses), ``config`` (whose
    settings schema chooses the autoencoder's), ``modes`` (whose table
    gives each head's) and ``gradcheck`` (which checks them) spells a loss
    kind as a string constant."""
    kinds = {"bce", "mse", "cosine"}
    spelled = set()
    for module, tree in _trees().items():
        if module in ("layers", "config", "gradcheck", "modes"):
            continue
        spelled |= {f"{module}: {node.value}" for node in ast.walk(tree)
                    if isinstance(node, ast.Constant) and node.value in kinds}
    assert not spelled, f"loss kinds spelled outside the schema: {sorted(spelled)}"


def test_only_the_modes_table_spells_a_skill_mode():
    """``modes.MODES`` is the one table of skill modes, so no module but
    ``modes`` spells ``"classification"`` or ``"regression"`` as a string
    constant.  The one exception is ``config``'s ``mode`` setting: its
    default and the ``classify``/``regress`` spellings ``_parse_mode``
    reads."""
    names = {"classification", "regression"}
    spelled = []
    for module, tree in _trees().items():
        if module == "modes":
            continue
        allowed = set()
        if module == "config":
            for node in ast.walk(tree):
                if ((isinstance(node, ast.FunctionDef) and node.name == "_parse_mode")
                        or (isinstance(node, ast.AnnAssign)
                            and getattr(node.target, "id", None) == "mode")):
                    allowed |= {id(n) for n in ast.walk(node)}
        spelled += [f"{module}:{node.lineno} {node.value}" for node in ast.walk(tree)
                    if isinstance(node, ast.Constant) and node.value in names
                    and id(node) not in allowed]
    assert not spelled, f"skill modes spelled outside the modes table: {spelled}"


def test_only_the_folds_module_reads_a_scheme_token():
    """``folds`` holds the scheme grammar and picks each scheme's roster,
    so no other module spells ``"loso"``, ``"louo"`` or a string starting
    with ``"stratified"`` as a constant.  The one exception is the default
    of ``config``'s ``scheme`` setting."""
    spelled = []
    for module, tree in _trees().items():
        if module == "folds":
            continue
        allowed = {id(n) for node in ast.walk(tree) if module == "config"
                   and isinstance(node, ast.AnnAssign)
                   and getattr(node.target, "id", None) == "scheme" for n in ast.walk(node)}
        spelled += [f"{module}:{node.lineno} {node.value}" for node in ast.walk(tree)
                    if isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and (node.value in ("loso", "louo") or node.value.startswith("stratified"))
                    and id(node) not in allowed]
    assert not spelled, f"scheme tokens read outside folds: {spelled}"


def _catches_value_error(handler):
    caught = handler.type
    names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
    return caught is None or any(isinstance(n, ast.Name) and n.id in (
        "ValueError", "Exception", "BaseException") for n in names)


def test_only_the_cell_vocabulary_turns_text_into_numbers():
    """``data.parser`` is the one place that converts text with ``int`` or
    ``float`` and turns the ValueError into a message, so no other
    function of src/skillseq calls ``int(`` or ``float(`` inside a
    ``try`` that catches ValueError.  ``data._parse_block`` and
    ``explain.read_cams_csv`` are fast paths that hand a fault to
    ``data.read_row``."""
    allowed = {"data.parser", "data._parse_block", "explain.read_cams_csv"}
    found = []
    for module, tree in _trees().items():
        for top in tree.body:
            name = f"{module}.{getattr(top, 'name', '')}"
            for node in ast.walk(top):
                if (name in allowed or not isinstance(node, ast.Try)
                        or not any(map(_catches_value_error, node.handlers))):
                    continue
                found += [f"{name}:{call.lineno}" for stmt in node.body
                          for call in ast.walk(stmt) if isinstance(call, ast.Call)
                          and isinstance(call.func, ast.Name) and call.func.id in ("int", "float")]
    assert not found, f"text converted outside data.parser: {found}"
