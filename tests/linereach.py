"""Which statements of ``src/skillseq`` does the test suite reach?

Run by hand from the repository root; pytest does not collect this file
(it is not named ``test_*.py``)::

    python tests/linereach.py                  # the whole suite
    python tests/linereach.py tests/test_trust.py -k report

It runs pytest in this process under a ``sys.settrace`` line recorder
and prints, per module, the line of each statement that no test reached
(an ``r`` marks a ``raise``) and of each lambda that no test called
(marked ``L``), then the totals.  Lines are recorded per code object, so
a statement counts as reached only when the function, class body or
module that runs it reaches its line: the body of a one-line ``def`` or
a lambda is reported on its own even when it shares its line with a
statement that ran.  A code object is keyed on its name, its first line
and its order among the code objects of its parent that share both, so
each of two lambdas on one line is reported on its own; the recorder
finds a running code object's key by compiling its module afresh and
matching the code object there.  Python subprocesses that
the tests start (``python -m skillseq ...``) record too: the tool points
``PYTHONUSERBASE`` at a scratch directory whose ``usercustomize.py``
starts the same recorder, which holds even for a child whose
``PYTHONPATH`` a test sets from scratch.  Process-pool workers forked by
``--jobs`` keep recording until they exit.  ``tests/test_cost_counters.py``
is left out, since it counts Python calls and a trace hook changes them.
The property tests draw their examples from ``--hypothesis-seed=0``
unless the arguments name another seed, so that two runs of the same
code report the same statements.  Standard library only.
"""

from __future__ import annotations

import ast
import os
import sys
import sysconfig
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "skillseq"


def _scopes(module):
    """``{code: key}`` for the compiled ``module`` and every code object
    in it.  A key is the code's name, its first line (a decorated
    function's or class's first decorator) and its order among the
    constants of its parent code that share both: 0, but for the second
    and later lambdas on one line."""
    keys = {module: (module.co_name, module.co_firstlineno, 0)}
    todo = [module]
    while todo:
        code = todo.pop()
        count = {}
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                name = const.co_name, const.co_firstlineno
                count[name] = count.get(name, -1) + 1
                keys[const] = (*name, count[name])
                todo.append(const)
    return keys


def _compiled(path):
    """The module at ``path`` compiled as an import compiles it (without
    this file's ``__future__`` flags), so that its code objects compare
    equal to the imported ones."""
    return compile(Path(path).read_text(encoding="utf-8"), str(path), "exec",
                   dont_inherit=True)


def install(package, out_dir):
    """Record every line run in files under ``package`` in this process
    (and its forked children), with the code object that ran it; each
    process appends its lines to ``<out_dir>/<pid>.lines`` when it exits.
    Returns the dump function."""
    lines = set()
    modules = {}    # file -> its _scopes
    known = {}      # id(code) -> (code, key); holding the code keeps its id its own

    def scope(code):
        entry = known.get(id(code))
        if entry is None:
            name = code.co_filename
            if name not in modules:
                modules[name] = _scopes(_compiled(name))
            key = modules[name].get(code, (code.co_name, code.co_firstlineno, -1))
            entry = known[id(code)] = code, key
        return entry[1]

    def local(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, *scope(frame.f_code), frame.f_lineno))
        return local

    def trace(frame, event, arg):
        if frame.f_code.co_filename.startswith(package):
            lines.add((frame.f_code.co_filename, *scope(frame.f_code), frame.f_lineno))
            return local
        return None

    def dump():
        if not lines:
            return
        with open(os.path.join(out_dir, f"{os.getpid()}.lines"), "a",
                  encoding="utf-8") as fh:
            fh.writelines("\t".join(map(str, row)) + "\n" for row in lines)
        lines.clear()

    def after_fork():
        # A forked pool worker leaves through os._exit, which skips
        # atexit; multiprocessing runs its finalizers before that.
        lines.clear()
        if "multiprocessing.util" in sys.modules:
            mp_util = sys.modules["multiprocessing.util"]
            mp_util.register_after_fork(
                after_fork, lambda _: mp_util.Finalize(None, dump, exitpriority=100))

    import atexit
    atexit.register(dump)
    os.register_at_fork(after_in_child=after_fork)
    threading.settrace(trace)
    sys.settrace(trace)
    return dump


def _first_line(node):
    decorators = getattr(node, "decorator_list", None)
    return min(d.lineno for d in decorators) if decorators else node.lineno


def statements(path):
    """What of one module a test can reach: ``{(scope, line): mark}`` of
    each statement that compiles to code in the code object that runs it
    (``scope``, see ``_scopes``; docstrings, ``global`` and the like have
    no line to reach), with ``mark`` ``"r"`` for a ``raise`` and ``""``
    otherwise, and of each lambda, keyed on its own code object and first
    line, with ``mark`` ``"L"``.  The AST gives a lambda its order among
    the lambdas of its line in the same enclosing scope."""
    module = _compiled(path)
    keys = _scopes(module)
    code_lines = {(key, line) for code, key in keys.items()
                  for _, _, line in code.co_lines() if line}
    scopes = set(keys.values())
    found = {}
    count = {}

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                                  ast.Lambda)):
                name = (("<lambda>", child.lineno) if isinstance(child, ast.Lambda)
                        else (child.name, _first_line(child)))
                count[scope, name] = count.get((scope, name), -1) + 1
                inner = (*name, count[scope, name])
                if isinstance(child, ast.Lambda):
                    found[inner, child.lineno] = "L"
            if inner not in scopes:
                raise AssertionError(f"{path}: no code object {inner}")
            if isinstance(child, ast.stmt) and not (
                    isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant)
                    and isinstance(child.value.value, str)):
                line = _first_line(child)
                if (scope, line) in code_lines:
                    found[scope, line] = "r" if isinstance(child, ast.Raise) else ""
            walk(child, inner)

    walk(ast.parse(path.read_text(encoding="utf-8")), keys[module])
    return found


def read_lines(out_dir):
    """The recorded ``(file, scope, line)`` rows, and the ``(file,
    scope)`` of every code object entered."""
    reached, entered = set(), set()
    for part in Path(out_dir).glob("*.lines"):
        for row in part.read_text(encoding="utf-8").splitlines():
            name, code, first, order, line = row.split("\t")
            scope = code, int(first), int(order)
            reached.add((name, scope, int(line)))
            entered.add((name, scope))
    return reached, entered


def report(reached, entered):
    """Print the unreached statements and lambdas of each module, then
    the totals."""
    totals = {"": 0, "r": 0, "L": 0}
    for path in sorted(PACKAGE.glob("*.py")):
        name = str(path)
        missed = sorted((line, mark) for (scope, line), mark in statements(path).items()
                        if ((name, scope) not in entered if mark == "L"
                            else (name, scope, line) not in reached))
        if missed:
            count = {m: sum(mark == m for _, mark in missed) for m in totals}
            print(f"{path.name}: {len(missed) - count['L']} unreached ({count['r']} raise), "
                  f"{count['L']} lambda: " + ", ".join(f"{n}{m}" for n, m in missed))
            for m in totals:
                totals[m] += count[m]
    print(f"unreached statements: {totals[''] + totals['r']}")
    print(f"unreached raise statements: {totals['r']}")
    print(f"unreached lambdas: {totals['L']}")


def main(argv):
    import pytest

    with tempfile.TemporaryDirectory(prefix="linereach-") as tmp:
        out_dir = os.path.join(tmp, "lines")
        os.mkdir(out_dir)
        user_site = Path(sysconfig.get_path("purelib", f"{os.name}_user",
                                            vars={"userbase": tmp}))
        user_site.mkdir(parents=True)
        (user_site / "usercustomize.py").write_text(
            f"import sys\nsys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            f"import linereach\nlinereach.install({str(PACKAGE)!r}, {out_dir!r})\n"
            "del sys.path[0]\n", encoding="utf-8")
        os.environ["PYTHONUSERBASE"] = tmp
        dump = install(str(PACKAGE), out_dir)
        os.chdir(ROOT)
        seeded = any(a.startswith("--hypothesis-seed") for a in argv)
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            "--ignore=tests/test_cost_counters.py",
                            *([] if seeded else ["--hypothesis-seed=0"]), *argv])
        sys.settrace(None)
        threading.settrace(None)
        dump()
        print(f"pytest exit code: {int(code)}")
        report(*read_lines(out_dir))
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
