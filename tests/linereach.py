"""Which statements of ``src/skillseq`` does the test suite reach?

Run by hand from the repository root; pytest does not collect this file
(it is not named ``test_*.py``)::

    python tests/linereach.py                  # the whole suite
    python tests/linereach.py tests/test_trust.py -k report

It runs pytest in this process under a ``sys.settrace`` line recorder
and prints, per module, the line of each statement that no test reached
(an ``r`` marks a ``raise``), then the totals.  Python subprocesses that
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


def install(package, out_dir):
    """Record every line run in files under ``package`` in this process
    (and its forked children); each process appends its lines to
    ``<out_dir>/<pid>.lines`` when it exits.  Returns the dump function."""
    lines = set()

    def local(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        if frame.f_code.co_filename.startswith(package):
            lines.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    def dump():
        if not lines:
            return
        with open(os.path.join(out_dir, f"{os.getpid()}.lines"), "a",
                  encoding="utf-8") as fh:
            fh.writelines(f"{name}\t{line}\n" for name, line in lines)
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


def statements(path):
    """``{line: is_raise}`` of the statements of one module that compile
    to code: docstrings, ``global`` and the like have no line to reach."""
    source = path.read_text(encoding="utf-8")
    code_lines = set()
    todo = [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        code_lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    found = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or (
                isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue
        decorators = getattr(node, "decorator_list", None)
        line = min(d.lineno for d in decorators) if decorators else node.lineno
        if line in code_lines:
            found[line] = isinstance(node, ast.Raise)
    return found


def read_lines(out_dir):
    reached = set()
    for part in Path(out_dir).glob("*.lines"):
        for row in part.read_text(encoding="utf-8").splitlines():
            name, line = row.rsplit("\t", 1)
            reached.add((name, int(line)))
    return reached


def report(reached):
    """Print the unreached statements of each module, then the totals."""
    total = total_raise = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = {line: is_raise for line, is_raise in statements(path).items()
                  if (str(path), line) not in reached}
        if missed:
            listed = ", ".join(f"{n}{'r' if missed[n] else ''}" for n in sorted(missed))
            print(f"{path.name}: {len(missed)} unreached "
                  f"({sum(missed.values())} raise): {listed}")
        total += len(missed)
        total_raise += sum(missed.values())
    print(f"unreached statements: {total}")
    print(f"unreached raise statements: {total_raise}")


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
        report(read_lines(out_dir))
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
