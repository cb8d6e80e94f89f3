"""Line audit: which executable lines of src/torusorbits no test runs.

Runs the Tier-1 suite under a stdlib ``sys.settrace`` line collector and
prints, per module, the executable lines and the lines that no test ran.
The collector lives in a ``sitecustomize.py`` put first on ``PYTHONPATH``,
so every Python process the tests start (CLI runs, demos, probes) is traced
too.  It exits 1 if the suite fails, if a line that is not on ``ALLOW``
went unrun, or if a line on ``ALLOW`` ran or is gone.

    python bench/lines.py                    # whole suite, about 7 min
    python bench/lines.py tests/test_numfield.py   # pytest arguments

A line is executable when a code object of its module has a line-table
entry for it; a ``def`` or ``class`` header counts in the enclosing scope,
where its statement runs.  The allowlist is keyed by module, innermost
function and the stripped source text, so it survives edits that move lines.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "torusorbits"

# (module, function, source text): reason the line stays unrun
ALLOW = {
    ("forms", "form_to_group",
     'raise InvariantViolation("group bridge identity failed to verify")'):
        "invariant: alpha f0(g x) = f_v(x) holds by the construction of g",
    ("numfield", "NumberField.places",
     'raise PrecisionExhausted("place migrated under refinement")'):
        "invariant: same-index regions at two precisions hold the same root",
    ("strata", "closed_strata", "raise MinimalNotBorel("):
        "invariant: minimal pairs have the empty subset",
    ("strata", "closed_strata",
     'f"minimal pair has non-empty subset {p.subset}")'):
        "the message of the MinimalNotBorel invariant above",
    ("strata", "verify_counts",
     'raise BoundViolated(f"{n_strata} strata exceed the bound {bound}")'):
        "invariant: the paper's bound on the number of strata",
    ("strata", "verify_counts",
     'raise BoundViolated(f"{n_closed} closed strata exceed {closed_bound}")'):
        "invariant: the paper's bound on the number of closed strata",
    ("strata", "verify_counts",
     'raise BoundViolated(f"{s.pair_count} pairs exceed the bound {bound}")'):
        "invariant: pairs number at most the sum of |W/W_S|^2",
}

SITECUSTOMIZE = '''\
import atexit, os, sys, threading
_out = os.environ["LINES_OUT"]
_prefix = os.environ["LINES_PREFIX"]
_seen = set()

def _local(frame, event, arg):
    if event == "line":
        _seen.add((frame.f_code.co_filename, frame.f_lineno))
    return _local

def _global(frame, event, arg):
    if frame.f_code.co_filename.startswith(_prefix):
        _seen.add((frame.f_code.co_filename, frame.f_lineno))
        return _local
    return None

def _dump():
    sys.settrace(None)
    path = os.path.join(_out, "%d-%d.json" % (os.getpid(), id(_seen)))
    with open(path, "w") as fh:
        fh.write(__import__("json").dumps(sorted(_seen)))

atexit.register(_dump)
sys.settrace(_global)
threading.settrace(_global)
'''


def executable_lines(path: Path) -> dict[int, str]:
    """Executable line numbers of a source file, each with the qualified
    name of the innermost code object it belongs to."""
    code = compile(path.read_text(), str(path), "exec")
    owner: dict[int, tuple[int, str]] = {}

    def walk(co: types.CodeType, depth: int, module: bool) -> None:
        for _, _, line in co.co_lines():
            if line is None or (not module and line == co.co_firstlineno):
                continue
            if line not in owner or owner[line][0] < depth:
                owner[line] = (depth, co.co_qualname)
        for const in co.co_consts:
            if isinstance(const, types.CodeType):
                walk(const, depth + 1, False)

    walk(code, 0, True)
    return {line: name for line, (_, name) in owner.items()}


def collect(pytest_args: list[str]) -> tuple[set[tuple[str, int]], int]:
    """Run pytest with every process traced; the lines run and its exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        site = Path(tmp) / "site"
        out = Path(tmp) / "out"
        site.mkdir()
        out.mkdir()
        (site / "sitecustomize.py").write_text(SITECUSTOMIZE)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(site), str(ROOT / "src")]
            + [p for p in [env.get("PYTHONPATH")] if p])
        env["LINES_OUT"] = str(out)
        env["LINES_PREFIX"] = str(PACKAGE) + os.sep
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             *pytest_args], cwd=ROOT, env=env).returncode
        seen: set[tuple[str, int]] = set()
        for dump in out.iterdir():
            seen.update((f, n) for f, n in json.loads(dump.read_text()))
    return seen, code


def main(argv: list[str]) -> int:
    seen, pytest_code = collect(argv)
    total = unrun_count = 0
    bad = []
    used = set()
    print(f"{'module':<12} {'lines':>6} {'unrun':>6}")
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        unrun = sorted(n for n in lines if (str(path), n) not in seen)
        total += len(lines)
        unrun_count += len(unrun)
        print(f"{path.stem:<12} {len(lines):>6} {len(unrun):>6}")
        for n in unrun:
            key = (path.stem, lines[n], source[n - 1].strip())
            if key in ALLOW:
                used.add(key)
            else:
                bad.append(f"{path.name}:{n} {lines[n]}: {key[2]}")
    print(f"{'total':<12} {total:>6} {unrun_count:>6}")
    stale = sorted(set(ALLOW) - used)
    print(f"allowlisted {len(used)} of {len(ALLOW)}")
    for key in stale:
        print("allowlisted but run or gone:", key)
    for line in bad:
        print("unrun:", line)
    if pytest_code:
        print(f"pytest exited {pytest_code}")
    return 1 if bad or stale or pytest_code else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
