"""Mutation gauntlet: small faults in src/ that the tests must catch.

    python tests/mutants.py

Run from the root of a checkout.  For each entry the script copies src/ to a
temporary directory, replaces the entry's snippet in its module (the snippet
must occur there exactly once), and runs the entry's test files against the
copy with ``pytest -x -q -p no:cacheprovider``, one mutant at a time.  The
entry is killed when that run fails.  The unmutated copy must pass the same
files first, so that a failure comes from the mutant.  An entry whose
mutated module does not compile is not applied.  The script exits 1 if any
entry survives or cannot be applied.

Standard library only.  Tier-1 does not collect this file: its name does
not start with ``test_``.  Never drop an entry to get a green run; an entry
that proves equivalent to the original is replaced by a stronger one.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    module: str  # path under src/
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # paths under the root of the checkout


ENGINE = "memwalk/engine.py"
ANALYSIS = "memwalk/analysis.py"
EXPERIMENTS = "memwalk/experiments.py"
FLOAT_REPR = "memwalk/_float_repr.py"

MUTANTS = (
    Mutant(
        "start-norm-bound-x10",
        ENGINE,
        "if not abs(norm - 1.0) <= 100 * UNITARY_ATOL:",
        "if not abs(norm - 1.0) <= 1000 * UNITARY_ATOL:",
        ("tests/test_engine.py",),
    ),
    Mutant(
        "recycled-oracle-norm-bound-x10",
        ENGINE,
        "        psi[idx] += amp\n"
        "    if abs(np.vdot(psi, psi).real - 1.0) > 100 * UNITARY_ATOL:",
        "        psi[idx] += amp\n"
        "    if abs(np.vdot(psi, psi).real - 1.0) > 1000 * UNITARY_ATOL:",
        ("tests/test_engine.py",),
    ),
    Mutant(
        "reflect-transmit-oracle-norm-bound-x10",
        ENGINE,
        "        psi[_window_index(x0, window), r, 0 if label == 1 else 1] += amp\n"
        "    if abs(np.vdot(psi, psi).real - 1.0) > 100 * UNITARY_ATOL:",
        "        psi[_window_index(x0, window), r, 0 if label == 1 else 1] += amp\n"
        "    if abs(np.vdot(psi, psi).real - 1.0) > 1000 * UNITARY_ATOL:",
        ("tests/test_engine.py",),
    ),
    Mutant(
        "window-check-one-step-short",
        ENGINE,
        "    if reach > half - 1:",
        "    if reach > half:",
        ("tests/test_engine.py",),
    ),
    Mutant(
        "state-shape-unchecked",
        ENGINE,
        "        if amps.shape != expected:\n"
        '            raise ValidationError(f"amplitude array shape {amps.shape},'
        ' expected {expected}")\n',
        "",
        ("tests/test_engine.py",),
    ),
    Mutant(
        "occupancy-strict",
        ANALYSIS,
        "np.count_nonzero(dist.probs >= 1.0 / n_range)",
        "np.count_nonzero(dist.probs > 1.0 / n_range)",
        ("tests/test_analysis.py",),
    ),
    Mutant(
        "variance-signed-mean-square",
        ANALYSIS,
        "return float(np.dot(dist.probs, x * x)) - mean**2",
        "return float(np.dot(dist.probs, x * x)) - mean * abs(mean)",
        ("tests/test_analysis.py",),
    ),
    Mutant(
        "variance-second-moment-signed",
        ANALYSIS,
        "np.dot(dist.probs, x * x)",
        "np.dot(dist.probs, x * np.abs(x))",
        ("tests/test_analysis.py",),
    ),
    Mutant(
        "census-host-unchecked",
        ANALYSIS,
        "    host.center_arcs  # looked up once, here, so that a host without them fails first\n",
        "",
        ("tests/test_analysis.py",),
    ),
    Mutant(
        "recycled-oracle-roll-reversed",
        ENGINE,
        "enumerate((1, -1))",
        "enumerate((-1, 1))",
        ("tests/test_engine.py",),
    ),
    Mutant(
        "field-roll-reversed",
        ANALYSIS,
        "(a[-shift:], a[:-shift])",
        "(a[shift:], a[:shift])",
        ("tests/test_analysis.py",),
    ),
    Mutant(
        "field-phases-mod-2",
        ANALYSIS,
        "_phase_map(n, b.time % 4)",
        "_phase_map(n, b.time % 2)",
        ("tests/test_analysis.py",),
    ),
    Mutant(
        "census-last-partial-chunk-skipped",
        ANALYSIS,
        "if k == chunk_steps - 1 or t == t_max:",
        "if k == chunk_steps - 1:",
        ("tests/test_analysis.py",),
    ),
    Mutant(
        "csv-final-flush-dropped",
        EXPERIMENTS,
        "    yield write\n    if steps:\n        flush()\n",
        "    yield write\n",
        ("tests/test_experiments.py",),
    ),
    Mutant(
        "csv-mirror-copy-dropped",
        EXPERIMENTS,
        "            if mirrored:\n"
        "                for i, text in zip(indices, texts):\n"
        "                    tails[last - i] = heads[last - i] + text\n",
        "",
        ("tests/test_experiments.py",),
    ),
    Mutant(
        "enumerate-repeat-unchecked",
        EXPERIMENTS,
        "    repeated = _repeated(seeds)\n"
        "    if repeated:\n"
        '        raise ValidationError(f"enumerate seeds repeat: {repeated}")\n',
        "",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "sweep-repeat-unchecked",
        EXPERIMENTS,
        "        repeated = _repeated(items)\n",
        "        repeated = []\n",
        ("tests/test_cli.py",),
    ),
    # The first entry's twin in the lanes loop, r - r10 * 10 >= 5, is left
    # out: at > 5 it is equivalent.  A lane that drops four or more digits
    # lies within its rounding interval's width (a few tens of units at
    # most) of a multiple of 10^4, so the last digit it drops is 0 or 9,
    # never 5.
    Mutant(
        "ryu-round-up-strict",
        FLOAT_REPR,
        "vr - vr10 * 10 >= 5",
        "vr - vr10 * 10 > 5",
        ("tests/test_float_repr.py",),
    ),
    Mutant(
        "ryu-vm-bump-dropped",
        FLOAT_REPR,
        "vr + ((vr == vm) | round_up)",
        "vr + round_up",
        ("tests/test_float_repr.py",),
    ),
    Mutant(
        "ryu-general-case-not-refused",
        FLOAT_REPR,
        "held = (q > 1) & ((q >= 63) | (mv & low_bits != 0))",
        "held = q == q",
        ("tests/test_float_repr.py",),
    ),
    Mutant(
        "exponent-unpadded",
        FLOAT_REPR,
        'b"e-%02d"',
        'b"e-%d"',
        ("tests/test_float_repr.py",),
    ),
    Mutant(
        "shifted-carry-short",
        FLOAT_REPR,
        "(words[k - 1] >> 56)",
        "(words[k - 1] >> 48)",
        ("tests/test_float_repr.py",),
    ),
)


def _pytest(src: Path, tests: tuple[str, ...]) -> int:
    """The exit code of pytest over ``tests`` with memwalk imported from ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL).returncode


def _compiles(text: str, path: Path) -> bool:
    """Whether ``text`` is valid Python: a mutant that breaks the syntax
    fails every test without showing that any test looks at its code."""
    try:
        compile(text, str(path), "exec")
    except SyntaxError:
        return False
    return True


def _copy_src(tmp: str) -> Path:
    src = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def main() -> int:
    files = tuple(sorted({f for m in MUTANTS for f in m.tests}))
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy_src(tmp)
        where = subprocess.run(
            [sys.executable, "-c", "import memwalk; print(memwalk.__file__)"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
        ).stdout.strip()
        if not Path(where).resolve().is_relative_to(src.resolve()):
            print(f"memwalk is imported from {where!r}, not from the copy")
            return 1
        if _pytest(src, files) != 0:
            print(f"the unmutated tree fails {' '.join(files)}")
            return 1
    failed = 0
    for m in MUTANTS:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            src = _copy_src(tmp)
            path = src / m.module
            text = path.read_text()
            count = text.count(m.snippet)
            mutated = text.replace(m.snippet, m.replacement)
            if count != 1:
                verdict = f"NOT APPLIED (the snippet occurs {count} times)"
            elif not _compiles(mutated, path):
                verdict = "NOT APPLIED (the mutated module does not compile)"
            else:
                path.write_text(mutated)
                verdict = "killed" if _pytest(src, m.tests) != 0 else "SURVIVED"
        failed += verdict != "killed"
        print(f"{m.name}: {verdict} ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
