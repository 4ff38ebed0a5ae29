"""Mutation catalogue: each bitwise fast path and certificate rule, broken on
purpose in a copy, must fail the tests named for it.

Each row of MUTANTS names a module of src/fintstab, a piece of its source
text that occurs exactly once, the text that replaces it and the tests that
must kill the edit.  For each row the script copies src/, tests/ and
pyproject.toml to a temporary directory, applies that one edit there and
runs the named tests with -x under a time limit, printing how long the
mutant took to be killed.  It exits 1 when a mutant survives or runs out of
time, when its source text no longer matches once, or when the named tests
fail on the unmutated copy, so a refactor of a guarded rule must carry its
mutants along.

Run from anywhere (pytest does not collect this file):

    python tests/mutants.py
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
TIME_LIMIT_S = 60.0   # per pytest run; a mutant not killed by then fails the catalogue
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
          "--hypothesis-profile=mutants"]


class Mutant(NamedTuple):
    name: str
    module: str              # file name under src/fintstab
    source: str              # exact text, found once in the module
    replacement: str
    tests: Tuple[str, ...]   # pytest node ids, relative to the repository root


MUTANTS = (
    # the sliding pass of a settled static run (integrate._cross_sliding)
    Mutant("a -0.0 state takes the sliding pass", "integrate.py",
           "if slides and not np.signbit(states[k]).any():", "if slides:",
           ("tests/test_rest.py::test_a_negative_zero_never_crosses",)),
    Mutant("the pass drops 0.0 + from 0.0 + h*v", "integrate.py",
           "x_new = 0.0 + h * at_rest(start, stop, traj)",
           "x_new = h * at_rest(start, stop, traj)",
           ("tests/test_rest.py",)),
    Mutant("the pass does not pre-zero its rows", "integrate.py",
           "        states[start + 1:stop + 1] = 0.0\n", "",
           ("tests/test_rest.py",)),
    # the rest rule
    Mutant("the rest rule ignores moving gains", "integrate.py",
           "if np.signbit(states[k]).any() or (gains is not None\n"
           "                                       and not (gains[k] == gains[k - 1]).all()):",
           "if np.signbit(states[k]).any():",
           ("tests/test_rest.py::test_moving_gains_keep_a_zero_run_stepping",)),
    Mutant("the rest rule's row margin is +1, not -1", "integrate.py",
           "return math.floor(slope * k - lag_steps) - 1",
           "return math.floor(slope * k - lag_steps) + 1",
           ("tests/test_rest.py::test_a_zero_state_that_still_reads_a_nonzero_row_steps_on",)),
    # the settled network error rule (network._error_rhs)
    Mutant("a -0.0 drive row takes the settled rule", "network.py",
           "if (not any(es) and k not in neg_zero_rows\n", "if (not any(es)\n",
           ("tests/test_coupling.py::test_settled_error_rhs_matches_the_full_rhs",)),
    Mutant("a non-finite gain takes the settled rule", "network.py",
           "\n                and all(map(math.isfinite, (theta1, theta1 * sigma, theta3, theta4)))):",
           "):",
           ("tests/test_coupling.py::test_a_gain_without_a_finite_value_keeps_the_full_rhs",)),
    Mutant("the settled rule drops + 0.0", "network.py",
           "return [d + 0.0 for d in coupling.row(k)]", "return list(coupling.row(k))",
           ("tests/test_coupling.py::test_settled_error_rhs_matches_the_full_rhs",)),
    Mutant("adaptive pinning at model.theta1", "network.py",
           "return _add_pinning(out, es, n, sigma, theta1, theta3)",
           "return _add_pinning(out, es, n, sigma, model.theta1, theta3)",
           ("tests/test_coupling.py::test_an_adaptive_error_rhs_is_the_static_one_at_the_hook_gains",)),
    # the scalar certificate (conditions.check_scalar_theorem, cli)
    Mutant("the 1-/inf-norm delayed term at c2 = 0", "conditions.py",
           "delay_term = ac2 * w * (1.0 + eta) if ac2 else 0.0",
           "delay_term = ac2 * w * (1.0 + eta)",
           ("tests/test_conditions.py::test_infinite_eta",)),
    Mutant("the 1-norm weight w = 1", "conditions.py",
           'w = m if norm == "one" else 1', "w = 1",
           ("tests/test_conditions.py::test_one_norm_settling_margin_carries_m",)),
    Mutant("the 1-/inf-norm delayed term reassociated", "conditions.py",
           "delay_term = ac2 * w * (1.0 + eta) if ac2 else 0.0",
           "delay_term = ac2 * (w * (1.0 + eta)) if ac2 else 0.0",
           ("tests/test_conditions.py::"
            "test_one_and_inf_norm_reports_are_their_separate_formulas_bitwise",)),
    Mutant("an infinite eta read as 1e300", "delays.py",
           "return rate.param, math.inf", "return rate.param, 1e300",
           ("tests/test_delays.py::test_asymptotics_incompatible_pair",)),
    Mutant("check certifies an adaptive config", "cli.py",
           'if require and (cfg.adaptive["enabled"] or not any(r.feasible for r in reports)):',
           "if require and not any(r.feasible for r in reports):",
           ("tests/test_cli.py::test_check_and_simulate_answer_require_feasible_alike",)),
    Mutant("an adaptive config gets a static report", "cli.py",
           '    if cfg.adaptive["enabled"]:\n        return None\n    try:', "    try:",
           ("tests/test_cli.py::test_simulate_refuses_a_run_without_a_certificate_before_it",)),
)


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(tree: Path, tests) -> Tuple[Optional[int], float, str]:
    """(exit code, seconds, output tail) of the tests run in `tree`; exit code
    None when the run outlasts TIME_LIMIT_S."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(PYTEST + list(tests), cwd=tree, capture_output=True,
                              text=True, timeout=TIME_LIMIT_S,
                              env=dict(os.environ, PYTHONPATH=str(tree / "src")))
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - start, ""
    tail = "\n".join((proc.stdout + proc.stderr).strip().splitlines()[-5:])
    return proc.returncode, time.perf_counter() - start, tail


def _apply(tree: Path, mutant: Mutant) -> str:
    """Apply the mutant's one edit to `tree`; an error message when its source
    text does not occur exactly once, else ''."""
    path = tree / "src" / "fintstab" / mutant.module
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.source)
    if count != 1:
        return f"source text found {count} times in {mutant.module}"
    path.write_text(text.replace(mutant.source, mutant.replacement), encoding="utf-8")
    return ""


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory(prefix="fintstab-mutants-") as tmp:
        base = Path(tmp) / "base"
        _copy_tree(base)
        named = sorted({t for m in MUTANTS for t in m.tests})
        code, secs, tail = _pytest(base, named)
        print(f"unmutated: exit {code} in {secs:.1f} s")
        if code != 0:
            print(tail)
            return 1
        for i, mutant in enumerate(MUTANTS):
            tree = Path(tmp) / f"m{i}"
            _copy_tree(tree)
            error = _apply(tree, mutant)
            if not error:
                code, secs, tail = _pytest(tree, mutant.tests)
                if code is None:
                    error = f"not killed within {TIME_LIMIT_S:g} s"
                elif code == 0:
                    error = "survived"
                elif code != 1:
                    error = f"pytest exit {code}, not a test failure:\n{tail}"
            shutil.rmtree(tree)
            if error:
                failures.append(mutant.name)
                print(f"FAIL {mutant.name}: {error}")
            else:
                print(f"killed in {secs:5.1f} s: {mutant.name}")
    print(f"{len(MUTANTS) - len(failures)} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
