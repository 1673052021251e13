"""Compare the working tree's solver with a parent revision, step by step.

The parent's ``src`` is extracted with ``git archive`` into a temporary
directory, and each side runs in its own process with one BLAS thread,
importing its own ``src``.  Each side makes the same runs:

- two-layer n=24 (40 steps) and n=60 (20 steps), sinusoidal n=24 (40 steps)
  and n=40 (20 steps), each through ``scheme.run`` from ``build_setup``;
- two-layer n=24 (40 steps of tau = 0.1) with the Dirichlet data ``(1 +
  t)`` times the initial profile, so that the feet clamped on the inlet
  read data that changes in time;
- ``verification.run_eoc([8, 16, 32])``, every step of every level.

Per run it prints the steps whose velocity, pressure and record are bitwise
equal, the largest relative change of the velocity and of the pressure (max
norm of the difference over that of the parent's field, maximized over the
steps), and the clamped-feet totals.  Then it byte-compares every file
these commands write, their standard output included, with the seconds on
``simulate``'s ``finished`` line masked::

    simulate two-layer --n 12 --t-final 1.0 --snapshot-every 2
    simulate sinusoidal --n 16 --t-final 2.0 --snapshot-every 1
    eoc --n-list 4,8
    check

Run it from anywhere::

    python tests/compare_parent.py [--rev HEAD~1] [--readme N]

``--rev`` names the parent; the default ``HEAD~1`` is the parent of a
committed change, and ``HEAD`` compares uncommitted work with its base.
The exit status is 0 when every step and every file is equal, else 1.

``--readme N`` times the two README runs instead, ``simulate two-layer --n
120`` and ``simulate sinusoidal --n 300`` at their default final time, as
N interleaved parent/child pairs (the side that goes first alternates), and
prints one JSON document: per run and side, each repetition's ``run_s``
(the ``run`` call, the CLI's observer and a hashing one included), its
``ru_maxrss`` (kB), its steps, zero-iteration steps, LU solves and
factorizations, its bitwise repeats and the steps fixed by their inputs
(see :func:`repeat_counts`), and the summary of :func:`readme_summary`.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import pickle
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
# name -> (case, n, steps, tau (None: the cell width), whether the Dirichlet
# data are (1 + t) times the initial profile instead of the profile); the
# MMS study is the run "run_eoc".  The time-dependent run takes tau = 0.1,
# not its cell width 0.125, so that a step's time k tau less m tau differs
# from (k - m) tau in the last bits
CASE_RUNS = {
    "two-layer n=24": ("two-layer", 24, 40, None, False),
    "two-layer n=60": ("two-layer", 60, 20, None, False),
    "sinusoidal n=24": ("sinusoidal", 24, 40, None, False),
    "sinusoidal n=40": ("sinusoidal", 40, 20, None, False),
    "two-layer n=24, data (1 + t) u0": ("two-layer", 24, 40, 0.1, True),
}
EOC_LEVELS = [8, 16, 32]
CLI_COMMANDS = {
    "simulate-two-layer": ["simulate", "two-layer", "--n", "12",
                           "--t-final", "1.0", "--snapshot-every", "2"],
    "simulate-sinusoidal": ["simulate", "sinusoidal", "--n", "16",
                            "--t-final", "2.0", "--snapshot-every", "1"],
    "eoc-4-8": ["eoc", "--n-list", "4,8"],
    "check": ["check"],
}
README_RUNS = {
    "two-layer n=120": ["simulate", "two-layer", "--n", "120"],
    "sinusoidal n=300": ["simulate", "sinusoidal", "--n", "300"],
}
README_COUNTS = ("steps", "zero_iteration_steps", "lu_solves",
                 "factorizations", "bitwise_repeats", "repeats_from",
                 "fixed_by_inputs", "fixed_from")
STDOUT = "stdout.txt"
FINISHED = re.compile(rb"^(finished \d+ steps in )[0-9.]+( s;)", re.M)
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


# -- comparing ----------------------------------------------------------------

def record_key(record: dict) -> str:
    """A step record as text whose equality is bitwise equality: ``repr``
    round-trips floats and tells ``-0.0`` from ``0.0``."""
    return repr(sorted(record.items()))


def _relative_change(parent: np.ndarray, child: np.ndarray) -> float:
    scale = np.abs(parent).max(initial=0.0)
    change = np.abs(child - parent).max(initial=0.0)
    return float(change / scale) if scale > 0.0 else float(change)


def compare_steps(parent: list[dict], child: list[dict]) -> dict:
    """Summary of two runs' steps, each a dict with the velocity ``u`` and
    pressure ``p`` coefficients and the ``record``.

    Returns the step counts, the number of steps, paired in order, whose
    ``u``, ``p`` and record are all bitwise equal, the largest relative
    change of ``u`` and of ``p`` over the pairs (``inf`` where their sizes
    differ), and each side's clamped-feet total.
    """
    equal, worst = 0, {"u": 0.0, "p": 0.0}
    for a, b in zip(parent, child):
        equal += (a["u"].tobytes() == b["u"].tobytes()
                  and a["p"].tobytes() == b["p"].tobytes()
                  and record_key(a["record"]) == record_key(b["record"]))
        for key in worst:
            change = (_relative_change(a[key], b[key])
                      if a[key].shape == b[key].shape else float("inf"))
            worst[key] = max(worst[key], change)
    return {"steps": (len(parent), len(child)), "equal": equal,
            "rel_u": worst["u"], "rel_p": worst["p"],
            "clamped": tuple(sum(s["record"].get("clamped_feet", 0)
                                 for s in steps)
                             for steps in (parent, child))}


def runs_agree(summary: dict) -> bool:
    """Whether the runs took the same steps and all are bitwise equal."""
    n_parent, n_child = summary["steps"]
    return n_parent == n_child == summary["equal"]


def compare_trees(parent: Path, child: Path) -> dict:
    """``{relative path: "identical" | "differs" | "only in parent" |
    "only in child"}`` over every file below the two directories."""
    def files(root):
        return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}

    mine, theirs = files(child), files(parent)
    out = {}
    for rel in sorted(mine | theirs):
        if rel not in mine:
            out[str(rel)] = "only in parent"
        elif rel not in theirs:
            out[str(rel)] = "only in child"
        else:
            same = (parent / rel).read_bytes() == (child / rel).read_bytes()
            out[str(rel)] = "identical" if same else "differs"
    return out


def mask_seconds(text: bytes) -> bytes:
    """Standard output with the seconds on the ``finished`` line masked."""
    return FINISHED.sub(rb"\1*\2", text)


def format_summary(name: str, summary: dict) -> str:
    n_parent, n_child = summary["steps"]
    steps = (f"{summary['equal']}/{n_child}" if n_parent == n_child
             else f"{summary['equal']} of {n_parent} (parent) / {n_child}")
    return (f"{name}: {steps} steps bitwise equal (u, p, record); max "
            f"relative change u {summary['rel_u']:.3g}, p "
            f"{summary['rel_p']:.3g}; clamped feet {summary['clamped'][0]} "
            f"/ {summary['clamped'][1]}")


def repeat_counts(keys: list) -> dict:
    """The repeats of a run from the keys of its steps' results in step
    order, step k's at ``keys[k - 1]``: ``bitwise_repeats``, the steps whose
    result equals the step before's, and ``fixed_by_inputs``, the steps
    whose four results before are all equal, so that the step's history
    fields, the solver's past solutions and its held LU repeat those of the
    step before (ROADMAP item 3); each with its first step, ``repeats_from``
    and ``fixed_from`` (``None`` when there is none)."""
    repeats = [k for k in range(2, len(keys) + 1)
               if keys[k - 1] == keys[k - 2]]
    fixed = [k for k in range(5, len(keys) + 1)
             if len(set(keys[k - 5:k - 1])) == 1]
    return {"bitwise_repeats": len(repeats),
            "repeats_from": repeats[0] if repeats else None,
            "fixed_by_inputs": len(fixed),
            "fixed_from": fixed[0] if fixed else None}


def readme_summary(parent: list[dict], child: list[dict]) -> dict:
    """Summary of one README run's pairs, each side's repetitions in pair
    order: the median ``run_s`` of each side, the median of the pairs'
    ratios child over parent and the pairs in which the child was faster,
    the largest ``ru_maxrss`` of each side, each count of
    ``README_COUNTS`` as ``[parent, child]`` (a side's list of values when
    its repetitions differ), and the steps of the first repetitions whose
    results (``keys``) are bitwise equal on both sides."""
    ratios = [c["run_s"] / p["run_s"] for p, c in zip(parent, child)]

    def one(values):
        return values[0] if len(set(values)) == 1 else values

    return {
        "pairs": len(ratios),
        "run_s_median": [statistics.median(r["run_s"] for r in side)
                         for side in (parent, child)],
        "ratio_median": statistics.median(ratios),
        "child_faster": sum(r < 1.0 for r in ratios),
        "ru_maxrss_max": [max(r["ru_maxrss"] for r in side)
                          for side in (parent, child)],
        "counts": {key: [one([r[key] for r in side])
                         for side in (parent, child)]
                   for key in README_COUNTS},
        "bitwise_equal_steps": sum(
            a == b for a, b in zip(parent[0]["keys"], child[0]["keys"]))}


# -- one side -----------------------------------------------------------------

def _collect(steps: list):
    def observer(k, t, u, p, diag):
        steps.append({"u": u.coefficients.copy(), "p": p.coefficients.copy(),
                      "record": dict(diag)})
    return observer


def _import_from(src: Path):
    import porousflow

    if Path(porousflow.__file__).resolve().parent.parent != src.resolve():
        raise RuntimeError(f"porousflow imported from {porousflow.__file__}, "
                           f"not from {src}")


def side_runs(src: Path) -> dict:
    """Every step of the runs in ``CASE_RUNS`` and of the MMS study, made
    with the ``porousflow`` found under ``src``."""
    _import_from(src)
    from porousflow import cases, scheme, verification

    out = {}
    for name, (case_name, n, steps, tau, grows) in CASE_RUNS.items():
        case = cases.get_case(case_name)
        tau = tau or case.nominal_h(n)
        setup = cases.build_setup(case, n, tau, (steps + 0.5) * tau)[2]
        if grows:
            setup = scheme.ProblemSetup(
                ctx=setup.ctx, u_initial=case.u_initial,
                dirichlet=lambda p, t, u0=case.u_initial: (1.0 + t) * u0(p),
                tau=setup.tau, t_final=setup.t_final)
        out[name] = []
        scheme.run(setup, [_collect(out[name])])
    out["run_eoc"] = []
    run = verification.run

    def collecting_run(setup, observers=()):
        return run(setup, [*observers, _collect(out["run_eoc"])])

    verification.run = collecting_run
    verification.run_eoc(EOC_LEVELS)
    return out


class _CountingLU:
    """A factorization whose ``solve`` calls are counted in ``counts``."""

    def __init__(self, lu, counts: dict):
        self._lu, self._counts = lu, counts

    def solve(self, *args, **kwargs):
        self._counts["lu_solves"] += 1
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def readme_run(src: Path, argv: list[str], out_dir: Path) -> dict:
    """One README run through the CLI, made with the ``porousflow`` found
    under ``src``: its ``run_s``, ``ru_maxrss``, the counts of
    ``README_COUNTS`` and the ``keys`` (SHA-256) of its steps' results."""
    _import_from(src)
    from porousflow import cli, saddle

    counts = {"lu_solves": 0, "factorizations": 0}
    splu = saddle.splu

    def counting_splu(*args, **kwargs):
        counts["factorizations"] += 1
        return _CountingLU(splu(*args, **kwargs), counts)

    saddle.splu = counting_splu
    keys, iterations, timed = [], [], {}
    run = cli.run

    def observer(k, t, u, p, diag):
        digest = hashlib.sha256(np.ascontiguousarray(u.coefficients))
        digest.update(np.ascontiguousarray(p.coefficients))
        keys.append(digest.hexdigest())
        iterations.append(diag["krylov_iterations"])

    def timed_run(setup, observers=()):
        t0 = time.perf_counter()
        run(setup, [*observers, observer])
        timed["run_s"] = time.perf_counter() - t0

    cli.run = timed_run
    if cli.main([*argv, "--out-dir", str(out_dir)]) != 0:
        raise RuntimeError(f"{' '.join(argv)} failed")
    return {"run_s": timed["run_s"],
            "ru_maxrss": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "steps": len(keys),
            "zero_iteration_steps": iterations.count(0), **counts,
            **repeat_counts(keys), "keys": keys}


def _side_env(src: Path) -> dict:
    return {**os.environ, **SINGLE_THREAD, "PYTHONPATH": str(src)}


def run_side(src: Path, work: Path) -> dict:
    """The runs of one side in a child process, and its CLI outputs written
    below ``work``, one directory per command."""
    dump = work / "steps.pickle"
    subprocess.run([sys.executable, __file__, "--worker", str(src),
                    str(dump)], env=_side_env(src), check=True)
    for name, argv in CLI_COMMANDS.items():
        cwd = work / name
        cwd.mkdir()
        extra = [] if name == "check" else ["--out-dir", "out"]
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from porousflow.cli import "
             "main; sys.exit(main(sys.argv[1:]))", *argv, *extra],
            env=_side_env(src), cwd=cwd, stdout=subprocess.PIPE, check=True)
        (cwd / STDOUT).write_bytes(mask_seconds(done.stdout))
    # pickles written by this script's own worker just above
    with open(dump, "rb") as fh:
        return pickle.load(fh)


def readme_pairs(sides: dict, pairs: int, tmp: Path) -> dict:
    """The README runs as ``pairs`` interleaved parent/child pairs, each
    run in a child process with the side's ``src``."""
    results = {name: {"parent": [], "child": []} for name in README_RUNS}
    for i in range(pairs):
        order = ("parent", "child") if i % 2 == 0 else ("child", "parent")
        for name in README_RUNS:
            for side in order:
                print(f"pair {i + 1}/{pairs}: {name}, {side}",
                      file=sys.stderr, flush=True)
                dump, out = tmp / "readme.json", tmp / "readme-out"
                subprocess.run(
                    [sys.executable, __file__, "--readme-worker",
                     str(sides[side]), str(dump), str(out), name],
                    env=_side_env(sides[side]), stdout=subprocess.DEVNULL,
                    check=True)
                results[name][side].append(json.loads(dump.read_text()))
                shutil.rmtree(out)
    return {name: {"argv": README_RUNS[name],
                   "summary": readme_summary(runs["parent"], runs["child"]),
                   **{side: [{k: v for k, v in r.items() if k != "keys"}
                             for r in runs[side]] for side in runs}}
            for name, runs in results.items()}


def compare_runs(sides: dict, tmp: Path, rev: str) -> bool:
    """Make and compare every step and CLI file of both sides; prints the
    comparison and says whether everything is equal."""
    steps = {}
    for side, src in sides.items():
        (tmp / side).mkdir()
        steps[side] = run_side(src, tmp / side)
    ok = True
    print(f"working tree against {rev}:")
    for name in [*CASE_RUNS, "run_eoc"]:
        summary = compare_steps(steps["parent"][name], steps["child"][name])
        ok &= runs_agree(summary)
        print(format_summary(name, summary))
    for name in CLI_COMMANDS:
        files = compare_trees(tmp / "parent" / name, tmp / "child" / name)
        differing = {f: s for f, s in files.items() if s != "identical"}
        ok &= not differing
        print(f"{name}: {len(files) - len(differing)} of {len(files)} "
              f"files byte-identical"
              + "".join(f"\n  {f}: {s}" for f, s in differing.items()))
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rev", default="HEAD~1",
                        help="the parent revision (default HEAD~1)")
    parser.add_argument("--readme", type=int, metavar="N",
                        help="time the README runs as N interleaved "
                             "parent/child pairs and print JSON")
    parser.add_argument("--worker", nargs=2, metavar=("SRC", "OUT"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--readme-worker", nargs=4,
                        metavar=("SRC", "OUT", "OUT_DIR", "RUN"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        src, dump = map(Path, args.worker)
        with open(dump, "wb") as fh:
            pickle.dump(side_runs(src), fh)
        return 0
    if args.readme_worker:
        src, dump, out, name = args.readme_worker
        Path(dump).write_text(json.dumps(
            readme_run(Path(src), README_RUNS[name], Path(out))))
        return 0
    if args.readme is not None and args.readme < 1:
        parser.error("--readme takes at least one pair")

    with tempfile.TemporaryDirectory(prefix="compare-parent-") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(
            ["git", "-C", str(REPO), "archive", "--format=tar", args.rev,
             "src"], stdout=subprocess.PIPE, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "checkout", filter="data")
        sides = {"parent": tmp / "checkout" / "src", "child": REPO / "src"}
        if args.readme is None:
            return 0 if compare_runs(sides, tmp, args.rev) else 1
        print(json.dumps({"rev": args.rev, "pairs": args.readme,
                          "runs": readme_pairs(sides, args.readme, tmp)},
                         indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
