"""Golden CLI runs: a fixed list of `python -m grflab.cli` invocations whose
printed record must not change when a change claims to keep every output.

Each run is a fresh process under the caller's environment (so the caller's
PYTHONPATH picks which grflab runs), writing into its own temporary
directory.  For each run this prints the argv, the exit status, stdout and
stderr with the temporary path masked as <out>, and the SHA-256 of every
artifact.  The first line is a header naming the Python version, the numpy
version and numpy's enabled SIMD dispatch features, as numpy's float64
sin, exp and log can differ by an ulp across them.

The committed record is tools/golden.txt:

    PYTHONPATH=src python tools/golden.py > tools/golden.txt
    PYTHONPATH=src python tools/golden.py --check

--check re-runs the list and compares it with the committed record: exit
0 on a match, 1 with a unified diff on any difference, and 2, naming both
headers, when the header differs (another Python, numpy or SIMD set), in
which case nothing is compared.

Standard library only; 44 runs in 21-22 s on 2 cores.
"""
from __future__ import annotations

import difflib
import hashlib
import os
import subprocess
import sys
import tempfile

_ENTROPY_VARIANTS = (
    (),
    ("--dt", "0"),
    ("--dt", "0", "--t-max", "0.5"),
    ("--t-max", "0.5"),
    ("--T-ref", "1.2"),
    ("--u0", "1e-20"),
)

RUNS = (
    # one cold start of each subcommand, as the benchmark's cli-cold block
    ("cylinder-flow", "--h0sq", "0.5"),
    ("blowup", "--h0sq", "0.3"),
    ("torsion", "--h0sq", "0.5", "--psi0", "12"),
    ("shoot", "--csv", "--r-switch", "0.05"),
    ("soliton-residual", "--soliton", "gaussian"),
    ("entropy", "--h0sq", "0.5", "--dt", "1e-4"),
    ("heat-check", "--soliton", "cylinder"),
    ("hodge-check", "--dim", "3", "--size", "32", "--f-amp", "0.7", "--h-amp", "1.3",
     "--seed", "11"),
    # the entropy sampler on both dt paths
    *(("entropy", "--h0sq", h0sq) + variant
      for h0sq in ("0", "0.5", "1.5") for variant in _ENTROPY_VARIANTS),
    ("entropy", "--lam0", "100", "--T-ref", "200", "--dt", "0"),
    # the reference time falls inside the flow: tau < 0 on the late samples
    ("entropy", "--h0sq", "0.5", "--T-ref", "1.2", "--dt", "0"),
    # the other soliton of each soliton command, and the solver's own steps
    ("soliton-residual", "--soliton", "cylinder"),
    ("heat-check", "--soliton", "gaussian"),
    ("heat-check", "--soliton", "gaussian", "--r-max", "0.05"),
    ("cylinder-flow", "--dt-out", "0"),
    ("soliton-residual", "--soliton", "cylinder", "--r-min", "-3"),
    # a large dt: the cylinder family's radial coefficient 1/tau is far
    # from 1, while the gaussian's stays 1 and only phi and f rescale
    ("heat-check", "--soliton", "cylinder", "--dt", "0.5"),
    ("heat-check", "--soliton", "gaussian", "--dt", "0.5"),
    # a window capped before a reference time that lies inside the flow
    ("entropy", "--h0sq", "0.5", "--T-ref", "1.2", "--t-max", "1.0"),
    # all five identities in 4-d; the smallest cube whose adjointness walk
    # runs on two threads; a two-thread walk on a cube past 64, whose
    # last-axis stencils run 65^2 = 4,225 rows per slab; the closed data
    # family with the refined grid
    ("hodge-check", "--dim", "4", "--size", "16"),
    ("hodge-check", "--dim", "4", "--size", "34", "--identity", "adjointness"),
    ("hodge-check", "--dim", "4", "--size", "65", "--identity", "adjointness"),
    ("hodge-check", "--dim", "3", "--size", "16", "--data", "closed", "--refine"),
    # the resolved config layout
    ("entropy", "--dump-config"),
    # a flow that starts inside the torsion fit's decade fails on one line
    ("torsion", "--lam0", "2e-8", "--h0sq", "0.5", "--fit-points", "2"),
    # a flow that does not collapse: without a reference time the entropy
    # sampler has no tau and fails on one line; with one it runs the
    # derivative check
    ("entropy", "--lam0", "100"),
    ("entropy", "--lam0", "100", "--T-ref", "200"),
)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def record(argv, env) -> str:
    """The printed record of one run of `grflab <argv>` in a fresh process."""
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        out = os.path.join(tmp, "out")
        proc = subprocess.run(
            [sys.executable, "-m", "grflab.cli", *argv, "--out", out],
            capture_output=True, text=True, cwd=tmp, env=env, timeout=120,
        )
        lines = ["$ grflab " + " ".join(argv), f"exit {proc.returncode}"]
        for name, text in (("stdout", proc.stdout), ("stderr", proc.stderr)):
            for line in text.replace(out, "<out>").splitlines():
                lines.append(f"{name}: {line}")
        for root, dirs, files in os.walk(out):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                lines.append(f"sha256 {os.path.relpath(path, out)} {_sha256(path)}")
    return "\n".join(lines)


RECORD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.txt")

_HEADER = """\
import platform
import numpy
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:
    from numpy.core import _multiarray_umath as umath
simd = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
print("# python", platform.python_version(), "numpy", numpy.__version__,
      "simd", " ".join(simd) or "none")
"""


def header(env) -> str:
    """The record's first line, from a fresh process of the runs' Python."""
    proc = subprocess.run([sys.executable, "-c", _HEADER], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    return proc.stdout.strip()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv not in ([], ["--check"]):
        print("usage: golden.py [--check]", file=sys.stderr)
        return 2
    # each run starts in its own directory, so a relative PYTHONPATH entry
    # is made absolute against the caller's
    env = dict(os.environ)
    paths = env.get("PYTHONPATH", "").split(os.pathsep)
    env["PYTHONPATH"] = os.pathsep.join(os.path.abspath(p) for p in paths if p)
    first = header(env)
    if not argv:
        print(first, flush=True)
        for run in RUNS:
            print(record(run, env), flush=True)
        return 0
    with open(RECORD) as fh:
        want = fh.read().splitlines()
    if not want or want[0] != first:
        print("golden: header differs, nothing compared\n  record: %s\n  here:   %s"
              % (want[0] if want else "(empty)", first))
        return 2
    got = [first]
    for run in RUNS:
        got.extend(record(run, env).splitlines())
    diff = list(difflib.unified_diff(want, got, "golden.txt", "this tree", lineterm=""))
    print("\n".join(diff) if diff else "golden: %d runs match" % len(RUNS))
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
