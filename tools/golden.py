"""Golden CLI runs: a fixed list of `python -m grflab.cli` invocations whose
printed record must not change when a change claims to keep every output.

Each run is a fresh process under the caller's environment (so the caller's
PYTHONPATH picks which grflab runs), writing into its own temporary
directory.  For each run this prints the argv, the exit status, stdout and
stderr with the temporary path masked as <out>, and the SHA-256 of every
artifact.  Compare two trees by diffing the output:

    PYTHONPATH=src python tools/golden.py > change.txt
    PYTHONPATH=../parent/src python tools/golden.py > parent.txt
    diff parent.txt change.txt

Standard library only; about 20 s on 2 cores.
"""
from __future__ import annotations

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


def main() -> int:
    # each run starts in its own directory, so a relative PYTHONPATH entry
    # is made absolute against the caller's
    env = dict(os.environ)
    paths = env.get("PYTHONPATH", "").split(os.pathsep)
    env["PYTHONPATH"] = os.pathsep.join(os.path.abspath(p) for p in paths if p)
    for argv in RUNS:
        print(record(argv, env), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
