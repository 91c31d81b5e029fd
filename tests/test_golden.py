"""Checked-in digests of the canonical outputs that must stay byte-identical.

``tests/golden.json`` maps each output to the SHA-256 of its bytes and a
short digest of each line, so a mismatch names the first line that moved.
The outputs are the oracle-suite CSV (seed 2024), the default and four-route
ldlr-sweep CSVs (seed 7), the bound-suite and phase-diagram CSVs (seed 1),
``md-count`` JSON and ``ldlr --method md --rational`` JSON on both priors,
``ldlr --method exact`` and ``--method brute`` JSON with ``--rational`` at
the README's example, and the stdout of demos 01, 03, 04 and 06.  None of
them records a wall time or a library version; the suite manifests, which do,
are left out.  Outputs that go through LAPACK eigen paths are left out as
well.  So is the equivalence-suite CSV: its bytes change with the OpenBLAS
kernel (``OPENBLAS_CORETYPE``) across SkylakeX, Haswell, Nehalem and
Prescott.  Demo 01 prints whether its orthonormality deviation is below
1e-12, not the deviation, whose last bits depend on the kernel.  Every output
here gave the same digest under the default kernel, Haswell, Nehalem and
Prescott, and CI runs this file a second time under Prescott.

A change that moves an output by design rewrites the file with

    PYTHONPATH=src python tests/test_golden.py --write

and names the output in ``CHANGES.md``.
"""
import contextlib
import hashlib
import io
import json
import pathlib
import runpy
import sys
import tempfile

from groupsynch.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden.json"
_ROUTES = {"kind": "ldlr-sweep", "seed": 7,
           "params": {"methods": ["exact", "brute", "md", "mc"], "L_grid": [2, 3], "n_grid": [6]}}


def _outputs() -> dict:
    """Each canonical output's bytes, regenerated in this process."""
    texts = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        (tmp / "routes.json").write_text(json.dumps(_ROUTES))
        md = ["--L", "2", "--n", "5", "--D", "4"]
        runs = {
            "oracle-suite.csv": ["suite", "--kind", "oracle-suite", "--seed", "2024", "--csv"],
            "ldlr-sweep.csv": ["suite", "--kind", "ldlr-sweep", "--seed", "7", "--csv"],
            "ldlr-sweep-routes.csv": ["suite", "--config", str(tmp / "routes.json"), "--csv"],
            "bound-suite.csv": ["suite", "--kind", "bound-suite", "--seed", "1", "--csv"],
            "phase-diagram.csv": ["phase-diagram", "--seed", "1", "--out"],
        }
        for method in ("exact", "brute"):      # the README's example
            runs[f"ldlr-{method}-rational.json"] = [
                "ldlr", "--method", method, "--L", "3", "--n", "12", "--lambda", "0.9",
                "--D", "4", "--rational", "--out"]
        for prior in ("circle", "cyclic"):
            runs[f"md-count-{prior}.json"] = ["md-count", "--prior", prior, *md, "--out"]
            runs[f"ldlr-md-rational-{prior}.json"] = [
                "ldlr", "--method", "md", "--prior", prior, *md, "--lambda", "0.9",
                "--rational", "--out"]
        for name, argv in runs.items():
            with contextlib.redirect_stdout(io.StringIO()):     # the suites' summary lines
                assert main(argv + [str(tmp / name)]) == 0, name
            texts[name] = (tmp / name).read_bytes()     # the CSVs end lines in CRLF
    for demo in ("01_groups_and_fourier", "03_synchronization_models", "04_ldlr_routes",
                 "06_phase_diagram"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            runpy.run_path(str(ROOT / "demos" / f"{demo}.py"), run_name="__main__")
        texts[f"demo-{demo[:2]}.txt"] = out.getvalue().encode()
    return texts


def _digest(text: bytes) -> dict:
    return {"sha256": hashlib.sha256(text).hexdigest(),
            "lines": [hashlib.sha256(line).hexdigest()[:12]
                      for line in text.splitlines()]}


def test_canonical_outputs_match_their_digests():
    golden = json.loads(GOLDEN.read_text())
    texts = _outputs()
    assert sorted(texts) == sorted(golden)
    moved = []
    for name, text in texts.items():
        got, want = _digest(text), golden[name]
        if got["sha256"] == want["sha256"]:
            continue
        lines = text.splitlines()
        first = next((i for i, (a, b) in enumerate(zip(got["lines"], want["lines"])) if a != b),
                     min(len(got["lines"]), len(want["lines"])))
        moved.append(f"{name} line {first + 1}: "
                     f"{lines[first].decode() if first < len(lines) else '<end of output>'!r}")
    assert not moved, "outputs moved from their digests:\n" + "\n".join(moved)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    GOLDEN.write_text(json.dumps({name: _digest(text) for name, text in _outputs().items()},
                                 indent=1, sort_keys=True) + "\n")
