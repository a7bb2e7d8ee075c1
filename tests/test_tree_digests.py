"""The small test config's output tree, file by file, against a committed table.

A rerun of the six stages gives the same bytes on one machine.  This test
builds the tree of ``test_cli.SMALL_CONFIG`` and compares each file's
sha256 with ``small_tree_digests.json``, naming the first file that moved
in the order the stages wrote them.  The table records the environment it
was made in (numpy, scipy, the BLAS, numpy's SIMD extensions, the
machine); in any other the test skips, naming both, since the bytes are
promised only in one.

The tree is built in a child process that imports uqshift before numpy,
so the package's one BLAS thread holds whatever the test process loaded.
After a declared byte change, regenerate the table with

    PYTHONPATH=src python tests/test_tree_digests.py --write
"""

import uqshift  # noqa: F401  first: one BLAS thread, set before numpy loads

import hashlib
import json
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from test_cli import SMALL_CONFIG, _src_env
from uqshift.cli import main

TABLE = Path(__file__).with_name("small_tree_digests.json")
STAGES = ("synth", "split", "train", "uq", "eval", "report")


def environment() -> dict:
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "simd_found": config["SIMD Extensions"]["found"],
        "machine": platform.machine(),
    }


def build_tree(root: Path) -> dict:
    """Run the six stages on SMALL_CONFIG into root/out.  Returns the
    tree digest (sha256 over each file's relative path and bytes, in
    sorted path order) and [file, sha256] for each file in the order the
    manifest lists them, manifest.jsonl last."""
    config, out = root / "run.ini", root / "out"
    config.write_text(SMALL_CONFIG)
    for stage in STAGES:
        assert main([stage, "--config", str(config), "--out", str(out)]) == 0, stage
    lines = [json.loads(line) for line in (out / "manifest.jsonl").read_text().splitlines()]
    written = [rel for line in lines for rel in line["outputs"]] + ["manifest.jsonl"]
    paths = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    tree = hashlib.sha256()
    for rel in paths:
        tree.update(rel.encode() + b"\0" + (out / rel).read_bytes() + b"\0")
    return {"tree_digest": tree.hexdigest(),
            "files": [[rel, hashlib.sha256((out / rel).read_bytes()).hexdigest()]
                      for rel in dict.fromkeys([*written, *paths])]}


def test_small_tree_has_the_recorded_bytes(tmp_path):
    table = json.loads(TABLE.read_text())
    here = environment()
    if table["environment"] != here:
        pytest.skip(f"the digests were recorded in {table['environment']}; this is {here}")
    result = subprocess.run([sys.executable, __file__, "--print", str(tmp_path)],
                            capture_output=True, text=True, env=_src_env())
    assert result.returncode == 0, result.stderr
    built = json.loads(result.stdout.splitlines()[-1])
    files, recorded = dict(built["files"]), dict(table["files"])
    moved = [rel for rel in dict.fromkeys([*files, *recorded])
             if files.get(rel) != recorded.get(rel)]
    assert not moved, f"{moved[0]} moved ({len(moved)} of {len(recorded)} files)"
    assert built["tree_digest"] == table["tree_digest"]


if __name__ == "__main__":
    if sys.argv[1:2] == ["--print"] and len(sys.argv) == 3:
        print(json.dumps(build_tree(Path(sys.argv[2]))))
    elif sys.argv[1:] == ["--write"]:
        with tempfile.TemporaryDirectory() as tmp:
            built = build_tree(Path(tmp))
        TABLE.write_text(json.dumps({"environment": environment(), **built}, indent=1) + "\n")
        print(f"{len(built['files'])} files, tree digest {built['tree_digest']}")
    else:
        sys.exit("usage: PYTHONPATH=src python tests/test_tree_digests.py --write")
