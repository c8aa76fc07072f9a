"""Exact stdout and exit code of a fixed set of CLI commands.

`tests/data/cli_golden.json` records, for every command in `CASES`, what
`diagcat.cli.main` prints and returns. A `--group-file` path is relative
to `tests/data`; the weight-stripped GL_2 and GL_3 groups there run the
general (Macaulay) path of `stab`. A refactor that claims identical
output must leave this file unchanged; an intended output change rewrites
it with

    PYTHONPATH=src python tests/test_cli_golden.py --write

and the diff of the data file shows exactly what changed.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from diagcat import axioms, cli

DATA = Path(__file__).resolve().parent / "data" / "cli_golden.json"

CATALOG = (
    "diagonal-torus-gl2", "gm-gl1", "mu2", "mu3", "mu4", "mu5",
    "torus-t-t2-gl2", "trivial-gl1",
)

# catalog groups with their weights stripped, in tests/data/groups
WEIGHT_FREE = ("diagonal-torus-gl2", "torus-t-t2-gl2")

# GL_3 and GL_4 diagonal images with their weights, in tests/data/groups
WEIGHTS_FILES = (
    "weights-gl3-Z-1-3-5-F101", "weights-gl3-Z7-1-2-4-F101",
    "weights-gl3-Z-2-3-5-F101", "weights-gl4-Z-1-2-3-4-F101",
    "weights-gl4-Z5-1-2-3-4-F101", "weights-gl3-Z-1-3-5-Q",
)

CASES = [
    ["model", "inspect", "--field", "F5", "--group", "Z/4", "--json"],
    ["model", "inspect", "--field", "F5", "--group", "Z^2", "--json"],
    ["model", "inspect", "--field", "F5", "--group", "Z/4",
     "--hom", "( {0 1} {2} )", "{2 3}", "--json"],
    ["model", "inspect", "--field", "F5", "--group", "Z/4", "--hom", "0", "{1}", "--json"],
    ["char-group", "--group", "Z/4", "--json"],
    ["char-group", "--group", "Z^2", "--bound", "2", "--json"],
    *(["stab", "defining-degree", "--catalog", c, "--field", k, "--json"]
      for k in ("Q", "F101") for c in CATALOG),
    *(["stab", "degrees-equal", "--catalog", c, "--field", k,
       "--d", "1", "--dprime", "2", "--json"]
      for k in ("Q", "F101") for c in CATALOG),
    *(["stab", "defining-degree", "--group-file", f"groups/{g}-{k}.json", "--json"]
      for k in ("Q", "F101") for g in WEIGHT_FREE),
    *(["stab", "degrees-equal", "--group-file", f"groups/{g}-{k}.json",
       "--d", "1", "--dprime", "2", "--json"]
      for k in ("Q", "F101") for g in WEIGHT_FREE),
    *(["stab", "defining-degree", "--group-file", f"groups/{g}.json",
       "--dmax", "3", "--cap", "4", "--json"]
      for g in WEIGHTS_FILES),
    # `exceeds` needs a definitive refutation at d_max: mu5 over F5 has one;
    # mu2 over F2 (one point) and the weight-stripped GL_3 group do not
    ["stab", "defining-degree", "--catalog", "mu5", "--field", "F5", "--dmax", "1", "--json"],
    ["stab", "defining-degree", "--catalog", "mu2", "--field", "F2", "--dmax", "0", "--json"],
    ["stab", "defining-degree", "--group-file", "groups/gl3-Z-1-3-5-F101.json",
     "--dmax", "3", "--cap", "4", "--json"],
    ["paren", "encode", "--pattern", "((( _ _ _ )( _ ))( _ _ ))", "--json"],
    ["paren", "decode", "--bits", "10 10 10 00 00 00 01 10 00 01 01 10 00 00 01 01",
     "--json"],
    *(["axioms", "check", "--field", k, "--group", g,
       "--max-dim", "2", "--max-len", "2", "--json"]
      for k, g in (("F5", "Z/4"), ("F3", "Z/2"))),
    *(["axioms", "check", "--field", "F5", "--group", "Z/4", "--max-dim", "2",
       "--max-len", "2", "--mutate", name, "--json"]
      for name in axioms.MUTATIONS),
]


def _run(argv):
    args = list(argv)
    if "--group-file" in args:
        at = args.index("--group-file") + 1
        args[at] = str(DATA.parent / args[at])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(args)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


def test_cli_output_matches_golden():
    golden = json.loads(DATA.read_text())
    assert [g["argv"] for g in golden] == CASES
    for want in golden:
        assert _run(want["argv"]) == want


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    DATA.write_text(json.dumps([_run(argv) for argv in CASES], indent=1) + "\n")
