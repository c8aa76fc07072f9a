import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from diagcat import cli
from diagcat import diagrep as dr

SRC = Path(__file__).resolve().parents[1] / "src"
README = Path(__file__).resolve().parents[1] / "README.md"

WORKED_BITS = "10 10 10 00 00 00 01 10 00 01 01 10 00 00 01 01"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _readme_commands():
    """The `diagcat ...` lines of README's "Command line" code block."""
    text = README.read_text().split("## Command line", 1)[1]
    block = text.split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("diagcat ")]


def test_readme_commands_parse():
    """Every documented command parses, so a removed or renamed flag cannot
    stay in the docs."""
    commands = _readme_commands()
    assert len(commands) == 12
    parser = cli.build_parser()
    for line in commands:
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.fn), line


def test_paren_decode_worked_example(capsys):
    code, out, _ = run_cli(capsys, "paren", "decode", "--bits", WORKED_BITS)
    assert code == 0
    assert out.strip() == "(((_ _ _)(_))(_ _))"


def test_paren_encode_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "paren", "encode", "--pattern", "((( _ _ _ )( _ ))( _ _ ))"
    )
    assert code == 0
    assert out.strip() == WORKED_BITS


def test_paren_count(capsys):
    code, out, _ = run_cli(capsys, "paren", "count", "--leaves", "6")
    assert code == 0 and out.strip() == "42"


def test_paren_bad_pattern_exit_2(capsys):
    code, _, err = run_cli(capsys, "paren", "encode", "--pattern", "(( _ ))")
    assert code == 2 and "error" in err


def test_invalid_group_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "model", "inspect", "--field", "Q", "--group", "Banana"
    )
    assert code == 2 and "error" in err


def test_model_inspect_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "model", "inspect", "--field", "F5", "--group", "Z/4",
        "--max-dim", "1", "--max-len", "1", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["count"] == 4  # four characters of Z/4
    assert all(entry["sort"] == [1, 1] for entry in payload["objects"])


def test_model_inspect_infinite_group_fragments(capsys):
    code, out, _ = run_cli(
        capsys,
        "model", "inspect", "--field", "Q", "--group", "Z",
        "--max-dim", "2", "--max-len", "2", "--coord-bound", "1",
        "--limit", "500", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    sorts = {tuple(entry["sort"]) for entry in payload["objects"]}
    # fragments of every sort within the bounds appear
    assert {(1, 1), (1, 2), (2, 1), (2, 2)} <= sorts


def test_model_inspect_hom_blocks(capsys):
    code, out, _ = run_cli(
        capsys,
        "model", "inspect", "--field", "F5", "--group", "Z/4",
        "--hom", "{1 1}", "{1 2}", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 2
    assert len(payload["basis"]) == 2
    assert payload["basis"][0]["blocks"][0]["weight"] == "(1)"
    assert payload["source"]["basis"][0]["weight"] == "(1)"


def test_char_group(capsys):
    code, out, _ = run_cli(capsys, "char-group", "--group", "Z/6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["isomorphism_verified"] is True
    code, out, _ = run_cli(capsys, "char-group", "--group", "Z/1", "--json")
    assert code == 0 and json.loads(out)["elements_checked"] == 1
    code, out, _ = run_cli(capsys, "char-group", "--group", "Z/4 + Z/6", "--json")
    assert code == 0 and json.loads(out)["group"] == "Z/2 + Z/12"


@pytest.mark.parametrize(
    "argv",
    [
        ["char-group", "--group", "Z/0"],
        ["axioms", "check", "--field", "F3", "--group", "Z/0",
         "--max-dim", "1", "--max-len", "1"],
        ["axioms", "check", "--field", "F3", "--group", "Z^2 + Z/0",
         "--max-dim", "1", "--max-len", "1"],
    ],
)
def test_zero_cyclic_summand_exits_2(capsys, argv):
    # Z/0 is Z, not the trivial group; reading it as 0 checked the wrong group
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "Z/0" in err


def test_axioms_check_json_deterministic(capsys):
    args = [
        "axioms", "check", "--field", "F3", "--group", "Z/2",
        "--max-dim", "1", "--max-len", "2", "--json",
    ]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    payload = json.loads(out1)
    assert payload["passed"] == 27


@pytest.mark.parametrize(
    "argv",
    [
        ["axioms", "check", "--field", "F5", "--group", "Z/4",
         "--max-dim", "2", "--max-len", "2", "--json"],
        ["stab", "defining-degree", "--catalog", "torus-t-t2-gl2", "--json"],
        ["axioms", "check", "--field", "F5", "--group", "Z/4",
         "--max-dim", "2", "--max-len", "2", "--mutate", "duplicate-irreducible",
         "--json"],
    ],
)
def test_json_output_independent_of_hash_seed(argv):
    # a corrupted model fails its target axiom, and a failed axiom exits 1
    expected_code = 1 if "--mutate" in argv else 0
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "diagcat.cli", *argv],
            capture_output=True, env=env, timeout=300,
        )
        assert proc.returncode == expected_code, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]  # byte-identical


def test_axioms_check_failure_exit_1(capsys):
    code, out, _ = run_cli(
        capsys,
        "axioms", "check", "--field", "F3", "--group", "Z/2",
        "--max-dim", "1", "--max-len", "1",
        "--mutate", "tensor-collapses-to-zero", "--json",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["failed"] == 1


def test_defining_degree_group_file(tmp_path, capsys):
    mu3 = {
        "schema": 1,
        "n": 1,
        "field": "Q",
        "name": "mu3",
        "generators": ["Z[1,1]^3 - 1"],
        "weights": {"group": "Z/3", "elements": ["(1)"]},
    }
    path = tmp_path / "mu3.json"
    path.write_text(json.dumps(mu3))
    code, out, _ = run_cli(
        capsys, "stab", "defining-degree", "--group-file", str(path), "--dmax", "4"
    )
    assert code == 0 and out.strip() == "2"


def test_group_file_weights_do_not_decide_the_answer(tmp_path, capsys):
    """The `weights` of a group file are parsed but no answer reads them:
    the torus (t, t^2) declared with the weights (1,0), (0,1) of the full
    diagonal torus still has defining degree 2, with exact slices and
    certified minimality, the same answer as without weights."""
    data = Path(__file__).resolve().parent / "data" / "groups"
    group = json.loads((data / "torus-t-t2-gl2-Q.json").read_text())
    path = tmp_path / "g.json"
    outs = []
    for weights in (None, {"group": "Z^2", "elements": ["(1,0)", "(0,1)"]}):
        group["weights"] = weights
        path.write_text(json.dumps(group))
        code, out, _ = run_cli(
            capsys, "stab", "defining-degree", "--group-file", str(path), "--json"
        )
        assert code == 0
        outs.append(out)
    payload = json.loads(outs[1])
    assert payload["status"] == "found" and payload["defining_degree"] == 2
    assert payload["slices_exact"] and payload["minimality_certified"]
    assert all(r["definitive"] for r in payload["refuted_degrees"])
    assert outs[1] == outs[0]


@pytest.mark.parametrize("key", ["field", "n"])
def test_group_file_missing_key_exit_2(tmp_path, capsys, key):
    group = {"schema": 1, "n": 1, "field": "Q", "generators": ["Z[1,1] - 1"]}
    del group[key]
    path = tmp_path / "g.json"
    path.write_text(json.dumps(group))
    code, out, err = run_cli(
        capsys, "stab", "defining-degree", "--group-file", str(path)
    )
    assert code == 2 and out == ""
    assert f"no {key!r}" in err and "Traceback" not in err


def test_group_file_not_an_object_exit_2(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text("[1]")
    code, out, err = run_cli(
        capsys, "stab", "defining-degree", "--group-file", str(path)
    )
    assert code == 2 and out == ""
    assert "not a JSON object" in err and "Traceback" not in err


def test_group_file_trailing_operator_exit_2(tmp_path, capsys):
    group = {"schema": 1, "n": 1, "field": "Q", "generators": ["Z[1,1] -"]}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(group))
    code, out, err = run_cli(
        capsys, "stab", "defining-degree", "--group-file", str(path)
    )
    assert code == 2 and out == ""
    assert "ends in an operator" in err


def test_defining_degree_catalog_json(capsys):
    code, out, _ = run_cli(
        capsys, "stab", "defining-degree", "--catalog", "mu5", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["defining_degree"] == 3
    assert payload["witnesses_verified"] is True
    assert payload["minimality_certified"] is True


def test_degrees_equal(capsys):
    code, out, _ = run_cli(
        capsys, "stab", "degrees-equal", "--catalog", "mu2", "--d", "1", "--dprime", "4"
    )
    assert code == 0 and out.strip() == "equal"
    code, out, _ = run_cli(
        capsys,
        "stab", "degrees-equal", "--catalog", "torus-t-t2-gl2",
        "--d", "1", "--dprime", "2",
    )
    assert code == 0 and out.strip() == "not_equal"


def test_qpolys_csv(tmp_path, capsys):
    mat = tmp_path / "a.csv"
    mat.write_text("1\n1\n")
    code, out, _ = run_cli(
        capsys,
        "stab", "qpolys", "--shape", "X", "--n", "2",
        "--pivots", "1", "--matrix", str(mat),
    )
    assert code == 0
    assert out.strip() == "Z[2,2] + Z[2,1] - Z[1,2] - Z[1,1]"


def test_is_stable(tmp_path, capsys):
    mat = tmp_path / "a.csv"
    mat.write_text("1\n0\n")
    code, out, _ = run_cli(
        capsys,
        "stab", "is-stable", "--shape", "X", "--object", "{1 2}",
        "--group", "Z", "--matrix", str(mat),
    )
    assert code == 0 and out.strip() == "stable"
    mat.write_text("1\n1\n")
    code, out, _ = run_cli(
        capsys,
        "stab", "is-stable", "--shape", "X", "--object", "{1 2}",
        "--group", "Z", "--matrix", str(mat),
    )
    assert code == 0 and out.strip() == "not stable"


def test_unknown_flag_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["paren", "count", "--leaves", "3", "--bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["model", "inspect", "--field", "F5", "--group", "Z/4", "--limit", "-1"],
        ["model", "inspect", "--field", "Q", "--group", "Z", "--coord-bound", "-1"],
        ["char-group", "--group", "Z", "--bound", "-1"],
        ["stab", "defining-degree", "--catalog", "mu2", "--field", "Q", "--dmax", "-1"],
        ["stab", "degrees-equal", "--catalog", "mu2", "--field", "Q",
         "--d", "-1", "--dprime", "0"],
        ["stab", "degrees-equal", "--catalog", "mu2", "--field", "Q",
         "--d", "0", "--dprime", "-1"],
    ],
    ids=["limit", "coord-bound", "bound", "dmax", "d", "dprime"],
)
def test_negative_bound_exit_2(capsys, argv):
    """A negative count or bound is a usage error, not an empty check."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "must be >= 0" in err


@pytest.mark.parametrize("command", [["model", "inspect"], ["axioms", "check"]])
@pytest.mark.parametrize(
    "flag, value", [(f, v) for f in ("--max-dim", "--max-len") for v in ("0", "-1")]
)
def test_fragment_bounds_below_one_exit_2(capsys, command, flag, value):
    """`model inspect` and `axioms check` reject an empty fragment alike."""
    code, out, err = run_cli(
        capsys, *command, "--field", "F5", "--group", "Z/4", flag, value, "--json"
    )
    assert code == 2 and out == ""
    assert "bounds must be >= 1" in err


def test_zero_bounds_are_accepted(capsys):
    code, out, _ = run_cli(
        capsys, "model", "inspect", "--field", "F5", "--group", "Z/4", "--limit", "0", "--json"
    )
    assert code == 0 and json.loads(out)["count"] == 0
    code, out, _ = run_cli(capsys, "char-group", "--group", "Z", "--bound", "0", "--json")
    assert code == 0 and json.loads(out)["elements_checked"] == 1
    code, out, _ = run_cli(
        capsys, "stab", "degrees-equal", "--catalog", "mu2", "--field", "Q",
        "--d", "0", "--dprime", "0",
    )
    assert code == 0 and out.strip() == "equal"


def _dump_group_file(pres):
    """The group-file JSON object that `cli._load_group_file` reads back."""
    from diagcat import laurent as la

    payload = {
        "schema": 1,
        "n": pres.n,
        "field": str(pres.field),
        "name": pres.name,
        "generators": [la.format_element(g) for g in pres.ideal.generators],
    }
    if pres.weights is not None:
        payload["weights"] = {
            "group": str(pres.weights[0].group),
            "elements": [str(w) for w in pres.weights],
        }
    return payload


def test_group_file_round_trip(tmp_path):
    from diagcat import laurent as la
    from diagcat.field import QQ

    pres = la.catalog(QQ)["torus-t-t2-gl2"]
    payload = _dump_group_file(pres)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(payload))
    loaded = cli._load_group_file(str(path))
    assert loaded.n == pres.n
    assert loaded.weights == pres.weights
    assert loaded.ideal.generators == pres.ideal.generators


@pytest.mark.parametrize(
    "n, text, value",
    [(1, "Z[1,1] - 2", "-1"), (2, "Z[1,2]*Z[2,1] + Z[1,1] - 2", "-1"),
     (2, "Z[1,1]^2 - 4", "-3")],
)
def test_group_file_missing_the_identity_exit_2(tmp_path, capsys, n, text, value):
    """A generator that is nonzero at (I, I) cuts out a set without the
    identity, which is no subgroup: the file is refused and the generator
    named. Before this check `Z[1,1] - 2` printed `found 1` with verified
    witnesses and exited 0."""
    gens = ["Z[1,2]", text] if n == 2 else [text]
    group = {"schema": 1, "n": n, "field": "Q", "generators": gens}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(group))
    code, out, err = run_cli(
        capsys, "stab", "defining-degree", "--group-file", str(path), "--json"
    )
    assert code == 2 and out == ""
    assert f"generator {text!r} is {value} at the identity" in err
    assert "Traceback" not in err


def test_every_group_file_and_catalog_group_loads(tmp_path):
    """The identity check refuses none of the shipped group files and none
    of the catalog groups written out as group files."""
    from diagcat import laurent as la
    from diagcat.field import ExactField

    data = Path(__file__).resolve().parent / "data" / "groups"
    paths = sorted(data.glob("*.json"))
    assert len(paths) == 11
    for p in (None, 5, 101):
        for name, pres in la.catalog(ExactField(p)).items():
            path = tmp_path / f"{name}-{p}.json"
            path.write_text(json.dumps(_dump_group_file(pres)))
            paths.append(path)
    for path in paths:
        assert cli._load_group_file(str(path)).name, path


def test_model_inspect_limit_bounds_the_work(capsys, monkeypatch):
    """`--limit` stops the fragment enumeration: on Z^2 with coordinates in
    [-2, 2] (25 weights), N = M = 2 has 350 + 625 + 2 * 8125 = 17,225
    objects, and the command builds only the 3 it prints."""
    real = dr.tensor_words
    built = []

    def counted(*args):
        for b in real(*args):
            built.append(b)
            yield b

    monkeypatch.setattr(dr, "tensor_words", counted)
    code, out, _ = run_cli(
        capsys, "model", "inspect", "--field", "F5", "--group", "Z^2",
        "--max-dim", "2", "--max-len", "2", "--limit", "3", "--json",
    )
    payload = json.loads(out)
    assert code == 0 and payload["count"] == 3 and len(payload["objects"]) == 3
    assert [str(b) for b in built] == [o["object"] for o in payload["objects"]]


@pytest.mark.parametrize(
    "argv, want",
    [
        (["stab", "defining-degree", "--catalog", "mu3", "--json"],
         '"defining_degree":2'),
        (["axioms", "check", "--field", "F3", "--group", "Z/2",
          "--max-dim", "2", "--max-len", "1"], "27/27 passed"),
    ],
    ids=["defining-degree", "axioms-check"],
)
def test_runtime_needs_only_the_standard_library(argv, want):
    """`python -S` leaves site-packages off the path, so a third-party
    import anywhere under `diagcat` would fail these commands."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "diagcat.cli", *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert want in proc.stdout
