import json

import pytest

from orbitslp.cli import main
from conftest import (CYCLIC3_GROUP_JSON, CYCLIC3_REP_JSON, TORUS_GROUP_JSON,
                      TORUS_REP_JSON)


@pytest.fixture
def torus_files(tmp_path):
    group = tmp_path / "group.json"
    rep = tmp_path / "rep.json"
    group.write_text(json.dumps(TORUS_GROUP_JSON))
    rep.write_text(json.dumps(TORUS_REP_JSON))
    return group, rep, tmp_path / "sep.json"


@pytest.fixture
def torus_separator(torus_files):
    group, rep, out = torus_files
    assert main(["compile", "--group", str(group), "--rep", str(rep),
                 "--out", str(out)]) == 0
    return out


def test_compile_writes_file_and_summary(torus_files, capsys):
    group, rep, out = torus_files
    code = main(["compile", "--group", str(group), "--rep", str(rep),
                 "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "d_max = 2" in text
    assert out.exists()


def test_separate_same_orbit(torus_separator, capsys):
    code = main(["separate", str(torus_separator), "--p", "1,2", "--q", "2,4"])
    assert code == 0
    assert capsys.readouterr().out.startswith("SAME-ORBIT")


def test_separate_different_orbits(torus_separator, capsys):
    code = main(["separate", str(torus_separator), "--p", "1,2", "--q", "1,3"])
    assert code == 1
    assert capsys.readouterr().out.startswith("DIFFERENT-ORBIT")
    assert main(["separate", str(torus_separator), "--p", "0,0", "--q", "1,0"]) == 1


def test_separate_wrong_arity_exit_2(torus_separator, capsys):
    code = main(["separate", str(torus_separator), "--p", "1,2,3", "--q", "1,2"])
    assert code == 2


def test_separate_accepts_fractions(torus_separator):
    assert main(["separate", str(torus_separator),
                 "--p", "1/2,1", "--q", "3/2,3"]) == 0


def test_separate_rejects_floats(torus_separator):
    assert main(["separate", str(torus_separator),
                 "--p", "0.5,1", "--q", "1,2"]) == 2


def test_eval_deterministic_output(torus_separator, capsys):
    assert main(["eval", str(torus_separator), "--point", "1,2"]) == 0
    first = capsys.readouterr().out
    assert main(["eval", str(torus_separator), "--point", "1,2"]) == 0
    assert capsys.readouterr().out == first


def test_eval_json_flag(torus_separator, capsys):
    assert main(["eval", str(torus_separator), "--point", "1,2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["field"] == "rational"
    assert "-2" in payload["signature"]


def test_eval_invariance_under_group_translate(torus_separator, capsys):
    main(["eval", str(torus_separator), "--point", "2,3"])
    base = capsys.readouterr().out
    main(["eval", str(torus_separator), "--point", "10,15"])  # 5 * (2,3)
    assert capsys.readouterr().out == base


def test_stats_reports_census_and_phases(torus_separator, capsys):
    assert main(["stats", str(torus_separator)]) == 0
    text = capsys.readouterr().out
    assert "program length" in text
    assert "degree bound       2" in text
    assert "trref" in text


def test_stats_json_totals_match(torus_separator, capsys):
    assert main(["stats", str(torus_separator), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    counts = report["census"]
    assert counts["total"] == sum(
        counts[k] for k in ("add", "sub", "mul", "qinv", "const", "recall"))
    assert report["phase_totals"]["trref"] == max(
        v for k, v in report["phase_totals"].items())


def test_malformed_polynomial_exit_2(tmp_path, capsys):
    group = tmp_path / "group.json"
    rep = tmp_path / "rep.json"
    group.write_text(json.dumps({"ambient_dim": 2, "group_dim": 1,
                                 "vars": ["z1", "z2"], "generators": ["z1*"]}))
    rep.write_text(json.dumps(TORUS_REP_JSON))
    code = main(["compile", "--group", str(group), "--rep", str(rep),
                 "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert "z1*" in capsys.readouterr().err


def test_cell_cap_exit_3(torus_files, monkeypatch, capsys):
    group, rep, out = torus_files
    monkeypatch.setenv("ORBITSLP_CELL_CAP", "5")
    code = main(["compile", "--group", str(group), "--rep", str(rep),
                 "--out", str(out)])
    assert code == 3
    assert "ceiling" in capsys.readouterr().err


def test_prime_field_pipeline(tmp_path, capsys):
    group = tmp_path / "group.json"
    rep = tmp_path / "rep.json"
    out = tmp_path / "sep.json"
    group.write_text(json.dumps(CYCLIC3_GROUP_JSON))
    rep.write_text(json.dumps(CYCLIC3_REP_JSON))
    assert main(["compile", "--group", str(group), "--rep", str(rep),
                 "--field", "7", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["separate", str(out), "--p", "1,1", "--q", "2,2"]) == 0
    assert main(["separate", str(out), "--p", "1,1", "--q", "3,3"]) == 1


def test_round_trip_verdicts_match_in_memory(torus_separator):
    from orbitslp import CompiledSeparator, separate
    sep = CompiledSeparator.load(torus_separator)
    grid = [[a, b] for a in range(-2, 3) for b in range(-2, 3)]
    for p in grid[:8]:
        for q in grid[:8]:
            want = 0 if separate(sep, p, q) else 1
            # the --flag=value form keeps argparse away from leading minus signs
            got = main(["separate", str(torus_separator),
                        f"--p={p[0]},{p[1]}", f"--q={q[0]},{q[1]}"])
            assert got == want


def test_params_file_field_and_override(tmp_path, capsys):
    group = tmp_path / "group.json"
    rep = tmp_path / "rep.json"
    params = tmp_path / "params.json"
    out = tmp_path / "sep.json"
    group.write_text(json.dumps(CYCLIC3_GROUP_JSON))
    rep.write_text(json.dumps(CYCLIC3_REP_JSON))
    params.write_text(json.dumps({"r": 0, "bound_override": 2,
                                  "field": {"prime": 7}}))
    assert main(["compile", "--group", str(group), "--rep", str(rep),
                 "--params", str(params), "--out", str(out)]) == 0
    assert "d_max = 2" in capsys.readouterr().out


def _break_separator(change):
    """Case that rewrites the program dict of the compiled separator."""
    def edit(files):
        obj = json.loads(files["sep"].read_text())
        change(obj["program"])
        files["sep"].write_text(json.dumps(obj))
    return "separate", edit


def _set_first_const_index(program, value):
    next(ins for ins in program["instructions"] if ins[0] == 4)[1] = value


def _overwrite(name, text):
    """Case that replaces one input file; run compile unless it is the separator."""
    command = "separate" if name == "sep" else "compile"
    return command, lambda files: files[name].write_text(text)


# case -> (command run, how it breaks one of the torus input files)
MALFORMED = {
    "separator top level is an array": _overwrite("sep", "[1, 2]"),
    "separator lacks program.constants":
        _break_separator(lambda prog: prog.pop("constants")),
    "constant index past the pool":
        _break_separator(lambda prog: _set_first_const_index(prog, 99)),
    "negative constant index":
        _break_separator(lambda prog: _set_first_const_index(prog, -1)),
    "constant with a zero denominator":
        _break_separator(lambda prog: prog["constants"].append("1/0")),
    "rep spec lacks rho": _overwrite("rep", json.dumps({"n": 2})),
    "group spec is an array": _overwrite("group", "[1]"),
    "params file is an array": _overwrite("params", "[1]"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_files_exit_2(case, torus_files, tmp_path, capsys):
    # exit 2 with a one-line error, never 1, which reads as DIFFERENT-ORBIT
    group, rep, sep = torus_files
    files = {"group": group, "rep": rep, "sep": sep,
             "params": tmp_path / "params.json"}
    files["params"].write_text("{}")
    compile_argv = ["compile", "--group", str(group), "--rep", str(rep),
                    "--params", str(files["params"]), "--out", str(sep)]
    assert main(compile_argv) == 0
    command, breaks = MALFORMED[case]
    breaks(files)
    capsys.readouterr()
    if command == "compile":
        code = main(compile_argv)
    else:
        code = main(["separate", str(sep), "--p", "1,2", "--q", "2,4"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_oversize_compile_refused_before_allocating(tmp_path, capsys):
    # rho = diag(z1^99, z1) gives d_max = 198; iteration 1 alone is 5050x4854
    group = tmp_path / "group.json"
    rep = tmp_path / "rep.json"
    group.write_text(json.dumps(TORUS_GROUP_JSON))
    rep.write_text(json.dumps({"n": 2, "rho": [["z1^99", "0"], ["0", "z1"]]}))
    code = main(["compile", "--group", str(group), "--rep", str(rep),
                 "--out", str(tmp_path / "sep.json")])
    assert code == 3
    assert "5050x4854" in capsys.readouterr().err
