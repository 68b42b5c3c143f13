import argparse
import hashlib
import json
import re
import shlex
from pathlib import Path

import pytest

from surfcover.cli import _merge_config, build_parser, emit_report, main, read_config, run_command


def run_cli(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    return run_command(_merge_config(args))


def test_hom_count_command():
    out, code = run_cli(["hom-count", "-n", "3", "-g", "2"])
    assert out == b"486\n"
    assert code == 0


def test_zeta_command():
    out, _ = run_cli(["zeta", "-n", "2", "-s", "2"])
    assert out == b"2\n"
    out, _ = run_cli(["zeta", "-n", "3", "-s", "2"])
    assert out == b"9/4\n"


def test_predict_command():
    out, code = run_cli(
        ["predict", "--spec", 'gamma="a1" exps=[2,3] pow=1; delta="a2" exps=[4] pow=1']
    )
    payload = json.loads(out)
    assert payload["value"] == "15"
    assert payload["value_decimal"] == 15.0
    assert payload["warnings"] == []
    assert code == 0


def test_predict_warns_on_uncertified():
    out, _ = run_cli(["predict", "--spec", 'g="a1^2" exps=[1]'])
    payload = json.loads(out)
    assert payload["warnings"]


def test_predict_accepts_json_spec():
    spec_json = json.dumps(
        {
            "genus": 2,
            "groups": [
                {"word": "a1", "exps": [2, 3], "pow": 1},
                {"word": "a2", "exps": [4], "pow": 1},
            ],
        }
    )
    out, code = run_cli(["predict", "--spec", spec_json])
    assert code == 0
    assert json.loads(out)["value"] == "15"


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "report.json"
    code = main(["predict", "--spec", 'g="a1" exps=[4]', "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["value"] == "3"


def test_characters_csv():
    out, _ = run_cli(["characters", "-n", "3"])
    lines = out.decode().strip().splitlines()
    assert lines[0] == "partition,3,2+1,1+1+1"
    assert lines[1] == "3,1,1,1"
    assert lines[2] == "2+1,-1,0,2"
    assert lines[3] == "1+1+1,1,-1,1"


def test_enumerate_command():
    out, _ = run_cli(["enumerate", "-n", "3", "-g", "2", "--spec", 'g="a1" exps=[1]'])
    payload = json.loads(out)
    assert payload["value"] == "10/9"
    out, _ = run_cli(["enumerate", "-n", "2", "-g", "2"])
    assert json.loads(out)["count"] == 16


def test_estimate_and_sample_deterministic():
    argv = [
        "estimate",
        "-n",
        "3",
        "--spec",
        'g="a1" exps=[1]',
        "--samples",
        "300",
        "--seed",
        "11",
    ]
    first, _ = run_cli(argv)
    second, _ = run_cli(argv)
    assert first == second
    payload = json.loads(first)
    assert payload["samples"] == 300
    assert 0.5 < payload["mean"] < 2.0

    sample_argv = ["sample", "-n", "3", "--count", "2", "--seed", "5", "--word", "a1"]
    s1, _ = run_cli(sample_argv)
    s2, _ = run_cli(sample_argv)
    assert s1 == s2
    decoded = json.loads(s1)
    assert len(decoded["points"]) == 2
    assert "word_image_cycles" in decoded["points"][0]
    one, _ = run_cli(["sample", "-n", "3", "--seed", "5"])
    assert len(json.loads(one)["points"]) == 1


def test_verify_convergence_command_exact():
    out, code = run_cli(
        [
            "verify-convergence",
            "--spec",
            'g="a1" exps=[1]',
            "--n-values",
            "2,3,4",
        ]
    )
    payload = json.loads(out)
    assert code == 0
    assert [row["joint"] for row in payload["rows"]] == ["1", "10/9", "97/89"]
    assert payload["prediction"] == "1"
    assert "fitted_C" in payload


def test_verify_cycles_command():
    out, code = run_cli(
        [
            "verify-cycles",
            "--words",
            "a1,a2",
            "-n",
            "4",
            "--samples",
            "2000",
            "--seed",
            "3",
            "--max-d",
            "2",
        ]
    )
    payload = json.loads(out)
    assert code == 0
    assert len(payload["rows"]) == 4
    assert len(payload["covariances"]) == 4


def test_selftest_subset():
    out, code = run_cli(["selftest", "--only", "5"])
    payload = json.loads(out)
    assert code == 0
    assert payload["criteria"][0]["number"] == 5
    assert payload["criteria"][0]["passed"] is True


def test_config_file_and_override(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("n=3\ng=2\n# comment\nseed=9\n")
    out, _ = run_cli(["hom-count", "--config", str(config)])
    assert out == b"486\n"
    # explicit flag wins over the file
    out, _ = run_cli(["hom-count", "-n", "2", "--config", str(config)])
    assert out == b"16\n"
    parsed = read_config(str(config))
    assert parsed == {"n": "3", "g": "2", "seed": "9"}
    bad = tmp_path / "bad.conf"
    bad.write_text("nonsense line\n")
    with pytest.raises(ValueError):
        read_config(str(bad))


def test_emit_report_formats():
    report = {"rows": [{"n": 2, "value": "1"}, {"n": 3, "value": "10/9"}]}
    data = emit_report(report, "json")
    assert json.loads(data) == report
    csv_data = emit_report(report, "csv").decode()
    assert csv_data.splitlines()[0] == "n,value"
    assert emit_report([], "csv") == b""
    with pytest.raises(ValueError):
        emit_report(report, "xml")
    with pytest.raises(ValueError):
        emit_report({"points": [{"index": 0, "cycles": ["(0 1)"]}]}, "csv")
    with pytest.raises(ValueError):
        emit_report({"spec": "x", "warnings": ["w1"]}, "csv")


def test_error_exits():
    assert main(["hom-count", "-n", "3", "-g", "1"]) == 2
    assert main(["predict", "--spec", "broken"]) == 2


def test_malformed_json_specs_exit_with_error(capsys):
    for spec in (
        '{"genus":2,"groups":[{"word":"a1","exps":"23"}]}',
        '{"genus":2,"groups":[{"word":"a1","pow":"2"}]}',
        '{"genus":2}',
        '{"genus":2,"groups":[{"word":5}]}',
        '{"genus":2,"groups":[{"word":"a1","exps":[true]}]}',
        '{"genus":2,"groups":[{"word":"a1","pow":true}]}',
        '{"genus":2,"groups":[7]}',
        "[1]",
    ):
        assert main(["predict", "--spec", spec]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:")
    assert "must be an object" in err  # "[1]" is read as JSON, not as the text syntax


def test_refused_table_exits_with_error(capsys):
    assert main(["characters", "-n", "29"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert main(["estimate", "-n", "29", "--spec", 'g="a1" exps=[1]']) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert main(["hom-count", "-n", "51"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_out_of_range_values_exit_with_error(capsys):
    genus3 = '{"genus":3,"groups":[{"word":"a3"}]}'
    for argv in (
        ["sample", "-n", "3", "--seed", "-1"],
        ["sample", "-n", "3", "--seed", str(2**64)],
        ["sample", "-n", "3", "--count", "0"],
        ["verify-cycles", "-n", "4", "--words", "a1", "--samples", "200", "--max-d", "0"],
        ["enumerate", "-n", "3", "--spec", 'g="a1" exps=[]'],
        ["enumerate", "-n", "3", "--spec", '{"groups":[{"word":"a1","exps":[]}]}'],
        ["verify-convergence", "-g", "2", "--n-values", "2,3", "--spec", genus3],
        ["estimate", "-n", "5", "-g", "2", "--spec", genus3],
    ):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:")
    # refused in the argument checks, before the n = 22 plan is built
    for argv in (["estimate", "--spec", 'g="a1"'], ["verify-cycles", "--words", "a1"]):
        assert main([*argv, "-n", "22", "--samples", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: --samples must be >= 2\n"


def test_timings_opt_in():
    base, _ = run_cli(["enumerate", "-n", "2", "-g", "2"])
    assert b"runtime_ms" not in base
    timed, _ = run_cli(["enumerate", "-n", "2", "-g", "2", "--timings"])
    assert b"runtime_ms" in timed
    base, _ = run_cli(["selftest", "--only", "5"])
    assert "runtime_ms" not in json.loads(base)["criteria"][0]
    timed, _ = run_cli(["selftest", "--only", "5", "--timings"])
    assert json.loads(timed)["criteria"][0]["runtime_ms"] >= 0


def test_stdout_write(capsys):
    code = main(["hom-count", "-n", "2", "-g", "2"])
    assert code == 0
    assert capsys.readouterr().out == "16\n"


# sha256 of what `main` writes to stdout in fixed-seed runs; any change to a seeded stream, a
# visit order, a float formula or the output format changes one of these.
GOLDEN_CLI = [
    (
        ["sample", "-n", "9", "-g", "2", "--seed", "5", "--count", "20", "--word", "a1 b2"],
        "cad3dca48d24581e48fd705e8583060e964ff74727110afb0ba6facbbf481182",
    ),
    (
        ["estimate", "-n", "12", "-g", "2", "--seed", "3", "--samples", "3000",
         "--spec", 'gamma="a1" exps=[2,3]; delta="a2" exps=[4]'],
        "d001b4fc62e0c09e0af9aa7e19fbd3e1594fe21f1dcb46bbca08ce6ed3907dcc",
    ),
    (
        # the n=6 row is sampled, so this pins the shard-gap standard error
        ["verify-independence", "--spec", 'gamma="a1" exps=[1,2]; delta="a2" exps=[1]',
         "--n-values", "2,3,6", "--budget-visits", "1000", "--samples", "3000", "--seed", "4"],
        "f328bd3e1dc76378927e0a602c726ee242856d3735fa6638aaa716c06b33b12d",
    ),
    (
        ["verify-cycles", "-n", "8", "-g", "3", "--seed", "5", "--samples", "2000",
         "--words", "a1,a2,b3"],
        "ade129f9ce492e39e3ed7116d8e6f37f5a963f3bd77587d2d45d7c8f14dc535d",
    ),
    (
        ["enumerate", "-n", "4", "-g", "2",
         "--spec", 'gamma="a1 b2" exps=[1,2]; delta="a2" exps=[3]'],
        "3e7d767324b5439c7bdd79d2fc866fbb56631f4dfe809202f7376dcce1148f9f",
    ),
    (
        ["enumerate", "-n", "3", "-g", "3",
         "--spec", 'gamma="a1" exps=[1]; delta="b3" exps=[2]'],
        "5cbbad0e1ea26e0af4585f1b1ac33198a5ca8a4790e4b6161e67b551b43a2c29",
    ),
    (
        ["selftest", "--only", "2,3,5"],
        "7a41d555ee2c270320385f888e8f7ff8913018cdd122e846d3c6516f2e348154",
    ),
]


@pytest.mark.parametrize(
    "argv,digest", GOLDEN_CLI, ids=[f"{argv[0]}{i}" for i, (argv, _) in enumerate(GOLDEN_CLI)]
)
def test_golden_cli_output(argv, digest, capsysbinary):
    assert main(argv) == 0
    assert hashlib.sha256(capsysbinary.readouterr().out).hexdigest() == digest


def _flag(key):
    return f"-{key}" if len(key) == 1 else "--" + key.replace("_", "-")


# every integer and string key each command takes, with non-default values
CONFIG_RUNS = {
    "sample": {"n": 5, "g": 3, "seed": 7, "count": 2, "word": "a1 b3"},
    "estimate": {"n": 5, "g": 3, "seed": 7, "samples": 400,
                 "spec": 'gamma="a1" exps=[1,2]; delta="a2" exps=[1]', "format": "json"},
    "verify-convergence": {"g": 2, "seed": 7, "samples": 400, "budget_visits": 100,
                           "spec": 'g="a1" exps=[1]', "n_values": "2,3,5", "format": "json"},
    "verify-cycles": {"n": 5, "g": 2, "seed": 7, "samples": 400,
                      "max_d": 2, "words": "a1,b2", "format": "csv"},
}


@pytest.mark.parametrize("command", sorted(CONFIG_RUNS))
def test_config_values_match_flags(tmp_path, command):
    values = CONFIG_RUNS[command]
    config = tmp_path / "run.conf"
    config.write_text("".join(f"{key}={value}\n" for key, value in values.items()))
    flags = [tok for key, value in values.items() for tok in (_flag(key), str(value))]
    from_flags = run_cli([command, *flags])
    assert run_cli([command, "--config", str(config)]) == from_flags


N_COMMANDS = {
    "characters": [], "zeta": ["-s", "2"], "hom-count": [], "enumerate": [],
    "sample": [], "estimate": [], "verify-cycles": [],
}


def test_missing_n_exits_with_error(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text('g=2\nseed=1\nspec=g="a1" exps=[1]\nwords=a1\n')
    for command, extra in N_COMMANDS.items():
        for argv in ([command, *extra], [command, *extra, "--config", str(config)]):
            assert main(argv) == 2
            assert capsys.readouterr().err == f"error: {command} needs -n\n"
    # commands that do not use -n refuse it
    with pytest.raises(SystemExit) as refused:
        main(["predict", "-n", "0", "--spec", 'g="a1"'])
    assert refused.value.code == 2


def test_unreadable_config_or_unwritable_out_exits_with_error(tmp_path, capsys):
    missing = tmp_path / "missing"
    for argv in (
        ["hom-count", "-n", "3", "--config", str(missing / "run.conf")],
        ["predict", "--spec", 'g="a1" exps=[4]', "--out", str(missing / "report.json")],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""


def test_bad_config_format_exits_before_the_work(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("format=xml\n")
    for argv in (
        ["enumerate", "-n", "3"],
        ["estimate", "-n", "8", "--samples", "20000", "--spec", 'g="a1" exps=[1]'],
    ):
        assert main([*argv, "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: unknown format 'xml'\n" and captured.out == ""


def test_unknown_criterion_exits_before_any_criterion_runs(monkeypatch, capsys):
    for only in ("10", "5,10"):
        assert main(["selftest", "--only", only]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: unknown criterion 10\n" and captured.out == ""

    def no_work(*args, **kwargs):
        raise AssertionError("the work ran")

    # an --only that names nothing must not fall back to the whole battery
    monkeypatch.setattr("surfcover.acceptance.run_all", no_work)
    for only in (",", " , ,", ""):
        assert main(["selftest", "--only", only]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --only names no criterion\n" and captured.out == ""


def test_selftest_lines_go_to_stderr_and_report_alone_to_stdout(tmp_path, capsys):
    assert main(["selftest", "--only", "5"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["criteria"][0]["number"] == 5
    assert captured.err.startswith("[PASS] criterion 5 (limit oracle):")
    report = tmp_path / "report.json"
    assert main(["selftest", "--only", "5", "--out", str(report)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("[PASS] criterion 5")
    assert json.loads(report.read_text())["failed"] == []


def test_csv_writes_every_table_and_refuses_nested_reports(monkeypatch, capsysbinary):
    out, code = run_cli(["verify-cycles", "-n", "4", "--words", "a1,a2", "--samples", "200",
                         "--max-d", "2", "--format", "csv"])
    rows, covariances = out.decode().split("\r\n\r\n")
    assert rows.splitlines()[0] == "word,d,mean,stderr,prediction,prediction_decimal"
    assert len(rows.splitlines()) == 5
    lines = covariances.splitlines()
    assert lines[0] == "words,lengths,covariance,covariance_stderr"
    assert len(lines) == 5 and lines[1].startswith("0 1,1 1,")
    assert "[" not in out.decode() and "(" not in out.decode()

    def no_work(*args, **kwargs):
        raise AssertionError("the work ran")

    monkeypatch.setattr("surfcover.cli.sample_hom", no_work)
    monkeypatch.setattr("surfcover.acceptance.run_all", no_work)
    # these reports nest lists in a record, so their commands take no --format
    for argv in (["sample", "-n", "3"], ["selftest", "--only", "5"],
                 ["predict", "--spec", 'g="a1" exps=[1]']):
        with pytest.raises(SystemExit) as refused:
            main([*argv, "--format", "csv"])
        assert refused.value.code == 2
        captured = capsysbinary.readouterr()
        assert captured.out == b""
        assert b"unrecognized arguments: --format csv" in captured.err


class RecordingNamespace(argparse.Namespace):
    """A namespace that records the name of every attribute read from it."""

    def __init__(self):
        super().__init__()
        object.__setattr__(self, "_reads", set())

    def __getattribute__(self, name):
        object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


# one run per command, each on a small input
EVERY_COMMAND = [
    ["characters", "-n", "3"],
    ["zeta", "-n", "3", "-s", "2"],
    ["hom-count", "-n", "3"],
    ["enumerate", "-n", "3", "--spec", 'g="a1"'],
    ["sample", "-n", "3", "--word", "a1"],
    ["estimate", "-n", "3", "--spec", 'g="a1"', "--samples", "20"],
    ["predict", "--spec", 'g="a1" exps=[4]'],
    ["verify-convergence", "--spec", 'g="a1"', "--n-values", "2,3"],
    ["verify-independence", "--spec", 'g="a1"; d="a2"', "--n-values", "2,3"],
    ["verify-cycles", "-n", "4", "--words", "a1", "--samples", "20"],
    ["selftest", "--only", "5"],
]


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=[argv[0] for argv in EVERY_COMMAND])
def test_every_declared_flag_is_read(argv):
    args = build_parser().parse_args(argv, namespace=RecordingNamespace())
    # --config is read while merging and --out by main
    declared = set(vars(args)) - {"_reads", "command", "handler", "config", "out"}
    reads = object.__getattribute__(args, "_reads")
    _merge_config(args)
    reads.clear()
    run_command(args)
    assert declared and declared <= reads, f"{argv[0]} never reads {sorted(declared - reads)}"


def test_readme_shows_only_flags_its_commands_take():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    lines = [line for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
             for line in block.splitlines() if line.startswith("surfcover ")]
    assert len(lines) >= 10
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])
