"""CLI behavior: subcommands, exit codes, overrides, console script."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import bprelab
import bprelab.cli
import bprelab.estimators
from bprelab import __version__, harness
from bprelab.cli import main
from bprelab.harness import jsonable

GW_RUN_CFG = """\
schema: 1
name: cli-gw
environment:
  kind: mixture
  states:
    - law: {0: 0.25, 2: 0.75}
      weight: 1.0
suites: [exact, criteria, burkholder, identity]
p: [2.0]
n_max: 14
gap: 8
replicas: 2000
master_seed: 11
"""


@pytest.fixture
def gw_cfg(tmp_path):
    path = tmp_path / "gw.cfg"
    path.write_text(GW_RUN_CFG)
    return path


def test_run_passing_config(gw_cfg, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["run", str(gw_cfg), "--out", str(out_dir)]) == 0
    captured = capsys.readouterr()
    assert "[PASS]" in captured.out
    assert "[FAIL]" not in captured.out
    assert f"report: {out_dir / 'report.json'}" in captured.out
    report = json.loads((out_dir / "report.json").read_text())
    assert report["summary"]["ok"] is True


def test_run_failing_check_exits_2(gw_cfg, tmp_path, capsys, monkeypatch):
    # constants that put the square-function bracket's lower end above its upper end
    monkeypatch.setattr(bprelab.estimators, "burkholder_constants", lambda p: (10.0, 0.01))
    code = main(["run", str(gw_cfg), "--out", str(tmp_path / "strict-out")])
    assert code == 2
    captured = capsys.readouterr()
    assert "[FAIL]" in captured.out


def test_missing_config_exits_1(tmp_path, capsys):
    code = main(["run", str(tmp_path / "absent.cfg")])
    assert code == 1
    assert "bprelab: error:" in capsys.readouterr().err


def test_usage_error_exits_1(capsys):
    assert main([]) == 1
    assert "bprelab: error: usage:" in capsys.readouterr().err


def test_subcritical_rates_exits_1(capsys):
    code = main(["rates", "configs/subcritical.cfg"])
    assert code == 1
    err = capsys.readouterr().err
    assert "bprelab: error:" in err and "supercritical" in err


def test_rates_json_output(capsys):
    assert main(["rates", "configs/gw_binary.cfg"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["name"] == "gw-binary"
    assert len(payload["rates"]) == 1
    report = payload["rates"][0]
    assert report["p"] == 2.0
    assert report["annealed_rhoc"] == pytest.approx(math.sqrt(1.5), rel=1e-12)
    assert report["w1_degenerate"] is False and report["criterion"]["holds"] is True
    assert report["conditions"] is None


def test_rates_p_override_appends(capsys):
    assert main(["rates", "configs/gw_binary.cfg", "--p", "1.5", "--p", "3.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [r["p"] for r in payload["rates"]] == [1.5, 3.0]
    assert [r["criterion"]["p"] for r in payload["rates"]] == [1.5, 3.0]
    assert [r["conditions"] and r["conditions"]["p"] for r in payload["rates"]] == [1.5, None]


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--p", "inf"], "p[0]: each p must be a number > 1"),
        (["--p", "2", "--p", "2"], "p[1]: duplicate entry 2.0"),
        (["--p", "2", "--p", "2.0000001"], "p[1]: 2.0 and 2.0000001 give check ids the same tag 'p2'"),
    ],
)
def test_rates_p_is_checked_like_a_config_value(capsys, extra, message):
    assert main(["rates", "configs/gw_binary.cfg", *extra]) == 1
    captured = capsys.readouterr()
    # the value came from the command line, so the message has no file line
    assert captured.err == f"bprelab: error: configs/gw_binary.cfg: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["run", "verify", "rates"])
def test_p_values_with_one_tag_are_refused_before_anything_runs(tmp_path, monkeypatch, capsys, command):
    # distinct exponents that print alike would give the same check ids; the loader refuses them
    def ran(*args, **kwargs):
        pytest.fail("a suite, simulation or rate report ran")

    monkeypatch.setattr(harness, "run", ran)
    bodies = {name: row._replace(body=ran) for name, row in harness._SUITES.items()}
    monkeypatch.setattr(harness, "_SUITES", bodies)
    monkeypatch.setattr(bprelab.cli, "rate_report", ran)
    cfg, out_dir = tmp_path / "tags.cfg", tmp_path / "out"
    cfg.write_text(GW_RUN_CFG.replace("p: [2.0]", "p: [2.0, 2.0000001]"))
    line = GW_RUN_CFG.splitlines().index("p: [2.0]") + 1
    assert main([command, str(cfg)] + (["--out", str(out_dir)] if command != "rates" else [])) == 1
    captured = capsys.readouterr()
    assert captured.err == f"bprelab: error: {cfg}:{line}: p[1]: 2.0 and 2.0000001 give check ids the same tag 'p2'\n"
    assert captured.out == ""
    assert not out_dir.exists()


def test_rates_needs_a_mixture(capsys):
    assert main(["rates", "configs/fixed_path.cfg"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "bprelab: error: configs/fixed_path.cfg: environment: rates needs a 'kind: mixture' "
        "environment; a fixed path has no stationary law\n"
    )
    assert captured.out == ""


def test_thread_override_changes_nothing_but_timings(gw_cfg, tmp_path, capsys):
    main(["run", str(gw_cfg), "--out", str(tmp_path / "a"), "--threads", "1"])
    main(["run", str(gw_cfg), "--out", str(tmp_path / "b"), "--threads", "3"])
    capsys.readouterr()
    a = json.loads((tmp_path / "a" / "report.json").read_text())
    b = json.loads((tmp_path / "b" / "report.json").read_text())
    a.pop("timings"), b.pop("timings")
    assert "threads" not in a["config"]["values"]
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_run_prints_each_line_once_with_forked_workers(tmp_path):
    # three seed-stream blocks, so run forks workers on a multi-core machine;
    # piped stdout is block-buffered, and no child may flush or repeat it
    cfg = tmp_path / "blocks.cfg"
    cfg.write_text(GW_RUN_CFG.replace("replicas: 2000", "replicas: 9000"))
    src = str(Path(bprelab.__file__).parents[1])
    env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "bprelab", "run", str(cfg), "--out", str(tmp_path / "out")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    checks = [line for line in lines if line.startswith(("[PASS]", "[FAIL]"))]
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert len(checks) == len(set(checks)) == report["summary"]["checks"] > 0
    assert sum(line.startswith("summary:") for line in lines) == 1


def test_run_leaves_numpy_ma_unimported(tmp_path):
    # numpy.ma costs 13-17 ms to import, and nothing a run computes needs it
    cfg = tmp_path / "all-suites.cfg"
    cfg.write_text(GW_RUN_CFG.replace(
        "suites: [exact, criteria, burkholder, identity]",
        "suites: [rates, exact, annealed-rate, criteria, burkholder, identity]"))
    src = str(Path(bprelab.__file__).parents[1])
    env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = (
        "import sys\n"
        "from bprelab.cli import main\n"
        f"code = main(['run', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}])\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_seed_override_lands_in_simulation(gw_cfg, tmp_path, capsys):
    main(["run", str(gw_cfg), "--out", str(tmp_path / "a"), "--seed", "11"])
    main(["run", str(gw_cfg), "--out", str(tmp_path / "b"), "--seed", "999"])
    capsys.readouterr()
    a = (tmp_path / "a" / "burkholder.csv").read_text()
    b = (tmp_path / "b" / "burkholder.csv").read_text()
    assert a != b


def _report(out_dir) -> dict:
    report = json.loads((out_dir / "report.json").read_text())
    report.pop("timings")
    return report


def test_overrides_are_recorded_in_the_report(gw_cfg, tmp_path, capsys):
    main(["run", str(gw_cfg), "--out", str(tmp_path / "file")])
    main(["run", str(gw_cfg), "--out", str(tmp_path / "cli"), "--seed", "99", "--threads", "2"])
    capsys.readouterr()
    file_values = yaml.safe_load(GW_RUN_CFG)
    assert _report(tmp_path / "file")["config"]["values"] == jsonable(file_values)
    values = _report(tmp_path / "cli")["config"]["values"]
    assert values["master_seed"] == 99
    # --threads is checked by the parser and read by nothing, so it is no config value
    assert values == jsonable(file_values | {"master_seed": 99})


def test_report_config_reproduces_the_report(gw_cfg, tmp_path, capsys):
    first, second, copy = tmp_path / "first", tmp_path / "second", tmp_path / "copy.cfg"
    assert main(["run", str(gw_cfg), "--out", str(first), "--seed", "99", "--threads", "2"]) == 0
    report = _report(first)
    copy.write_text(yaml.safe_dump(report["config"]["values"]))
    assert main(["run", str(copy), "--out", str(second)]) == 0
    capsys.readouterr()
    again = _report(second)
    assert again["config"].pop("source") == str(copy)
    report["config"].pop("source")
    assert again == report
    tables = sorted(f.name for f in first.glob("*.csv"))
    assert tables and tables == sorted(f.name for f in second.glob("*.csv"))
    for name in tables:
        assert (second / name).read_text() == (first / name).read_text()


@pytest.mark.parametrize("command", ["run", "verify"])
def test_a_rerun_into_the_same_out_changes_no_content(gw_cfg, tmp_path, capsys, command):
    # each output file is replaced by a new one; the second run's CSVs hold the first run's bytes
    out = tmp_path / "out"
    written = []
    for _ in range(2):
        assert main([command, str(gw_cfg), "--out", str(out)]) == 0
        written.append({f.name: f.read_bytes() for f in out.iterdir()})
    capsys.readouterr()
    first, second = written
    assert sorted(first) == sorted(second) and "burkholder.csv" in first
    reports = [json.loads(files.pop("report.json")) for files in (first, second)]
    assert first == second
    for report in reports:
        report.pop("timings")
    assert reports[0] == reports[1]


@pytest.mark.parametrize("command", ["run", "verify"])
def test_negative_seed_is_a_config_error(gw_cfg, tmp_path, capsys, command):
    out_dir = tmp_path / "out"
    assert main([command, str(gw_cfg), "--seed", "-1", "--out", str(out_dir)]) == 1
    captured = capsys.readouterr()
    # the value came from the command line, so the message has no file line
    assert captured.err == f"bprelab: error: {gw_cfg}: master_seed: must be >= 0\n"
    assert captured.out == ""
    assert not out_dir.exists()


def test_bad_threads_value(gw_cfg, capsys):
    for bad in ("0", "-2", "x"):
        assert main(["run", str(gw_cfg), "--threads", bad]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"bprelab: error: usage: argument --threads: expected an integer >= 1, got {bad!r}\n"
        assert captured.out == ""
    # verify runs at its own small sizes and takes no --threads
    assert main(["verify", str(gw_cfg), "--threads", "1"]) == 1
    assert capsys.readouterr().err.startswith("bprelab: error: usage: unrecognized arguments: --threads")


def test_n_max_beyond_a_fixed_path_exits_1(tmp_path, capsys):
    text = Path("configs/fixed_path.cfg").read_text()
    text = text.replace("n_max: 12", "n_max: 14").replace(
        "suites: [exact, quenched-rate, criteria, burkholder, identity]", "suites: [quenched-rate]"
    )
    path = tmp_path / "long.cfg"
    path.write_text(text)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"bprelab: error: {path}: n_max: 14 exceeds the fixed path's 12 states\n"
    assert captured.out == ""


def test_rates_suite_on_a_fixed_path_exits_1(tmp_path, capsys):
    text = Path("configs/fixed_path.cfg").read_text().replace(
        "suites: [exact, quenched-rate, criteria, burkholder, identity]", "suites: [rates]"
    )
    path = tmp_path / "fixed-rates.cfg"
    path.write_text(text)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"bprelab: error: {path}: environment: rates needs a 'kind: mixture' "
        "environment; a fixed path has no stationary law\n"
    )
    assert captured.out == ""


def test_a_late_suite_need_is_refused_before_simulating(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "run", lambda *args, **kwargs: calls.append(args))
    # quenched-rate, the third suite, needs the path_seed this copy drops
    text = Path("configs/two_state.cfg").read_text().replace("path_seed: 11\n", "")
    path = tmp_path / "no-path-seed.cfg"
    path.write_text(text)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"bprelab: error: {path}: path_seed: quenched-rate on a mixture needs a path_seed\n"
    assert captured.out == ""
    assert calls == []


@pytest.mark.parametrize("a, b", [(5, 2), (5, 4), (6, 5), (7, 5), (8, 5), (9, 5), (10, 4), (10, 8), (10, 9)])
def test_a_critical_fixed_path_is_refused_before_simulating(tmp_path, capsys, monkeypatch, a, b):
    # laws of mean a/b and b/a: the mean product is exactly 1, and the float sum of log means is positive
    monkeypatch.setattr(harness, "run", lambda *args, **kwargs: pytest.fail("a batch was simulated"))
    data = yaml.safe_load(Path("configs/fixed_path.cfg").read_text())
    data["environment"]["path"] = [{0: 1 - 1 / b, a: 1 / b}, {0: 1 - b / a, 1: b / a}] * 6
    data["suites"] = ["quenched-rate"]
    path = tmp_path / "critical.cfg"
    path.write_text(yaml.safe_dump(data))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"bprelab: error: {path}: environment: quenched-rate needs a supercritical environment\n"
    assert captured.out == ""


@pytest.mark.parametrize("config, line, refusal", [
    ("gw_binary", "replicas: 50",
     "replicas: annealed-rate needs at least 100 replicas for its estimates; replicas is 50"),
    ("two_state", "pop_cap: 3000000000000000000",
     "pop_cap: quenched-rate needs pop_cap times the largest offspring count below 2**62 for exact "
     "int64 totals; pop_cap is 3000000000000000000"),
])
def test_a_replicas_or_pop_cap_the_suites_cannot_use_is_refused_first(tmp_path, capsys, monkeypatch,
                                                                       config, line, refusal):
    def ran(*args, **kwargs):
        pytest.fail("a suite ran or simulated")

    monkeypatch.setattr(harness, "run", ran)
    bodies = {name: row._replace(body=ran) for name, row in harness._SUITES.items()}
    monkeypatch.setattr(harness, "_SUITES", bodies)
    key = line.split(":")[0]
    text = [row for row in Path(f"configs/{config}.cfg").read_text().splitlines() if not row.startswith(key)]
    path = tmp_path / f"{config}.cfg"
    path.write_text("\n".join(text + [line]) + "\n")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"bprelab: error: {path}: {refusal}\n"
    assert captured.out == ""


DEST_CFG = """\
schema: 1
name: dest
environment:
  kind: mixture
  states:
    - law: {0: 0.25, 2: 0.75}
suites: [rates, exact, quenched-rate, burkholder]
p: [2.0]
n_max: 6
gap: 1
replicas: 1000
master_seed: 3
path_seed: 4
"""


@pytest.mark.parametrize(
    "command, cfg_out, out, written",
    [
        ("run", "from-config", "from-flag", "from-flag"),
        ("run", "from-config", None, "from-config"),
        ("run", None, None, "dest-report"),
        ("verify", "from-config", None, None),
        ("verify", "from-config", "from-flag", "from-flag"),
    ],
)
def test_output_destination(tmp_path, monkeypatch, capsys, command, cfg_out, out, written):
    # run writes to --out, else the config's out, else <name>-report; verify writes only to --out
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg").mkdir()
    cfg = tmp_path / "cfg" / "dest.cfg"
    cfg.write_text(DEST_CFG + (f"out: {cfg_out}\n" if cfg_out else ""))
    main([command, str(cfg)] + (["--out", out] if out else []))
    lines = capsys.readouterr().out.splitlines()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["cfg"] + ([written] if written else []))
    if written is None:
        assert not any(line.startswith("report:") for line in lines)
        return
    assert lines[-1] == f"report: {Path(written) / 'report.json'}"
    assert sorted(p.name for p in (tmp_path / written).iterdir()) == [
        "burkholder.csv", "exact_annealed.csv", "exact_quenched.csv", "quenched_rate_p2.csv", "rates.csv",
        "report.json",
    ]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == f"bprelab {__version__}"


def test_console_script_installed(gw_cfg, tmp_path):
    assert shutil.which("bprelab") is not None
    result = subprocess.run(
        [sys.executable, "-m", "bprelab", "run", str(gw_cfg), "--out", str(tmp_path / "sub")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert "summary:" in result.stdout
