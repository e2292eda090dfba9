"""CLI behavior: subcommands, exit codes, overrides, console script."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

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
    assert report["condition_flags"]["supercritical"] is True


def test_rates_p_override_appends(capsys):
    assert main(["rates", "configs/gw_binary.cfg", "--p", "1.5", "--p", "3.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [r["p"] for r in payload["rates"]] == [1.5, 3.0]


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--p", "inf"], "p[0]: each p must be a number > 1"),
        (["--p", "2", "--p", "2"], "p[1]: duplicate entry 2.0"),
    ],
)
def test_rates_p_is_checked_like_a_config_value(capsys, extra, message):
    assert main(["rates", "configs/gw_binary.cfg", *extra]) == 1
    captured = capsys.readouterr()
    # the value came from the command line, so the message has no file line
    assert captured.err == f"bprelab: error: configs/gw_binary.cfg: {message}\n"
    assert captured.out == ""


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
    a["config"]["values"].pop("threads", None), b["config"]["values"].pop("threads", None)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


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
    assert values == jsonable(file_values | {"master_seed": 99, "threads": 2})


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
def test_negative_seed_is_a_config_error(gw_cfg, tmp_path, capsys, command):
    out_dir = tmp_path / "out"
    assert main([command, str(gw_cfg), "--seed", "-1", "--out", str(out_dir)]) == 1
    captured = capsys.readouterr()
    # the value came from the command line, so the message has no file line
    assert captured.err == f"bprelab: error: {gw_cfg}: master_seed: must be >= 0\n"
    assert captured.out == ""
    assert not out_dir.exists()


def test_bad_threads_value(gw_cfg, capsys):
    assert main(["run", str(gw_cfg), "--threads", "0"]) == 1
    assert capsys.readouterr().err == f"bprelab: error: {gw_cfg}: threads: must be >= 1\n"
    # verify simulates one small batch and takes no --threads
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
