import argparse
import copy
import dataclasses
import json
import math
import re

import numpy as np
import pytest

from fintstab import cli, config
from fintstab.cli import (EXAMPLE1, PRESETS, certify, condition_reports, main,
                          read_trajectory_csv, run,
                          run_example1, run_example1_adaptive,
                          run_example1_sweep, run_example2,
                          write_trajectory_csv)
from fintstab.config import ConfigError, adaptive_hook, load_config
from fintstab.control import NetworkControlSpec
from fintstab.integrate import HistoryTrajectory


def _scalar_doc(**over):
    doc = {
        "schema_version": 1,
        "kind": "scalar",
        "system": {"c1": 1.0, "c2": 2.0, "initial_state": [2.0]},
        "gains": {"c3": 2.1, "c4": 3.5},
        "delay": {"kind": "proportional", "q": 0.5},
        "rate": {"kind": "power", "exponent": 0.1},
        "integrator": {"horizon": 5.0, "h": 0.001},
        "output": {"csv": "traj.csv"},
    }
    doc.update(over)
    return doc


def test_config_roundtrip_lossless():
    doc = _scalar_doc()
    cfg = load_config(doc)
    assert cfg.raw is doc and doc == _scalar_doc()   # as given, unchanged by loading
    assert cfg.kind == "scalar"
    assert cfg.delay.q == 0.5
    assert cfg.integrator.h == 0.001


def test_config_rejects_unknown_field_by_name():
    doc = _scalar_doc()
    doc["system"]["c9"] = 1.0
    with pytest.raises(ConfigError, match="c9"):
        load_config(doc)
    # explicit Euler is the one step rule: no field chooses another
    doc = _scalar_doc(integrator={"horizon": 5.0, "method": "euler"})
    with pytest.raises(ConfigError, match=r"^integrator\.method: unknown field$"):
        load_config(doc)


def test_config_rejects_bad_types_and_versions():
    with pytest.raises(ConfigError, match="schema_version"):
        load_config(_scalar_doc(schema_version=2))
    doc = _scalar_doc()
    doc["integrator"]["h"] = "fast"
    with pytest.raises(ConfigError, match="integrator.h"):
        load_config(doc)
    doc = _scalar_doc()
    del doc["system"]["c1"]
    with pytest.raises(ConfigError, match="system.c1"):
        load_config(doc)


def test_config_rejects_booleans_for_numbers():
    for block, key in (("integrator", "horizon"), ("integrator", "h"),
                       ("system", "c1"), ("system", "dimension")):
        for flag in (True, False):
            doc = _scalar_doc()
            doc[block][key] = flag
            with pytest.raises(ConfigError, match=rf"{block}\.{key}: .* got bool"):
                load_config(doc)


def test_config_rejects_bad_output_fields():
    for stride in (0, -1, 2.5, "2", True, None):
        doc = _scalar_doc(output={"csv": "traj.csv", "stride": stride})
        with pytest.raises(ConfigError, match=r"output\.stride"):
            load_config(doc)
    for path in (3, ["traj.csv"], None, False):
        with pytest.raises(ConfigError, match=r"output\.csv"):
            load_config(_scalar_doc(output={"csv": path}))
    assert load_config(_scalar_doc(output={"csv": "t.csv", "stride": 5})).output["stride"] == 5


def test_cli_rejects_bad_strides(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    doc = {"schema_version": 1, "kind": "network", "system": {"preset": "lorenz3"},
           "rate": {"kind": "power", "exponent": 0.1},
           "integrator": {"horizon": 0.01, "h": 5e-4}}
    cfgp = tmp_path / "net.json"
    for stride in (0, -1):
        cfgp.write_text(json.dumps(dict(doc, output={"csv": "net.csv", "stride": stride})))
        assert main(["simulate", str(cfgp)]) == 1
        assert capsys.readouterr().err.startswith("config error: output.stride: ")
        assert not (tmp_path / "net.csv").exists()
    cfgp.write_text(json.dumps(dict(doc, output={"csv": "net.csv", "stride": 2})))
    assert main(["simulate", str(cfgp)]) == 0
    assert len((tmp_path / "net.csv").read_text().splitlines()) == 12


def test_config_delay_kinds():
    doc = _scalar_doc()
    doc["delay"] = {"kind": "constant", "pi": 2.0}
    assert load_config(doc).delay.envelope_kind == "constant"
    doc["delay"] = {"kind": "custom_grid", "coefficients": [0.3], "envelope_q": 0.5}
    delay = load_config(doc).delay
    assert delay.slopes == (0.3,) and delay.q == 0.5 and delay.lag == 0.0
    doc["delay"] = {"kind": "nonsense"}
    with pytest.raises(ConfigError, match="delay.kind"):
        load_config(doc)


def test_csv_roundtrip(tmp_path):
    states = np.column_stack([np.linspace(0, 1, 11), np.linspace(2, 0, 11)])
    gains = np.linspace(0, 5, 11)[:, None]
    traj = HistoryTrajectory.from_arrays(0.0, 0.1, states,
                                         gain_names=("c3",), gains=gains)
    path = tmp_path / "t.csv"
    write_trajectory_csv(path, traj)
    back = read_trajectory_csv(path)
    assert np.array_equal(back.states, traj.states)
    assert np.array_equal(back.gains, traj.gains)
    assert back.gain_names == ("c3",)
    assert back.h == pytest.approx(0.1)


def test_csv_deterministic(tmp_path):
    res = run_example1(horizon=2.0)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trajectory_csv(p1, res.traj)
    write_trajectory_csv(p2, res.traj)
    assert p1.read_bytes() == p2.read_bytes()
    res2 = run_example1(horizon=2.0)
    p3 = tmp_path / "c.csv"
    write_trajectory_csv(p3, res2.traj)
    assert p1.read_bytes() == p3.read_bytes()


def test_csv_stride(tmp_path):
    res = run_example1(horizon=2.0)
    path = tmp_path / "s.csv"
    write_trajectory_csv(path, res.traj, stride=10)
    n_lines = len(path.read_text().strip().splitlines())
    assert n_lines == 1 + (res.traj.states.shape[0] + 9) // 10


def test_example1_static_summary():
    res = run_example1(horizon=5.0)
    assert res.report.feasible
    assert res.report.c4_threshold == pytest.approx(1 + 2 ** 1.05, abs=1e-6)
    assert math.isfinite(res.T_settle)
    assert res.phases.envelope_violations == 0
    assert res.T_settle <= res.settle_bound


def test_example1_sweep_order_and_monotonicity():
    pts = run_example1_sweep("c4", [3.5, 4.5], horizon=5.0)
    assert [v for v, _ in pts] == [3.5, 4.5]
    assert pts[0][1] > pts[1][1]
    with pytest.raises(ValueError):
        run_example1_sweep("c1", [1.0])


def test_cli_check_exit_codes(tmp_path):
    cfgp = tmp_path / "ok.json"
    cfgp.write_text(json.dumps(_scalar_doc()))
    assert main(["check", str(cfgp)]) == 0
    bad = _scalar_doc()
    bad["gains"] = {"c3": 2.0, "c4": 1.0}  # c3 = |c2|: infeasible
    badp = tmp_path / "bad.json"
    badp.write_text(json.dumps(bad))
    assert main(["check", str(badp), "--require-feasible"]) == 2
    assert main(["check", str(badp)]) == 0  # report only, no guarantee asked


def test_cli_error_exit_code(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["check", str(broken)]) == 1
    missing = _scalar_doc()
    missing["typo_block"] = {}
    p = tmp_path / "typo.json"
    p.write_text(json.dumps(missing))
    assert main(["check", str(p)]) == 1


def test_power_rate_with_a_constant_delay_is_certified():
    # mu(t) / mu(t - pi) = (t / (t - pi))**rho -> 1: beta = eta = 0, and the
    # run settles within its printed bound
    res = run(load_config(_scalar_doc(delay={"kind": "constant", "pi": 1.0})))
    assert (res.report.details["beta"], res.report.details["eta"]) == (0.0, 0.0)
    assert res.report.feasible and res.phases.envelope_violations == 0
    assert res.T_settle <= res.settle_bound


def test_overflowing_asymptotics_have_no_closed_form(tmp_path, monkeypatch, capsys):
    # 1 + eta = exp(1000 * 1) overflows a float: check reports an error and
    # simulate runs without a report, as for any pair with no closed form
    monkeypatch.chdir(tmp_path)
    doc = _scalar_doc(rate={"kind": "exponential", "rate": 1000.0},
                      delay={"kind": "constant", "pi": 1.0})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: 1 + eta overflows") and "Traceback" not in err
    assert main(["simulate", str(path)]) == 0
    assert run(load_config(doc)).report is None


def test_exponential_rate_with_a_proportional_delay_is_checked(tmp_path, monkeypatch, capsys):
    # mu(t) / mu(t - q t) = exp(varpi q t) is unbounded: eta = inf, so every
    # norm's condition is infeasible (lhs inf), an answer and not an error;
    # simulate prints no settling bound and takes eps2 from the sign margin
    monkeypatch.chdir(tmp_path)
    doc = _scalar_doc(rate={"kind": "exponential", "rate": 0.1})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 0
    out = capsys.readouterr().out
    rows = re.findall(r"^(scalar_\w+_norm) +(\S+) +(\S+)", out, re.M)
    assert rows == [(f"scalar_{n}_norm", "False", "inf") for n in ("two", "one", "inf")]
    assert main(["check", "--require-feasible", str(path)]) == 2
    capsys.readouterr()
    assert main(["simulate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "eps2 = 0.09\n" in out and "settling_bound" not in out
    res = run(load_config(doc))
    assert res.report.details["eta"] == math.inf and not res.report.feasible
    # c2 = 0: no delayed term, so the infinite eta does not enter
    doc["system"] = dict(doc["system"], c2=0.0)
    path.write_text(json.dumps(doc))
    assert main(["check", "--require-feasible", str(path)]) == 0
    assert all(r.feasible for r in condition_reports(load_config(doc)))


def _doc_file(tmp_path, name, doc):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(dict(doc, integrator={"horizon": 1.0, "h": 1e-3},
                                    output={"csv": str(tmp_path / f"{name}.csv")})))
    return str(path)


_ADAPTIVE1 = dict(EXAMPLE1, adaptive={"enabled": True, "d1": 0.1, "d2": 0.1, "d3": 0.1})


@pytest.mark.parametrize("written, checked, message", [
    (_ADAPTIVE1, EXAMPLE1, "gain columns (c3, c4) are not the ones this config records (none)"),
    (EXAMPLE1, _ADAPTIVE1, "gain columns (none) are not the ones this config records (c3, c4)"),
    (EXAMPLE1, dict(EXAMPLE1, system=dict(EXAMPLE1["system"], initial_state=[2.5])),
     "row 0 [2.0] is not system.initial_state [2.5]"),
    (dict(EXAMPLE1, system=dict(EXAMPLE1["system"], initial_state=[-0.0])),
     dict(EXAMPLE1, system=dict(EXAMPLE1["system"], initial_state=[0.0])),
     "row 0 [-0.0] is not system.initial_state [0.0]"),
], ids=["adaptive_as_static", "static_as_adaptive", "other_start", "signed_zero_start"])
def test_monitor_refuses_a_trajectory_of_another_config(tmp_path, capsys, written, checked,
                                                        message):
    # the cheap tells of a trajectory another config wrote: its gain columns
    # and, for a scalar config, its row 0 bitwise
    assert main(["simulate", _doc_file(tmp_path, "written", written)]) == 0
    assert main(["monitor", _doc_file(tmp_path, "own", written), str(tmp_path / "written.csv"),
                 "--out", str(tmp_path / "m.csv")]) == 0
    capsys.readouterr()
    code = main(["monitor", _doc_file(tmp_path, "checked", checked),
                 str(tmp_path / "written.csv"), "--out", str(tmp_path / "m.csv")])
    out = capsys.readouterr()
    assert code == 1 and out.out == ""
    assert out.err == f"error: trajectory CSV {message}\n"


def test_cli_simulate_and_monitor(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(_scalar_doc()))
    assert main(["simulate", str(cfgp)]) == 0
    assert (tmp_path / "traj.csv").exists()
    assert main(["monitor", str(cfgp), "traj.csv", "--out", "mon.csv"]) == 0
    head = (tmp_path / "mon.csv").read_text().splitlines()[0]
    assert head == "t,V,W,contact"


def test_network_simulate_infeasible_guarantee(tmp_path, monkeypatch, capsys):
    # the preset's uncontrolled network fails its condition: simulate answers
    # the request as check does, with the scalar branch's message and no CSV
    monkeypatch.chdir(tmp_path)
    doc = {"schema_version": 1, "kind": "network", "system": {"preset": "lorenz3"},
           "rate": {"kind": "power", "exponent": 0.1},
           "integrator": {"horizon": 0.5, "h": 5e-4},
           "monitor": {"require_feasible": True}, "output": {"csv": "net.csv"}}
    cfgp = tmp_path / "net.json"
    cfgp.write_text(json.dumps(doc))
    assert main(["check", str(cfgp)]) == 2
    capsys.readouterr()
    assert main(["simulate", str(cfgp)]) == 2
    assert capsys.readouterr().out == ("requested feasibility guarantee, but the "
                                       "condition is infeasible\n")
    assert not (tmp_path / "net.csv").exists()
    # a feasible full-node control block is run and written
    doc.update(control={"kind": "full", "theta3": 10.0, "theta4": 720.0},
               integrator={"horizon": 0.01, "h": 5e-4})
    cfgp.write_text(json.dumps(doc))
    assert condition_reports(load_config(doc))[0].feasible
    assert main(["simulate", str(cfgp)]) == 0
    assert (tmp_path / "net.csv").exists()


_NETWORK = {"schema_version": 1, "kind": "network", "system": {"preset": "lorenz3"},
            "rate": {"kind": "power", "exponent": 0.1},
            "integrator": {"horizon": 0.01, "h": 5e-4}, "output": {"csv": "traj.csv"}}
_UNCERTIFIED = {
    "adaptive_scalar": _scalar_doc(adaptive={"enabled": True, "d1": 0.1, "d2": 0.1,
                                             "d3": 0.1}),
    # its static block is feasible, but the run applies the hook's gains
    "adaptive_network": dict(_NETWORK, control={"kind": "full", "theta3": 10.0,
                                                "theta4": 720.0,
                                                "adaptive": {"enabled": True}}),
    "static_infeasible_scalar": _scalar_doc(gains={"c3": 2.0, "c4": 1.0}),
}


@pytest.mark.parametrize("doc", _UNCERTIFIED.values(), ids=list(_UNCERTIFIED))
def test_simulate_refuses_a_run_without_a_certificate_before_it(tmp_path, monkeypatch,
                                                                 capsys, doc):
    # require_feasible is answered once, before the run: an adaptive run has
    # no static certificate under either kind, and an infeasible one is refused
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run", lambda cfg: pytest.fail("simulate ran the config"))
    doc = dict(doc, monitor={"require_feasible": True})
    if doc["kind"] == "network":
        static = dict(doc, control=dict(doc["control"], adaptive={"enabled": False}))
        assert condition_reports(load_config(static))[0].feasible
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(doc))
    assert main(["simulate", str(cfgp)]) == 2
    assert capsys.readouterr().out == ("requested feasibility guarantee, but the "
                                       "condition is infeasible\n")
    assert not (tmp_path / "traj.csv").exists()


_REQUIRE = {
    "adaptive_scalar": (_UNCERTIFIED["adaptive_scalar"], 2),
    "adaptive_network": (_UNCERTIFIED["adaptive_network"], 2),
    "static_feasible_scalar": (_scalar_doc(), 0),
    "static_feasible_network": (dict(_NETWORK, control={"kind": "full", "theta3": 10.0,
                                                        "theta4": 720.0}), 0),
}


@pytest.mark.parametrize("doc, code", _REQUIRE.values(), ids=list(_REQUIRE))
def test_check_and_simulate_answer_require_feasible_alike(tmp_path, monkeypatch, capsys,
                                                          doc, code):
    # an enabled adaptive block has no static certificate, even where its unused
    # static block is feasible in every norm: check refuses it as simulate does,
    # after its table and note; a feasible static config passes both
    monkeypatch.chdir(tmp_path)
    plain, required = tmp_path / "plain.json", tmp_path / "required.json"
    plain.write_text(json.dumps(doc))
    required.write_text(json.dumps(dict(doc, monitor={"require_feasible": True})))
    assert all(r.feasible for r in condition_reports(load_config(doc)))
    assert main(["check", str(plain)]) == 0
    table = capsys.readouterr().out
    assert main(["check", str(plain), "--require-feasible"]) == code
    assert capsys.readouterr().out == table
    assert main(["check", str(required)]) == code
    assert capsys.readouterr().out == table
    assert table.startswith("condition ") and ("\nnote: adaptive gains" in table) == (code == 2)
    assert main(["simulate", str(required)]) == code
    assert (tmp_path / "traj.csv").exists() == (code == 0)


@pytest.mark.parametrize("param", ["gains.c3", "gains.c4"])
def test_sweep_refuses_a_static_gain_of_an_adaptive_config(capsys, param):
    # the adaptive run never reads the gains block: each point would repeat
    # one T_settle, so the sweep is an error before any run
    assert main(["sweep", "example1_adaptive", "--param", param, "--values", "2.1,5,9"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {param}: ")


def test_sweep_over_an_adaptive_rate(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(_scalar_doc(adaptive={"enabled": True, "d1": 0.1, "d2": 0.1,
                                                     "d3": 0.1})))
    assert main(["sweep", str(cfgp), "--param", "adaptive.d1", "--values", "0.1,0.5"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_cli_sweep(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(_scalar_doc()))
    rc = main(["sweep", str(cfgp), "--param", "gains.c4",
               "--values", "3.5,4.5", "--out", "sweep.csv"])
    assert rc == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "gains.c4,T_settle"
    assert len(lines) == 3
    assert main(["sweep", str(cfgp), "--param", "gains.c9",
                 "--values", "1"]) == 1


@pytest.fixture(scope="module")
def example1_run():
    return run_example1()


@pytest.mark.parametrize("name", ["example1", "example1_adaptive"])
def test_scalar_presets_run_as_the_helpers_defaults(name, example1_run):
    res = run(load_config(PRESETS[name]))
    ref = example1_run if name == "example1" else run_example1_adaptive()
    assert res.traj.states.tobytes() == ref.traj.states.tobytes()
    assert res.traj.gain_names == ref.traj.gain_names
    if ref.traj.gains is not None:
        assert res.traj.gains.tobytes() == ref.traj.gains.tobytes()
    assert (res.T1, res.T_settle, res.eps2, res.settle_bound) == \
        (ref.T1, ref.T_settle, ref.eps2, ref.settle_bound)


@pytest.mark.parametrize("name, variant", [("example2", "nocontrol"),
                                           ("example2_adaptive", "adaptive")])
def test_network_presets_load_as_the_helpers_configs(name, variant, monkeypatch):
    # run_example2 hands its loaded config to run; every built block agrees
    monkeypatch.setattr(cli, "run", lambda cfg: cfg)
    ref = run_example2(variant)
    cfg = load_config(PRESETS[name])
    for field in dataclasses.fields(cfg):
        if field.name != "raw":
            assert getattr(cfg, field.name) == getattr(ref, field.name), field.name


def test_preset_names_resolve_to_fresh_copies():
    for name, doc in PRESETS.items():
        before = copy.deepcopy(doc)
        resolved = cli._document(name)
        assert resolved == before
        resolved["integrator"]["horizon"] = -1.0
        assert PRESETS[name] == before and cli._document(name) == before


def test_simulate_and_monitor_a_preset(tmp_path, monkeypatch, capsys, example1_run):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "example1"]) == 0
    sim = capsys.readouterr().out
    write_trajectory_csv(tmp_path / "ref.csv", example1_run.traj)
    assert (tmp_path / "trajectory.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert main(["monitor", "example1", "trajectory.csv"]) == 0
    mon = capsys.readouterr().out
    for key in ("T1", "T_settle"):
        value = re.search(rf"^{key} = (\S+)$", sim, re.M).group(1)
        assert f"{key}={value}," in mon


def test_sweep_a_preset(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "example1", "--param", "gains.c4", "--values", "3.5,4.5"]) == 0
    printed = capsys.readouterr().out.splitlines()
    points = run_example1_sweep("c4", [3.5, 4.5])
    assert printed == [f"gains.c4 = {v:g}: T_settle = {ts:.6g}" for v, ts in points]


def test_check_a_preset(capsys):
    for name in PRESETS:
        assert main(["check", name]) == 0
        table = capsys.readouterr().out
        theorem = "network_full" if name.startswith("example2") else "scalar_two_norm"
        assert re.search(rf"^{theorem} ", table, re.M), name


def test_config_paths_still_load(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_scalar_doc()))
    assert main(["check", str(path)]) == 0
    capsys.readouterr()
    for missing in (str(tmp_path / "missing.json"), "example3"):
        assert main(["check", missing]) == 1
        assert capsys.readouterr().err.startswith("error: ")


def test_parser_offers_the_four_commands_and_names_the_presets():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == {"simulate", "check", "monitor", "sweep"}
    for command, p in sub.choices.items():
        help_text = next(a.help for a in p._actions if a.dest == "config")
        assert all(name in help_text for name in PRESETS), command
    for gone in ("example1", "example2"):
        with pytest.raises(SystemExit) as exc:
            main([gone])
        assert exc.value.code == 2


def test_memory_error_is_an_error_line(monkeypatch, capsys):
    # a horizon too long to allocate reaches main as MemoryError
    for exc, line in ((MemoryError("Unable to allocate 7.28 TiB"),
                       "error: Unable to allocate 7.28 TiB\n"),
                      (MemoryError(), "error: MemoryError\n")):
        def raising(cfg, exc=exc):
            raise exc
        monkeypatch.setattr(cli, "run", raising)
        assert main(["simulate", "example1"]) == 1
        assert capsys.readouterr().err == line


def test_adaptive_runner_gains_recorded():
    res = run_example1_adaptive(horizon=3.0)
    assert res.traj.gain_names == ("c3", "c4")
    assert res.traj.gains.shape[0] == res.traj.states.shape[0]


def test_example2_runner_variants():
    base = run_example2("nocontrol", horizon=0.5, h=1e-3)
    assert base.gains is None
    with pytest.raises(ValueError):
        run_example2("bangbang")


def _network_doc(control, **over):
    doc = {"schema_version": 1, "kind": "network", "system": {"preset": "lorenz3"},
           "control": control, "rate": {"kind": "power", "exponent": 0.1},
           "integrator": {"horizon": 1.0, "h": 1e-3}}
    doc.update(over)
    return doc


def _network_outputs(doc):
    res = run(load_config(doc))
    return res.sync.error.states.tolist(), res.gain_names, res.gains.tolist()


def test_network_config_fields_change_the_run():
    # d1 = 5 reaches the unit ball within the horizon, where d2 acts
    adaptive = {"enabled": True, "d1": 5.0, "d3": 0.02}
    full = {"kind": "full", "adaptive": adaptive}
    base = _network_outputs(_network_doc(full))
    assert _network_outputs(_network_doc(dict(full, adaptive=dict(adaptive, d2=5.0)))) == base
    integ = {"horizon": 1.0, "h": 1e-3}
    changed = {
        "rate": _network_doc(full, rate={"kind": "power", "exponent": 0.3}),
        # pinning adapts theta1 in place of full-node feedback's theta4
        "kind": _network_doc({"kind": "pinning", "adaptive": adaptive}),
        "d2": _network_doc(dict(full, adaptive=dict(adaptive, d2=0.5))),
        "zero_band": _network_doc(full, integrator=dict(integ, zero_band=0.05)),
        # the hook freezes once the windowed squared error is <= zero_tol**2
        "zero_tol": _network_doc(full, integrator=dict(integ, zero_tol=0.5)),
    }
    for field, doc in changed.items():
        assert _network_outputs(doc) != base, field
    assert _network_outputs(changed["kind"])[1] == ("theta1", "theta3")


def test_static_network_control_settles_on_the_config_path():
    # integrator.zero_band unset: the error system takes theta3 * h
    doc = _network_doc({"kind": "full", "theta3": 40.0, "theta4": 30.0},
                       integrator={"horizon": 0.1, "h": 5e-4})
    assert run(load_config(doc)).outer[-1] == 0.0


@pytest.mark.parametrize("control, field", [
    ({"kind": "none", "theta3": 100.0, "theta4": 1000.0}, "theta3"),   # no certificate
    ({"kind": "full", "theta3": 10.0, "sigma": 2.0}, "sigma"),
    ({"kind": "pinning", "theta3": 10.0, "theta4": 30.0}, "theta4"),
    ({"kind": "none", "adaptive": {"enabled": False}}, "adaptive"),
    ({"kind": "pinning", "adaptive": {"enabled": True, "variant": "theta1_theta3"}},
     "adaptive.variant"),
], ids=["none_theta3", "full_sigma", "pinning_theta4", "none_adaptive", "variant"])
def test_control_takes_only_the_gains_its_kind_applies(tmp_path, capsys, control, field):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_network_doc(control)))
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err == f"config error: control.{field}: unknown field\n"


def test_control_block_names_its_kind_and_the_adaptive_law_follows_it(tmp_path, capsys):
    with pytest.raises(ConfigError, match=r"^control\.kind: required field missing"):
        load_config(_network_doc({"theta3": 10.0}))
    assert load_config({k: v for k, v in _network_doc({}).items()
                        if k != "control"}).control == NetworkControlSpec("none")
    # adaptive pinning is checked against the pinned-coupling condition
    doc = _network_doc({"kind": "pinning", "sigma": 2.0,
                        "adaptive": {"enabled": True, "d1": 0.5, "d3": 0.2}})
    assert adaptive_hook(load_config(doc)).names == ("theta1", "theta3")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 0
    assert re.search(r"^network_pinning ", capsys.readouterr().out, re.M)


def test_network_config_matches_the_preset_runner():
    doc = _network_doc({"kind": "full", "adaptive": {"enabled": True, "d1": 0.05, "d3": 0.02}},
                       integrator={"horizon": 0.5, "h": 1e-3})
    res = run(load_config(doc))
    ref = run_example2("adaptive", horizon=0.5, h=1e-3)
    assert res.sync.error.states.tolist() == ref.sync.error.states.tolist()
    assert res.gains.tolist() == ref.gains.tolist()


def test_zero_tol_sets_the_detected_settling_time():
    doc = _scalar_doc()
    default = run(load_config(doc))
    doc["integrator"]["zero_tol"] = 1e-9
    assert run(load_config(doc)).T_settle == default.T_settle
    doc["integrator"]["zero_tol"] = 1e-2
    coarse = run(load_config(doc))
    assert math.isfinite(default.T_settle)
    assert coarse.T_settle < default.T_settle


_SCALAR_ADAPTIVE = {"enabled": True, "d1": 0.1, "d2": 0.1, "d3": 0.1}


@pytest.mark.parametrize("block, patch, field", [
    ("gains", {"c3": "2.1"}, "gains.c3"),
    ("gains", {"c3": True}, "gains.c3"),
    ("gains", {"c4": None}, "gains.c4"),
    ("adaptive", {"enabled": "no"}, "adaptive.enabled"),
    ("adaptive", dict(_SCALAR_ADAPTIVE, norm="foo"), "adaptive.norm"),
    ("adaptive", dict(_SCALAR_ADAPTIVE, d1="0.1"), "adaptive.d1"),
    ("adaptive", {"enabled": True, "d1": 0.1, "d3": 0.1}, "adaptive.d2"),
    ("monitor", {"kappa": None}, "monitor.kappa"),
    ("monitor", {"start_time": "1"}, "monitor.start_time"),
    ("monitor", {"eps1": False}, "monitor.eps1"),
    ("monitor", {"require_feasible": "yes"}, "monitor.require_feasible"),
    ("control", {"kind": "full", "theta3": "1"}, "control.theta3"),
    ("control", {"kind": "sideways"}, "control.kind"),
    ("control", {"kind": "pinning", "sigma": None}, "control.sigma"),
    ("control", {"kind": "full", "adaptive": None}, "control.adaptive"),
    ("control", {"kind": "full", "adaptive": {"enabled": 1}}, "control.adaptive.enabled"),
    # the adaptive law follows the control kind: no variant field
    ("control", {"kind": "full", "adaptive": {"enabled": True, "variant": "theta2"}},
     "control.adaptive.variant"),
    # null is rejected, never read as an absent field
    ("gains", None, "config.gains"),
    ("monitor", None, "config.monitor"),
    ("system", {"c1": 1.0, "c2": 2.0, "initial_state": [2.0], "dimension": None},
     "system.dimension"),
    ("delay", {"kind": "proportional", "q": 0.5, "n_components": None},
     "delay.n_components"),
    ("integrator", {"horizon": 5.0, "h": None}, "integrator.h"),
    ("integrator", {"horizon": 5.0, "method": None}, "integrator.method"),
    ("integrator", {"horizon": 5.0, "zero_band": None}, "integrator.zero_band"),
    ("integrator", {"horizon": 5.0, "zero_tol": None}, "integrator.zero_tol"),
])
def test_config_rejects_mistyped_block_fields(tmp_path, block, patch, field):
    # every field is type-checked, null included, and `fintstab simulate`
    # reports the field instead of running or crashing
    doc = _network_doc(patch) if block == "control" else _scalar_doc(**{block: patch})
    with pytest.raises(ConfigError, match=rf"^{re.escape(field)}: "):
        load_config(doc)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path)]) == 1


def test_config_accepts_well_typed_block_fields():
    doc = _scalar_doc(adaptive=dict(_SCALAR_ADAPTIVE, norm="inf"),
                      monitor={"kappa": 0.9, "start_time": 1, "eps1": 0.5,
                               "require_feasible": False})
    assert load_config(doc).adaptive["norm"] == "inf"
    # disabled adaptation needs no rates; the network block defaults d1..d3
    load_config(_scalar_doc(adaptive={"enabled": False}))
    load_config(_network_doc({"kind": "pinning", "theta3": 1, "sigma": 2.0,
                              "adaptive": {"enabled": True}}))


# -- the schema table, one (block, kind) field table at a time ---------------------

_DELAY_BLOCKS = {"proportional": {"kind": "proportional", "q": 0.5},
                 "constant": {"kind": "constant", "pi": 1.0},
                 "per_component_sin": {"kind": "per_component_sin", "n_nodes": 1},
                 "custom_grid": {"kind": "custom_grid", "coefficients": [0.3]}}
_RATE_BLOCKS = {"power": {"kind": "power", "exponent": 0.1},
                "exponential": {"kind": "exponential", "rate": 0.5}}


def _tables(spec=config._SCHEMA, path="config", ctx=None):
    """(path, kinds, table, fields of the sibling kinds) of every field table:
    `kinds` maps each kinded block on the way (the document is "config") to
    the kind whose table this is."""
    ctx = ctx or {}
    kinded = isinstance(spec, config._Kinds)
    for kind, table in (spec.items() if kinded else [(None, spec)]):
        here = dict(ctx, **{path: kind}) if kinded else ctx
        others = set().union(*spec.values()) - set(table) if kinded else set()
        if kinded:
            table = dict(table, kind=(tuple(spec), config.REQUIRED))
        yield path, here, table, others
        for key, (want, _) in table.items():
            if isinstance(want, dict):
                yield from _tables(want, key if path == "config" else f"{path}.{key}", here)


def _valid_doc(kinds):
    """A smallest valid document for the kinds of a table's path."""
    if kinds["config"] == "network":
        doc = {"schema_version": 1, "kind": "network", "system": {"preset": "lorenz3"}}
        if "control" in kinds:
            doc["control"] = {"kind": kinds["control"]}
    else:
        doc = {"schema_version": 1, "kind": "scalar",
               "system": {"c1": 1.0, "c2": 2.0, "initial_state": [2.0]},
               "delay": dict(_DELAY_BLOCKS[kinds.get("delay", "proportional")])}
    doc.update(rate=dict(_RATE_BLOCKS[kinds.get("rate", "power")]),
               integrator={"horizon": 1.0})
    return doc


def _block_of(doc, path):
    node = doc
    for part in ([] if path == "config" else path.split(".")):
        node = node.setdefault(part, {})
    return node


def _loaded_block(cfg, path):
    """The loaded block at `path`: a dict, or a built object (`gains`,
    `control`, `integrator`, ...); a network's `control.adaptive` loads as
    `cfg.adaptive`."""
    return cfg.adaptive if path == "control.adaptive" else getattr(cfg, path)


def _loaded(cfg):
    """Every loaded block of a config, built ones by their repr."""
    return repr(dataclasses.replace(cfg, raw=None))


_TABLES = list(_tables())


@pytest.mark.parametrize("path, kinds, table, others", _TABLES,
                         ids=["-".join([p] + [k for k in kinds.values() if k])
                              for p, kinds, _, _ in _TABLES])
def test_schema_table(path, kinds, table, others):
    doc = _valid_doc(kinds)
    base = load_config(doc)
    for key, (want, default) in table.items():
        # a mistyped value names the field
        bad = copy.deepcopy(doc)
        _block_of(bad, path)[key] = [] if isinstance(want, dict) else {}
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}\.{key}: expected "):
            load_config(bad)
        if key in _block_of(doc, path):
            if default is config.REQUIRED:
                absent = copy.deepcopy(doc)
                del _block_of(absent, path)[key]
                with pytest.raises(ConfigError,
                                   match=rf"^{re.escape(path)}\.{key}: required field missing"):
                    load_config(absent)
            continue
        # an absent optional field loads at its default
        if default is None:
            loaded = _loaded_block(base, path)
            resolved = {("control.adaptive", "d2"): 0.05}.get((path, key))  # d2 = d1
            if isinstance(loaded, dict):
                assert loaded[key] == resolved
            elif key in vars(loaded):   # a built block: integrator.zero_band
                assert getattr(loaded, key) is None
        else:
            explicit = copy.deepcopy(doc)
            _block_of(explicit, path)[key] = copy.deepcopy(default)
            assert _loaded(base) == _loaded(load_config(explicit))
            if path in ("system", "gains", "adaptive", "control", "control.adaptive",
                        "monitor", "output") and not isinstance(want, dict):
                loaded = _loaded_block(base, path)
                value = loaded[key] if isinstance(loaded, dict) else getattr(loaded, key)
                assert value == default
    # a field of another kind, or of no kind, is rejected
    for key in sorted(others) + ["bogus"]:
        bad = copy.deepcopy(doc)
        _block_of(bad, path)[key] = 1
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}\.{key}: unknown field"):
            load_config(bad)


def test_schema_table_covers_every_block_and_kind():
    shared = {"rate-power", "rate-exponential", "integrator", "monitor", "output"}
    want = ({"config", "system", "gains", "adaptive", "delay-proportional",
             "delay-constant", "delay-per_component_sin", "delay-custom_grid"} | shared,
            {"config", "system", "control-none", "control-pinning", "control-full",
             "control.adaptive-pinning", "control.adaptive-full"} | shared)
    got = ({"-".join([p] + [k for k in kinds.values() if k][1:])
            for p, kinds, _, _ in _TABLES if kinds["config"] == doc_kind}
           for doc_kind in ("scalar", "network"))
    assert tuple(got) == want


@pytest.mark.parametrize("doc, message", [
    (_scalar_doc(system={"c1": 1.0, "c2": 2.0, "initial_state": [True]}),
     r"^system\.initial_state: expected a list of numbers, got list \[True\]"),
    (_scalar_doc(system={"c1": 1.0, "c2": 2.0, "initial_state": ["a"]}),
     r"^system\.initial_state: "),
    (_scalar_doc(delay={"kind": "custom_grid", "coefficients": [0.3, None]}),
     r"^delay\.coefficients: "),
    (_scalar_doc(delay={"kind": "proportional", "q": 1.5}), r"^delay: proportional ratio"),
    (_scalar_doc(delay={"kind": "custom_grid", "coefficients": []}), r"^delay: "),
    (_scalar_doc(rate={"kind": "power", "exponent": -1}), r"^rate: "),
    (_scalar_doc(delay={"kind": "constant", "pi": 1, "q": 0.5}), r"^delay\.q: unknown field"),
    (_scalar_doc(rate={"kind": "power", "exponent": 0.1, "rate": 3}),
     r"^rate\.rate: unknown field"),
], ids=["bool_element", "string_element", "null_coefficient", "q_range", "no_coefficients",
        "exponent_range", "constant_with_q", "power_with_rate"])
def test_config_rejects_list_elements_ranges_and_foreign_kind_fields(tmp_path, doc, message):
    with pytest.raises(ConfigError, match=message):
        load_config(doc)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path)]) == 1


_DIM3 = {"c1": 1.0, "c2": 0.5, "initial_state": [1.0, -0.5, 0.25]}


@pytest.mark.parametrize("blocks", [
    {"integrator": {"horizon": 2.0, "h": 1e-3}},
    {"system": _DIM3, "gains": {"c3": 2.0, "c4": 4.0}, "adaptive": {"norm": "one"},
     "integrator": {"horizon": 2.0, "h": 1e-3}},
    {"adaptive": {"enabled": True, "d1": 0.1, "d2": 0.1, "d3": 0.1},
     "integrator": {"horizon": 10.0, "h": 1e-3}},
    {"monitor": {"kappa": 0.8, "eps1": 0.5, "start_time": 1.5},
     "integrator": {"horizon": 2.0, "h": 1e-3}},
], ids=["static_two", "dim3_one", "adaptive", "eps1_start_time"])
def test_monitor_agrees_with_simulate(tmp_path, capsys, blocks):
    # monitor re-derives the certificate from the CSV by the same rule as
    # simulate: eps2, the settling bound (printed only when simulate prints
    # one) and the violations
    doc = dict(EXAMPLE1, output={"csv": str(tmp_path / "traj.csv")}, **blocks)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    res = run(load_config(doc))
    assert math.isfinite(res.T1)
    assert main(["simulate", str(path)]) == 0
    capsys.readouterr()
    main(["monitor", str(path), str(tmp_path / "traj.csv"), "--out", str(tmp_path / "m.csv")])
    line = capsys.readouterr().out.splitlines()[0]
    bound = "" if res.settle_bound is None else f"settling_bound={res.settle_bound:.6g}, "
    assert line == (f"T1={res.T1:.6g}, T_settle={res.T_settle:.6g}, {bound}"
                    f"violations={res.phases.envelope_violations}")


def test_monitor_needs_the_adaptive_gain_column(tmp_path, capsys):
    doc = dict(EXAMPLE1, adaptive={"enabled": True, "d1": 0.1, "d2": 0.1, "d3": 0.1},
               integrator={"horizon": 1.0, "h": 1e-3})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    write_trajectory_csv(tmp_path / "static.csv", run_example1(horizon=1.0).traj)
    assert main(["monitor", str(path), str(tmp_path / "static.csv"),
                 "--out", str(tmp_path / "m.csv")]) == 1
    assert ("trajectory CSV gain columns (none) are not the ones this config records "
            "(c3, c4)") in capsys.readouterr().err


def _monitor(tmp_path, capsys, doc):
    """simulate then monitor `doc`: (exit code, stdout, stderr) of monitor."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(doc, output=dict(doc.get("output", {}),
                                                    csv=str(tmp_path / "traj.csv")))))
    assert main(["simulate", str(path)]) == 0
    capsys.readouterr()
    code = main(["monitor", str(path), str(tmp_path / "traj.csv"),
                 "--out", str(tmp_path / "m.csv")])
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("doc", [
    PRESETS["example1_adaptive"],                  # no condition report: settles at 16.682
    dict(EXAMPLE1, gains={"c3": 0.5, "c4": 3.5}),  # c3 < |c2|: infeasible, T1 finite
], ids=["adaptive", "infeasible_c3"])
def test_monitor_prints_no_settling_bound_without_a_feasible_report(tmp_path, capsys, doc):
    # T1 + 1/eps2 bounds nothing here (the adaptive run settles after it),
    # so monitor, like simulate, prints no bound
    res = run(load_config(doc))
    assert res.settle_bound is None and math.isfinite(res.T1)
    code, out, _ = _monitor(tmp_path, capsys, doc)
    assert code == 0
    line = out.splitlines()[0]
    assert line == (f"T1={res.T1:.6g}, T_settle={res.T_settle:.6g}, "
                    f"violations={res.phases.envelope_violations}")
    assert "bound" not in out


def test_monitor_checks_contact_points_from_start_time(tmp_path, capsys):
    # static Example 1 settles at t = 1.294, so V = W = 0 from t = 2.588 on
    doc = dict(EXAMPLE1, integrator={"horizon": 5.0, "h": 1e-3})
    counts = {}
    for start in (None, 3.0):
        if start is not None:
            doc["monitor"] = {"start_time": start}
        code, out, _ = _monitor(tmp_path, capsys, doc)
        assert code == 0
        counts[start] = int(re.search(r"contact points checked = (\d+)", out).group(1))
    assert out.startswith("T1=3,")
    data = np.loadtxt(tmp_path / "m.csv", delimiter=",", skiprows=1)
    contact_t = data[data[:, 3] == 1, 0]
    assert contact_t.size and contact_t.min() >= 3.0
    assert 0 < counts[3.0] < counts[None]


def test_monitor_rejects_a_csv_on_another_grid_step(tmp_path, capsys):
    doc = dict(EXAMPLE1, adaptive={"enabled": True, "d1": 0.1, "d2": 0.1, "d3": 0.1},
               integrator={"horizon": 1.0, "h": 1e-3}, output={"stride": 10})
    code, _, err = _monitor(tmp_path, capsys, doc)
    assert code == 1
    assert "0.01" in err and "integrator.h = 0.001" in err


def test_monitor_rejects_a_csv_without_state_columns(tmp_path, capsys):
    # a network run writes error indices, not a trajectory: nothing to certify
    doc = _network_doc({"kind": "full", "adaptive": {"enabled": True}},
                       integrator={"horizon": 0.05, "h": 5e-4})
    code, out, err = _monitor(tmp_path, capsys, doc)
    assert code == 1 and out == ""
    assert "no state columns x_1" in err and "t,E1,E2,E_outer,theta4,theta3" in err


def test_monitor_rejects_a_rate_whose_mu_overflows(tmp_path, capsys):
    # exp(1000 t) overflows a float from t = 0.71 on, so the mu-weighted
    # functional has no value there: an error naming the rate (and no
    # overflow warning, which the test settings make an error), not a trace
    # whose every contact point fails
    doc = dict(EXAMPLE1, rate={"kind": "exponential", "rate": 1000.0},
               delay={"kind": "constant", "pi": 1.0},
               integrator={"horizon": 5.0, "h": 1e-3})
    code, out, err = _monitor(tmp_path, capsys, doc)
    assert code == 1 and out == ""
    assert err.startswith("error: the exponential rate 1000 has no finite mu(t) from t=0.71 ")


@pytest.mark.parametrize("doc, block", [
    (dict(EXAMPLE1, adaptive={"enabled": True, "d1": 0.1, "d2": 0.1, "d3": 0.1}), "gains"),
    (_network_doc({"kind": "full", "adaptive": {"enabled": True, "d1": 0.05, "d3": 0.02}}),
     "control"),
])
def test_check_on_an_adaptive_config_names_the_unused_static_block(tmp_path, capsys,
                                                                   doc, block):
    static = dict(doc, adaptive={}) if "adaptive" in doc else dict(doc, control={"kind": "full"})
    outs = []
    for d in (static, doc):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        assert main(["check", str(path)]) == 0
        outs.append(capsys.readouterr().out.splitlines())
    # the table is unchanged; one line after it says what it is for
    assert outs[1][:-1] == outs[0]
    assert outs[1][-1].startswith("note: adaptive gains drive this run")
    assert f"static {block} block" in outs[1][-1]


def test_eps2_rule_per_config_kind():
    static = load_config(dict(EXAMPLE1, system=_DIM3, gains={"c3": 2.0, "c4": 4.0},
                              adaptive={"norm": "one"}, monitor={"kappa": 0.8},
                              integrator={"horizon": 1.0, "h": 1e-3}))
    two, one, _ = condition_reports(static)
    res = run(static)
    assert res.report == one and res.eps2 == 0.8 * one.epsilon2_max != 0.8 * two.epsilon2_max
    adaptive = run_example1_adaptive(horizon=1.0)
    assert adaptive.report is None and adaptive.settle_bound is None
    margin = adaptive.traj.gains[-1, 0] - 2.0
    assert adaptive.eps2 == 0.9 * (margin if margin > 0.0 else 0.01)
    net = load_config(dict(_network_doc({"kind": "none"}), monitor={"kappa": 0.7}))
    traj = HistoryTrajectory.from_arrays(0.0, 1e-3, np.zeros((11, 9)))
    assert certify(net, traj).eps2 == 0.7
