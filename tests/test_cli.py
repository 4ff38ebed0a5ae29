import json
import math

import numpy as np
import pytest

from fintstab.cli import (_network_run_from_config, _scalar_run_from_config,
                          main, read_trajectory_csv, run_example1,
                          run_example1_adaptive, run_example1_sweep,
                          run_example2, write_trajectory_csv)
from fintstab.config import ConfigError, load_config
from fintstab.delays import DelayProfile
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
    assert cfg.to_dict() == doc
    assert cfg.kind == "scalar"
    assert cfg.delay.envelope_param == 0.5
    assert cfg.integrator.h == 0.001


def test_config_rejects_unknown_field_by_name():
    doc = _scalar_doc()
    doc["system"]["c9"] = 1.0
    with pytest.raises(ConfigError, match="c9"):
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


def test_cli_rejects_bad_strides(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    doc = {"schema_version": 1, "kind": "network", "system": {"preset": "lorenz3"},
           "rate": {"kind": "power", "exponent": 0.1},
           "integrator": {"horizon": 0.01, "h": 5e-4},
           "output": {"csv": "net.csv", "stride": -1}}
    cfgp = tmp_path / "net.json"
    cfgp.write_text(json.dumps(doc))
    assert main(["simulate", str(cfgp)]) == 1
    assert not (tmp_path / "net.csv").exists()
    for stride in ("0", "-1"):
        assert main(["example2", "--horizon", "0.01", "--stride", stride,
                     "--out-dir", "ex"]) == 1
    assert main(["example2", "--horizon", "0.01", "--stride", "2",
                 "--out-dir", "ex"]) == 0
    assert len((tmp_path / "ex" / "example2_nocontrol.csv").read_text().splitlines()) == 12


def test_config_delay_kinds():
    doc = _scalar_doc()
    doc["delay"] = {"kind": "constant", "pi": 2.0}
    assert load_config(doc).delay.envelope_kind == "constant"
    doc["delay"] = {"kind": "custom_grid", "coefficients": [0.3], "envelope_q": 0.5}
    assert load_config(doc).delay.kind == "per_component"
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


def test_cli_simulate_and_monitor(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(_scalar_doc()))
    assert main(["simulate", str(cfgp)]) == 0
    assert (tmp_path / "traj.csv").exists()
    assert main(["monitor", str(cfgp), "traj.csv", "--out", "mon.csv"]) == 0
    head = (tmp_path / "mon.csv").read_text().splitlines()[0]
    assert head == "t,V,W,contact"


def test_cli_simulate_infeasible_guarantee(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    doc = _scalar_doc()
    doc["gains"] = {"c3": 2.0, "c4": 1.0}
    doc["monitor"] = {"require_feasible": True}
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(doc))
    assert main(["simulate", str(cfgp)]) == 2


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


def test_cli_example_commands(tmp_path):
    out = tmp_path / "out"
    assert main(["example1", "--variant", "static", "--horizon", "5",
                 "--out-dir", str(out)]) == 0
    assert (out / "example1_static.csv").exists()
    assert main(["example1", "--variant", "sweep-c4", "--values", "3.5,4.5",
                 "--horizon", "5", "--out-dir", str(out)]) == 0
    assert main(["example2", "--variant", "nocontrol", "--horizon", "1",
                 "--h", "0.001", "--out-dir", str(out)]) == 0
    assert (out / "example2_nocontrol.csv").exists()


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
    res = _network_run_from_config(load_config(doc))
    return res.sync.error.states.tolist(), res.gain_names, res.gains.tolist()


def test_network_config_fields_change_the_run():
    # d1 = 5 reaches the unit ball within the horizon, where d2 acts
    adaptive = {"enabled": True, "d1": 5.0, "d3": 0.02}
    base = _network_outputs(_network_doc({"adaptive": adaptive}))
    assert _network_outputs(_network_doc({"adaptive": dict(adaptive, d2=5.0)})) == base
    integ = {"horizon": 1.0, "h": 1e-3}
    changed = {
        "rate": _network_doc({"adaptive": adaptive}, rate={"kind": "power", "exponent": 0.3}),
        "variant": _network_doc({"adaptive": dict(adaptive, variant="theta1_theta3")}),
        "d2": _network_doc({"adaptive": dict(adaptive, d2=0.5)}),
        "method": _network_doc({"adaptive": adaptive},
                               integrator=dict(integ, method="rk4_frozen")),
        "zero_band": _network_doc({"adaptive": adaptive},
                                  integrator=dict(integ, zero_band=0.05)),
        # the hook freezes once the windowed squared error is <= zero_tol**2
        "zero_tol": _network_doc({"adaptive": adaptive},
                                 integrator=dict(integ, zero_tol=0.5)),
    }
    for field, doc in changed.items():
        assert _network_outputs(doc) != base, field
    assert _network_outputs(changed["variant"])[1] == ("theta1", "theta3")


def test_network_config_matches_the_preset_runner():
    doc = _network_doc({"adaptive": {"enabled": True, "d1": 0.05, "d3": 0.02}},
                       integrator={"horizon": 0.5, "h": 1e-3})
    res = _network_run_from_config(load_config(doc))
    ref = run_example2("adaptive", horizon=0.5, h=1e-3)
    assert res.sync.error.states.tolist() == ref.sync.error.states.tolist()
    assert res.gains.tolist() == ref.gains.tolist()


def test_zero_tol_sets_the_detected_settling_time():
    doc = _scalar_doc()
    default = _scalar_run_from_config(load_config(doc))
    doc["integrator"]["zero_tol"] = 1e-9
    assert _scalar_run_from_config(load_config(doc)).T_settle == default.T_settle
    doc["integrator"]["zero_tol"] = 1e-2
    coarse = _scalar_run_from_config(load_config(doc))
    assert math.isfinite(default.T_settle)
    assert coarse.T_settle < default.T_settle
