"""The CSV writers and reader, lorenz_rhs and RateFunction.mu against the
straightforward implementations they replace, which are kept here as
reference copies.  Every comparison is byte for byte."""
import contextlib
import csv
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import fintstab.cli as cli
from fintstab.cli import (NetworkRunResult, main, read_trajectory_csv,
                          write_error_index_csv, write_trajectory_csv)
from fintstab.delays import RateFunction
from fintstab.integrate import HistoryTrajectory
from fintstab.network import lorenz_rhs

_FMT = "%.17g"
_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
            math.inf, -math.inf, math.nan]
_values = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(_SPECIAL)
# NaN only in its canonical bit pattern, which is what "nan" parses back to
_roundtrip_values = (st.floats(allow_nan=False, allow_infinity=True)
                     | st.sampled_from(_SPECIAL))


# -- reference copies of the row-at-a-time CSV code ---------------------------

def _ref_write_trajectory(path, traj, stride=1):
    times = traj.times[::stride]
    states = traj.states[::stride]
    gains = traj.gains[::stride] if traj.gains is not None else None
    header = ["t"] + [f"x_{i + 1}" for i in range(traj.dim)] + list(traj.gain_names)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(times.shape[0]):
            row = [_FMT % times[k]] + [_FMT % v for v in states[k]]
            if gains is not None:
                row += [_FMT % v for v in gains[k]]
            writer.writerow(row)


def _ref_write_error_index(path, result, stride=1):
    header = ["t", "E1", "E2", "E_outer"] + list(result.gain_names)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(0, result.times.shape[0], stride):
            row = [_FMT % result.times[k], _FMT % result.e1[k],
                   _FMT % result.e2[k], _FMT % result.outer[k]]
            if result.gains is not None:
                row += [_FMT % v for v in result.gains[k]]
            writer.writerow(row)


def _ref_write_monitor(path, times, values, sups, mask):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "V", "W", "contact"])
        for k in range(times.shape[0]):
            writer.writerow([_FMT % times[k], _FMT % values[k], _FMT % sups[k],
                             int(mask[k])])


def _ref_write_sweep(path, param, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([param, "T_settle"])
        for v, ts in rows:
            writer.writerow([_FMT % v, _FMT % ts])


def _ref_read_rows(path):
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader if row]
    return header, np.asarray(rows)


@contextlib.contextmanager
def _chunk(rows):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_CHUNK", rows)
        yield


def _traj(t0, h, states, gains):
    names = [f"g{i}" for i in range(gains.shape[1])] if gains is not None else None
    return HistoryTrajectory.from_arrays(t0, h, states, gain_names=names, gains=gains)


@st.composite
def _trajectories(draw, values=_values, min_rows=1):
    n = draw(st.integers(min_rows, 40))
    d = draw(st.integers(1, 3))
    states = draw(arrays(np.float64, (n, d), elements=values))
    gains = None
    if draw(st.booleans()):
        gains = draw(arrays(np.float64, (n, draw(st.integers(1, 2))), elements=values))
    t0 = draw(st.floats(-1e3, 1e3))
    h = draw(st.floats(1e-6, 1.0))
    return _traj(t0, h, states, gains)


# -- writers ------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(traj=_trajectories(), stride=st.integers(1, 5), chunk=st.integers(1, 7))
def test_trajectory_writer_matches_csv_writer(tmp_path_factory, traj, stride, chunk):
    d = tmp_path_factory.mktemp("w")
    with _chunk(chunk):  # small chunks, so row counts cross them
        write_trajectory_csv(d / "new.csv", traj, stride=stride)
    _ref_write_trajectory(d / "ref.csv", traj, stride=stride)
    assert (d / "new.csv").read_bytes() == (d / "ref.csv").read_bytes()


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 40), stride=st.integers(1, 5), chunk=st.integers(1, 7),
       with_gains=st.booleans(), data=st.data())
def test_error_index_writer_matches_csv_writer(tmp_path_factory, n, stride, chunk,
                                               with_gains, data):
    col = arrays(np.float64, n, elements=_values)
    gains = data.draw(arrays(np.float64, (n, 2), elements=_values)) if with_gains else None
    result = NetworkRunResult(sync=None, times=data.draw(col), e1=data.draw(col),
                              e2=data.draw(col), outer=data.draw(col), gains=gains,
                              gain_names=("theta4", "theta3") if with_gains else ())
    d = tmp_path_factory.mktemp("e")
    with _chunk(chunk):
        write_error_index_csv(d / "new.csv", result, stride=stride)
    _ref_write_error_index(d / "ref.csv", result, stride=stride)
    assert (d / "new.csv").read_bytes() == (d / "ref.csv").read_bytes()


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 30), chunk=st.integers(1, 7), data=st.data())
def test_monitor_and_sweep_rows_match_csv_writer(tmp_path_factory, n, chunk, data):
    col = arrays(np.float64, n, elements=_values)
    times, values, sups = data.draw(col), data.draw(col), data.draw(col)
    mask = data.draw(arrays(np.bool_, n))
    d = tmp_path_factory.mktemp("m")
    rows = list(zip(times.tolist(), values.tolist()))
    with _chunk(chunk):
        cli._write_rows(d / "new.csv", ["t", "V", "W", "contact"],
                        [times, values, sups, mask], [_FMT, _FMT, _FMT, "%d"])
        cli._write_rows(d / "new_sweep.csv", ["gains.c4", "T_settle"],
                        [np.array(rows, dtype=float).reshape(-1, 2)], [_FMT, _FMT])
    _ref_write_monitor(d / "ref.csv", times, values, sups, mask)
    assert (d / "new.csv").read_bytes() == (d / "ref.csv").read_bytes()
    _ref_write_sweep(d / "ref_sweep.csv", "gains.c4", rows)
    assert (d / "new_sweep.csv").read_bytes() == (d / "ref_sweep.csv").read_bytes()


@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("with_gains", [False, True])
def test_writer_crosses_the_real_chunk_size(tmp_path, stride, with_gains):
    n = 2 * cli._CHUNK * stride + 5
    rng = np.random.default_rng(7)
    states = rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-300, 300, (n, 2))
    gains = rng.standard_normal((n, 2)) if with_gains else None
    traj = _traj(0.0, 1e-3, states, gains)
    write_trajectory_csv(tmp_path / "new.csv", traj, stride=stride)
    _ref_write_trajectory(tmp_path / "ref.csv", traj, stride=stride)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_header_keeps_csv_quoting(tmp_path):
    states = np.array([[1.0], [2.0]])
    traj = HistoryTrajectory.from_arrays(0.0, 0.5, states, gain_names=['a,b', 'q"'],
                                         gains=np.ones((2, 2)))
    write_trajectory_csv(tmp_path / "new.csv", traj)
    _ref_write_trajectory(tmp_path / "ref.csv", traj)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert read_trajectory_csv(tmp_path / "new.csv").gain_names == ("a,b", 'q"')


def test_error_index_writer_rejects_bad_stride(tmp_path):
    z = np.zeros(3)
    result = NetworkRunResult(sync=None, times=z, e1=z, e2=z, outer=z, gains=None,
                              gain_names=())
    for stride in (0, -1):
        with pytest.raises(ValueError, match="stride"):
            write_error_index_csv(tmp_path / "e.csv", result, stride=stride)


# -- reader -------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(traj=_trajectories(values=_roundtrip_values, min_rows=2), chunk=st.integers(1, 7))
def test_reader_roundtrip_is_bitwise(tmp_path_factory, traj, chunk):
    path = tmp_path_factory.mktemp("r") / "t.csv"
    with _chunk(chunk):
        write_trajectory_csv(path, traj)
    back = read_trajectory_csv(path)
    assert back.states.tobytes() == traj.states.tobytes()
    if traj.gains is None:
        assert back.gains is None
    else:
        assert back.gains.tobytes() == traj.gains.tobytes()
        assert back.gain_names == traj.gain_names
    _, ref = _ref_read_rows(path)
    assert back.t0 == ref[0, 0] and back.h == ref[1, 0] - ref[0, 0]


@pytest.mark.parametrize("text", ["", "t,x_1\r\n", "t,x_1\r\n0,1.5\r\n"])
def test_reader_rejects_fewer_than_two_rows_without_warning(tmp_path, text):
    path = tmp_path / "short.csv"
    path.write_text(text, newline="")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="needs at least two rows"):
            read_trajectory_csv(path)


def test_reader_parses_quoted_fields_like_csv_reader(tmp_path):
    path = tmp_path / "q.csv"
    path.write_text('t,"x_1",x_2,c3\r\n"0","1.5",-0,nan\r\n0.5,"-inf","2e-320",'
                    '"1.0000000000000002"\r\n\r\n', newline="")
    back = read_trajectory_csv(path)
    _, ref = _ref_read_rows(path)
    assert back.states.tobytes() == ref[:, 1:3].tobytes()
    assert back.gains.tobytes() == ref[:, 3:].tobytes()
    assert back.gain_names == ("c3",)


def test_reader_rejects_non_numeric_cell(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "bad.csv"
    path.write_text("t,x_1\r\n0,1\r\n0.001,abc\r\n", newline="")
    with pytest.raises(ValueError):
        read_trajectory_csv(path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"schema_version": 1, "kind": "scalar", '
                   '"system": {"c1": 1.0, "c2": 2.0, "initial_state": [2.0]}, '
                   '"delay": {"kind": "proportional", "q": 0.5}, '
                   '"rate": {"kind": "power", "exponent": 0.1}, '
                   '"integrator": {"horizon": 1.0}}')
    assert main(["monitor", str(cfg), str(path), "--out", "mon.csv"]) == 1


# -- Lorenz field -------------------------------------------------------------

def _ref_lorenz(x):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    with np.errstate(all="ignore"):  # large inputs overflow on purpose
        out[..., 0] = 10.0 * (x[..., 1] - x[..., 0])
        out[..., 1] = 28.0 * x[..., 0] - x[..., 1] - x[..., 0] * x[..., 2]
        out[..., 2] = x[..., 0] * x[..., 1] - (8.0 / 3.0) * x[..., 2]
    return out


@settings(max_examples=100, deadline=None)
@given(data=st.data(), shape=st.sampled_from([(3,), (3, 3), (2, 3, 3), (2000, 3)]))
def test_lorenz_rhs_matches_array_expression(data, shape):
    x = data.draw(arrays(np.float64, shape,
                         elements=st.floats(-1e200, 1e200) | st.sampled_from(_SPECIAL)))
    got = lorenz_rhs(x)
    assert got.shape == x.shape and got.dtype == np.float64
    assert got.tobytes() == _ref_lorenz(x).tobytes()


def test_lorenz_rhs_accepts_lists_and_views():
    x = np.arange(18.0).reshape(2, 3, 3) - 7.5
    assert lorenz_rhs(x.tolist()).tobytes() == _ref_lorenz(x).tobytes()
    view = np.arange(36.0).reshape(3, 12)[:, ::4]
    assert lorenz_rhs(view).tobytes() == _ref_lorenz(view).tobytes()


# -- rate function ------------------------------------------------------------

def _ref_mu(rate, t):
    if rate.kind == "power":
        return np.power(t, rate.param) if np.ndim(t) else float(t) ** rate.param
    return np.exp(rate.param * np.asarray(t)) if np.ndim(t) else math.exp(rate.param * t)


@pytest.mark.parametrize("rate", [RateFunction.power(0.1), RateFunction.power(2.5),
                                  RateFunction.exponential(0.3)])
def test_mu_matches_the_general_formula(rate):
    grid = 1e-3 * np.arange(40001)
    for t in [0.0, 1.0, 3, 7.25, np.float64(7.25), 1e-3 * 12345, *grid[::997].tolist()]:
        got, ref = rate.mu(t), _ref_mu(rate, t)
        assert type(got) is type(ref)
        assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()
    for t in (grid, grid[:5].reshape(5, 1), [0.5, 2.0]):
        assert rate.mu(t).tobytes() == _ref_mu(rate, t).tobytes()
    # every float the integrator passes on the preset grid
    got = np.array([rate.mu(t) for t in grid.tolist()])
    ref = np.array([_ref_mu(rate, t) for t in grid.tolist()])
    assert got.tobytes() == ref.tobytes()
