import hashlib
import json
import math
import os
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from frechetsimp import _disk, _square, bench, cli, polyio
from frechetsimp.geometry import InvalidInputError

from walks import drift_walk, lattice_walk, stop_and_go

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@given(st.lists(st.tuples(finite, finite), min_size=1, max_size=30))
def test_csv_round_trip_is_exact(points):
    text = polyio.dump_polyline(points)
    back = polyio.parse_polyline(text)
    assert back == [(float(x), float(y)) for x, y in points]


def test_parse_csv_comments_and_blanks():
    text = "# header\n0,0\n\n  1,2  # inline\n# done\n"
    assert polyio.parse_polyline(text) == [(0.0, 0.0), (1.0, 2.0)]


def test_parse_wkt_autodetect():
    pts = polyio.parse_polyline("LINESTRING (0 0, 1.5 2, 3 0)")
    assert pts == [(0.0, 0.0), (1.5, 2.0), (3.0, 0.0)]


def test_parse_errors():
    with pytest.raises(polyio.ParseError):
        polyio.parse_polyline("1,2,3\n")
    with pytest.raises(polyio.ParseError):
        polyio.parse_polyline("LINESTRING 1 2")
    with pytest.raises(polyio.ParseError):
        polyio.parse_polyline("# nothing\n")
    with pytest.raises(polyio.ParseError):
        polyio.parse_polyline("LINESTRING (1 2, a b)")
    with pytest.raises(polyio.ParseError):
        polyio.parse_polyline("LINESTRING (1 2, 3 4e)")


class TestSimplifyCommand:
    def run(self, tmp_path, content, *args):
        src = tmp_path / "in.csv"
        dst = tmp_path / "out.csv"
        src.write_text(content)
        code = cli.main(["simplify", "--input", str(src), "--output", str(dst), *args])
        return code, dst

    def test_collinear_four_points(self, tmp_path, capsys):
        code, dst = self.run(tmp_path, "0,0\n1,0\n2,0\n3,0\n", "--delta", "0.1")
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["linkCount"] == 1 and summary["kept"] == 2
        assert dst.read_text() == "0,0\n3,0\n"

    def test_two_vertex_input_unchanged(self, tmp_path, capsys):
        code, dst = self.run(tmp_path, "0,0\n5,5\n", "--delta", "1")
        assert code == 0
        assert polyio.parse_polyline(dst.read_text()) == [(0.0, 0.0), (5.0, 5.0)]

    def test_zigzag(self, tmp_path, capsys):
        code, dst = self.run(tmp_path, "0,0\n1,1\n2,0\n3,1\n4,0\n",
                             "--delta", "1", "--metric", "l2")
        assert code == 0
        assert len(polyio.parse_polyline(dst.read_text())) == 2

    def test_missing_input_is_parse_error(self, tmp_path, capsys):
        code = cli.main(["simplify", "--input", str(tmp_path / "nope.csv"),
                         "--output", str(tmp_path / "o.csv"), "--delta", "1"])
        assert code == 1

    def test_bad_wkt_number_is_parse_error(self, tmp_path, capsys):
        code, dst = self.run(tmp_path, "LINESTRING (1 2, a b)", "--delta", "1")
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert not dst.exists()

    def test_unwritable_output_exits_1(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("0,0\n1,1\n2,0\n")
        dst = tmp_path / "missing" / "out.csv"
        code = cli.main(["simplify", "--input", str(src), "--output", str(dst),
                         "--delta", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(dst) in captured.err and captured.out == ""

    def test_unwritable_frame_dir_exits_1(self, tmp_path, capsys):
        frames = tmp_path / "frames"
        frames.write_text("a regular file, not a directory\n")
        code, dst = self.run(tmp_path, "0,0\n1,1\n2,0\n", "--delta", "1",
                             "--svg-debug-dir", str(frames))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == "" and not dst.exists()

    def test_undecodable_input_exits_1(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_bytes(b"\xff\xfe0,0\n1,1\n")
        code = cli.main(["simplify", "--input", str(src), "--output", str(tmp_path / "o.csv"),
                         "--delta", "1"])
        out, err = capsys.readouterr()
        assert code == 1 and out == "" and not (tmp_path / "o.csv").exists()
        assert err.startswith("error: ") and err.count("\n") == 1 and str(src) in err

    def test_bad_metric_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simplify", "--input", "x", "--output", "y",
                      "--delta", "1", "--metric", "l7"])
        assert exc.value.code == 2

    def test_nonpositive_delta_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simplify", "--input", "x", "--output", "y", "--delta", "-1"])
        assert exc.value.code == 2

    def test_deterministic_output(self, tmp_path, capsys):
        content = "0,0\n1.1,0.6\n2.2,-0.3\n3.1,0.8\n4.4,0\n"
        _, d1 = self.run(tmp_path, content, "--delta", "0.9")
        out1 = json.loads(capsys.readouterr().out)
        (tmp_path / "out.csv").rename(tmp_path / "first.csv")
        _, d2 = self.run(tmp_path, content, "--delta", "0.9")
        out2 = json.loads(capsys.readouterr().out)
        assert (tmp_path / "first.csv").read_bytes() == d2.read_bytes()
        out1.pop("millis")
        out2.pop("millis")
        assert out1 == out2

    def test_svg_debug_dir(self, tmp_path, capsys):
        dbg = tmp_path / "frames"
        code, _ = self.run(tmp_path, "0,0\n0,2\n0,4\n", "--delta", "1",
                           "--svg-debug-dir", str(dbg))
        assert code == 0
        names = sorted(os.listdir(dbg))
        assert names == ["frame_0_1.svg", "frame_0_2.svg", "frame_1_2.svg"]
        body = (dbg / "frame_0_2.svg").read_text()
        assert body.count("<line") == 2 and "<text" in body and "<path" in body


    def test_svg_debug_dir_on_a_tied_l2_input(self, tmp_path, capsys, caplog):
        # instance 487 of c7's tie recipe at seed 9: the generic engine the
        # frames once stepped divided by zero on the sweep from vertex 6
        pts = [(0.6, 0.6), (1.6, 0.7), (2.8, 2.2), (3.0, 1.4), (2.5, 2.0), (2.0, 0.1),
               (1.9, 2.7), (2.4, 1.5), (0.7, 2.2), (1.7, 2.8), (1.1, 1.0), (1.1, 1.4),
               (1.0, 2.7)]
        dbg = tmp_path / "frames"
        code, _ = self.run(tmp_path, polyio.dump_polyline(pts), "--delta", "1.3",
                           "--metric", "l2", "--svg-debug-dir", str(dbg))
        assert code == 0
        assert json.loads(capsys.readouterr().out)["linkCount"] == 3
        assert {name.split("_")[1] for name in os.listdir(dbg)} == \
            {str(i) for i in range(len(pts) - 1)}
        assert not [r for r in caplog.records if r.name == "frechetsimp"]

    @pytest.mark.parametrize("algo", ["wavefront", "baseline"])
    def test_svg_debug_dir_runs_each_sweep_once(self, tmp_path, capsys, caplog, monkeypatch,
                                                algo):
        # the frames run the sweeps simplify runs, once per start vertex, so
        # on the tied lattice walks too they end only where those sweeps end,
        # and the result stays the one without the flag
        inputs = [(stop_and_go(120, 11), "linf"), (lattice_walk(120, 5), "linf"),
                  (lattice_walk(120, 5), "l1"), (lattice_walk(120, 5), "l2")]
        starts = []
        for mod in (_disk, _square):
            def counting(X, Y, i, *args, scalar=mod._scalar):
                starts.append(i)
                return scalar(X, Y, i, *args)
            monkeypatch.setattr(mod, "_scalar", counting)
        for k, (pts, metric) in enumerate(inputs):
            content = polyio.dump_polyline(pts)
            starts.clear()
            code, plain = self.run(tmp_path, content, "--delta", "1", "--metric", metric,
                                   "--algo", algo)
            assert code == 0
            want = json.loads(capsys.readouterr().out)
            want_file = plain.read_bytes()
            simplified = Counter(starts)
            starts.clear()
            caplog.clear()
            dbg = tmp_path / f"frames{k}"
            code, dst = self.run(tmp_path, content, "--delta", "1", "--metric", metric,
                                 "--algo", algo, "--svg-debug-dir", str(dbg))
            assert code == 0
            assert Counter(starts) - simplified == Counter(range(len(pts) - 1))
            got = json.loads(capsys.readouterr().out)
            assert got.pop("millis") >= 0 and want.pop("millis") >= 0
            assert got == want and dst.read_bytes() == want_file
            assert {name.split("_")[1] for name in os.listdir(dbg)} == \
                {str(i) for i in range(len(pts) - 1)}
            assert not [r for r in caplog.records if r.name == "frechetsimp"], metric

    # sha256 over the sorted frame file names, each followed by its bytes;
    # both --algo values draw the same frames, recorded from the state of
    # the disk and square sweeps.
    FRAME_PINS = {
        ("drift", "l2"): "2ba30a94bb536f9d17afefe3ff52c24351fc2d33d53ae59a4b696761bad6651e",
        ("drift", "linf"): "ce40e6ce6cf391c59463db5991806e00fb8125aa0a23824032214e1870cd97fd",
        ("drift", "l1"): "f85da9689e98449d54477668831b17c42795382d1267844b0ac1abd42550606d",
        ("lattice", "l2"): "79dc20b61940c1a33db2273f483ef9557350ee61fb7d47bffa635536e97c3d5b",
        ("lattice", "linf"): "4d8c69370ef4de2f3cd5a50d60c002f16429f83c80ec1f3d78da98fc276b1c74",
        ("lattice", "l1"): "4a20e841c63345170ccebd81ddf529ec3e91bc162712a8d021ea07e00a018fbc",
    }
    # a generic walk and a tied lattice walk
    FRAME_INPUTS = {"drift": lambda: drift_walk(50, 3), "lattice": lambda: lattice_walk(120, 5)}

    @pytest.mark.parametrize("algo", ["wavefront", "baseline"])
    @pytest.mark.parametrize("metric", ["l2", "linf", "l1"])
    @pytest.mark.parametrize("name", ["drift", "lattice"])
    def test_svg_frames_are_pinned(self, tmp_path, capsys, caplog, name, metric, algo):
        content = polyio.dump_polyline(self.FRAME_INPUTS[name]())
        args = ("--delta", "1", "--metric", metric, "--algo", algo)
        code, plain = self.run(tmp_path, content, *args)
        assert code == 0
        want = json.loads(capsys.readouterr().out)
        want_file = plain.read_bytes()
        caplog.clear()
        dbg = tmp_path / "frames"
        code, dst = self.run(tmp_path, content, *args, "--svg-debug-dir", str(dbg))
        assert code == 0
        got = json.loads(capsys.readouterr().out)
        assert got.pop("millis") >= 0 and want.pop("millis") >= 0
        assert got == want and dst.read_bytes() == want_file
        digest = hashlib.sha256()
        for frame in sorted(os.listdir(dbg)):
            digest.update(frame.encode())
            digest.update((dbg / frame).read_bytes())
        assert digest.hexdigest() == self.FRAME_PINS[(name, metric)]
        assert not [r for r in caplog.records if r.name == "frechetsimp"]


# C_4 passes the apex of the L2 sweep from vertex 2 by one rounding at delta
# 0.3, which the engine's keyed wedge could not decide; the disk sweep does,
# so the fault is injected below to keep the exit-4 path tested
UNDECIDED = [(1.4, 2.4), (1.6, 2.7), (1.7, 2.1), (1.5, 2.4), (2.0, 2.1), (2.6, 2.4),
             (2.5, 1.8), (3.1, 2.3), (2.6, 2.2), (2.4, 2.4), (1.9, 2.5), (2.4, 2.3)]


@pytest.mark.parametrize("cmd", ["simplify", "stats"])
def test_internal_geometry_error_exits_4(cmd, tmp_path, capsys, monkeypatch):
    from frechetsimp import _disk
    from frechetsimp.geometry import InternalGeometryError

    src = tmp_path / "in.csv"
    src.write_text(polyio.dump_polyline(UNDECIDED))
    dst = tmp_path / "out.csv"
    argv = [cmd, "--input", str(src), "--delta", "0.3", "--metric", "l2"]
    if cmd == "simplify":
        argv += ["--output", str(dst)]
    assert cli.main(argv) == 0              # without the injected fault
    capsys.readouterr()

    def undecided(*args):
        raise InternalGeometryError("injected")

    monkeypatch.setattr(_disk, "_scalar", undecided)
    dst.unlink(missing_ok=True)
    assert cli.main(argv) == 4
    out, err = capsys.readouterr()
    assert out == "" and not dst.exists()
    assert err.startswith("error: ") and err.count("\n") == 1 and "injected" in err


class TestVerifyCommand:
    def test_max_n_below_two_exits_2(self, capsys):
        assert cli.main(["verify", "--count", "3", "--max-n", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_count_below_one_exits_2(self, count, capsys):
        # "checked": 0 with exit 0 would read as a pass
        assert cli.main(["verify", "--count", count, "--max-n", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("delta", ["inf", "nan"])
    def test_non_finite_delta_exits_2(self, delta):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--count", "2", "--max-n", "3", "--delta", delta])
        assert exc.value.code == 2

    def test_delta_too_large_to_draw_exits_2(self, capsys):
        # no clean instance of coordinates in [0, 10) keeps its vertices
        # 1e-6 * delta apart
        assert cli.main(["verify", "--count", "2", "--max-n", "3", "--delta", "1e308"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    def test_negative_seed_exits_2(self, capsys):
        assert cli.main(["verify", "--count", "3", "--seed", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    def test_clean_run_exit_zero(self, capsys):
        code = cli.main(["verify", "--count", "40", "--seed", "11", "--max-n", "14"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["checked"] == 120 and summary["mismatches"] == 0

    def test_single_metric_restriction(self, capsys):
        code = cli.main(["verify", "--count", "25", "--seed", "2", "--metric", "linf"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["checked"] == 25

    def test_fault_injection_exits_3(self, tmp_path, capsys, monkeypatch):
        # corrupt the disk sweep's target test: it judges a vertex against
        # the leftmost arc, not the arc over its direction, and the
        # differential check must catch the wrong targets
        from frechetsimp import _disk

        monkeypatch.setattr(_disk, "_cover", lambda arcs, x, y: len(arcs) - 1)
        monkeypatch.chdir(tmp_path)
        code = cli.main(["verify", "--count", "60", "--seed", "11",
                         "--metric", "l2", "--dump-prefix", "ce"])
        captured = capsys.readouterr()
        assert code == 3
        assert (tmp_path / "ce.csv").exists() and (tmp_path / "ce.txt").exists()
        # the dump parses back as a polyline
        assert len(polyio.parse_polyline((tmp_path / "ce.csv").read_text())) >= 2


    def test_unwritable_dump_keeps_exit_3(self, tmp_path, capsys, monkeypatch):
        from frechetsimp import _disk

        monkeypatch.setattr(_disk, "_cover", lambda arcs, x, y: len(arcs) - 1)
        prefix = tmp_path / "missing" / "ce"
        code = cli.main(["verify", "--count", "60", "--seed", "11",
                         "--metric", "l2", "--dump-prefix", str(prefix)])
        captured = capsys.readouterr()
        assert code == 3
        assert json.loads(captured.out)["mismatches"] >= 1
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not (tmp_path / "missing").exists()

class TestBenchCommand:
    def test_schema_and_fits(self, capsys):
        code = cli.main(["bench", "--sizes", "30,60", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "n,algo,metric,millis,maxWavefrontSize,linkCount"
        data = [l for l in out if l and not l.startswith("#")]
        assert len(data) == 1 + 6     # header + 2 sizes x 3 jobs
        assert any(l.startswith("# fit,algo=baseline") for l in out)
        assert any(l.startswith("# ratio,algo=wavefront") for l in out)

    def test_bad_sizes_exit_2(self):
        assert cli.main(["bench", "--sizes", "abc"]) == 2

    def test_sizes_below_two_exit_2(self, capsys):
        assert cli.main(["bench", "--sizes", "1,2"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    def test_repeated_size_exits_2(self, capsys):
        # a repeated size has no doubling ratio and fits no exponent
        assert cli.main(["bench", "--sizes", "3,3"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    def test_negative_seed_exits_2(self, capsys):
        assert cli.main(["bench", "--sizes", "5,10", "--seed", "-2"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("bad", [{"seed": -1}, {"sizes": (1, 2)}, {"sizes": (3, 3)}])
    def test_run_bench_checks_before_timing(self, bad, monkeypatch):
        def no_job(*args, **kwargs):
            raise AssertionError("a job ran")
        monkeypatch.setattr(bench, "simplify", no_job)
        with pytest.raises(InvalidInputError):
            bench.run_bench(**{"sizes": (5, 10), **bad})


class TestStatsCommand:
    def test_well_spread_polyline(self, tmp_path, capsys):
        pts = "\n".join(f"{10*k},0" for k in range(6))
        src = tmp_path / "p.csv"
        src.write_text(pts + "\n")
        code = cli.main(["stats", "--input", str(src), "--delta", "1"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["maxVerticesInDeltaBall"] == 1
        assert out["maxWavefrontSizePerStart"] == [1] * 5
        assert out["maxWavefrontSize"] == 1

    def test_undecodable_input_exits_1(self, tmp_path, capsys):
        src = tmp_path / "p.csv"
        src.write_bytes(b"\xff\xfe0,0\n1,1\n")
        assert cli.main(["stats", "--input", str(src), "--delta", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    def test_deterministic(self, tmp_path, capsys):
        src = tmp_path / "p.csv"
        src.write_text("0,0\n0.5,0.7\n1.5,0.2\n2,1\n")
        cli.main(["stats", "--input", str(src), "--delta", "0.8", "--metric", "l1"])
        a = capsys.readouterr().out
        cli.main(["stats", "--input", str(src), "--delta", "0.8", "--metric", "l1"])
        b = capsys.readouterr().out
        assert a == b and json.loads(a)
