"""Command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.graphs.io import load_npz, save_npz
from repro.graphs import generators as G
from repro.graphs.multigraph import MultiGraph


@pytest.fixture
def grid_file(tmp_path):
    path = tmp_path / "g.npz"
    save_npz(G.grid2d(8, 8), path)
    return str(path)


class TestGen:
    def test_gen_grid(self, tmp_path, capsys):
        out = str(tmp_path / "grid.npz")
        assert main(["gen", "grid", out, "--size", "6"]) == 0
        g = load_npz(out)
        assert g.n == 36
        assert "n=36" in capsys.readouterr().out

    def test_gen_all_families(self, tmp_path):
        for fam in ("grid", "torus", "er", "path"):
            out = str(tmp_path / f"{fam}.npz")
            assert main(["gen", fam, out, "--size", "12"]) == 0

    def test_gen_unknown_family(self, tmp_path, capsys):
        assert main(["gen", "hypercube", str(tmp_path / "x.npz")]) == 2
        assert "unknown family" in capsys.readouterr().err


class TestInfo:
    def test_info(self, grid_file, capsys):
        assert main(["info", grid_file]) == 0
        out = capsys.readouterr().out
        assert "n=64" in out
        assert "components=1" in out

    def test_info_edgeless(self, tmp_path, capsys):
        path = str(tmp_path / "empty.npz")
        save_npz(MultiGraph(3, [], [], []), path)
        assert main(["info", path]) == 0
        out = capsys.readouterr().out
        assert "components=3" in out
        assert "weights: none" in out


class TestSolve:
    def test_solve_st_demand(self, grid_file, tmp_path, capsys):
        out = str(tmp_path / "x.npy")
        assert main(["solve", grid_file, "--eps", "1e-6",
                     "--output", out]) == 0
        x = np.load(out)
        assert x.shape == (64,)
        assert "iterations" in capsys.readouterr().out

    def test_solve_rhs_file(self, grid_file, tmp_path):
        b = np.zeros(64)
        b[3], b[40] = 2.0, -2.0
        rhs = str(tmp_path / "b.npy")
        np.save(rhs, b)
        assert main(["solve", grid_file, "--rhs", rhs,
                     "--method", "pcg"]) == 0

    @pytest.mark.parametrize("command", ["solve", "serve"])
    def test_sampler_flag_is_unknown(self, grid_file, capsys, command):
        # The alias sampler is the only walk path; there is no flag.
        with pytest.raises(SystemExit) as exc:
            main([command, grid_file, "--sampler", "alias"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --sampler" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("flag", [
        ["--transport", "tcp"], ["--ship-solves"],
        ["--chunk-timeout", "1"], ["--degrade"], ["--retries", "2"],
    ])
    def test_process_backend_flags_are_unknown(self, grid_file, capsys,
                                               flag):
        # The process backend and its wire transport are gone, and
        # their flags with them.
        with pytest.raises(SystemExit) as exc:
            main(["solve", grid_file, *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in \
            capsys.readouterr().err

    def test_process_backend_choice_is_refused(self, grid_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", grid_file, "--backend", "process"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --backend" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "serve"])
    def test_backend_flag_is_unknown(self, grid_file, capsys, command):
        # One scheduler: parallelism is set by the worker count alone,
        # and ``--workers 1`` (or REPRO_WORKERS=1) is the serial run.
        with pytest.raises(SystemExit) as exc:
            main([command, grid_file, "--backend", "serial"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --backend" in \
            capsys.readouterr().err


class TestServeFlags:
    @pytest.mark.parametrize("flag, value", [
        ("--max-batch", "0"), ("--window-ms", "-1"),
        ("--cache-bytes", "-1"), ("--max-pending", "-1"),
    ])
    def test_bad_value_exits_before_binding(self, grid_file, capsys,
                                            monkeypatch, flag, value):
        # The graph file is valid, so the flag is what fails, and it
        # fails at construction: the service never starts or binds.
        from repro.serve.service import SolverService

        def must_not_run(*args, **kwargs):
            raise AssertionError("service started despite a bad flag")

        monkeypatch.setattr(SolverService, "start", must_not_run)
        monkeypatch.setattr(SolverService, "serve_http", must_not_run)
        assert main(["serve", grid_file, flag, value]) == 2
        name = flag[2:].replace("-", "_")
        assert f"error: {name} must be" in capsys.readouterr().err


class TestBench:
    def test_bench_prints_ledger(self, grid_file, capsys):
        assert main(["bench", grid_file, "--eps", "1e-3"]) == 0
        out = capsys.readouterr().out
        assert "work=" in out
        assert "depth=" in out
