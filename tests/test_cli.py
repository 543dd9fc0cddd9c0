"""Snapshot format and the command-line front end."""

import json
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from viscoflow import Grid, SpectralField, load_field, random_field, save_field
from viscoflow import cli
from viscoflow.cli import main
from viscoflow.errors import InputError, StabilityError
from viscoflow.snapshots import MAGIC


class TestSnapshots:
    @pytest.mark.parametrize("rank", ["scalar", "vector", "matrix"])
    def test_roundtrip(self, tmp_path, grid2d, rng, rank):
        f = random_field(grid2d, rank, rng)
        path = tmp_path / "f.vfs"
        save_field(path, f)
        g = load_field(path)
        assert g.grid.compatible(f.grid)
        assert np.array_equal(g.coeff, f.coeff)

    def test_header_layout(self, tmp_path, grid2d, rng):
        f = random_field(grid2d, "vector", rng)
        path = tmp_path / "f.vfs"
        save_field(path, f)
        raw = path.read_bytes()
        assert raw[:8] == MAGIC
        version, dim, rank_code, n, length, ncomp, frac = struct.unpack(
            "<IIIIdId", raw[8:8 + struct.calcsize("<IIIIdId")])
        assert (version, dim, rank_code, n, ncomp) == (1, 2, 1, 32, 2)
        assert length == 8.0
        # payload: ncomp * n^dim complex entries as little-endian f8 pairs
        assert len(raw) == 8 + struct.calcsize("<IIIIdId") + 2 * 32 * 32 * 16

    def test_3d_roundtrip(self, tmp_path, grid3d, rng):
        f = random_field(grid3d, "matrix", rng)
        path = tmp_path / "f.vfs"
        save_field(path, f)
        assert np.array_equal(load_field(path).coeff, f.coeff)

    def test_roundtrip_keeps_signed_zeros(self, tmp_path, grid2d):
        f = random_field(grid2d, "vector", np.random.default_rng(7))
        re = f.coeff.real
        assert np.any(np.signbit(re[re == 0.0]))  # the data has -0.0 real parts
        path = tmp_path / "f.vfs"
        save_field(path, f)
        assert load_field(path).coeff.tobytes() == f.coeff.tobytes()

    def test_full_layout_file_loads(self, tmp_path, grid2d, rng):
        # a v1 file as a full-layout writer leaves it: the complex FFT of the
        # samples with the Nyquist planes zeroed
        vals = rng.standard_normal((2, 32, 32))
        full = np.fft.fftn(vals, axes=(1, 2)) / 32 ** 2
        full[:, 16, :] = full[:, :, 16] = 0.0
        pairs = np.empty(2 * full.size, dtype="<f8")
        pairs[0::2], pairs[1::2] = full.real.ravel(), full.imag.ravel()
        path = tmp_path / "full.vfs"
        path.write_bytes(struct.pack("<8sIIIIdId", MAGIC, 1, 2, 1, 32, 8.0, 2, 2.0 / 3.0)
                         + pairs.tobytes())
        f = load_field(path)
        assert f.coeff.shape == (2, 32, 17)
        assert np.max(np.abs(f.coeff - SpectralField.from_physical(grid2d, vals).coeff)) < 1e-14
        save_field(tmp_path / "again.vfs", f)
        again = np.frombuffer((tmp_path / "again.vfs").read_bytes()[44:], dtype="<f8")
        assert np.max(np.abs(again - pairs)) < 1e-14

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.vfs"
        path.write_bytes(b"NOTAFILE" + b"\x00" * 64)
        with pytest.raises(InputError):
            load_field(path)


def _vector_snapshot(path):
    """Raw bytes of a saved 2-D n=16 vector snapshot."""
    save_field(path, random_field(Grid(2, 16, 8.0), "vector", np.random.default_rng(3)))
    return path.read_bytes()


_RANK_OFFSET = 16


def _corrupt(raw, case):
    if case == "short header":
        return raw[:40]
    if case == "rank code 7":
        return raw[:_RANK_OFFSET] + struct.pack("<I", 7) + raw[_RANK_OFFSET + 4:]
    if case == "short payload":
        return raw[:-100]
    assert case == "trailing bytes"
    return raw + bytes(16)


_CORRUPTIONS = ["short header", "rank code 7", "short payload", "trailing bytes"]


class TestSnapshotValidation:
    @pytest.mark.parametrize("case", _CORRUPTIONS)
    def test_corrupt_file_rejected(self, tmp_path, case):
        path = tmp_path / "f.vfs"
        path.write_bytes(_corrupt(_vector_snapshot(path), case))
        with pytest.raises(InputError, match="f.vfs"):
            load_field(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(InputError, match="none.vfs"):
            load_field(tmp_path / "none.vfs")


def _write_config(path, body):
    path.write_text(body)
    return str(path)


def _count_families(monkeypatch) -> list:
    """Patch ``DyadicFamily.__init__`` to append to the returned list."""
    from viscoflow.dyadic import DyadicFamily
    built = []
    init = DyadicFamily.__init__
    monkeypatch.setattr(DyadicFamily, "__init__",
                        lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    return built


class TestCli:
    def test_unknown_key_is_input_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "c.ini", "[grid]\nbogus = 1\n")
        assert main(["scaling", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "input error" in capsys.readouterr().err

    def test_store_every_is_rejected(self, tmp_path, capsys):
        # the key was once accepted and ignored; no run may silently drop it
        cfg = _write_config(tmp_path / "c.ini", "[simulate]\nstore_every = 5\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "store_every" in capsys.readouterr().err

    def test_missing_config(self, tmp_path):
        assert main(["scaling", "--config", str(tmp_path / "none.ini")]) == 1

    def test_scaling_mode(self, tmp_path):
        cfg = _write_config(tmp_path / "c.ini",
                            "[run]\nseed = 7\n\n[grid]\ndim = 2\nn = 32\nlength = 8.0\n"
                            "\n[scaling]\ns_values = -1,0,1\n")
        out = tmp_path / "out"
        assert main(["scaling", "--config", cfg, "--strict", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["mode"] == "scaling"
        names = {a["name"]: a["sha256"] for a in manifest["artifacts"]}
        assert names["scaling.csv"] is not None
        body = (out / "scaling.csv").read_text()
        assert body.startswith("# viscoflow csv schema v1")

    def test_determinism(self, tmp_path):
        cfg = _write_config(tmp_path / "c.ini",
                            "[run]\nseed = 11\n\n[grid]\nn = 32\n\n[scaling]\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["scaling", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["scaling", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "scaling.csv").read_bytes() == (out2 / "scaling.csv").read_bytes()

    def test_analyze_mode(self, tmp_path, grid2d, rng):
        f = random_field(grid2d, "scalar", rng)
        snap = tmp_path / "f.vfs"
        save_field(snap, f)
        cfg = _write_config(
            tmp_path / "c.ini",
            f"[analyze]\ninput = {snap}\ns_values = 0,1\nhybrid_pairs = 0,1;1,2\n")
        out = tmp_path / "out"
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "norms.csv").read_text().strip().splitlines()
        assert len(lines) == 2 + 4  # schema comment + header + 4 rows

    def test_analyze_equilibrium_zero(self, tmp_path, grid2d):
        from viscoflow import SpectralField
        f = SpectralField.from_physical(grid2d, np.ones((32, 32)))
        snap = tmp_path / "eq.vfs"
        save_field(snap, f)
        cfg = _write_config(tmp_path / "c.ini",
                            f"[analyze]\ninput = {snap}\ns_values = 0,1\n")
        out = tmp_path / "out"
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "norms.csv").read_text().strip().splitlines()[2:]
        for row in rows:
            assert float(row.split(",")[-1]) == 0.0

    def test_linear_mode_rates(self, tmp_path):
        cfg = _write_config(
            tmp_path / "c.ini",
            "[grid]\nn = 32\nlength = 1.0\n\n[physics]\nmu = 1.0\nlambda = -0.5\n"
            "\n[linear]\npairs = rho_d\nxi_values = 1\nsamples = 400\n")
        out = tmp_path / "out"
        assert main(["linear", "--config", cfg, "--strict", "--out", str(out)]) == 0
        rows = (out / "decay.csv").read_text().strip().splitlines()[2:]
        pair, xi, fitted, oracle, rel = rows[0].split(",")
        assert pair == "rho_d"
        # nu = lambda + 2 mu = 1.5: complex regime rate nu |xi|^2/2 = 0.75
        assert float(oracle) == pytest.approx(0.75)
        assert float(rel) < 0.02

    def test_linear_defaults_run_on_the_default_grid(self, tmp_path):
        # every default xi is representable on n = 64, L = 8
        cfg = _write_config(tmp_path / "c.ini",
                            "[grid]\nn = 64\nlength = 8\n\n[linear]\nsamples = 100\n")
        out = tmp_path / "out"
        assert main(["linear", "--config", cfg, "--strict", "--out", str(out)]) == 0
        rows = (out / "decay.csv").read_text().strip().splitlines()[2:]
        assert len(rows) == 9  # three pairs at xi = 0.5, 1, 2

    def test_linear_run_builds_one_dyadic_family(self, tmp_path, monkeypatch):
        # every (pair, xi) fit reads the same grid, so one family serves all
        built = _count_families(monkeypatch)
        cfg = _write_config(tmp_path / "c.ini",
                            "[grid]\nn = 32\nlength = 1\n\n[linear]\n"
                            "xi_values = 1,2\nsamples = 100\n")
        out = tmp_path / "out"
        assert main(["linear", "--config", cfg, "--strict", "--out", str(out)]) == 0
        assert len((out / "decay.csv").read_text().strip().splitlines()[2:]) == 6
        assert len(built) == 1

    def test_simulate_run_builds_one_dyadic_family(self, tmp_path, monkeypatch):
        # the data norm and every sample read the run grid's own family
        built = _count_families(monkeypatch)
        cfg = _write_config(tmp_path / "c.ini",
                            "[grid]\nn = 16\nlength = 1\n\n[simulate]\n"
                            "dt = 0.02\nt_final = 0.1\n")
        assert main(["simulate", "--config", cfg, "--strict",
                     "--out", str(tmp_path / "out")]) == 0
        assert len(built) == 1

    def test_linear_between_blocks_fits_the_block_below(self, tmp_path):
        # xi = 0.75 and 3 sit at 0.75 of 2^round(log2 xi), below that block's
        # shell; the fit reads block q - 1, where psi = 1
        cfg = _write_config(tmp_path / "c.ini",
                            "[grid]\nn = 64\nlength = 8\n\n[linear]\nxi_values = 0.75,3\n")
        out = tmp_path / "out"
        assert main(["linear", "--config", cfg, "--strict", "--out", str(out)]) == 0
        rows = (out / "decay.csv").read_text().strip().splitlines()[2:]
        assert len(rows) == 6
        for row in rows:
            assert float(row.split(",")[-1]) < 0.02

    def test_constraints_mode(self, tmp_path):
        cfg = _write_config(
            tmp_path / "c.ini",
            "[grid]\nn = 32\nlength = 1.0\n\n[constraints]\n"
            "eps = 0.02\nrefine_levels = 16,32\ndt = 0.05\nt_final = 0.3\n")
        out = tmp_path / "out"
        assert main(["constraints", "--config", cfg, "--strict", "--out", str(out)]) == 0
        rows = (out / "residuals.csv").read_text().strip().splitlines()[2:]
        res = [float(r.split(",")[1]) for r in rows]
        assert res[1] < res[0]

    def test_constraints_samples_the_final_step(self, tmp_path):
        # 11 steps against the mode's stride of 5: samples at steps 0, 5, 10, 11
        cfg = _write_config(
            tmp_path / "c.ini",
            "[grid]\ndim = 3\nn = 32\nlength = 1.0\n\n[constraints]\n"
            "eps = 0.02\nrefine_levels = 16\ndt = 0.02\nt_final = 0.22\n")
        out = tmp_path / "out"
        assert main(["constraints", "--config", cfg, "--strict", "--out", str(out)]) == 0
        rows = (out / "majorants.csv").read_text().strip().splitlines()[2:]
        times = [float(r.split(",")[0]) for r in rows]
        assert times[:-1] == pytest.approx([0.0, 0.1, 0.2])
        assert times[-1] == pytest.approx(0.22, rel=1e-12)

    def test_constraints_refinement_grids_take_dealias(self, tmp_path):
        body = ("[grid]\nn = 32\nlength = 1.0\n{}\n[constraints]\neps = 0.02\n"
                "refine_levels = 16,32\ndt = 0.05\nt_final = 0.1\n")
        residuals = []
        for name, extra in (("default", ""), ("half", "dealias = 0.5\n")):
            cfg = _write_config(tmp_path / f"{name}.ini", body.format(extra))
            out = tmp_path / name
            assert main(["constraints", "--config", cfg, "--out", str(out)]) == 0
            residuals.append((out / "residuals.csv").read_bytes())
        assert residuals[0] != residuals[1]

    @pytest.mark.parametrize("levels, calls", [("16,32", 2), ("32,16", 2), ("16", 2),
                                               ("16,64", 3)])
    def test_constraints_reuse_the_run_grid_level(self, tmp_path, monkeypatch, levels, calls):
        # one flow-map pullback per level; the transport's initial data is
        # built again only when no level lies on the run grid (n = 32)
        made = []
        generate = cli.generate_admissible
        monkeypatch.setattr(cli, "generate_admissible",
                            lambda flow: made.append(flow.grid.n) or generate(flow))
        cfg = _write_config(
            tmp_path / "c.ini",
            "[grid]\nn = 32\nlength = 1.0\n\n[constraints]\neps = 0.02\n"
            f"refine_levels = {levels}\ndt = 0.05\nt_final = 0.1\n")
        assert main(["constraints", "--config", cfg, "--strict", "--out", str(tmp_path)]) == 0
        assert len(made) == calls
        assert made.count(32) == 1

    def test_simulate_mode_quick(self, tmp_path):
        cfg = _write_config(
            tmp_path / "c.ini",
            "[run]\nseed = 3\n\n[grid]\nn = 32\nlength = 8.0\n"
            "\n[physics]\nalpha = 2.0\n\n[simulate]\ndt = 0.05\nt_final = 0.5\n"
            "amplitude = 0.005\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--strict", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["sup_instant"] <= 10.0 * summary["initial_norm"]
        rows = (out / "norms.csv").read_text().strip().splitlines()[2:]
        assert len(rows) == 11  # a sample at every accepted step incl. t=0

    def test_simulate_summary_sums_its_norm_table(self, tmp_path):
        # consistency: the summary's l1_total is the sum of the last norms.csv
        # row's acc_* values and sup_instant the sum of the inst_* column
        # maxima, exactly (both files print floats that read back exactly)
        cfg = _write_config(
            tmp_path / "c.ini",
            "[run]\nseed = 5\n\n[grid]\nn = 16\nlength = 4.0\n"
            "\n[physics]\nalpha = 2.0\n\n[simulate]\ndt = 0.05\nt_final = 0.5\n"
            "amplitude = 0.01\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        lines = (out / "norms.csv").read_text().strip().splitlines()[1:]
        header = lines[0].split(",")
        columns = dict(zip(header, zip(*([float(v) for v in line.split(",")]
                                         for line in lines[1:]))))
        assert summary["l1_total"] == sum(columns[f"acc_{k}"][-1] for k in ("rho", "u", "E"))
        assert summary["sup_instant"] == sum(max(columns[f"inst_{k}"]) for k in ("rho", "u", "E"))
        assert summary["l1_total"] > 0.0

    def test_iterate_mode_quick(self, tmp_path):
        cfg = _write_config(
            tmp_path / "c.ini",
            "[run]\nseed = 3\n\n[grid]\nn = 32\nlength = 8.0\n"
            "\n[physics]\nalpha = 2.0\n\n[iterate]\ndt = 0.02\nt_final = 0.2\n"
            "amplitude = 0.005\niterations = 4\n")
        out = tmp_path / "out"
        assert main(["iterate", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        # exactly these keys: none restates the config
        assert sorted(summary) == ["contraction_ratios", "flagged", "gain", "gains"]
        assert not summary["flagged"]
        rows = (out / "contraction.csv").read_text().strip().splitlines()[2:]
        assert len(rows) == 4  # one row per sweep

    @pytest.mark.parametrize("ratios,code", [
        ([0.5, 0.95, 0.3], 2),   # one ratio beyond sweep 2 above 0.9
        ([0.95, 0.9, 0.3], 0),   # the first ratio is exempt; 0.9 itself passes
    ])
    def test_iterate_strict_tests_each_ratio(self, tmp_path, capsys, monkeypatch,
                                             ratios, code):
        solve = cli.picard_solve
        monkeypatch.setattr(cli, "picard_solve",
                            lambda prim0, config: replace(solve(prim0, config), ratios=ratios))
        cfg = _write_config(
            tmp_path / "c.ini",
            "[grid]\nn = 16\nlength = 2\n\n[iterate]\ndt = 0.02\nt_final = 0.04\n"
            "iterations = 4\n")
        assert main(["iterate", "--config", cfg, "--strict", "--out", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ([] if code == 0 else
                       ["invariant violation: iteration failed to contract below 0.9"])

    def test_sweep_fans_out(self, tmp_path):
        cfg = _write_config(tmp_path / "c.ini",
                            "[run]\nseed = 5\n\n[grid]\nn = 32\n\n[scaling]\n")
        out = tmp_path / "sweep"
        assert main(["scaling", "--config", cfg, "--out", str(out),
                     "--sweep", "grid.length=1.0,8.0"]) == 0
        assert (out / "grid_length=1.0" / "scaling.csv").exists()
        assert (out / "grid_length=8.0" / "scaling.csv").exists()

    def test_sweep_pool_is_capped_at_the_job_count(self, tmp_path, monkeypatch):
        import concurrent.futures
        asked = []

        class InProcessPool:
            """Records the worker count and runs the jobs here; starts nothing."""

            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setenv("VISCOFLOW_THREADS", "64")
        cfg = _write_config(tmp_path / "c.ini", "[grid]\nn = 16\nlength = 1\n")
        out = tmp_path / "sweep"
        assert main(["scaling", "--config", cfg, "--out", str(out),
                     "--sweep", "grid.length=1,2"]) == 0
        assert asked == [2]
        assert (out / "grid_length=2" / "scaling.csv").exists()


class TestCliErrorBoundary:
    """Every failure ends in one stderr line and a documented exit code."""

    def _run(self, tmp_path, capsys, mode, body):
        cfg = _write_config(tmp_path / "c.ini", body)
        code = main([mode, "--config", cfg, "--out", str(tmp_path / "o")])
        return code, capsys.readouterr().err.strip().splitlines()

    def test_transport_blow_up_exits_3(self, tmp_path, capsys):
        # an overflowing transport stops at the step that left finite values,
        # with one stderr line and no floating-point warnings
        cfg = _write_config(tmp_path / "c.ini",
                            "[grid]\nn = 64\nlength = 1\n\n[constraints]\n"
                            "refine_levels = 32,64\ndt = 0.02\nt_final = 0.1\n"
                            "u_amplitude = 1e160\n")
        code = main(["constraints", "--config", cfg, "--strict", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 3
        assert err == ["run stopped: step 1: non-finite coefficients in field F"]

    def test_overflowing_scaling_amplitude_prints_one_line(self, tmp_path, capsys):
        code, err = self._run(tmp_path, capsys, "scaling", "[scaling]\namplitude = 1e300\n")
        assert code == 1
        assert err == ["input error: [scaling] amplitude = 1e+300 gives norm nan"]

    def test_stability_error_exits_3(self, tmp_path, capsys):
        code, err = self._run(tmp_path, capsys, "simulate",
                              "[grid]\nn = 32\nlength = 8\n"
                              "\n[simulate]\ndt = 50\nt_final = 50\n")
        assert code == 3
        assert err == ["run stopped: step 1: CFL number 3.17 exceeds limit 0.5 in field u"]

    def test_configuration_error_exits_1(self, tmp_path, capsys):
        code, err = self._run(tmp_path, capsys, "simulate", "[physics]\nmu = -1\n")
        assert code == 1
        assert len(err) == 1 and err[0].startswith("configuration error:")

    def test_diagnostic_error_exits_3(self, tmp_path, capsys):
        # a horizon of 0.1 e-fold leaves the fit window less than one e-fold
        code, err = self._run(tmp_path, capsys, "linear",
                              "[grid]\nn = 64\nlength = 1\n"
                              "\n[linear]\npairs = rho_d\nxi_values = 2\nefolds = 0.1\n")
        assert code == 3
        assert len(err) == 1 and err[0].startswith("run stopped:")

    def test_degenerate_flow_map_exits_1(self, tmp_path, capsys):
        # the small-data shears at k = round(L) = 8 sit at Nyquist on n = 16
        code, err = self._run(tmp_path, capsys, "simulate",
                              "[grid]\nn = 16\nlength = 8\n")
        assert code == 1
        assert len(err) == 1 and "degenerate" in err[0]

    @pytest.mark.parametrize("mode,solver,dt,t_final", [
        ("simulate", "direct_solve", 0.02, 20.0),
        ("iterate", "picard_solve", 0.005, 2.0),
    ])
    def test_missing_mode_section_reads_defaults(self, tmp_path, capsys, monkeypatch,
                                                 mode, solver, dt, t_final):
        seen = []

        def stop(prim0, config):
            seen.append(config)
            raise StabilityError("stopped before the first step")

        monkeypatch.setattr(cli, solver, stop)
        code, _ = self._run(tmp_path, capsys, mode, "[grid]\nn = 16\nlength = 1\n")
        assert code == 3
        assert (seen[0].dt, seen[0].t_final) == (dt, t_final)

    def test_analyze_without_section_is_input_error(self, tmp_path, capsys):
        code, err = self._run(tmp_path, capsys, "analyze", "[grid]\nn = 16\n")
        assert code == 1
        assert len(err) == 1 and "input" in err[0]


# mode, config body, --sweep spec, text the one stderr line must contain
_MISUSE = [
    ("scaling", "[grid]\nn = abc\n", None, "[grid] n = 'abc'"),
    ("simulate", "[simulate]\nrotation_correction = maybe\n", None,
     "[simulate] rotation_correction = 'maybe'"),
    ("iterate", "[iterate]\ninit = molified\n", None, "[iterate] init = 'molified'"),
    ("constraints", "[constraints]\nrefine_levels =\n", None, "[constraints] refine_levels"),
    ("scaling", "[scaling]\ns_values = a\n", None, "[scaling] s_values = 'a'"),
    ("analyze", "[analyze]\ninput = f.vfs\nhybrid_pairs = 0,1;2\n", None,
     "[analyze] hybrid_pairs"),
    ("linear", "[linear]\npairs = rho_x\n", None, "[linear] pairs = 'rho_x'"),
    ("simulate", "[physics]\ngamma_gas = 3\n", None, "[physics] gamma_gas"),
    ("simulate", "[physics]\npressure = ideal\n", None, "[physics] pressure = 'ideal'"),
    ("simulate", "[solver]\ndt = 1\n", None, "[solver]"),
    ("scaling", "", "simulate.foo=1,2", "[simulate] foo"),
    ("scaling", "", "nosuch=1", "--sweep 'nosuch=1'"),
    ("scaling", "", "bogus", "--sweep 'bogus'"),
    ("simulate", "", "simulate.t_final=0.02,abc", "[simulate] t_final = 'abc'"),
    ("scaling", "n = 32\n", None, "c.ini"),
    ("scaling", "[grid]\nn = 32\nn = 16\n", None, "c.ini"),
    ("scaling", "[grid]\nn = 32\n[grid]\ndim = 2\n", None, "c.ini"),
    ("iterate", "[grid]\nn = 16\nlength = 1\n[iterate]\niterations = 0\n", None,
     "[iterate] picard_iterations"),
    ("simulate", "[grid]\nn = 16\nlength = 1\n[simulate]\ndt = 0.02\nt_final = 0.25\n",
     None, "[simulate] t_final = 0.25"),
    ("constraints", "[grid]\nn = 16\nlength = 1\n[constraints]\nrefine_levels = 16\n"
     "t_final = 0.25\n", None, "[constraints] t_final = 0.25"),
    # a refinement level is a grid size, but not the [grid] n
    ("constraints", "[constraints]\nrefine_levels = 12, 16\n", None,
     "[constraints] n must be a power of two >= 8, got 12"),
    ("constraints", "[grid]\nn = 16\nlength = 1\n[constraints]\neps = 5\n"
     "refine_levels = 16\n", None, "[constraints] flow map too strong"),
    # no level on the run grid: its own pullback is built after the levels'
    ("constraints", "[grid]\nn = 8\nlength = 4\n[constraints]\nrefine_levels = 32\n", None,
     "[constraints] flow map is degenerate on this grid"),
    ("linear", "[grid]\nn = 64\nlength = 8\n[linear]\npairs = rho_d\nxi_values = 4\n",
     None, "[linear] |xi| = 4"),
    # a seed is the grid mode xi * length, never moved to the nearest one
    ("linear", "[grid]\nn = 32\nlength = 8\n[linear]\nxi_values = 0.5, 0.3\n", None,
     "[linear] xi_values: xi = 0.3"),
    # NaN fails every comparison, so each domain check is written to trip on it
    ("scaling", "[grid]\nn = 16\nlength = nan\n", None, "length must be >= 1, got nan"),
    ("simulate", "[grid]\nn = 16\nlength = 1\n[physics]\nmu = nan\n", None, "mu=nan"),
    ("simulate", "[grid]\nn = 16\nlength = 1\n[physics]\npressure = power\n"
     "gamma_gas = nan\n", None, "gas exponent must be positive, got nan"),
    ("scaling", "[run]\nseed = -1\n", None, "[run] seed = '-1'"),
    ("scaling", "[scaling]\namplitude = 0\n", None, "[scaling] amplitude = 0.0 gives norm 0.0"),
    # finite, but its block norms underflow to zero
    ("scaling", "[grid]\nn = 16\nlength = 1\n[scaling]\namplitude = 1e-300\n", None,
     "[scaling] amplitude = 1e-300 gives norm 0.0"),
    ("scaling", "[scaling]\namplitude = nan\n", None, "[scaling] amplitude = 'nan'"),
    ("scaling", "[scaling]\namplitude = inf\n", None, "[scaling] amplitude = 'inf'"),
    ("scaling", "[scaling]\ns_values = nan\n", None, "[scaling] s_values = 'nan'"),
    ("scaling", "[scaling]\ns_values = 0, inf\n", None, "[scaling] s_values = '0, inf'"),
    ("linear", "[linear]\nxi_values = nan\n", None, "[linear] xi_values = 'nan'"),
    ("linear", "[linear]\nxi_values = 1, inf\n", None, "[linear] xi_values = '1, inf'"),
    ("analyze", "[analyze]\ninput = f.vfs\ns_values = nan\n", None,
     "[analyze] s_values = 'nan'"),
    ("analyze", "[analyze]\ninput = f.vfs\ns_values = -inf\n", None,
     "[analyze] s_values = '-inf'"),
    ("analyze", "[analyze]\ninput = f.vfs\nhybrid_pairs = 0,nan\n", None,
     "[analyze] hybrid_pairs = '0,nan'"),
    ("analyze", "[analyze]\ninput = f.vfs\nhybrid_pairs = 0,1;inf,1\n", None,
     "[analyze] hybrid_pairs = '0,1;inf,1'"),
    ("simulate", "[grid]\nn = 16\nlength = 1\n[simulate]\namplitude = nan\n", None,
     "[simulate] amplitude = 'nan'"),
    ("iterate", "[grid]\nn = 16\nlength = 1\n[iterate]\namplitude = nan\n", None,
     "[iterate] amplitude = 'nan'"),
    ("constraints", "[grid]\nn = 16\nlength = 1\n[constraints]\neps = nan\n", None,
     "[constraints] eps = 'nan'"),
    ("constraints", "[grid]\nn = 16\nlength = 1\n[constraints]\nu_amplitude = nan\n",
     None, "[constraints] u_amplitude = 'nan'"),
    ("scaling", "[grid]\nn = 16\nlength = inf\n", None, "length must be >= 1, got inf"),
    ("simulate", "[grid]\nn = 16\nlength = 1\n[physics]\nalpha = nan\n", None,
     "alpha must be finite, got nan"),
    # the rate fit needs 20 samples in the trailing half of the series
    ("linear", "[grid]\nn = 16\nlength = 1\n[linear]\nxi_values = 1\nsamples = -1\n", None,
     "[linear] samples = -1"),
    ("linear", "[grid]\nn = 16\nlength = 1\n[linear]\nxi_values = 1\nsamples = 38\n", None,
     "[linear] samples = 38"),
    ("linear", "[grid]\nn = 16\nlength = 1\n[linear]\nxi_values = 1\nefolds = 0\n", None,
     "[linear] efolds = 0.0"),
    ("linear", "[grid]\nn = 16\nlength = 1\n[linear]\nxi_values = 1\nefolds = -5\n", None,
     "[linear] efolds = -5.0"),
    ("linear", "[grid]\nn = 16\nlength = 1\n[linear]\nxi_values = 1\nefolds = nan\n", None,
     "[linear] efolds = nan"),
    ("linear", "[grid]\nn = 16\nlength = 1\n[linear]\nxi_values = 1\nefolds = inf\n", None,
     "[linear] efolds = inf"),
    # the refinement level n = 32 cannot hold the default mode k = (0, 2L) = (0, 16)
    ("constraints", "[grid]\nn = 64\nlength = 8\n[constraints]\nrefine_levels = 32\n",
     None, "mode k = (0, 16)"),
    # a finite index whose block weights 2^(q s) overflow on the grid (q up to 4)
    ("scaling", "[grid]\nn = 16\nlength = 1\n[scaling]\ns_values = 0, 400\n", None,
     "[scaling] s_values: index 400.0 overflows the block weights"),
    ("analyze", "[analyze]\ninput = f.vfs\ns_values = 0, 400\n", None,
     "[analyze] s_values: index 400.0 overflows the block weights"),
    ("analyze", "[analyze]\ninput = f.vfs\nhybrid_pairs = 0,1;0,400\n", None,
     "[analyze] hybrid_pairs: index (0.0, 400.0) overflows the block weights"),
    ("analyze", "[analyze]\ninput = huge.vfs\ns_values = 0\n", None,
     "[analyze] s_values: index 0.0 gives the non-finite norm"),
    # a frequency is a magnitude: a negative one is not read as its absolute value
    ("linear", "[grid]\nn = 16\nlength = 1\n[linear]\nxi_values = 1, -2\n", None,
     "[linear] xi_values = '1, -2'"),
]


class TestConfigMisuse:
    """Each misuse exits 1 before any run starts, with one stderr line that
    names the section and key, the sweep spec or the file."""

    @pytest.mark.parametrize("mode,body,sweep,names", _MISUSE)
    def test_exits_1_with_one_line(self, tmp_path, capsys, monkeypatch, mode, body, sweep,
                                   names):
        # the analyze rows read these snapshots (2-D n=16, L=1) from the working directory
        monkeypatch.chdir(tmp_path)
        for name, amplitude in (("f.vfs", 1.0), ("huge.vfs", 1e300)):
            save_field(tmp_path / name, random_field(Grid(2, 16, 1.0), "scalar",
                                                     np.random.default_rng(3), amplitude=amplitude))
        cfg = _write_config(tmp_path / "c.ini", body)
        argv = [mode, "--config", cfg, "--out", str(tmp_path / "o")]
        assert main(argv + (["--sweep", sweep] if sweep else [])) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and names in err[0], err
        if sweep:
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("out,sweep,names", [
        ("taken", None, "taken: File exists"),
        ("taken/sub", "grid.length=1,2", "taken/sub/grid_length=1: Not a directory"),
        ("made", None, "made/manifest.json: Is a directory"),
    ])
    def test_unusable_out_exits_1_with_one_line(self, tmp_path, capsys, out, sweep, names):
        # an existing file, a path through one, or a directory where the
        # manifest goes: the first write names the path it could not write
        (tmp_path / "taken").write_text("")
        (tmp_path / "made" / "manifest.json").mkdir(parents=True)
        cfg = _write_config(tmp_path / "c.ini", "[grid]\nn = 16\nlength = 1\n")
        argv = ["scaling", "--config", cfg, "--out", str(tmp_path / out)]
        assert main(argv + (["--sweep", sweep] if sweep else [])) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"input error: cannot write {tmp_path / names}"], err

    @pytest.mark.parametrize("threads", ["abc", "0", "-4"])
    def test_thread_cap_must_be_a_positive_integer(self, tmp_path, capsys, monkeypatch,
                                                   threads):
        monkeypatch.setenv("VISCOFLOW_THREADS", threads)
        cfg = _write_config(tmp_path / "c.ini", "[grid]\nn = 16\nlength = 1\n")
        assert main(["scaling", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--sweep", "grid.length=1,2"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"input error: VISCOFLOW_THREADS = '{threads}': "
                       "expected a positive integer"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("case", _CORRUPTIONS + ["missing file"])
    def test_bad_snapshot_exits_1(self, tmp_path, capsys, case):
        path = tmp_path / "f.vfs"
        if case != "missing file":
            path.write_bytes(_corrupt(_vector_snapshot(path), case))
        cfg = _write_config(tmp_path / "c.ini", f"[analyze]\ninput = {path}\n")
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and str(path) in err[0], err


class TestReadConfig:
    def test_defaults(self):
        conf = cli.read_config({})
        assert set(conf) == set(cli._SCHEMA)
        assert sum(len(keys) for keys in cli._SCHEMA.values()) == 34
        assert conf["grid"]["dealias"] == 2.0 / 3.0
        assert conf["analyze"]["input"] is None
        assert conf["linear"]["pairs"] == ("rho_d", "omega_w", "potential_d")
        assert conf["constraints"]["refine_levels"] == (16, 32, 64)

    def test_values_are_parsed(self):
        conf = cli.read_config({
            "grid": {"n": "32", "length": "1.5"},
            "analyze": {"hybrid_pairs": "0,1; 1,2", "s_values": "0, 0.5"},
            "linear": {"pairs": "rho_d, omega_w"},
            "physics": {"pressure": "power", "gamma_gas": "3"},
        })
        assert (conf["grid"]["n"], conf["grid"]["length"]) == (32, 1.5)
        assert conf["analyze"]["hybrid_pairs"] == ((0.0, 1.0), (1.0, 2.0))
        assert conf["analyze"]["s_values"] == (0.0, 0.5)
        assert conf["linear"]["pairs"] == ("rho_d", "omega_w")
        assert conf["physics"]["gamma_gas"] == 3.0

    @pytest.mark.parametrize("mode,solver,line,attr,value", [
        ("simulate", "direct_solve", f"rotation_correction = {text}", "rotation_correction", on)
        for text, on in (("true", True), ("True", True), ("yes", True), ("on", True),
                         ("1", True), ("false", False), ("no", False), ("off", False),
                         ("0", False))
    ] + [
        ("iterate", "picard_solve", "init = mollified", "init_mollified", True),
        ("iterate", "picard_solve", "init = full", "init_mollified", False),
    ])
    def test_value_reaches_the_run(self, tmp_path, capsys, monkeypatch,
                                   mode, solver, line, attr, value):
        seen = []

        def stop(prim0, config):
            seen.append(config)
            raise StabilityError("stopped before the first step")

        monkeypatch.setattr(cli, solver, stop)
        cfg = _write_config(tmp_path / "c.ini",
                            f"[grid]\nn = 16\nlength = 1\n\n[{mode}]\n{line}\n")
        assert main([mode, "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert getattr(seen[0], attr) is value


def _readme_keys():
    """(section, key) pairs of the README's config key table."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = text.split("| section | key |", 1)[1].split("\n\n", 1)[0].splitlines()[2:]
    pairs = set()
    for row in rows:
        section, key = (cell.strip().strip("`") for cell in row.strip("|").split("|")[:2])
        pairs.add((section, key))
    return pairs


def test_readme_lists_every_config_key():
    assert _readme_keys() == {(s, k) for s, keys in cli._SCHEMA.items() for k in keys}


def _readme_mode_sections():
    """mode -> the config sections the README's per-mode table lists."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = text.split("| mode | sections read |", 1)[1].split("\n\n", 1)[0].splitlines()[2:]
    table = {}
    for row in rows:
        mode, sections = (cell.strip() for cell in row.strip("|").split("|")[:2])
        table[mode.strip("`")] = {s.strip().strip("`[]") for s in sections.split(",")}
    return table


# a short run of each mode on a 16-point grid of length 1
_MODE_RUNS = {
    "analyze": "[analyze]\ninput = f.vfs\n",
    "linear": "[grid]\nn = 16\nlength = 1\n[linear]\npairs = rho_d\nxi_values = 1\n",
    "simulate": "[grid]\nn = 16\nlength = 1\n[simulate]\ndt = 0.02\nt_final = 0.02\n",
    "iterate": "[grid]\nn = 16\nlength = 1\n[iterate]\ndt = 0.02\nt_final = 0.02\n"
               "iterations = 2\n",
    "constraints": "[grid]\nn = 16\nlength = 1\n[constraints]\nrefine_levels = 16\n"
                   "t_final = 0.02\n",
    "scaling": "[grid]\nn = 16\nlength = 1\n",
}


@pytest.mark.parametrize("mode", cli.MODES)
def test_readme_lists_the_sections_each_mode_reads(mode, tmp_path, monkeypatch):
    # every section is accepted in every mode's file; the table says which
    # ones the mode reads
    read = set()

    class Recording(dict):
        def __getitem__(self, section):
            read.add(section)
            return super().__getitem__(section)
    parse = cli.read_config
    monkeypatch.setattr(cli, "read_config", lambda raw: Recording(parse(raw)))
    monkeypatch.chdir(tmp_path)
    save_field(tmp_path / "f.vfs", random_field(Grid(2, 16, 1.0), "scalar",
                                                np.random.default_rng(3)))
    cfg = _write_config(tmp_path / "c.ini", _MODE_RUNS[mode])
    assert main([mode, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert _readme_mode_sections()[mode] == read
