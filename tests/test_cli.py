"""Unit tests for the repro CLI (python -m repro ...)."""

import json

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_family(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "XYZ", "-M", "8"])


class TestSubcommands:
    def test_info(self, capsys):
        code, out = run_cli(capsys, "info")
        assert code == 0
        assert "raw density" in out and "32 nm" in out

    def test_fig5(self, capsys):
        code, out = run_cli(capsys, "fig5")
        assert code == 0
        assert "Ternary" in out

    def test_fig6(self, capsys):
        code, out = run_cli(capsys, "fig6")
        assert code == 0
        assert "BGC (L=10)" in out

    def test_fig7(self, capsys):
        code, out = run_cli(capsys, "fig7")
        assert code == 0
        assert "yield" in out and "AHC" in out

    def test_fig8_with_exports(self, capsys, tmp_path):
        csv_path = tmp_path / "fig8.csv"
        json_path = tmp_path / "fig8.json"
        code, out = run_cli(
            capsys, "fig8", "--csv", str(csv_path), "--json", str(json_path)
        )
        assert code == 0
        assert csv_path.exists()
        data = json.loads(json_path.read_text())
        assert "BGC" in data

    def test_evaluate(self, capsys):
        code, out = run_cli(capsys, "evaluate", "BGC", "-M", "10")
        assert code == 0
        assert "cave_yield" in out

    def test_evaluate_ternary(self, capsys):
        code, out = run_cli(capsys, "evaluate", "GC", "-M", "6", "-n", "3")
        assert code == 0
        assert "GC(n=3" in out

    def test_optimize(self, capsys):
        code, out = run_cli(capsys, "optimize", "--objective", "bit_area")
        assert code == 0
        assert "best: BGC/10" in out or "best: AHC" in out

    def test_simulate(self, capsys):
        code, out = run_cli(
            capsys, "simulate", "BGC", "-M", "8", "--samples", "20", "--seed", "1"
        )
        assert code == 0
        assert "mean cave yield" in out

    def test_headline(self, capsys):
        code, out = run_cli(capsys, "headline")
        assert code == 0
        assert "paper" in out and "measured" in out

    def test_theorems(self, capsys):
        code, out = run_cli(capsys, "theorems")
        assert code == 0
        assert out.count("PASS") == 7

    def test_baselines(self, capsys):
        code, out = run_cli(capsys, "baselines")
        assert code == 0
        assert "random codes [6]" in out

    def test_margins(self, capsys):
        code, out = run_cli(capsys, "margins", "-M", "8")
        assert code == 0
        assert "select" in out and "BGC" in out and "margin yield" in out

    def test_margins_with_sampling(self, capsys):
        code, out = run_cli(
            capsys,
            "margins",
            "--family",
            "BGC",
            "-M",
            "8",
            "--samples",
            "200",
            "--seed",
            "1",
        )
        assert code == 0
        assert "mc yield" in out and "mc stderr" in out

    def test_margins_loop_batched_identical(self, capsys):
        """Every figure of ``margins`` equals the scalar per-pair oracle."""
        from oracles import margins as oracle

        from repro.codes.registry import make_code
        from repro.crossbar.spec import CrossbarSpec

        _, out = run_cli(
            capsys,
            "margins",
            "--family",
            "GC,BGC",
            "-M",
            "8",
            "--samples",
            "150",
            "--seed",
            "3",
            "--format",
            "json",
        )
        spec = CrossbarSpec()
        n_wires = spec.nanowires_per_half_cave
        for entry in json.loads(out)["families"]:
            code = make_code(entry["family"], 2, 8)
            report = oracle.margin_report(code, n_wires, sigma_t=spec.sigma_t)
            mc = oracle.simulate_margin_yield(spec, code, samples=150, seed=3)
            assert entry == {
                "family": entry["family"],
                "select_margin_v": report.select_margin_v,
                "block_margin_v": report.block_margin_v,
                "worst_margin_v": report.worst_margin_v,
                "passes": report.passes,
                "margin_yield": oracle.margin_yield(
                    code, n_wires, sigma_t=spec.sigma_t
                ),
                "mc_margin_yield": mc.mean_margin_yield,
                "mc_stderr": mc.stderr,
                "mc_select_margin_v": mc.mean_select_margin,
                "mc_block_margin_v": mc.mean_block_margin,
            }

    def test_readout(self, capsys):
        code, out = run_cli(capsys, "readout", "--scheme", "float")
        assert code == 0
        assert "bank size" in out

    def test_calibrate(self, capsys):
        code, out = run_cli(capsys, "calibrate")
        assert code == 0
        assert "shipped defaults error" in out

class TestMarginsGoldens:
    """Seeded goldens for ``repro margins`` (same contract as
    tests/test_sim_golden.py: rel=1e-12 pins the draws and the masking,
    while ignoring float summation-order noise)."""

    GOLDEN_RTOL = 1e-12

    #: repro margins --family GC,BGC -M 8 --samples 300 --seed 7
    #:               --k-sigma 2.0 --format json
    GOLDEN = {
        "GC": {
            "select_margin_v": -0.08166247903554003,
            "block_margin_v": -0.08166247903554003,
            "margin_yield": 0.3,
            "mc_margin_yield": 0.5053333333333334,
            "mc_stderr": 0.007138904252087686,
            "mc_select_margin_v": -0.04379056342135855,
            "mc_block_margin_v": 0.0012443309246753281,
        },
        "BGC": {
            "select_margin_v": 0.005051025721682201,
            "block_margin_v": 0.005051025721682256,
            "margin_yield": 1.0,
            "mc_margin_yield": 0.4975,
            "mc_stderr": 0.0074627465720810944,
            "mc_select_margin_v": -0.014351499886521143,
            "mc_block_margin_v": 0.015387290962775696,
        },
    }

    def test_seeded_margins_golden(self, capsys):
        code, out = run_cli(
            capsys,
            "margins",
            "--family",
            "GC,BGC",
            "-M",
            "8",
            "--samples",
            "300",
            "--seed",
            "7",
            "--k-sigma",
            "2.0",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["k_sigma"] == 2.0 and payload["seed"] == 7
        by_family = {r["family"]: r for r in payload["families"]}
        assert set(by_family) == set(self.GOLDEN)
        for family, golden in self.GOLDEN.items():
            for key, value in golden.items():
                assert by_family[family][key] == pytest.approx(
                    value, rel=self.GOLDEN_RTOL
                ), (family, key)


class TestPlatformKnobs:
    def test_platform_knobs_change_results(self, capsys):
        _, loose = run_cli(capsys, "evaluate", "TC", "-M", "6")
        _, tight = run_cli(capsys, "--sigma-t", "0.12", "evaluate", "TC", "-M", "6")
        assert loose != tight


class TestInvalidInput:
    """Bad values give one ``repro <cmd>: error:`` line and exit 2."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["simulate", "BGC", "-M", "8", "--samples", "0"],
                "repro simulate: error: samples must be >= 1, got 0",
            ),
            (
                ["sweep", "--axis", "nanowires=-3"],
                "repro sweep: error: need at least one nanowire per half cave",
            ),
            (
                ["memsim", "BGC", "-M", "8", "--accesses", "0"],
                "repro memsim: error: accesses must be >= 1, got 0",
            ),
            (
                ["--nanowires", "0", "info"],
                "repro info: error: need at least one nanowire per half cave",
            ),
            (
                ["readout", "--sizes", "0"],
                "repro readout: error: --sizes expects positive bank sizes, got '0'",
            ),
            (
                ["readout", "--sizes", "4,x"],
                "repro readout: error: --sizes has a malformed value list: '4,x'",
            ),
            (
                ["readout", "--sizes", ","],
                "repro readout: error: --sizes expects at least one bank size",
            ),
            (
                ["sweep", "--axis", "foo"],
                "repro sweep: error: --axis expects NAME=V1,V2,..., got 'foo'",
            ),
            (
                ["sweep", "--axis", "sigma_t=0.03,"],
                "repro sweep: error: --axis has a malformed value list: "
                "'sigma_t=0.03,'",
            ),
            (
                ["sweep", "--families", "TC", "--lengths", "5"],
                "repro sweep: error: the requested grid has no admissible "
                "design points",
            ),
            (
                ["margins", "--family", ","],
                "repro margins: error: --family expects at least one family name",
            ),
            (
                ["--sigma-t", "nan", "info"],
                "repro info: error: sigma_T must be positive and finite, got nan",
            ),
            (
                ["--sigma-t", "inf", "fig7"],
                "repro fig7: error: sigma_T must be positive and finite, got inf",
            ),
            (
                ["sweep", "--families", "TC", "--lengths", "6",
                 "--axis", "sigma_t=nan"],
                "repro sweep: error: sigma_T must be positive and finite, got nan",
            ),
            (
                ["--raw-kb", "nan", "info"],
                "repro info: error: raw density must be positive and finite, got nan",
            ),
            (
                ["--raw-kb", "inf", "info"],
                "repro info: error: raw density must be positive and finite, got inf",
            ),
            (
                ["--window-margin", "2", "fig7"],
                "repro fig7: error: window_margin must be in (0, 1], got 2.0",
            ),
            (
                ["--window-margin", "nan", "fig7"],
                "repro fig7: error: window_margin must be in (0, 1], got nan",
            ),
            (
                ["sweep", "--families", "TC", "--lengths", "6",
                 "--axis", "window_margin=2"],
                "repro sweep: error: window_margin must be in (0, 1], got 2",
            ),
        ],
    )
    def test_one_line_error_exit_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message + "\n"

    @pytest.mark.parametrize(
        "kind, extra",
        [
            ("sweep", ["--axis", "nanowires=-3"]),
            ("marginmc", ["BGC", "-M", "8", "--samples", "0"]),
        ],
    )
    def test_shard_plan_rejects_bad_values_before_writing(
        self, capsys, tmp_path, kind, extra
    ):
        job = tmp_path / "job"
        with pytest.raises(SystemExit) as excinfo:
            main(["shard", "plan", kind, str(job), *extra])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro shard: error: ")
        assert err.count("\n") == 1
        assert not job.exists()


class TestSharedOptions:
    """Golden agreement of the shared option layer across subcommands."""

    def _help(self, capsys, command):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        return " ".join(capsys.readouterr().out.split())

    def _error(self, capsys, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        err = capsys.readouterr().err
        # strip the per-subcommand usage prefix: compare from "error:" on
        return err[err.index("error:"):].strip()

    def test_help_text_identical_across_subcommands(self, capsys):
        from repro.cli import CHUNK_HELP, FORMAT_HELP, SEED_HELP, VIA_HELP

        helps = {
            cmd: self._help(capsys, cmd)
            for cmd in ("sweep", "simulate", "memsim", "margins", "readout")
        }
        for cmd in helps:
            assert "--method" not in helps[cmd], cmd
        for cmd in ("sweep", "simulate", "memsim", "margins"):
            assert " ".join(SEED_HELP.split()) in helps[cmd], cmd
            assert " ".join(FORMAT_HELP.split()) in helps[cmd], cmd
            assert " ".join(VIA_HELP.split()) in helps[cmd], cmd
        for cmd in ("simulate", "memsim", "margins"):
            assert " ".join(CHUNK_HELP.split()) in helps[cmd], cmd

    def test_method_error_message_identical(self, capsys):
        # the option is gone: every subcommand that had it refuses it alike
        argvs = {
            "simulate": ["simulate", "BGC", "-M", "8"],
            "memsim": ["memsim", "BGC", "-M", "8"],
            "margins": ["margins"],
            "readout": ["readout"],
        }
        errors = {
            cmd: self._error(capsys, [*argv, "--method", "loop"])
            for cmd, argv in argvs.items()
        }
        assert len(set(errors.values())) == 1, errors
        assert "unrecognized arguments: --method loop" in errors["simulate"]

    def test_format_error_message_identical(self, capsys):
        errors = {
            cmd: self._error(capsys, [cmd, "--format", "bogus"])
            for cmd in ("sweep", "simulate", "memsim", "margins")
        }
        assert len(set(errors.values())) == 1, errors

    def test_seed_default_agrees(self):
        parser = build_parser()
        seeds = {
            cmd: parser.parse_args(
                [cmd, *extra]
            ).seed
            for cmd, extra in (
                ("sweep", []),
                ("simulate", ["TC", "-M", "6"]),
                ("memsim", ["TC", "-M", "6"]),
                ("margins", []),
            )
        }
        assert set(seeds.values()) == {0}


class TestViaDaemon:
    def test_sweep_via_socket_matches_direct(self, capsys, tmp_path):
        from repro.serve import ReproServer

        sock = str(tmp_path / "cli.sock")
        args = ["sweep", "--families", "TC,GC", "--lengths", "6",
                "--metric", "yield,area", "--format", "csv"]
        _, direct = run_cli(capsys, *args)
        with ReproServer(sock).running():
            code, cold = run_cli(capsys, *args, "--via", sock)
            assert code == 0
            _, warm = run_cli(capsys, *args, "--via", sock)
        assert cold == direct
        assert warm == direct

    def test_simulate_via_socket_matches_direct(self, capsys, tmp_path):
        from repro.serve import ReproServer

        sock = str(tmp_path / "cli2.sock")
        args = ["simulate", "TC", "-M", "6", "--samples", "64", "--format", "csv"]
        _, direct = run_cli(capsys, *args)
        with ReproServer(sock).running():
            _, served = run_cli(capsys, *args, "--via", sock)
        assert served == direct
