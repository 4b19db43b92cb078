"""Tests for the command-line interface."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.flowshop import FlowShopInstance, random_instance, write_json_file, write_taillard_file


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.engine == "gpu"
        assert args.jobs == 20 and args.machines == 10
        assert args.pool_size == 8192

    def test_unknown_engine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--engine", "quantum"])

    def test_parallel_flags(self):
        args = build_parser().parse_args(
            ["solve", "--n-workers", "8", "--decomposition-depth", "3"]
        )
        assert args.workers == 8
        assert args.decomposition_depth == 3

    def test_workers_alias_kept(self):
        args = build_parser().parse_args(["solve", "--workers", "2"])
        assert args.workers == 2

    def test_parallel_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.decomposition_depth == 2

    def test_unknown_parallel_mode_rejected(self, capsys):
        # one multicore engine, so the CLI has no mode flag to accept
        for mode in ("worksteal", "static"):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(["solve", "--parallel-mode", mode])
            assert excinfo.value.code == 2
            assert "unrecognized arguments: --parallel-mode" in capsys.readouterr().err


class TestSolveCommand:
    def test_solve_generated_instance_gpu(self, capsys):
        code = main(["solve", "--jobs", "7", "--machines", "4", "--pool-size", "64"])
        assert code == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "optimal  : True" in out

    def test_solve_serial_engine(self, capsys):
        code = main(["solve", "--jobs", "6", "--machines", "3", "--engine", "serial"])
        assert code == 0
        assert "engine   : serial" in capsys.readouterr().out

    def test_multicore_honours_max_nodes(self, capsys):
        # the ta_10x8 NEH seed is not optimal, so a 1-node budget per chunk
        # must leave the run truncated instead of silently unbounded
        code = main(
            "solve --jobs 10 --machines 8 --engine multicore "
            "--n-workers 2 --max-nodes 1".split()
        )
        assert code == 0
        assert "optimal  : False" in capsys.readouterr().out

    def test_solve_multicore_worksteal(self, capsys):
        code = main(
            [
                "solve",
                "--jobs",
                "6",
                "--machines",
                "3",
                "--engine",
                "multicore",
                "--n-workers",
                "2",
                "--decomposition-depth",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "engine   : multicore" in out
        assert "optimal  : True" in out

    def test_solve_cluster_engine(self, capsys):
        argv = "solve --jobs 6 --machines 3 --engine cluster --nodes 2 --pool-size 32".split()
        code = main(argv)
        assert code == 0
        assert "simulated device" in capsys.readouterr().out

    def test_solve_from_taillard_file(self, tmp_path, capsys):
        instance = random_instance(6, 3, seed=1)
        path = write_taillard_file(instance, tmp_path / "inst.txt")
        code = main(["solve", "--file", str(path), "--engine", "serial"])
        assert code == 0
        assert "inst" in capsys.readouterr().out

    def test_solve_from_json_file(self, tmp_path, capsys):
        instance = random_instance(6, 3, seed=2)
        path = write_json_file(instance, tmp_path / "inst.json")
        code = main(["solve", "--file", str(path), "--engine", "serial"])
        assert code == 0

    def test_missing_file_errors(self):
        with pytest.raises(SystemExit):
            main(["solve", "--file", "/nonexistent/instance.txt"])

    @pytest.mark.parametrize("engine", ["serial", "gpu", "multicore", "cluster"])
    def test_instance_past_the_int32_limit_is_one_line(self, engine, tmp_path, capsys):
        pt = np.random.default_rng(1).integers(1, 2**29, size=(6, 4))
        path = write_json_file(FlowShopInstance(pt, name="overflow"), tmp_path / "overflow.json")
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", "--file", str(path), "--engine", engine])
        message = str(excinfo.value.code)
        assert "exceeds 2**31 - 1 = 2147483647" in message
        assert "\n" not in message
        assert capsys.readouterr().out == ""  # refused before any search starts


class TestUsageErrors:
    """Out-of-range counts and durations are usage errors naming the flag."""

    @pytest.mark.parametrize(
        "flags",
        [
            "--max-frontier-nodes 0",
            "--max-nodes 0",
            "--pool-size 0",
            "--max-time -1",
            "--nodes 0 --engine cluster",
            "--decomposition-depth -1 --engine multicore",
            "--checkpoint-interval 0 --engine serial",
            "--checkpoint-seconds 0 --engine serial",
        ],
    )
    def test_out_of_range_flag_exits_with_usage_error(self, flags, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", "--jobs", "6", "--machines", "4", *flags.split()])
        assert excinfo.value.code == 2
        flag = flags.split()[0]
        assert f"error: argument {flag}: must be " in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("argv", "flag"),
        [
            ("resume run.rpbb --max-nodes 0", "--max-nodes"),
            ("resume run.rpbb --max-time 0", "--max-time"),
            ("solve --engine multicore --workers 0", "--n-workers/--workers"),
            ("serve --max-active 0", "--max-active"),
            ("serve --max-queued 0", "--max-queued"),
            ("serve --max-wait-ms 0", "--max-wait-ms"),
            ("serve --max-batch-nodes 0", "--max-batch-nodes"),
        ],
        ids=[
            "resume-max-nodes",
            "resume-max-time",
            "solve-workers",
            "serve-max-active",
            "serve-max-queued",
            "serve-max-wait-ms",
            "serve-max-batch-nodes",
        ],
    )
    def test_out_of_range_flag_of_every_command_is_a_usage_error(self, argv, flag, capsys):
        # parsed only: no snapshot is read and no server starts
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv.split())
        assert excinfo.value.code == 2
        assert f"error: argument {flag}: must be " in capsys.readouterr().err

    def test_malformed_count_names_the_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["solve", "--max-nodes", "many"])
        assert excinfo.value.code == 2
        assert "argument --max-nodes: invalid int value: 'many'" in capsys.readouterr().err


class TestCheckpointCommands:
    def _write_instance(self, tmp_path):
        instance = random_instance(8, 5, seed=17)
        path = tmp_path / "instance.json"
        write_json_file(instance, path)
        return path

    def test_checkpoint_requires_serial_engine(self, tmp_path):
        with pytest.raises(SystemExit, match="serial"):
            main(["solve", "--checkpoint", str(tmp_path / "ck.rpbb")])

    def test_checkpoint_interval_requires_checkpoint(self):
        with pytest.raises(SystemExit, match="--checkpoint"):
            main(["solve", "--engine", "serial", "--checkpoint-interval", "5"])

    def test_solve_then_resume_round_trip(self, tmp_path, capsys):
        """Budget-cut a checkpointed solve; `repro resume` finishes it."""
        instance_file = self._write_instance(tmp_path)
        snapshot = tmp_path / "run.rpbb"
        code = main(
            [
                "solve",
                "--engine",
                "serial",
                "--file",
                str(instance_file),
                "--max-nodes",
                "40",
                "--checkpoint",
                str(snapshot),
                "--checkpoint-interval",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "optimal  : False" in out
        assert snapshot.exists()

        code = main(["resume", str(snapshot)])
        assert code == 0
        out = capsys.readouterr().out
        assert "optimal  : True" in out
        assert "makespan : 539" in out

    def test_resume_missing_snapshot_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="not found"):
            main(["resume", str(tmp_path / "nope.rpbb")])

    def test_resume_corrupt_snapshot_errors(self, tmp_path):
        bogus = tmp_path / "bogus.rpbb"
        bogus.write_bytes(b"not a snapshot at all")
        with pytest.raises(SystemExit, match="cannot resume"):
            main(["resume", str(bogus)])

    def test_resume_object_layout_snapshot_errors(self, tmp_path):
        from test_snapshot import _as_object_layout, _rebuild_with_header

        snapshot = tmp_path / "run.rpbb"
        main(
            [
                "solve",
                "--engine",
                "serial",
                "--file",
                str(self._write_instance(tmp_path)),
                "--max-nodes",
                "40",
                "--checkpoint",
                str(snapshot),
            ]
        )
        snapshot.write_bytes(_rebuild_with_header(snapshot.read_bytes(), _as_object_layout))
        with pytest.raises(SystemExit, match="'object' node layout") as excinfo:
            main(["resume", str(snapshot)])
        assert excinfo.value.code not in (0, None)  # a message exits with status 1


class TestAutotuneCommand:
    def test_autotune_model_mode(self, capsys):
        code = main(["autotune", "--jobs", "20", "--machines", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "best pool size" in out
        assert "predicted speed-up" in out


class TestEvaluateCommand:
    def test_evaluate_writes_report(self, tmp_path, capsys):
        output = tmp_path / "report.json"
        code = main(["evaluate", "--skip-measured", "--output", str(output)])
        assert code == 0
        out = capsys.readouterr().out
        assert "table2" in out
        payload = json.loads(output.read_text())
        names = {a["name"] for a in payload["artefacts"]}
        assert {"table1", "table2", "table3", "table4", "figure4", "figure5"} <= names
