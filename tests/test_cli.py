"""Tests for the command-line interface (full chain in a tmp dir)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Run generate → simulate → synthesize once; reuse downstream."""
    root = tmp_path_factory.mktemp("cli")
    world = root / "world.npz"
    logs = root / "logs"
    net = root / "week.net.npz"
    assert main(["generate", "--persons", "800", "--seed", "5",
                 "--out", str(world)]) == 0
    assert main(["simulate", "--population", str(world), "--ranks", "3",
                 "--log-dir", str(logs), "--weeks", "1"]) == 0
    assert main(["synthesize", "--log-dir", str(logs),
                 "--population", str(world), "--out", str(net)]) == 0
    return root, world, logs, net


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize(
        "cmd", ["generate", "simulate", "synthesize", "analyze", "epidemic",
                "export-ego"],
    )
    def test_all_subcommands_registered(self, cmd):
        sub = build_parser()._subparsers._group_actions[0].choices
        assert cmd in sub


class TestPipeline:
    def test_generate_writes_population(self, workspace):
        _, world, _, _ = workspace
        from repro import load_population

        pop = load_population(world)
        assert pop.n_persons == 800

    def test_simulate_writes_rank_logs(self, workspace):
        _, _, logs, _ = workspace
        from repro.evlog import LogSet

        log_set = LogSet(logs)
        assert len(log_set) == 3
        assert log_set.total_records() > 0

    def test_synthesize_writes_network(self, workspace):
        _, _, _, net_path = workspace
        from repro import CollocationNetwork

        net = CollocationNetwork.load(net_path)
        assert net.n_persons == 800
        assert net.n_edges > 0

    def test_serial_simulate(self, workspace, tmp_path):
        _, world, _, _ = workspace
        logs = tmp_path / "serial_logs"
        assert main(["simulate", "--population", str(world), "--ranks", "1",
                     "--log-dir", str(logs), "--weeks", "1"]) == 0
        from repro.evlog import LogSet

        assert len(LogSet(logs)) == 1

    def test_analyze_runs(self, workspace, capsys):
        _, world, _, net = workspace
        assert main(["analyze", "--network", str(net),
                     "--population", str(world)]) == 0
        out = capsys.readouterr().out
        assert "vertices" in out
        assert "power_law" in out
        assert "0-14" in out

    def test_analyze_metrics_out_feeds_repro_metrics(
        self, workspace, tmp_path, capsys
    ):
        _, _, _, net = workspace
        snap = tmp_path / "analysis.metrics.json"
        assert main(["analyze", "--network", str(net),
                     "--metrics-out", str(snap)]) == 0
        capsys.readouterr()
        assert main(["metrics", "--file", str(snap)]) == 0
        out = capsys.readouterr().out
        assert "analysis.triangles_total" in out
        assert "stage.analysis.triangles.seconds" in out

    def test_simulate_metrics_out_feeds_repro_metrics(
        self, workspace, tmp_path, capsys
    ):
        _, world, _, _ = workspace
        snap = tmp_path / "sim.metrics.json"
        assert main(["simulate", "--population", str(world), "--ranks", "3",
                     "--log-dir", str(tmp_path / "logs"),
                     "--metrics-out", str(snap)]) == 0
        assert "wrote metrics" in capsys.readouterr().out
        assert main(["metrics", "--file", str(snap)]) == 0
        out = capsys.readouterr().out
        for name in ("distrib.rank_hours", "distrib.changes",
                     "distrib.migrants_out", "distrib.alltoall_bytes",
                     "distrib.rank_loop_seconds"):
            assert name in out

    def test_epidemic_runs(self, workspace, capsys):
        _, world, _, _ = workspace
        assert main(["epidemic", "--population", str(world), "--weeks", "1",
                     "--beta", "0.02", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "attack rate" in out

    def test_export_ego(self, workspace, tmp_path, capsys):
        _, _, _, net = workspace
        out_file = tmp_path / "ego.gexf"
        assert main(["export-ego", "--network", str(net), "--radius", "1",
                     "--out", str(out_file), "--iterations", "10"]) == 0
        assert out_file.exists()
        import networkx as nx

        g = nx.read_gexf(out_file)
        assert g.number_of_nodes() > 0


class TestFaultToleranceFlags:
    def test_checkpoint_then_resume(self, workspace, tmp_path, capsys):
        _, world, logs, _ = workspace
        ckpt = tmp_path / "ckpt"
        out1 = tmp_path / "a.net.npz"
        assert main(["synthesize", "--log-dir", str(logs),
                     "--population", str(world), "--batch-size", "1",
                     "--checkpoint", str(ckpt), "--out", str(out1)]) == 0
        assert (ckpt / "manifest.json").is_file()

        out2 = tmp_path / "b.net.npz"
        assert main(["synthesize", "--log-dir", str(logs),
                     "--population", str(world), "--batch-size", "1",
                     "--resume", str(ckpt), "--out", str(out2)]) == 0
        assert "resumed batches" in capsys.readouterr().out

        from repro import CollocationNetwork

        a = CollocationNetwork.load(out1)
        b = CollocationNetwork.load(out2)
        assert (a.adjacency != b.adjacency).nnz == 0

    def test_quarantine_warning_and_strict(self, workspace, tmp_path, capsys):
        import shutil

        _, world, logs, _ = workspace
        damaged = tmp_path / "damaged_logs"
        shutil.copytree(logs, damaged)
        victim = damaged / "rank_0001.evl"
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        victim.write_bytes(bytes(blob))

        out = tmp_path / "q.net.npz"
        assert main(["synthesize", "--log-dir", str(damaged),
                     "--population", str(world), "--out", str(out)]) == 0
        assert "quarantined" in capsys.readouterr().out

        # --strict: one line naming the file, exit 1, on either leg
        for leg in ([], ["--shards", "2"]):
            assert main(["synthesize", "--log-dir", str(damaged), "--strict",
                         "--population", str(world), "--out", str(out),
                         *leg]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"error: {victim}: ")
            assert "CRC" in err[0]

    def test_strict_refuses_a_trailerless_file_typed(
        self, workspace, tmp_path, capsys
    ):
        """--strict means the same thing for every kind of damage: a file a
        killed writer left without a trailer is refused by name — not
        silently recovered, not a TaskRetryError from the CLI's retrying
        pool, not a traceback — with and without --shards."""
        import shutil

        _, world, logs, _ = workspace
        torn = tmp_path / "torn_logs"
        shutil.copytree(logs, torn)
        victim = torn / "rank_0001.evl"
        victim.write_bytes(victim.read_bytes()[:-7])
        out = tmp_path / "s.net.npz"
        for leg in (["--workers", "1"], ["--workers", "2"], ["--shards", "2"]):
            capsys.readouterr()
            assert main(["synthesize", "--log-dir", str(torn), "--strict",
                         "--population", str(world), "--out", str(out),
                         *leg]) == 1
            assert capsys.readouterr().err == (
                f"error: {victim}: no trailer (writer did not close)\n"
            )
        assert main(["synthesize", "--log-dir", str(torn),
                     "--population", str(world), "--out", str(out)]) == 0

    @pytest.mark.parametrize(
        "command",
        [["synthesize", "--out", "x.npz"], ["query", "--window", "0", "24"],
         ["serve"]],
        ids=lambda argv: argv[0],
    )
    def test_dispatch_flag_is_gone(self, workspace, command, capsys):
        _, world, logs, _ = workspace
        with pytest.raises(SystemExit) as err:
            main([*command, "--log-dir", str(logs), "--population", str(world),
                  "--dispatch", "value"])
        assert err.value.code == 2
        assert "unrecognized arguments: --dispatch" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", [["--kernel", "intervals"], ["--backend", "auto"]],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize(
        "command",
        [["synthesize", "--out", "x.npz"], ["query", "--window", "0", "24"],
         ["serve"]],
        ids=lambda argv: argv[0],
    )
    def test_kernel_and_backend_flags_are_gone(
        self, workspace, command, flag, capsys
    ):
        _, world, logs, _ = workspace
        with pytest.raises(SystemExit) as err:
            main([*command, "--log-dir", str(logs), "--population", str(world),
                  *flag])
        assert err.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    def test_bad_batch_size_is_an_error_not_a_traceback(
        self, workspace, tmp_path, capsys
    ):
        _, world, logs, _ = workspace
        out = tmp_path / "never.npz"
        for workers in ("1", "2"):
            assert main(["synthesize", "--log-dir", str(logs),
                         "--population", str(world), "--batch-size", "0",
                         "--workers", workers, "--out", str(out)]) == 2
            assert "error: batch_size must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("shards", [[], ["--shards", "2"]], ids=["pool", "shards"])
    @pytest.mark.parametrize(
        "window, message",
        [(["--t0", "48", "--t1", "24"], "empty time window [48, 24)"),
         (["--t0", "24", "--t1", "24"], "empty time window [24, 24)")],
        ids=["reversed", "zero-length"],
    )
    def test_empty_window_is_an_error_not_a_retried_traceback(
        self, workspace, tmp_path, capsys, window, message, shards
    ):
        """Default ``--retries 3``: the refusal comes from the root, before
        any pool exists to re-run it."""
        _, world, logs, _ = workspace
        out = tmp_path / "never.npz"
        assert main(["synthesize", "--log-dir", str(logs), *window, *shards,
                     "--population", str(world), "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["synthesize", "--out", "x.npz", "--pool", "serial"],
         ["query", "--window", "0", "24", "--pool", "thread"],
         ["serve", "--shards", "2"],
         ["serve", "--shard-partition", "refined"]],
        ids=lambda argv: f"{argv[0]}{argv[-2]}",
    )
    def test_pool_and_serve_shards_flags_are_gone(self, workspace, argv, capsys):
        _, world, logs, _ = workspace
        with pytest.raises(SystemExit) as err:
            main([*argv, "--log-dir", str(logs), "--population", str(world)])
        assert err.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err

    def test_retrying_thread_pool(self, workspace, tmp_path):
        _, world, logs, _ = workspace
        out = tmp_path / "t.net.npz"
        assert main(["synthesize", "--log-dir", str(logs),
                     "--population", str(world),
                     "--workers", "2", "--retries", "3",
                     "--out", str(out)]) == 0
        assert out.exists()
