"""Tests for the reporting harness and the demo CLI."""

import pytest

from repro import cli
from repro.reporting import (
    FIG3_PAPER,
    figure3_rows,
    render_table,
    table1_rows,
    table2_rows,
)
from repro.sysmodel import AARCH64_CLUSTER, X86_CLUSTER


class TestRenderTable:
    def test_alignment(self):
        text = render_table(["a", "bb"], [("x", 1.5), ("long", 2.25)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "1.500" in lines[2]

    def test_empty_rows(self):
        text = render_table(["col"], [])
        assert "col" in text

    def test_empty_rows_widths_follow_headers(self):
        text = render_table(["scheme", "time (s)"], [])
        header, rule = text.splitlines()
        assert rule == "------  --------"
        assert len(header) == len(rule)

    def test_mixed_types(self):
        text = render_table(["n", "v"], [(1, "x"), (2, None)])
        assert "None" in text

    def test_mixed_int_float_str_formatting(self):
        text = render_table(
            ["name", "count", "ratio"],
            [("blob", 3, 0.5), ("layer", 10, 1.0), ("none", "-", "-")],
        )
        lines = text.splitlines()
        assert "0.500" in lines[2]          # floats get 3 decimals
        assert "1.000" in lines[3]
        assert " 3 " in lines[2] + " "      # ints render bare
        assert "-" in lines[4]              # strings pass through
        # Every rendered line is padded to the same table width.
        assert len({len(l.rstrip()) for l in lines[:2]}) == 1

    def test_multiline_cell_sets_column_width(self):
        text = render_table(
            ["stage", "detail"],
            [("rebuild", "node a\na much longer second line"), ("redirect", "ok")],
        )
        lines = text.splitlines()
        # The widest *line* of the multi-line cell drives the column.
        assert len(lines[1].split("  ")[1]) == len("a much longer second line")
        # The multi-line row spans two output lines; short columns pad.
        assert lines[2].startswith("rebuild")
        assert lines[3].strip() == "a much longer second line"
        assert lines[4].startswith("redirect")

    def test_multiline_and_empty_cells_pad_consistently(self):
        text = render_table(["a", "b"], [("x\ny\nz", ""), ("", "w")])
        lines = text.splitlines()
        assert len(lines) == 2 + 3 + 1      # header + rule + 3-line row + row
        widths = {len(l) for l in lines[:2]}
        assert len(widths) == 1


class TestReportingTables:
    def test_table1_cells(self):
        rows = {r[0]: r for r in table1_rows()}
        assert "512GB" in rows["RAM"]
        assert "Kylin" in rows["OS"][2]

    def test_table2_complete(self):
        rows = table2_rows()
        assert len(rows) == 18
        assert sum(1 for app, _, _ in rows if app == "lammps") == 5
        assert sum(1 for app, _, _ in rows if app == "openmx") == 4

    def test_figure3_monotone_both_systems(self):
        for system in (X86_CLUSTER, AARCH64_CLUSTER):
            rows = figure3_rows(system)
            times = [t for _, t, _ in rows]
            assert times == sorted(times, reverse=True) or all(
                times[i] >= times[i + 1] - 1e-9 for i in range(len(times) - 1)
            )
            # Reductions are relative to original and grow monotonically.
            reductions = [r for _, _, r in rows]
            assert reductions[0] == 0.0
            assert reductions[-1] > 0.5

    def test_fig3_paper_reference_constants(self):
        assert FIG3_PAPER["x86"]["cxxo_vs_original"] == 0.50
        assert FIG3_PAPER["arm"]["cxxo_vs_original"] == 0.72


class TestCli:
    def test_tables(self, capsys):
        assert cli.main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "8358P" in out
        assert "lammps" in out

    def test_analyze(self, capsys):
        assert cli.main(["analyze", "hpccg"]) == 0
        out = capsys.readouterr().out
        assert '"nodes"' in out
        assert "cached sources" in out

    def test_crossisa_crossable(self, capsys):
        assert cli.main(["crossisa", "lulesh"]) == 0
        out = capsys.readouterr().out
        assert "can cross        : True" in out

    def test_crossisa_blocked_exit_code(self, capsys):
        assert cli.main(["crossisa", "lammps"]) == 1

    def test_schemes(self, capsys):
        assert cli.main(["schemes", "hpccg", "--system", "x86"]) == 0
        out = capsys.readouterr().out
        assert "original" in out and "optimized" in out

    def test_adapt(self, capsys):
        assert cli.main(["adapt", "hpccg", "--system", "x86"]) == 0
        out = capsys.readouterr().out
        assert "adapted image" in out
        assert "+coMre" in out

    def test_mirror_promote_resumes_the_rejoined_origin_under_faults(self, capsys):
        # At this seed a fault hits the demoted origin's own rejoin sync.
        argv = ["mirror", "promote", "hpccg", "--fault-rate", "0.3", "--seed", "4"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert "demoted origin rejoined as mirror (3 mirrors)" in out
        assert "all 3 mirrors converged" in out

    def test_serve_syncs_the_federation_mirrors(self, capsys):
        argv = ["--metrics", "serve", "--tenants", "1", "--requests", "2",
                "--mirrors", "2", "--apps", "hpccg", "--seed", "1"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert "all 2 admitted requests accounted for" in out
        assert "mirror syncs           2 (0 failed)" in out
        # One sync engine pass per mirror per completed request.
        assert "\nfederation_syncs_total 4\n" in out

    def test_bad_command(self):
        with pytest.raises(SystemExit):
            cli.main(["no-such-command"])

    @pytest.mark.parametrize("argv", [
        ["analyze", "nosuch"],
        ["adapt", "nosuch"],
        ["trace", "nosuch"],
        ["crossisa", "nosuch"],
        ["inspect", "nosuch"],
        ["mirror", "sync", "nosuch"],
        ["health", "nosuch"],
        ["schemes", "nosuch"],
        ["schemes", "nosuch.lj"],
        ["serve", "--apps", "hpccg,nosuch"],
        ["fsck", "/nonexistent", "--repair", "--app", "nosuch"],
    ])
    def test_unknown_app_is_a_usage_error(self, argv, capsys):
        error = self._usage_error(argv, capsys)
        assert "unknown application 'nosuch'" in error
        assert "comd, hpccg, hpcg, hpl, lammps, lulesh, miniaero, miniamr, minife, " \
               "minimd, openmx" in error

    @pytest.mark.parametrize("command", ["adapt", "trace", "health"])
    @pytest.mark.parametrize("jobs", ["0", "-2", "two"])
    def test_jobs_must_be_a_positive_integer(self, command, jobs, capsys):
        error = self._usage_error([command, "hpccg", "--jobs", jobs], capsys)
        assert f"argument --jobs: expected a positive integer, got '{jobs}'" in error

    @pytest.mark.parametrize("argv,expected", [
        (["adapt", "hpccg", "--pgo", "nosuch"], "argument --pgo: unknown application 'nosuch'"),
        (["trace", "hpccg", "--workload", "nosuch.in"],
         "argument --workload: unknown application 'nosuch'"),
        (["serve", "--queue-capacity", "0"], "argument --queue-capacity: expected a positive"),
        (["adapt", "hpccg", "--max-worker-failures", "0"],
         "argument --max-worker-failures: expected a positive"),
        (["trace", "hpccg", "--max-worker-failures", "0"],
         "argument --max-worker-failures: expected a positive"),
        (["mirror", "sync", "hpccg", "--chunk-size", "-5"],
         "argument --chunk-size: expected a positive"),
        (["mirror", "sync", "hpccg", "--chunk-size", "0"],
         "argument --chunk-size: expected a positive"),
        (["serve", "--workers", "-3"], "argument --workers: expected a positive"),
        (["serve", "--tenants", "-1"], "argument --tenants: expected a positive"),
        (["serve", "--requests", "0"], "argument --requests: expected a positive"),
        (["mirror", "sync", "hpccg", "--mirrors", "-2"], "argument --mirrors: expected a positive"),
        (["mirror", "sync", "hpccg", "--mirrors", "0"], "argument --mirrors: expected a positive"),
        (["health", "hpccg", "--mirrors", "-1"], "argument --mirrors: expected a non-negative"),
        (["serve", "--mirrors", "-1"], "argument --mirrors: expected a non-negative"),
        (["health", "hpccg", "--stale-mirrors", "-2"],
         "argument --stale-mirrors: expected a non-negative"),
        (["health", "hpccg", "--top", "-3"], "argument --top: expected a positive"),
        (["mirror", "sync", "hpccg", "--fault-rate", "1.5"],
         "argument --fault-rate: expected a rate in [0, 1], got '1.5'"),
        (["health", "hpccg", "--fault-rate", "-0.1"], "argument --fault-rate: expected a rate"),
        (["serve", "--fault-rate", "nan"], "argument --fault-rate: expected a rate"),
        (["serve", "--fault-rate", "often"], "argument --fault-rate: expected a rate"),
        (["health", "hpccg", "--cadence", "0"], "argument --cadence: expected a positive number"),
        (["adapt", "hpccg", "--deadline", "-1"], "argument --deadline: expected a positive number"),
        (["serve", "--deadline", "inf"], "argument --deadline: expected a positive number"),
    ])
    def test_a_bad_count_or_rate_is_a_usage_error(self, argv, expected, capsys):
        assert expected in self._usage_error(argv, capsys)

    def test_valid_counts_and_rates_still_parse(self):
        parse = cli.build_parser().parse_args
        assert parse(["adapt", "hpccg", "--pgo", "hpccg"]).pgo == "hpccg"
        assert parse(["trace", "lammps", "--workload", "lammps.lj"]).workload == "lammps.lj"
        assert parse(["adapt", "hpccg", "--max-worker-failures", "1"]).max_worker_failures == 1
        args = parse(["serve", "--queue-capacity", "1", "--workers", "1", "--tenants", "1",
                      "--requests", "1", "--mirrors", "0", "--fault-rate", "1"])
        assert (args.queue_capacity, args.workers, args.tenants, args.requests,
                args.mirrors, args.fault_rate) == (1, 1, 1, 1, 0, 1.0)
        args = parse(["mirror", "sync", "hpccg", "--mirrors", "1", "--chunk-size", "1",
                      "--fault-rate", "0"])
        assert (args.mirrors, args.chunk_size, args.fault_rate) == (1, 1, 0.0)
        assert parse(["mirror", "sync", "hpccg"]).chunk_size is None
        args = parse(["health", "hpccg", "--mirrors", "0", "--stale-mirrors", "0",
                      "--top", "1", "--fault-rate", "0.25"])
        assert (args.mirrors, args.stale_mirrors, args.top, args.fault_rate) == (0, 0, 1, 0.25)
        assert parse(["health", "hpccg", "--cadence", "0.5"]).cadence == 0.5
        assert parse(["adapt", "hpccg", "--deadline", "30"]).deadline == 30.0
        assert parse(["serve", "--deadline", "1e-3"]).deadline == 0.001
        assert parse(["serve"]).deadline is None

    @pytest.mark.parametrize("argv,expected", [
        (["schemes", "lammps"], "argument workload: unknown workload 'lammps'"),
        (["schemes", "hpccg.bogus"], "argument workload: unknown workload 'hpccg.bogus'"),
        (["adapt", "hpccg", "--pgo", "openmx"], "argument --pgo: unknown workload 'openmx'"),
        (["trace", "lammps", "--workload", "lammps.nosuch"],
         "argument --workload: unknown workload 'lammps.nosuch'"),
    ])
    def test_an_unknown_workload_is_a_usage_error(self, argv, expected, capsys):
        error = self._usage_error(argv, capsys)
        assert expected in error
        assert "(choose from comd, hpccg, hpcg, hpl, lammps.chain, lammps.chute," in error

    @pytest.mark.parametrize("flag", ["--duration", "--crash-at"])
    @pytest.mark.parametrize("value", ["-5", "-0.001", "nan", "inf", "-inf", "soon"])
    def test_a_negative_or_infinite_serve_time_is_a_usage_error(self, flag, value, capsys):
        # ``--flag=-inf``: argparse reads a bare ``-inf`` as an option.
        error = self._usage_error(["serve", f"{flag}={value}"], capsys)
        assert f"argument {flag}: expected a non-negative number, got '{value}'" in error

    def test_every_workload_and_a_zero_serve_time_still_parse(self):
        from repro.perf.workloads import WORKLOADS

        parse = cli.build_parser().parse_args
        for name in WORKLOADS:
            assert parse(["schemes", name]).workload == name
            assert parse(["adapt", "hpccg", "--pgo", name]).pgo == name
            assert parse(["trace", "hpccg", "--workload", name]).workload == name
        args = parse(["serve", "--duration", "0", "--crash-at", "0"])
        assert (args.duration, args.crash_at) == (0.0, 0.0)
        args = parse(["serve", "--duration", "2.5", "--crash-at", "1e1"])
        assert (args.duration, args.crash_at) == (2.5, 10.0)
        args = parse(["serve"])
        assert (args.duration, args.crash_at) == (60.0, None)

    @staticmethod
    def _usage_error(argv, capsys):
        """The one ``error:`` line *argv* exits 2 with, after no traceback."""
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "Traceback" not in err
        return errors[0]

    def test_valid_apps_and_workloads_still_parse(self):
        parser = cli.build_parser()
        assert parser.parse_args(["serve", "--apps", " hpccg, comd ,"]).apps == ["hpccg", "comd"]
        assert parser.parse_args(["serve"]).apps == ["minimd", "hpccg", "comd"]
        assert parser.parse_args(["schemes", "lammps.lj"]).workload == "lammps.lj"
        assert parser.parse_args(["adapt", "hpccg", "--jobs", "3"]).jobs == 3
        assert parser.parse_args(["fsck", "/x"]).app is None

    def test_parser_help_smoke(self):
        parser = cli.build_parser()
        assert parser.prog == "comtainer-demo"


class TestServiceReportRenderer:
    """The serve report table surfaces retry-after hints and, for
    durable runs, the WAL/recovery rows."""

    def overloaded_report(self):
        from repro.service import AdaptationService

        service = AdaptationService(workers=2, seed=3, queue_capacity=4)
        service.add_tenant("noisy", max_workers=2)
        for i in range(30):
            service.submit("noisy", "hpccg", at=0.2 * i)
        return service.run()

    def test_retry_after_surfaces_in_table(self):
        from repro.reporting import render_service_report
        from repro.service import STATUS_REJECTED

        report = self.overloaded_report()
        rejected = [o for o in report.outcomes
                    if o.status == STATUS_REJECTED
                    and o.retry_after is not None]
        assert rejected, "workload failed to produce typed rejections"
        text = render_service_report(report)
        assert "retry-after hint (s)" in text
        hints = sorted(o.retry_after for o in rejected)
        assert f"{hints[0]:.1f}-{hints[-1]:.1f}" in text
        # Each rejection is itemized with its own hint.
        for outcome in rejected:
            assert (f"rejected: {outcome.request_id}" in text
                    and f"retry after {outcome.retry_after:.1f}s" in text)

    def test_crash_free_run_renders_no_recovery_rows(self):
        from repro.reporting import render_service_report

        text = render_service_report(self.overloaded_report())
        assert "WAL records" in text
        assert "recovered from WAL" not in text
        assert "in-flight resumed" not in text

    def test_durable_crash_restart_rows(self):
        from repro.reporting import render_service_report
        from repro.service import AdaptationService, ServiceCrash

        service = AdaptationService(workers=4, seed=11)
        service.add_tenant("acme", max_workers=4)
        service.submit("acme", "hpccg", at=0.0)
        service.submit("acme", "minimd", at=2.0)
        with pytest.raises(ServiceCrash):
            service.run(crash_at=1.5)
        restarted = service.restart()
        text = render_service_report(restarted.run())
        assert "WAL records" in text
        assert "WAL restarts survived" in text
