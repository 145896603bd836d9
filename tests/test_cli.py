"""CLI tests (in-process via ``main(argv)``)."""

import pytest

from repro.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAdmission:
    def test_default_reproduces_paper(self, capsys):
        code, out, _ = run(capsys, "admission")
        assert code == 0
        assert "26" in out  # N_max^plate
        assert "28" in out  # N_max^perror

    def test_custom_workload(self, capsys):
        code, out, _ = run(capsys, "admission", "--mean-kb", "400",
                           "--std-kb", "200")
        assert code == 0
        # Heavier fragments admit fewer streams than 26.
        lines = [l for l in out.splitlines() if "round-level" in l]
        n = int(lines[0].split("|")[-1])
        assert n < 26

    def test_single_zone_disk(self, capsys):
        code, out, _ = run(capsys, "admission", "--disk", "single-zone")
        assert code == 0
        assert "single-zone" in out

    def test_rate_scale(self, capsys):
        code, out, _ = run(capsys, "admission", "--rate-scale", "2")
        assert code == 0
        lines = [l for l in out.splitlines() if "round-level" in l]
        assert int(lines[0].split("|")[-1]) > 26


class TestPlate:
    def test_tabulates_range(self, capsys):
        code, out, _ = run(capsys, "plate", "--n-from", "26",
                           "--n-to", "27")
        assert code == 0
        assert "26" in out and "27" in out
        assert "b_late" in out


class TestSimulate:
    def test_p_late_only(self, capsys):
        code, out, _ = run(capsys, "simulate", "--n", "26", "--rounds",
                           "2000")
        assert code == 0
        assert "simulated p_late" in out
        assert "analytic bound" in out

    def test_with_perror(self, capsys):
        code, out, _ = run(capsys, "simulate", "--n", "30", "--rounds",
                           "1000", "--perror", "-m", "200", "-g", "4",
                           "--runs", "3")
        assert code == 0
        assert "simulated p_error" in out

    def test_jobs_bit_identical(self, capsys):
        base = run(capsys, "simulate", "--n", "28", "--rounds", "3000",
                   "--seed", "5", "--jobs", "1")
        par = run(capsys, "simulate", "--n", "28", "--rounds", "3000",
                  "--seed", "5", "--jobs", "4")
        assert base[0] == par[0] == 0
        assert base[1] == par[1]

    def test_jobs_zero_means_all_cores(self, capsys):
        code, out, _ = run(capsys, "simulate", "--n", "26", "--rounds",
                           "1000", "--jobs", "0")
        assert code == 0
        assert "simulated p_late" in out


class TestNoCache:
    def test_no_cache_flag_same_numbers(self, capsys):
        from repro.cache import get_cache

        cached = run(capsys, "admission")
        uncached = run(capsys, "admission", "--no-cache")
        assert cached[0] == uncached[0] == 0
        assert cached[1] == uncached[1]
        # The flag must not leak: the cache is back on afterwards.
        assert get_cache().enabled


class TestWorstCase:
    def test_reproduces_eq41(self, capsys):
        code, out, _ = run(capsys, "worstcase")
        assert code == 0
        assert "10" in out
        assert "14" in out


class TestApprox:
    def test_reports_error(self, capsys):
        code, out, _ = run(capsys, "approx")
        assert code == 0
        assert "%" in out

    def test_single_zone_refuses(self, capsys):
        code, _, err = run(capsys, "approx", "--disk", "single-zone")
        assert code == 1
        assert "exact" in err


class TestSensitivityCommand:
    def test_runs(self, capsys):
        code, out, _ = run(capsys, "sensitivity")
        assert code == 0
        assert "rotation time" in out
        assert "swing" in out


class TestTuneCommand:
    def test_runs_and_reports_knee(self, capsys):
        code, out, _ = run(capsys, "tune")
        assert code == 0
        assert "knee: t =" in out
        assert "MB/s" in out


class TestFitCommand:
    def test_fits_saved_trace(self, capsys, tmp_path, rng):
        from repro.distributions import Gamma
        from repro.workload.trace_io import save_trace

        sample = Gamma.from_mean_std(200_000.0, 100_000.0).sample(
            rng, 2000)
        trace = save_trace(tmp_path / "trace.csv", sample)
        code, out, _ = run(capsys, "fit", str(trace))
        assert code == 0
        assert "gamma" in out
        assert "KS statistic" in out

    def test_missing_trace_is_cli_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "fit", str(tmp_path / "nope.csv"))
        assert code == 2
        assert "error:" in err


class TestReportCommand:
    def test_writes_markdown(self, capsys, tmp_path):
        target = tmp_path / "report.md"
        code, out, _ = run(capsys, "report", "--output", str(target))
        assert code == 0
        assert target.is_file()
        assert "Reproduction report" in target.read_text()


class TestCacheCommand:
    @pytest.fixture(autouse=True)
    def _own_store(self, tmp_path):
        """Each test gets a throwaway persistent store; the session
        store is restored afterwards."""
        from repro import cache as cache_mod
        cache_mod.set_persistent_cache_dir(tmp_path)
        self.store_dir = tmp_path
        yield
        cache_mod.reset_persistent_cache()

    def test_path_prints_sqlite_location(self, capsys):
        code, out, _ = run(capsys, "cache", "path")
        assert code == 0
        assert out.strip().endswith("bounds.sqlite")
        assert str(self.store_dir) in out

    def test_stats_reports_counters(self, capsys):
        code, out, _ = run(capsys, "cache", "stats")
        assert code == 0
        assert "entries" in out
        assert "bounds.sqlite" in out

    def test_clear_drops_entries(self, capsys):
        from repro.cache import get_persistent_cache
        store = get_persistent_cache()
        store.put("k", 1.0)
        code, out, _ = run(capsys, "cache", "clear")
        assert code == 0
        assert "cleared 1" in out
        assert store.entry_count() == 0

    def test_dir_option_targets_another_store(self, capsys, tmp_path):
        other = tmp_path / "other-store"
        code, out, _ = run(capsys, "cache", "path", "--dir", str(other))
        assert code == 0
        assert str(other) in out

    def test_disabled_store_reported(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_PERSISTENT_CACHE", "0")
        code, _, err = run(capsys, "cache", "stats")
        assert code == 0
        assert "disabled" in err
        code, _, err = run(capsys, "cache", "clear")
        assert code == 1

    def test_cache_dir_flag_on_compute_commands(self, capsys,
                                                tmp_path):
        from repro.cache import clear_cache
        clear_cache()  # force a real solve so it writes through
        target = tmp_path / "flag-store"
        code, _, _ = run(capsys, "plate", "--n-from", "26", "--n-to",
                         "26", "--cache-dir", str(target))
        assert code == 0
        assert (target / "bounds.sqlite").is_file()


class TestObservability:
    """``--trace``/``--metrics`` on simulate, and ``repro observe``."""

    EXAMPLE = "examples/single_disk_failure.toml"

    def test_vectorised_trace_and_metrics(self, capsys, tmp_path):
        import json

        from repro.obs import read_trace, validate_trace

        trace = tmp_path / "t.jsonl"
        metrics = tmp_path / "m.json"
        code, out, _ = run(capsys, "simulate", "--n", "26", "--rounds",
                           "2000", "--trace", str(trace), "--metrics",
                           str(metrics))
        assert code == 0
        assert "trace written to" in out
        assert "metrics written to" in out
        records = read_trace(trace)
        assert validate_trace(records) == []
        assert records[0]["mode"] == "vectorised"
        data = json.loads(metrics.read_text())
        assert 'sim_p_late{n="26"}' in data
        assert 'sim_b_late{n="26"}' in data
        # Cache counters ride along in the same export.
        assert "bound_cache_hits" in data

    def test_multi_n_sweep(self, capsys, tmp_path):
        import json

        metrics = tmp_path / "m.json"
        code, out, _ = run(capsys, "simulate", "--n", "8,12", "--rounds",
                           "1500", "--jobs", "1", "--metrics",
                           str(metrics))
        assert code == 0
        assert "sweep over 2 N values" in out
        data = json.loads(metrics.read_text())
        assert 'sim_p_late{n="8"}' in data
        assert 'sim_p_late{n="12"}' in data

    def test_bad_n_list_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--n", "8,oops"])
        assert exc.value.code == 2
        assert "--n" in capsys.readouterr().err

    def test_faults_rejects_sweep_grid(self, capsys):
        code, _, err = run(capsys, "simulate", "--faults", self.EXAMPLE,
                           "--n", "8,12", "--server-rounds", "10")
        assert code == 2
        assert "single --n" in err

    def test_faulted_trace_observe_roundtrip(self, capsys, tmp_path):
        trace = tmp_path / "run.jsonl"
        code, _, _ = run(capsys, "simulate", "--faults", self.EXAMPLE,
                         "--server-rounds", "80", "--trace", str(trace))
        assert code == 0
        code, out, err = run(capsys, "observe", str(trace), "--validate")
        assert code == 0, err
        assert "mode faults" in out
        assert "bound vs observed" in out
        assert "within bound" in out
        assert "disk 0 failed" in out

    def test_observe_flags_schema_problems(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "run_end", "seq": 0, "wall": 0.0}\n')
        code, _, err = run(capsys, "observe", str(bad), "--validate")
        assert code == 1
        assert "schema problem" in err
        # Without --validate the summary still prints, problems warned.
        code, out, err = run(capsys, "observe", str(bad))
        assert code == 0
        assert "schema problem" in err

    def _spanned_trace(self, tmp_path):
        from repro.obs import Tracer
        from repro.obs.spans import start_span

        path = tmp_path / "spans.jsonl"
        ticks = iter(range(1000))
        with Tracer(sink=path,
                    clock=lambda: float(next(ticks))) as tracer:
            tracer.start_run(seed=1)
            with start_span("client.admit", tracer=tracer):
                with start_span("http.admit", tracer=tracer):
                    pass
            tracer.end_run()
        return path

    def test_observe_empty_trace_is_a_one_line_diagnosis(self, capsys,
                                                         tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, out, err = run(capsys, "observe", str(empty))
        assert code == 1
        assert out == ""
        lines = [line for line in err.splitlines() if line]
        assert len(lines) == 1
        assert lines[0].startswith("error:")
        assert "no readable trace records" in lines[0]

    def test_observe_truncated_trace_warns_and_exits_1(self, capsys,
                                                       tmp_path):
        trace = tmp_path / "run.jsonl"
        code, _, _ = run(capsys, "simulate", "--faults", self.EXAMPLE,
                         "--server-rounds", "40", "--trace", str(trace))
        assert code == 0
        text = trace.read_text()
        trace.write_text(text[:len(text) - 20])  # SIGKILL mid-write
        code, out, err = run(capsys, "observe", str(trace))
        assert code == 1
        assert "truncated final record" in err
        assert "daemon killed mid-write" in err
        # The intact prefix is still summarised.
        assert "records" in out

    def test_observe_spans_renders_tree(self, capsys, tmp_path):
        path = self._spanned_trace(tmp_path)
        code, out, err = run(capsys, "observe", str(path), "--spans")
        assert code == 0, err
        assert "client.admit" in out
        assert "http.admit" in out
        assert "critical path" in out

    def test_slo_replays_round_records(self, capsys, tmp_path):
        import json

        path = tmp_path / "rounds.jsonl"
        lines = [{"kind": "run_start", "seq": 0, "wall": 0.0,
                  "seed": None, "schema": 1, "epsilon": 0.01,
                  "delta": 0.01, "m": 1200, "g": 12}]
        for i in range(8):
            lines.append({"kind": "round_observe", "seq": i + 1,
                          "wall": 0.0, "round": i, "disk_rounds": 2,
                          "late_disk_rounds": 0, "requests": 100,
                          "glitched": 0, "degraded": False,
                          "bound": 1e-6})
        path.write_text("".join(json.dumps(l) + "\n" for l in lines))
        code, out, err = run(capsys, "slo", str(path))
        assert code == 0, err
        assert "epsilon error-budget report" in out
        assert "burn" in out

    def test_slo_pages_exit_1(self, capsys, tmp_path):
        import json

        path = tmp_path / "storm.jsonl"
        lines = [{"kind": "run_start", "seq": 0, "wall": 0.0,
                  "seed": None, "schema": 1, "epsilon": 0.001,
                  "delta": 0.01, "m": 1200, "g": 12}]
        for i in range(8):
            lines.append({"kind": "round_observe", "seq": i + 1,
                          "wall": 0.0, "round": i, "disk_rounds": 2,
                          "late_disk_rounds": 2, "requests": 100,
                          "glitched": 60, "degraded": False,
                          "bound": 1e-6})
        path.write_text("".join(json.dumps(l) + "\n" for l in lines))
        code, out, err = run(capsys, "slo", str(path), "--fast-window",
                             "4", "--slow-window", "8")
        assert code == 1
        assert "PAGE" in err
        assert "6x the sustainable epsilon rate" in err
        assert "page" in out

    def test_slo_without_rounds_is_an_error(self, capsys, tmp_path):
        import json

        path = tmp_path / "bare.jsonl"
        path.write_text(json.dumps(
            {"kind": "run_start", "seq": 0, "wall": 0.0, "seed": None,
             "schema": 1}) + "\n")
        code, _, err = run(capsys, "slo", str(path))
        assert code == 1
        assert "no per-round observations" in err

    def test_cache_stats_reports_in_memory_counters(self, capsys,
                                                    tmp_path):
        from repro import cache as cache_mod
        cache_mod.set_persistent_cache_dir(tmp_path)
        try:
            code, out, _ = run(capsys, "cache", "stats")
        finally:
            cache_mod.reset_persistent_cache()
        assert code == 0
        assert "in-memory bound cache" in out
        assert "solves" in out


class TestErrors:
    def test_library_error_becomes_exit_2(self, capsys):
        code, _, err = run(capsys, "admission", "--delta", "2.0")
        assert code == 2
        assert "error:" in err

    def test_parser_exposes_subcommands(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])  # subcommand required
