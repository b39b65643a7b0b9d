import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repostminer.cli import (
    PipelineConfig,
    PipelineError,
    compare,
    export_dot,
    main,
    run_pipeline,
)
from repostminer.discovery import activity, par, seq, tau, tree_to_net, xor
from repostminer.petri import PetriNet, net_from_json, net_to_json
from repostminer.reference_nets import broadcast_net, threshold_fspn
from repostminer.stochastic import fspn_from_json, fspn_to_json

FIXTURE_CSV = """trace_id,activity,timestamp
post1,A,2019-01-01T00:00:00Z
post1,B,2019-01-01T00:00:05Z
post1,C,2019-01-01T00:00:07Z
post2,A,2019-01-02T00:00:00Z
post2,C,2019-01-02T00:00:03Z
post2,B,2019-01-02T00:00:09Z
"""

BOT_CSV = """trace_id,activity,timestamp,score
post1,A,10,0.95
post1,B,20,0.97
post2,A,10,0.02
post2,B,30,0.05
post3,A,10,0.5
"""


@pytest.fixture
def fixture_log(tmp_path):
    path = tmp_path / "fixture.csv"
    path.write_text(FIXTURE_CSV)
    return path


def run_discover(tmp_path, fixture_log, out="out"):
    config = PipelineConfig(inputs=[fixture_log], out_dir=tmp_path / out)
    return config, run_pipeline(config)


class TestPipeline:
    def test_fixture_report_values(self, tmp_path, fixture_log):
        _, reports = run_discover(tmp_path, fixture_log)
        report = reports[0]
        assert report.node_count == 6
        assert report.density == pytest.approx(5 / 30, abs=1e-12)
        assert report.diameter == 3
        assert report.mean_of_mean_wait_seconds == pytest.approx(4.0)

    def test_artifacts_written(self, tmp_path, fixture_log):
        config, _ = run_discover(tmp_path, fixture_log)
        run_dir = config.out_dir / "fixture"
        for name in ("report.json", "report.csv", "net.json", "fspn.json",
                     "model.dot", "conformance.json"):
            assert (run_dir / name).exists(), name
        conformance = json.loads((run_dir / "conformance.json").read_text())
        assert conformance["conforming"] == 2
        doc = json.loads((run_dir / "report.json").read_text())
        assert doc["per_user_mean_waits"] == {"A": 0.0, "B": 7.0, "C": 5.0}

    def test_artifacts_reload(self, tmp_path, fixture_log):
        config, _ = run_discover(tmp_path, fixture_log)
        run_dir = config.out_dir / "fixture"
        net = net_from_json((run_dir / "net.json").read_text())
        assert net.initial_marking == {"p0": 1}
        fspn = fspn_from_json((run_dir / "fspn.json").read_text())
        assert fspn.net.transitions == net.transitions

    def test_missing_input_raises_with_path(self, tmp_path):
        config = PipelineConfig(inputs=[tmp_path / "nope.csv"],
                                out_dir=tmp_path / "out")
        with pytest.raises(PipelineError, match="nope.csv") as info:
            run_pipeline(config)
        assert info.value.stage == "parse"

    def test_bot_score_split_runs(self, tmp_path):
        path = tmp_path / "bots.csv"
        path.write_text(BOT_CSV)
        config = PipelineConfig(
            inputs=[path], out_dir=tmp_path / "out",
            bot_score_column="score", timestamp_format="epoch",
            split_bot_scores=True)
        reports = run_pipeline(config)
        assert [r.provenance["log"] for r in reports] == [
            "bots-bot_high", "bots-bot_low"]
        assert (tmp_path / "out" / "bots-bot_high" / "report.json").exists()

    def test_split_requires_scores(self, tmp_path, fixture_log):
        config = PipelineConfig(inputs=[fixture_log],
                                out_dir=tmp_path / "out",
                                bot_score_column=None, split_bot_scores=True)
        with pytest.raises(PipelineError) as info:
            run_pipeline(config)
        assert info.value.stage == "split"

    def test_config_file_with_flag_override(self, tmp_path, fixture_log):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "inputs": [str(fixture_log)],
            "out_dir": str(tmp_path / "from_config"),
            "max_events": 3,
        }))
        code = main(["discover", "--config", str(cfg),
                     "--out", str(tmp_path / "flag_wins")])
        assert code == 0
        assert (tmp_path / "flag_wins" / "fixture" / "report.json").exists()

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(ValueError, match="bogus"):
            PipelineConfig.from_file(cfg)

    def test_schema_flag_remaps_columns(self, tmp_path):
        path = tmp_path / "renamed.csv"
        path.write_text("tweet;user;at\n1;a;10\n1;b;20\n")
        code = main(["discover", "--input", str(path),
                     "--schema", "trace_id=tweet,activity=user,timestamp=at,"
                                 "format=epoch",
                     "--delimiter", ";",
                     "--out", str(tmp_path / "out")])
        assert code == 0
        doc = json.loads((tmp_path / "out" / "renamed" / "report.json").read_text())
        assert doc["provenance"]["events"] == 2

    def test_schema_flag_rejects_unknown_keys(self):
        assert main(["discover", "--input", "x.csv",
                     "--schema", "nope=1", "--out", "y"]) == 1


class TestExportDot:
    def test_broadcast_statement_counts(self):
        text = export_dot(broadcast_net())
        node_lines = [l for l in text.splitlines() if "shape=" in l]
        edge_lines = [l for l in text.splitlines() if "->" in l]
        assert len(node_lines) == 6 and len(edge_lines) == 5

    def test_probability_labels(self):
        fspn = threshold_fspn()
        text = export_dot(fspn.net, dict(fspn.arc_probabilities))
        assert '"p2" -> "B" [label="0.8"];' in text
        assert '"p2" -> "skipB" [label="0.2"];' in text

    def test_silent_transitions_filled_black(self):
        text = export_dot(threshold_fspn().net)
        assert text.count("fillcolor=black") == 2

    def test_empty_net_still_valid(self):
        net = PetriNet((), (), (), {}, {})
        text = export_dot(net)
        assert text.startswith("digraph net {") and text.rstrip().endswith("}")


class TestCompare:
    def test_identical_runs(self):
        report = {"metrics": {"density": 0.1, "diameter": 3, "ks_entropy": 0.5}}
        waits = {"u1": 4.0, "u2": 9.0}
        doc = compare(report, waits, report, dict(waits))
        assert doc["density_ratio"] == 1.0
        assert doc["diameter_difference"] == 0
        assert doc["entropy_difference"] == 0.0
        assert doc["ks"] == {"d": 0.0, "p": 1.0}

    def test_missing_waits_rejected(self):
        report = {"metrics": {"density": 0.1, "diameter": 3, "ks_entropy": 0.5}}
        with pytest.raises(ValueError):
            compare(report, {}, report, {"u": 1.0})


class TestCommands:
    def test_discover_exit_codes(self, tmp_path, fixture_log, capsys):
        assert main(["discover", "--input", str(fixture_log),
                     "--out", str(tmp_path / "out")]) == 0
        assert main(["discover", "--input", str(tmp_path / "missing.csv"),
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "missing.csv" in err and "parse" in err

    def test_simulate_roundtrip(self, tmp_path, fixture_log):
        out = tmp_path / "out"
        main(["discover", "--input", str(fixture_log), "--out", str(out)])
        sim = tmp_path / "sim.csv"
        code = main(["simulate", "--fspn", str(out / "fixture" / "fspn.json"),
                     "--n-traces", "25", "--out", str(sim)])
        assert code == 0
        header, *rows = sim.read_text().splitlines()
        assert header == "trace_id,activity,timestamp"
        assert len(rows) >= 25  # every trace fires at least A

    def test_compare_command(self, tmp_path, fixture_log):
        out = tmp_path / "out"
        main(["discover", "--input", str(fixture_log), "--out", str(out)])
        report = str(out / "fixture" / "report.json")
        cmp_path = tmp_path / "cmp.json"
        assert main(["compare", "--report-a", report, "--report-b", report,
                     "--out", str(cmp_path)]) == 0
        doc = json.loads(cmp_path.read_text())
        assert doc["ks"]["d"] == 0.0 and doc["density_ratio"] == 1.0

    def test_analyze_recomputes_report(self, tmp_path, fixture_log):
        out = tmp_path / "out"
        main(["discover", "--input", str(fixture_log), "--out", str(out)])
        redo = tmp_path / "redo"
        code = main(["analyze", "--net", str(out / "fixture" / "net.json"),
                     "--input", str(fixture_log), "--out", str(redo)])
        assert code == 0
        assert ((redo / "report.csv").read_text()
                == (out / "fixture" / "report.csv").read_text())

    def test_analyze_writes_conformance(self, tmp_path, fixture_log):
        out = tmp_path / "out"
        main(["discover", "--input", str(fixture_log), "--out", str(out)])
        redo = tmp_path / "redo"
        main(["analyze", "--net", str(out / "fixture" / "net.json"),
              "--input", str(fixture_log), "--out", str(redo)])
        assert ((redo / "conformance.json").read_text()
                == (out / "fixture" / "conformance.json").read_text())

    def test_analyze_width_20_broadcast(self, tmp_path):
        # Twenty optional bots in any order: the net has 2^20 + 3 reachable
        # markings, which measuring the entropy must not enumerate.
        bots = [f"b{i:02d}" for i in range(20)]
        tree = seq(activity("lead"), par(*(xor(tau(), activity(b)) for b in bots)))
        net_path = tmp_path / "net.json"
        net_path.write_text(net_to_json(tree_to_net(tree)))
        rng = random.Random(20)
        rows = ["trace_id,activity,timestamp"]
        for c in range(5):
            who = ["lead"] + rng.sample(bots, 9)
            rows += [f"c{c},{a},{1000 * c + i}" for i, a in enumerate(who)]
        log_path = tmp_path / "wide.csv"
        log_path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "wide"
        started = time.perf_counter()
        assert main(["analyze", "--net", str(net_path), "--input", str(log_path),
                     "--out", str(out), "--schema", "format=epoch"]) == 0
        assert time.perf_counter() - started < 30.0
        conformance = json.loads((out / "conformance.json").read_text())
        assert conformance["conforming"] == conformance["total"] == 5
        assert json.loads((out / "report.json").read_text())["ks_entropy"] > 0.0

    def test_simulate_creates_parent_directories(self, tmp_path):
        fspn = tmp_path / "fspn.json"
        fspn.write_text(fspn_to_json(threshold_fspn()))
        sim = tmp_path / "new" / "dir" / "sim.csv"
        assert main(["simulate", "--fspn", str(fspn), "--n-traces", "5",
                     "--out", str(sim)]) == 0
        assert sim.read_text().startswith("trace_id,activity,timestamp\n")

    def test_export_dot_command(self, tmp_path, fixture_log, capsys):
        out = tmp_path / "out"
        main(["discover", "--input", str(fixture_log), "--out", str(out)])
        assert main(["export-dot", "--fspn",
                     str(out / "fixture" / "fspn.json")]) == 0
        text = capsys.readouterr().out
        assert "digraph net {" in text and 'label="1"' in text

    def test_module_invocation(self, tmp_path, fixture_log):
        proc = subprocess.run(
            [sys.executable, "-m", "repostminer", "discover",
             "--input", str(fixture_log), "--out", str(tmp_path / "out")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "fixture" in proc.stdout


def organic_log(path, cascades=30, accounts=20, seed=3):
    """Cascades of 8 distinct accounts drawn uniformly; no cut explains
    them, so discovery falls through to a flower."""
    rng = random.Random(seed)
    rows = ["trace_id,activity,timestamp"]
    for c in range(cascades):
        who = rng.sample([f"u{i:02d}" for i in range(accounts)], 8)
        rows += [f"c{c},{a},{1000 * c + 7 * i}" for i, a in enumerate(who)]
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.fixture(params=["broadcast", "organic"])
def any_log(request, tmp_path, fixture_log):
    """The A-then-(B || C) fixture, or an organic log, with its schema flags."""
    if request.param == "broadcast":
        return fixture_log, []
    return organic_log(tmp_path / "organic.csv"), ["--schema", "format=epoch"]


class TestFailures:
    @pytest.mark.parametrize("command", ["analyze", "export-dot", "simulate", "compare"])
    def test_malformed_artifact_is_one_error_line(self, tmp_path, fixture_log,
                                                  capsys, command):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"places": []}))  # no transitions, no density
        argv = {
            "analyze": ["analyze", "--net", str(bad), "--input", str(fixture_log),
                        "--out", str(tmp_path / "redo")],
            "export-dot": ["export-dot", "--net", str(bad)],
            "simulate": ["simulate", "--fspn", str(bad), "--n-traces", "3",
                         "--out", str(tmp_path / "sim.csv")],
            "compare": ["compare", "--report-a", str(bad), "--report-b", str(bad)],
        }[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"{command}: error in stage load: ")

    def test_analyze_failed_write_leaves_no_files(self, tmp_path, fixture_log,
                                                  capsys, monkeypatch):
        out = tmp_path / "out"
        main(["discover", "--input", str(fixture_log), "--out", str(out)])
        write_text = Path.write_text

        def failing_last_write(self, *args, **kwargs):
            if self.name == "conformance.json":
                raise OSError("disk full")
            return write_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", failing_last_write)
        redo = tmp_path / "redo"
        assert main(["analyze", "--net", str(out / "fixture" / "net.json"),
                     "--input", str(fixture_log), "--out", str(redo)]) == 1
        assert capsys.readouterr().err.startswith("analyze: error in stage write: ")
        assert not redo.exists()

    def test_failed_write_removes_only_the_directory_it_created(
            self, tmp_path, fixture_log, monkeypatch):
        out = tmp_path / "out"
        main(["discover", "--input", str(fixture_log), "--out", str(out)])

        def failing_write(self, *args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", failing_write)
        redo = tmp_path / "runs" / "redo"
        argv = ["analyze", "--net", str(out / "fixture" / "net.json"),
                "--input", str(fixture_log), "--out", str(redo)]
        assert main(argv) == 1
        assert list((tmp_path / "runs").iterdir()) == []  # the parent stays
        redo.mkdir()
        assert main(argv) == 1
        assert list(redo.iterdir()) == []  # found, so kept


class TestOptions:
    def test_entropy_log_base(self, tmp_path, any_log):
        log, flags = any_log
        entropy = {}
        for base in (None, 2):
            out = tmp_path / f"base-{base}"
            extra = [] if base is None else ["--entropy-log-base", str(base)]
            assert main(["discover", "--input", str(log), "--out", str(out),
                         *flags, *extra]) == 0
            doc = json.loads((out / log.stem / "report.json").read_text())
            entropy[base] = doc["ks_entropy"]
        assert entropy[None] > 0.0
        assert entropy[2] == pytest.approx(entropy[None] / math.log(2), rel=1e-12)

    def test_export_dot_reduce_prints_model_dot(self, tmp_path, any_log, capsys):
        log, flags = any_log
        out = tmp_path / "out"
        assert main(["discover", "--input", str(log), "--out", str(out), *flags]) == 0
        capsys.readouterr()
        run = out / log.stem
        assert main(["export-dot", "--net", str(run / "net.json"), "--reduce"]) == 0
        assert capsys.readouterr().out == (run / "model.dot").read_text()
