import ast
import gc
import json
import math
import operator
import os
import random
import subprocess
import sys
import textwrap
import time
import tracemalloc
from pathlib import Path

import pytest

import repostminer
from repostminer import analysis, cli
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
        report = reports["fixture"]
        assert report["node_count"] == 6
        assert report["density"] == pytest.approx(5 / 30, abs=1e-12)
        assert report["diameter"] == 3
        assert report["mean_of_mean_wait_seconds"] == pytest.approx(4.0)

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
        assert list(reports) == ["bots-bot_high", "bots-bot_low"]
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

    @pytest.mark.parametrize("inputs", ["data.csv", ["a.csv", 3]], ids=["string", "number"])
    def test_config_inputs_must_be_a_list_of_paths(self, tmp_path, capsys, inputs):
        # a string must not be split into one input per character
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"inputs": inputs}))
        with pytest.raises(ValueError, match="'inputs' must be a list of paths"):
            PipelineConfig.from_file(cfg)
        assert main(["discover", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("discover: error in stage config: ValueError: 'inputs'")

    @pytest.mark.parametrize("doc, message", [
        ("tiny.csv", "a config file holds a JSON object, got 'tiny.csv'"),
        ({"max_events": "10"}, "'max_events' must be an integer, got '10'"),
        ({"max_events": True}, "'max_events' must be an integer, got True"),
        ({"max_traces": 2.5}, "'max_traces' must be an integer or null, got 2.5"),
        ({"out_dir": 5}, "'out_dir' must be a path, got 5"),
        ({"split_bot_scores": "yes"}, "'split_bot_scores' must be true or false, got 'yes'"),
        ({"noise_threshold": "0.2"}, "'noise_threshold' must be a number, got '0.2'"),
        ({"bot_score_column": 1}, "'bot_score_column' must be a string or null, got 1"),
        ({"entropy_log_base": [2]}, "'entropy_log_base' must be a number or null, got [2]"),
    ], ids=["document", "string-int", "bool-int", "float-int", "path", "bool",
            "number", "column", "log-base"])
    def test_config_values_are_checked_key_by_key(self, tmp_path, capsys, doc, message):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as info:
            PipelineConfig.from_file(cfg)
        assert str(info.value) == message
        assert main(["discover", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"discover: error in stage config: ValueError: {message}\n"

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(ValueError, match="bogus"):
            PipelineConfig.from_file(cfg)
        with pytest.raises(TypeError, match="'bogus'"):
            PipelineConfig(bogus=1)

    def test_empty_config_file_gives_the_defaults(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text("{}")
        config = PipelineConfig.from_file(cfg)
        assert config == PipelineConfig()
        assert config.inputs == [] and config.out_dir == Path("out")
        assert config.inputs is not PipelineConfig().inputs

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

    def test_quotes_and_backslashes_escaped(self):
        # an account id ending in a backslash must not escape the closing quote
        net = PetriNet(("p\\",), ('t"',), (("p\\", 't"'),), {'t"': 'a"b\\'}, {"p\\": 1})
        lines = export_dot(net).splitlines()
        assert lines[2:5] == [
            '  "p\\\\" [shape=circle, label="1"];',
            '  "t\\"" [shape=box, label="a\\"b\\\\"];',
            '  "p\\\\" -> "t\\"";',
        ]


class TestCompare:
    REPORT = {"density": 0.1, "diameter": 3, "ks_entropy": 0.5}

    def test_identical_runs(self):
        report = {**self.REPORT, "per_user_mean_waits": {"u1": 4.0, "u2": 9.0}}
        doc = compare(report, json.loads(json.dumps(report)))
        assert doc["density_ratio"] == 1.0
        assert doc["diameter_difference"] == 0
        assert doc["entropy_difference"] == 0.0
        assert doc["ks"] == {"d": 0.0, "p": 1.0}

    def test_missing_waits_rejected(self):
        with pytest.raises(ValueError):
            compare({**self.REPORT, "per_user_mean_waits": {}},
                    {**self.REPORT, "per_user_mean_waits": {"u": 1.0}})

    def test_relations_follow_run_order(self):
        a = {"density": 0.3, "diameter": 2, "ks_entropy": 0.75,
             "per_user_mean_waits": {"u": 1.0}}
        b = {**self.REPORT, "per_user_mean_waits": {"u": 2.0}}
        doc = compare(a, b)
        assert doc["density_ratio"] == pytest.approx(3.0)
        assert doc["diameter_difference"] == -1
        assert doc["entropy_difference"] == 0.25


class TestMeasureTable:
    """Every reported and compared measure comes from ``analysis.MEASURES``,
    in row order: one row is all it takes to add one."""

    def run_and_compare(self, tmp_path, fixture_log, capsys):
        """Discover the fixture, compare the run with itself; return the
        report.json document, report.csv lines, printed row and compare.json."""
        out = tmp_path / "out"
        assert main(["discover", "--input", str(fixture_log), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        report = out / "fixture" / "report.json"
        cmp_path = tmp_path / "cmp.json"
        assert main(["compare", "--report-a", str(report), "--report-b", str(report),
                     "--out", str(cmp_path)]) == 0
        return (json.loads(report.read_text()),
                (out / "fixture" / "report.csv").read_text().splitlines(),
                printed, json.loads(cmp_path.read_text()))

    def test_csv_header_is_the_table_columns_in_order(self, tmp_path, fixture_log,
                                                      capsys):
        _, (header, row), printed, _ = self.run_and_compare(tmp_path, fixture_log,
                                                            capsys)
        assert header.split(",") == [m.column for m in analysis.MEASURES] == [
            "nodes", "density", "diameter", "mean_wait_seconds", "ks_entropy"]
        assert row.split(",")[0] == "6" and row.split(",")[2] == "3"
        assert printed == f"fixture: {row}\n"

    def test_report_keys_are_the_table_keys(self, tmp_path, fixture_log, capsys):
        doc, _, _, _ = self.run_and_compare(tmp_path, fixture_log, capsys)
        assert set(doc) - {"provenance", "per_user_mean_waits"} == {
            m.key for m in analysis.MEASURES}
        assert doc["node_count"] == 6 and doc["provenance"]["log"] == "fixture"

    def test_compare_keys_are_the_compared_rows_and_ks(self, tmp_path, fixture_log,
                                                       capsys):
        *_, doc = self.run_and_compare(tmp_path, fixture_log, capsys)
        compared = {m.compare_key for m in analysis.MEASURES if m.relate}
        assert compared == {"density_ratio", "diameter_difference",
                            "entropy_difference"}
        assert set(doc) == compared | {"ks"}

    def test_one_row_adds_a_measure_everywhere(self, tmp_path, fixture_log, capsys,
                                               monkeypatch):
        arcs = analysis.Measure("arc_count", "arcs", lambda run: len(run.display.arcs),
                                "arc_difference", operator.sub)
        monkeypatch.setattr(analysis, "MEASURES", analysis.MEASURES + (arcs,))
        doc, (header, row), printed, cmp = self.run_and_compare(tmp_path, fixture_log,
                                                                capsys)
        assert doc["arc_count"] == 5
        assert header.endswith(",arcs") and row.endswith(",5")
        assert printed == f"fixture: {row}\n"
        assert cmp["arc_difference"] == 0


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

    def test_analyze_conformance_with_a_failing_trace(self, tmp_path, fixture_log):
        out = tmp_path / "out"
        main(["discover", "--input", str(fixture_log), "--out", str(out)])
        # post3 fires A after C, where the net has no A; post4 stops after A,
        # where the net still waits for B and C
        log = tmp_path / "more.csv"
        log.write_text(FIXTURE_CSV.replace("post2,A,", "post3,A,2019-01-03T00:00:00Z\n"
                                           "post3,C,2019-01-03T00:00:01Z\n"
                                           "post3,A,2019-01-03T00:00:02Z\n"
                                           "post4,A,2019-01-04T00:00:00Z\npost2,A,", 1))
        redo = tmp_path / "redo"
        assert main(["analyze", "--net", str(out / "fixture" / "net.json"),
                     "--input", str(log), "--out", str(redo)]) == 0
        assert (redo / "conformance.json").read_text() == textwrap.dedent("""\
            {
              "conforming": 2,
              "failing": 1,
              "failures": [
                {
                  "failed_index": 2,
                  "kind": "failing",
                  "trace_id": "post3"
                },
                {
                  "failed_index": null,
                  "kind": "prefix_only",
                  "trace_id": "post4"
                }
              ],
              "nonconforming": 2,
              "prefix_only": 1,
              "total": 4
            }
            """)

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

    def test_no_module_imports_numpy(self):
        # numpy is for the tests and the benchmark only; ast finds the lazy
        # imports inside functions and the TYPE_CHECKING ones too
        found = []
        for path in sorted(Path(repostminer.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    continue
                if any(m.split(".")[0] == "numpy" for m in modules):
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []

    def test_every_command_runs_without_numpy(self, tmp_path, fixture_log):
        # the library needs no numpy: with it blocked, importing the CLI and
        # running each subcommand must work.
        script = textwrap.dedent("""\
        import sys
        sys.modules["numpy"] = None  # any import of numpy now fails
        from repostminer.cli import main
        log, work = sys.argv[1:]
        run = f"{work}/out/fixture"
        for argv in (
            ["discover", "--input", log, "--out", f"{work}/out"],
            ["analyze", "--net", f"{run}/net.json", "--input", log,
             "--out", f"{work}/redo"],
            ["simulate", "--fspn", f"{run}/fspn.json", "--n-traces", "20",
             "--out", f"{work}/sim.csv"],
            ["compare", "--report-a", f"{run}/report.json",
             "--report-b", f"{work}/redo/report.json", "--out", f"{work}/cmp.json"],
            ["export-dot", "--fspn", f"{run}/fspn.json"],
        ):
            if main(argv) != 0:
                sys.exit(f"{argv[0]} failed")
        """)
        proc = subprocess.run([sys.executable, "-c", script, str(fixture_log),
                               str(tmp_path)], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "sim.csv").exists() and (tmp_path / "cmp.json").exists()

    def test_every_command_reads_and_writes_utf8_under_the_c_locale(self, tmp_path):
        # accounts outside ASCII, under a locale whose encoding is ASCII, with
        # UTF-8 mode off and every open() that names no encoding an error
        log = tmp_path / "dump.csv"
        log.write_text("trace_id,activity,timestamp\n" + "".join(
            f"post{p},{account},{100 * p + i}\n"
            for p in range(3) for i, account in enumerate(["A", "Zoë", "東京"])),
            encoding="utf-8")
        run = tmp_path / "out" / "dump"
        src = str(Path(repostminer.__file__).parents[1])
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        for argv in (
            ["discover", "--input", log, "--out", tmp_path / "out", "--schema", "format=epoch"],
            ["analyze", "--net", run / "net.json", "--input", log, "--out", tmp_path / "redo",
             "--schema", "format=epoch"],
            ["simulate", "--fspn", run / "fspn.json", "--n-traces", "5",
             "--out", tmp_path / "sim.csv"],
            ["compare", "--report-a", run / "report.json",
             "--report-b", tmp_path / "redo" / "report.json", "--out", tmp_path / "cmp.json"],
            ["export-dot", "--net", run / "net.json", "--reduce", "--out", tmp_path / "model.dot"],
        ):
            proc = subprocess.run(
                [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
                 "-m", "repostminer", *map(str, argv)],
                env=env, capture_output=True, encoding="utf-8", errors="replace")
            assert proc.returncode == 0, proc.stderr
        # without --out the DOT text goes to stdout, as UTF-8 bytes too
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "repostminer", "export-dot", "--net", str(run / "net.json"), "--reduce"],
            env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
        printed = proc.stdout.decode("utf-8")
        assert "Zoë" in printed and "東京" in printed
        assert printed == (tmp_path / "model.dot").read_text(encoding="utf-8")
        for path in run / "model.dot", tmp_path / "model.dot", tmp_path / "sim.csv":
            text = path.read_text(encoding="utf-8")
            assert "Zoë" in text and "東京" in text


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

    @pytest.mark.parametrize("sample", [math.nan, math.inf])
    def test_simulate_non_finite_delay_fails_in_load(self, tmp_path, capsys, sample):
        doc = json.loads(fspn_to_json(threshold_fspn()))
        doc["delay_distributions"]["B"][0] = sample  # json writes NaN, Infinity
        fspn = tmp_path / "fspn.json"
        fspn.write_text(json.dumps(doc))
        sim = tmp_path / "sim.csv"
        assert main(["simulate", "--fspn", str(fspn), "--n-traces", "2",
                     "--seed", "1", "--out", str(sim)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("simulate: error in stage load: ValueError: delays must be "
                              "finite and nonnegative")
        assert not sim.exists()

    @pytest.mark.parametrize("command, flags", [
        pytest.param("discover", ["--max-traces", "0"], id="discover"),
        pytest.param("analyze", ["--max-traces", "0"], id="analyze"),
        pytest.param("discover", ["--schema", "format=bogus"], id="discover-format"),
        pytest.param("analyze", ["--schema", "format=bogus"], id="analyze-format"),
        pytest.param("discover", ["--split-bot-scores", "--bot-high", "0.1",
                                  "--bot-low", "0.9"], id="discover-bot-bands"),
        pytest.param("discover", ["--entropy-log-base", "1"], id="discover-log-base"),
        pytest.param("analyze", ["--entropy-log-base", "-2"], id="analyze-log-base"),
        pytest.param("discover", ["--delimiter", ";;"], id="discover-delimiter"),
        pytest.param("analyze", ["--delimiter", ""], id="analyze-delimiter"),
        pytest.param("discover", ["--delimiter", '"'], id="discover-quote-delimiter"),
        pytest.param("analyze", ["--delimiter", "\n"], id="analyze-newline-delimiter"),
        pytest.param("discover", ["--delimiter", "\r"], id="discover-return-delimiter"),
    ])
    def test_max_traces_zero_fails_before_reading(self, tmp_path, capsys, command,
                                                  flags):
        missing = str(tmp_path / "missing")  # never opened
        argv = {
            "discover": ["discover", "--input", missing, "--out", missing],
            "analyze": ["analyze", "--net", missing, "--input", missing,
                        "--out", missing],
        }[command] + flags
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"{command}: error in stage config: ")

    @pytest.mark.parametrize("flags", [[], ["--split-bot-scores"]])
    def test_inputs_with_one_stem_fail_before_reading(self, tmp_path, capsys, flags):
        # neither input exists, so a failure in stage config opened neither
        first, second = tmp_path / "a" / "dump.csv", tmp_path / "b" / "dump.csv"
        out = tmp_path / "out"
        assert main(["discover", "--input", str(first), "--input", str(second),
                     "--out", str(out)] + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("discover: error in stage config: ")
        assert str(first) in err and str(second) in err
        assert not out.exists()

    @pytest.mark.parametrize("n_traces", ["0", "2"])
    def test_simulate_negative_seed_fails_before_drawing(self, tmp_path, capsys,
                                                         n_traces):
        fspn = tmp_path / "fspn.json"
        fspn.write_text(fspn_to_json(threshold_fspn()))
        sim = tmp_path / "sim.csv"
        assert main(["simulate", "--fspn", str(fspn), "--n-traces", n_traces,
                     "--seed", "-1", "--out", str(sim)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("simulate: error in stage simulate: ")
        assert not sim.exists()

    @pytest.mark.parametrize("n_traces", ["0", "2"])
    def test_simulate_negative_max_firings_fails_before_drawing(self, tmp_path, capsys,
                                                                n_traces):
        fspn = tmp_path / "fspn.json"
        fspn.write_text(fspn_to_json(threshold_fspn()))
        sim = tmp_path / "sim.csv"
        assert main(["simulate", "--fspn", str(fspn), "--n-traces", n_traces,
                     "--max-firings", "-5", "--out", str(sim)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("simulate: error in stage simulate: ")
        assert "max_firings" in err
        assert not sim.exists()

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


class TestCollectorPause:
    """``main`` runs a command with the cyclic collector paused and hands the
    caller's collector state back, however the command ends."""

    @pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("outcome", ["success", "stage-error", "crash"])
    def test_caller_state_restored(self, monkeypatch, capsys, collecting, outcome):
        seen = []

        def command(args):
            seen.append(gc.isenabled())
            if outcome == "stage-error":
                raise PipelineError("parse", "no such file")
            if outcome == "crash":
                raise KeyboardInterrupt
            return 0

        monkeypatch.setattr(cli, "_cmd_compare", command)
        argv = ["compare", "--report-a", "a.json", "--report-b", "b.json"]
        was = gc.isenabled()
        try:
            (gc.enable if collecting else gc.disable)()
            if outcome == "crash":
                with pytest.raises(KeyboardInterrupt):
                    main(argv)
            else:
                assert main(argv) == (0 if outcome == "success" else 1)
            after = gc.isenabled()
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [False]
        assert after is collecting

    def test_cyclic_garbage_does_not_grow_with_the_log(self, tmp_path, capsys):
        # the pause costs bounded memory only while a command leaves the same
        # cyclic garbage whatever the length of its log; over 100 accounts
        # both logs discover the same flower, and the JSON encoder's closures
        # leave some for each file written
        small = organic_log(tmp_path / "small.csv", cascades=250, accounts=100)
        large = organic_log(tmp_path / "large.csv", cascades=4000, accounts=100)
        left = []
        for log in (small, small, large):  # the first run warms lazy state
            gc.collect()
            assert main(["discover", "--input", str(log), "--out", str(tmp_path / "out"),
                         "--schema", "format=epoch"]) == 0
            left.append(gc.collect())
        nets = [(tmp_path / "out" / name / "net.json").read_text()
                for name in ("small", "large")]
        assert nets[0] == nets[1]
        assert left[1] == left[2]


class TestHeldMemory:
    # The bytes a cascade of 8 reposts adds to the tracemalloc peak of a run,
    # (peak(2N) - peak(N)) / N, on a flower of 100 accounts: the kernel's memo
    # tables, the same for both logs, cancel.  Replays stream into the tally
    # and the log goes once replayed, so the peak is set in stage discover,
    # while the log is held: about 1.4 kB a cascade on CPython 3.11, against
    # 4.2-5.0 kB when every replay and the log were held until the run was
    # written.
    def test_run_holds_no_replays(self, tmp_path):
        def peak(cascades):
            log = organic_log(tmp_path / f"o{cascades}.csv", cascades, accounts=100)
            config = PipelineConfig(inputs=[log], out_dir=tmp_path / "out",
                                    timestamp_format="epoch")
            tracemalloc.start()
            try:
                run_pipeline(config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert (peak(500) - peak(250)) / 250 < 3000
