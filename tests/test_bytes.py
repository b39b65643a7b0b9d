"""Byte regression of the pipeline's replay, enrichment and simulation.

Two small seeded logs go through ``repostminer discover`` and the two runs
through ``repostminer compare``, and the threshold model, the discovered
broadcast model and a multi-token loop model go through
``repostminer simulate``; the sha256 of each output file must match the
digest pinned below.  The digests were recorded before
firing was compiled into ``PetriNet.kernel`` and replay memoized its
silent-path searches, the loop model's before ``simulate`` became one
flat event loop, so any drift in replay order, tie-breaks, waits, arc
probabilities or the simulator's random draws fails here.  ``report.json``
is left out on purpose: its provenance may change by design.  Its CSV twin
``report.csv`` is pinned, as are the reduced ``model.dot`` and the
``compare.json`` of the flower run against the broadcast run, so the
measures, their column order and how ``compare`` relates them stay fixed;
adding or changing a measure updates these digests on purpose.  The two
``conformance.json`` digests changed when the file gained its
``prefix_only`` and ``failing`` counts and a ``kind`` per failure.

Run ``python tests/test_bytes.py`` to print the digests of the current code.
"""

import contextlib
import hashlib
import io
import random
import sys
from pathlib import Path

from repostminer.cli import main
from repostminer.petri import PetriNet
from repostminer.reference_nets import threshold_fspn
from repostminer.stochastic import EmpiricalDelay, StochasticPetriNet, fspn_to_json

PINNED = {
    "flower/net.json": "57b8687c8cc428ad9842cc519373c7a342b036b50c3ddbe71b7316d42ae2a300",
    "flower/fspn.json": "3f838d45c315398fddb038dd608d36682df89aaf9b787589bcec9d57a955af6a",
    "flower/conformance.json": "5e419b9a9917f7e702bbd8eb6b7227d01769db54e95ed68785214b8b07f8d8c4",
    "broadcast/net.json": "7a6012000c0f1b4594b3c1034ec6a31c2949017f2b13b693f84004da0bce44eb",
    "broadcast/fspn.json": "2c94727e8a394a9aa1bde561cc2d1c0a15691133a642b7e68eeeaeee99a6be9b",
    "broadcast/conformance.json": "95aa8900023f2232a42da966fea344dcfeb2d8b3ed84c8fff923e2f0225a17c1",
    "simulated.csv": "7ae93544c6db1f5c28906cdcbb8114a256c76960949341dfa4edf61a10592386",
    "broadcast-simulated.csv": "06cbb029b873b02aec1ab429a4d16e5101d1c125812e10ca358f120adca7e08c",
    "loop-simulated.csv": "3e60c86e84339c0ccabebe2503d7663e4022036087eda015677a0f93a9bd40da",
    "flower/report.csv": "99cfd5fabede834bbccf4d25abc2759ebfebbd29d9a48a693ec9565b4c256101",
    "broadcast/report.csv": "4191bd6ba0b720f33cada7b5922131d02eccef8cbe2f77ca9e1dad30b9d24d33",
    "flower/model.dot": "ce7e46905fce0242025253d68bd4346c8fbcdd1ba217e03c3bc9cade5c3e9785",
    "broadcast/model.dot": "a945c4bb8eb4289a1c33ef21a3b15b3555c7de9bc4d3813e06a06e6646c954e3",
    "compare.json": "bdabb1e84cca28a9eb77712dfb8c968a85a55274094962e6400721050bfc6e18",
}


def _write_csv(path, rows):
    path.write_text("trace_id,activity,timestamp\n"
                    + "".join(",".join(map(str, r)) + "\n" for r in rows))


def flower_log(path, cascades=60, accounts=30, seed=5):
    """Cascades of 10 distinct accounts drawn uniformly; no cut explains
    them, so discovery falls through to a flower."""
    rng = random.Random(seed)
    names = [f"u{i:02d}" for i in range(accounts)]
    rows = []
    for c in range(cascades):
        t = 1_700_000_000 + rng.randrange(86400)
        for who in rng.sample(names, 10):
            rows.append((f"c{c:03d}", who, t))
            t += 1 + int(rng.expovariate(1 / 600))
    _write_csv(path, rows)


def broadcast_log(path, cascades=30, bots=6, seed=6):
    """A leader posts, then every bot reposts once in random order."""
    rng = random.Random(seed)
    crew = [f"bot{i}" for i in range(bots)]
    rows = []
    for c in range(cascades):
        t = 1_700_000_000 + rng.randrange(86400)
        rows.append((f"b{c:03d}", "lead", t))
        if c % 10 == 9:  # a stranger reposts first: optional in the model
            rows.append((f"b{c:03d}", "stranger", t + 1))
        if c == 14:  # a bot reposts before the leader: too rare to model
            rows.append((f"b{c:03d}", "bot0", t - 5))
        for who in rng.sample(crew, bots):
            t += rng.randint(2, 20)
            rows.append((f"b{c:03d}", who, t))
    _write_csv(path, rows)


def loop_fspn():
    """A choice place starting with 3 tokens feeds A or B; a silent join
    waits for one of each, then C ends the round or a silent loop puts two
    tokens back (one through D).  Routing takes several passes per instant,
    an unmatched token leaves the join waiting for good, and long runs hit
    the firing cap."""
    net = PetriNet(
        places=("p0", "p1", "p2", "p3", "p4"),
        transitions=("A", "B", "join", "C", "loop", "D"),
        arcs=(("p0", "A"), ("p0", "B"), ("A", "p1"), ("B", "p2"),
              ("p1", "join"), ("p2", "join"), ("join", "p3"),
              ("p3", "C"), ("p3", "loop"), ("loop", "p0"), ("loop", "p4"),
              ("p4", "D"), ("D", "p0")),
        labels={"A": "A", "B": "B", "join": None, "C": "C", "loop": None, "D": "D"},
        initial_marking={"p0": 3},
    )
    return StochasticPetriNet(
        net,
        arc_probabilities={("p0", "A"): 0.5, ("p0", "B"): 0.5,
                           ("p1", "join"): 1.0, ("p2", "join"): 1.0,
                           ("p3", "C"): 0.1, ("p3", "loop"): 0.9, ("p4", "D"): 1.0},
        delay_distributions={"A": EmpiricalDelay((1.0, 5.0, 9.0)),
                             "B": EmpiricalDelay((2.0, 4.0)),
                             "C": EmpiricalDelay((3.0, 30.0)),
                             "D": EmpiricalDelay((0.0, 6.0))},
    )


def produce(work):
    """Run the CLI on the fixtures and return {relative path: sha256}."""
    work = Path(work)
    flower_log(work / "flower.csv")
    broadcast_log(work / "broadcast.csv")
    for name in ("flower", "broadcast"):
        code = main(["discover", "--input", str(work / f"{name}.csv"),
                     "--out", str(work / "out"), "--schema", "format=epoch"])
        assert code == 0, name
    with contextlib.redirect_stdout(io.StringIO()):  # it echoes compare.json
        code = main(["compare", "--report-a", str(work / "out/flower/report.json"),
                     "--report-b", str(work / "out/broadcast/report.json"),
                     "--out", str(work / "out" / "compare.json")])
    assert code == 0
    (work / "threshold.json").write_text(fspn_to_json(threshold_fspn()))
    code = main(["simulate", "--fspn", str(work / "threshold.json"),
                 "--n-traces", "200", "--seed", "17",
                 "--out", str(work / "out" / "simulated.csv")])
    assert code == 0
    # the broadcast model marks several places at once, so this pins the
    # order in which the simulator routes tokens and draws random numbers
    code = main(["simulate", "--fspn", str(work / "out/broadcast/fspn.json"),
                 "--n-traces", "100", "--seed", "17",
                 "--out", str(work / "out" / "broadcast-simulated.csv")])
    assert code == 0
    (work / "loop.json").write_text(fspn_to_json(loop_fspn()))
    code = main(["simulate", "--fspn", str(work / "loop.json"),
                 "--n-traces", "100", "--seed", "17", "--max-firings", "40",
                 "--out", str(work / "out" / "loop-simulated.csv")])
    assert code == 0
    return {rel: hashlib.sha256((work / "out" / rel).read_bytes()).hexdigest()
            for rel in PINNED}


def test_outputs_match_pinned_digests(tmp_path):
    assert produce(tmp_path) == PINNED


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for rel, digest in produce(tmp).items():
            print(f'    "{rel}": "{digest}",', file=sys.stdout)
