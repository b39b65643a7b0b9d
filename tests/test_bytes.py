"""Byte regression of the pipeline's replay, enrichment and simulation.

Two small seeded logs go through ``repostminer discover``, and the threshold
model and the discovered broadcast model go through ``repostminer
simulate``; the sha256 of each output file
must match the digest pinned below.  The digests were recorded before
firing was compiled into ``PetriNet.kernel`` and replay memoized its
silent-path searches, so any drift in replay order, tie-breaks, waits, arc
probabilities or the simulator's random draws fails here.  ``report.json``
is left out on purpose: its entropy and provenance may change by design.

Run ``python tests/test_bytes.py`` to print the digests of the current code.
"""

import hashlib
import random
import sys
from pathlib import Path

from repostminer.cli import main
from repostminer.reference_nets import threshold_fspn
from repostminer.stochastic import fspn_to_json

PINNED = {
    "flower/net.json": "57b8687c8cc428ad9842cc519373c7a342b036b50c3ddbe71b7316d42ae2a300",
    "flower/fspn.json": "3f838d45c315398fddb038dd608d36682df89aaf9b787589bcec9d57a955af6a",
    "flower/conformance.json": "0b9d08ef8e45822f0aafd19a6568268bc3a6c1c9ff6c4a7ea4a25a20a9f960fe",
    "broadcast/net.json": "7a6012000c0f1b4594b3c1034ec6a31c2949017f2b13b693f84004da0bce44eb",
    "broadcast/fspn.json": "2c94727e8a394a9aa1bde561cc2d1c0a15691133a642b7e68eeeaeee99a6be9b",
    "broadcast/conformance.json": "79ada63e93c8ba4cecd4dcff513bbe2b80925e61ef2078936dbc395ab12376bb",
    "simulated.csv": "7ae93544c6db1f5c28906cdcbb8114a256c76960949341dfa4edf61a10592386",
    "broadcast-simulated.csv": "06cbb029b873b02aec1ab429a4d16e5101d1c125812e10ca358f120adca7e08c",
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


def produce(work):
    """Run the CLI on the fixtures and return {relative path: sha256}."""
    work = Path(work)
    flower_log(work / "flower.csv")
    broadcast_log(work / "broadcast.csv")
    for name in ("flower", "broadcast"):
        code = main(["discover", "--input", str(work / f"{name}.csv"),
                     "--out", str(work / "out"), "--schema", "format=epoch"])
        assert code == 0, name
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
    return {rel: hashlib.sha256((work / "out" / rel).read_bytes()).hexdigest()
            for rel in PINNED}


def test_outputs_match_pinned_digests(tmp_path):
    assert produce(tmp_path) == PINNED


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for rel, digest in produce(tmp).items():
            print(f'    "{rel}": "{digest}",', file=sys.stdout)
