"""Seeded input generators for the four benchmark workloads.

Everything here is plain Python with no import of ``repostminer``: the
inputs for one seed are byte-identical whichever version of the program is
measured.  Each generator writes its files into a directory and returns a
``Workload`` naming the CLI calls of the job and what the checks expect.

Output paths in the commands start with the placeholder ``{out}``, which the
runner replaces with a fresh directory for each repetition of the job.

Account names are zero-padded so that sorted order is numeric order, which
is the order discovery prints tree children in.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

EPOCH0 = 1_700_000_000  # 2023-11-14T22:13:20Z; any fixed start works
OUT = Path("{out}")

# Full sizes are the measured workloads; smoke sizes only exercise the code
# paths and checks, in well under a second per job.
SIZES = {
    "organic_flower": {"full": dict(cascades=1000, accounts=300),
                       "smoke": dict(cascades=60, accounts=30)},
    "coordinated_broadcast": {"full": dict(cascades=150, bots=14),
                              "smoke": dict(cascades=150, bots=11)},
    "simulate_roundtrip": {"full": dict(traces=600),
                           "smoke": dict(traces=100)},
    "capped_dump": {"full": dict(cascades=20_000, keep=300),
                    "smoke": dict(cascades=600, keep=60)},
}
WORKLOADS = tuple(SIZES)


@dataclass
class Workload:
    """The job of one workload: CLI argument lists run in order, the output
    directories they fill, and the facts the output checks compare against."""

    name: str
    commands: list[list[str]]
    runs: list[str]                 # run directories holding report.json
    inputs: dict[str, int]          # sizes recorded with the results
    expect: dict[str, object] = field(default_factory=dict)


def _write_csv(path: Path, header: str, rows: list[str]) -> int:
    text = header + "\n" + "".join(r + "\n" for r in rows)
    path.write_text(text)
    return len(text.encode())


def _iso(epoch: int) -> str:
    return datetime.fromtimestamp(epoch, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def organic_flower(rng: random.Random, work: Path,
                   cascades: int, accounts: int) -> Workload:
    """Independent cascades: 10 distinct accounts drawn uniformly, with
    exponential gaps of mean 600 s.  No cut explains such a log, so
    discovery falls through to the flower ``*(tau, u000, ...)``."""
    names = [f"u{i:03d}" for i in range(accounts)]
    rows = []
    for c in range(cascades):
        t = EPOCH0 + rng.randrange(30 * 86400)
        for who in rng.sample(names, 10):
            rows.append(f"c{c:05d},{who},{t}")
            t += 1 + int(rng.expovariate(1 / 600))
    path = work / "organic.csv"
    size = _write_csv(path, "trace_id,activity,timestamp", rows)
    seen = sorted({r.split(",")[1] for r in rows})
    return Workload(
        "organic_flower",
        [["discover", "--input", str(path), "--out", str(OUT),
          "--schema", "format=epoch"]],
        [str(OUT / "organic")],
        {"rows": len(rows), "traces": cascades, "bytes": size},
        {"tree": "*(tau, " + ", ".join(seen) + ")", "all_fit": True},
    )


def coordinated_broadcast(rng: random.Random, work: Path,
                          cascades: int, bots: int) -> Workload:
    """A leader posts, then every bot reposts once, 1-20 s apart.  The
    default ``--max-events 10`` keeps nine bots per cascade, so each bot is
    optional and the tree is ``->(lead, /\\(X(tau, bot_i)...))`` with
    2^bots + 3 reachable markings.

    Bot orders are random but steered, as a schedule would be, so that among
    the kept events each ordered pair of bots follows directly, and each bot
    ends a cascade, about equally often.  With uniform permutations some
    pair or end is rare enough, on about one seed in three, for the 0.2
    noise filter to drop it, which reshapes the tree and the workload."""
    crew = [f"bot{i:02d}" for i in range(bots)]
    kept = 9
    pairs: Counter = Counter()
    ends: Counter = Counter()

    def least(left: list[str], key) -> str:
        low = min(map(key, left))
        return rng.choice([b for b in left if key(b) == low])

    rows = []
    for c in range(cascades):
        order = ["lead"]
        left = list(crew)
        while left:
            prev = order[-1]
            if len(order) < kept:
                who = least(left, lambda b: pairs[(prev, b)])
            elif len(order) == kept:  # the last kept event ends the trace
                who = least(left, lambda b: (ends[b], pairs[(prev, b)]))
                ends[who] += 1
            else:
                who = rng.choice(left)
            if len(order) <= kept:
                pairs[(prev, who)] += 1
            order.append(who)
            left.remove(who)
        t = EPOCH0 + rng.randrange(7 * 86400)
        for i, who in enumerate(order):
            t += rng.randint(1, 20) if i else 0
            rows.append(f"b{c:04d},{who},{t}")
    path = work / "broadcast.csv"
    size = _write_csv(path, "trace_id,activity,timestamp", rows)
    branches = ", ".join(f"X(tau, {b})" for b in crew)
    return Workload(
        "coordinated_broadcast",
        [["discover", "--input", str(path), "--out", str(OUT),
          "--schema", "format=epoch"]],
        [str(OUT / "broadcast")],
        {"rows": len(rows), "traces": cascades, "bytes": size},
        {"tree": f"->(lead, /\\({branches}))", "all_fit": True,
         "rg_states": 2 ** bots + 3},
    )


def capped_dump(rng: random.Random, work: Path,
                cascades: int, keep: int) -> Workload:
    """A large time-ordered dump with ISO-8601 timestamps and bot scores,
    of which ``--max-traces`` keeps only the earliest cascades and
    ``--split-bot-scores`` makes one run of bots and one of humans.  Bots
    score above 0.9 and humans below 0.1, so no event is dropped.  Every
    cascade has 3 bots and 7 humans, so both runs have the same size on
    every seed."""
    humans = [f"h{i:04d}" for i in range(60)]
    bots = [f"k{i:03d}" for i in range(20)]
    score = {h: rng.randint(100, 900) / 10_000 for h in humans}
    score.update({b: rng.randint(9_100, 9_900) / 10_000 for b in bots})
    stamped = []
    for c in range(cascades):
        t = EPOCH0 + rng.randrange(90 * 86400)
        crowd = rng.sample(bots, 3) + rng.sample(humans, 7)
        rng.shuffle(crowd)
        for who in crowd:
            stamped.append((t, f"d{c:05d},{who},{_iso(t)},{score[who]}"))
            t += 1 + int(rng.expovariate(1 / 900))
    stamped.sort(key=lambda r: r[0])  # a dump is written in time order
    path = work / "dump.csv"
    size = _write_csv(path, "post,user,created_at,bot_score",
                      [r for _, r in stamped])
    return Workload(
        "capped_dump",
        [["discover", "--input", str(path), "--out", str(OUT),
          "--schema", "trace_id=post,activity=user,timestamp=created_at,"
                      "bot_score=bot_score",
          "--max-traces", str(keep), "--split-bot-scores"]],
        [str(OUT / "dump-bot_high"), str(OUT / "dump-bot_low")],
        {"rows": len(stamped), "traces": cascades, "bytes": size},
    )


class _NetBuilder:
    """Compiles a small process tree into the program's net JSON, with the
    same block wiring as the library's compiler: each node sits between a
    source and a sink place, parallel and loop blocks add silent routing."""

    def __init__(self) -> None:
        self.places: list[str] = []
        self.transitions: list[tuple[str, str | None]] = []
        self.arcs: list[tuple[str, str]] = []
        self.redo: set[tuple[str, str]] = set()  # loop-back choices

    def place(self) -> str:
        self.places.append(f"s{len(self.places)}")
        return self.places[-1]

    def transition(self, label: str | None) -> str:
        t = f"u{len(self.transitions)}"
        self.transitions.append((t, label))
        return t

    def build(self, node: tuple, src: str, snk: str) -> None:
        kind = node[0]
        if kind in ("act", "tau"):
            t = self.transition(node[1] if kind == "act" else None)
            self.arcs += [(src, t), (t, snk)]
        elif kind == "seq":
            cur = src
            for child in node[1][:-1]:
                nxt = self.place()
                self.build(child, cur, nxt)
                cur = nxt
            self.build(node[1][-1], cur, snk)
        elif kind == "xor":
            for child in node[1]:
                self.build(child, src, snk)
        elif kind == "par":
            split, join = self.transition(None), self.transition(None)
            self.arcs += [(src, split), (join, snk)]
            for child in node[1]:
                entry, exit_ = self.place(), self.place()
                self.arcs += [(split, entry), (exit_, join)]
                self.build(child, entry, exit_)
        elif kind == "loop":
            enter, leave = self.transition(None), self.transition(None)
            head, tail = self.place(), self.place()
            self.arcs += [(src, enter), (enter, head), (tail, leave), (leave, snk)]
            self.build(node[1], head, tail)
            before = len(self.arcs)
            self.build(node[2], tail, head)
            self.redo.add(self.arcs[before])
        else:
            raise ValueError(kind)

    def outputs(self) -> dict[str, list[str]]:
        outs: dict[str, list[str]] = {p: [] for p in self.places}
        for a, b in self.arcs:
            if a in outs:
                outs[a].append(b)
        return outs


def _community(c: int) -> tuple:
    """One community: a seed poster, then a choice, a parallel burst with an
    optional member, a member who may repost again, and an optional closer.
    Every account belongs to one leaf only."""
    a = [("act", f"m{c}x{i}") for i in range(10)]
    return ("seq", [
        a[0],
        ("xor", [a[1], ("seq", [a[2], a[3]])]),
        ("par", [a[4], ("xor", [("tau",), a[5]]), ("seq", [a[6], a[7]])]),
        ("loop", a[8], ("tau",)),
        ("xor", [("tau",), a[9]]),
    ])


def source_fspn(rng: random.Random) -> tuple[dict, dict]:
    """The source model of ``simulate_roundtrip``: an exclusive choice of 8
    communities.  Returns ``(net_doc, fspn_doc)`` in the program's JSON
    interchange format.  Only probabilities and delays depend on the seed,
    so every seed gives the same net."""
    b = _NetBuilder()
    source, sink = b.place(), b.place()
    b.build(("xor", [_community(c) for c in range(8)]), source, sink)
    net_doc = {
        "places": b.places,
        "transitions": [{"id": t, "label": label} for t, label in b.transitions],
        "arcs": [list(a) for a in b.arcs],
        "initial_marking": {source: 1},
    }
    probabilities = []
    for place, outs in b.outputs().items():
        if len(outs) == 1:
            weights = [1.0]
        elif any((place, t) in b.redo for t in outs):
            again = rng.uniform(0.1, 0.25)
            weights = [again if (place, t) in b.redo else 1.0 - again for t in outs]
        else:
            weights = [rng.uniform(1.0, 3.0) for _ in outs]
        total = sum(weights)
        for t, w in zip(outs, weights):
            probabilities.append({"place": place, "transition": t,
                                  "probability": w / total})
    delays = {t: sorted(float(rng.randint(1, 3600)) for _ in range(5))
              for t, label in b.transitions if label is not None}
    fspn_doc = dict(net_doc, arc_probabilities=probabilities,
                    delay_distributions=delays)
    return net_doc, fspn_doc


def simulate_roundtrip(rng: random.Random, work: Path,
                       traces: int) -> Workload:
    """``simulate`` a seeded source model, ``discover`` on what it wrote and
    ``analyze`` the same log against the source net."""
    net_doc, fspn_doc = source_fspn(rng)
    net_path, fspn_path = work / "source_net.json", work / "source_fspn.json"
    net_path.write_text(json.dumps(net_doc, indent=2, sort_keys=True) + "\n")
    fspn_path.write_text(json.dumps(fspn_doc, indent=2, sort_keys=True) + "\n")
    sim = OUT / "simulated.csv"
    return Workload(
        "simulate_roundtrip",
        [["simulate", "--fspn", str(fspn_path), "--n-traces", str(traces),
          "--seed", str(rng.randrange(2 ** 31)), "--out", str(sim)],
         ["discover", "--input", str(sim), "--out", str(OUT),
          "--schema", "format=epoch"],
         ["analyze", "--net", str(net_path), "--input", str(sim),
          "--out", str(OUT / "analyze"), "--schema", "format=epoch"]],
        [str(OUT / "simulated"), str(OUT / "analyze")],
        {"traces": traces, "bytes": fspn_path.stat().st_size,
         "source_places": len(net_doc["places"]),
         "source_transitions": len(net_doc["transitions"])},
        {"simulated": str(sim), "source_fspn": str(fspn_path)},
    )


GENERATORS = {
    "organic_flower": organic_flower,
    "coordinated_broadcast": coordinated_broadcast,
    "simulate_roundtrip": simulate_roundtrip,
    "capped_dump": capped_dump,
}


def generate(name: str, seed: int, work: Path, smoke: bool = False) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` under ``work``."""
    work.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    return GENERATORS[name](rng, work, **SIZES[name]["smoke" if smoke else "full"])
