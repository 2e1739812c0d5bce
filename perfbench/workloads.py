"""The three workloads: their shape, and the inputs each seed generates.

Why each exists (the same text is in ``BENCHMARK.json`` and README.md):

* ``grid-churn`` — writes, few reads.  The refresh pipeline does almost
  all the work (ingest -> exchange -> wire -> apply -> UMS -> FCS ->
  snapshot publish); the origins' serve planes carry only reports, their
  INFOs and the probe polls, and the lookups every run must report go to
  the third site, which takes no reports.
* ``serve-read`` — reads.  A sharded site (``workers=1``, shared memory)
  takes Zipf-skewed lookups at a fixed rate, then a closed-loop capacity
  phase.  Its parent republishes epochs whose key set never changes, the
  cost ``ShmSnapshotWriter.publish`` pays; a light report stream into its
  peer s0 gives the update-delay probes.
* ``grid-mixed`` — reads beside writes.  The churn grid at half rate, with
  uniform lookups on the in-process servers of the two origins, so the
  tick thread and the event loop share one interpreter lock.

All three use a 100k-user ``build_grid_policy`` tree, 0.5 s exchange and
refresh intervals and the production 60 s histogram interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.workload.reference import JOB_SHARES, duration_distribution

USERS = 100_000

#: the daemons' service intervals, seconds: USS exchange, UMS/FCS refresh,
#: usage histogram bins (the production 60 s) and the daemon tick
EXCHANGE_S = 0.5
REFRESH_S = 0.5
HISTOGRAM_S = 60.0
TICK_S = 0.05

#: grid-node daemons in the grid topology
GRID_SITES = 3

#: categories of the paper's Section IV-1 job shares that are each one
#: user (the paper's modeling collapses each dominating project to one
#: identity, ``GRID_IDENTITIES``); "Uoth" spreads over every other user
HEAVY_CATEGORIES = ("U65", "U30", "U3")

#: Table III durations are clipped to [1 s, 1 day]: a day of 60 s bins is
#: 1440 histogram entries, and longer jobs would only grow the deltas
MAX_DURATION_S = 86_400.0

#: lookup keys on serve-read follow rank-Zipf with this exponent.  An
#: assumption, not a measurement: no source here gives the skew of the
#: users schedulers ask about, so the key mix takes the classic Zipf law
ZIPF_S = 1.0

#: warm-up before the measured window, seconds
WARMUP_S = 1.5


@dataclass(frozen=True)
class Workload:
    name: str
    topology: str                          #: "grid" or "shard"
    #: origin -> total usage reports per second sent there
    report_rate: Dict[str, float]
    #: origin -> the sites that poll for its reports
    observers: Dict[str, List[str]]
    #: site -> open-loop binary lookups per second
    lookup_rate: Dict[str, float]
    keys: str                              #: "uniform" or "zipf"
    capacity_site: str


_GRID_OBSERVERS = {"s0": ["s1", "s2"], "s1": ["s0", "s2"]}

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("grid-churn", "grid",
             report_rate={"s0": 100.0, "s1": 100.0},
             observers=_GRID_OBSERVERS,
             lookup_rate={"s2": 2000.0},
             keys="uniform", capacity_site="s2"),
    Workload("serve-read", "shard",
             report_rate={"s0": 150.0},
             observers={"s0": ["r0"]},
             lookup_rate={"r0": 2000.0}, keys="zipf", capacity_site="r0"),
    Workload("grid-mixed", "grid",
             report_rate={"s0": 50.0, "s1": 50.0},
             observers=_GRID_OBSERVERS,
             lookup_rate={"s0": 1000.0, "s1": 1000.0}, keys="uniform",
             capacity_site="s0"),
)}


def user_name(index: int) -> str:
    """Leaf name of user ``index`` in ``build_grid_policy``'s tree."""
    return f"u{index}"


def make_jobs(rng: np.random.Generator, count: int
              ) -> List[Tuple[str, float]]:
    """``count`` (user, duration) usage reports with the paper's job mix.

    Each of U65, U30 and U3 is one user drawn by the seed; a "Uoth" job
    goes to any other user, uniformly.
    """
    cats = list(JOB_SHARES)
    shares = np.array([JOB_SHARES[c] for c in cats])
    drawn = rng.choice(len(cats), size=count, p=shares / shares.sum())
    heavy = rng.choice(USERS, size=len(HEAVY_CATEGORIES), replace=False)
    owner = dict(zip(HEAVY_CATEGORIES, (int(u) for u in heavy)))
    others = np.setdiff1d(np.arange(USERS), heavy)
    durations = {c: np.clip(duration_distribution(c).sample(count, rng),
                            1.0, MAX_DURATION_S) for c in cats}
    jobs = []
    for i, k in enumerate(drawn):
        cat = cats[k]
        user = owner.get(cat)
        if user is None:
            user = int(others[rng.integers(0, len(others))])
        jobs.append((user_name(user), float(durations[cat][i])))
    return jobs


def make_keys(rng: np.random.Generator, kind: str, count: int) -> List[str]:
    """Lookup keys: uniform over all users, or rank-Zipf over a shuffle."""
    if kind == "uniform":
        picks = rng.integers(0, USERS, size=count)
    else:
        ranks = np.arange(1, USERS + 1, dtype=np.float64)
        weights = ranks ** -ZIPF_S
        order = rng.permutation(USERS)
        picks = order[rng.choice(USERS, size=count, p=weights / weights.sum())]
    return [user_name(int(u)) for u in picks]
